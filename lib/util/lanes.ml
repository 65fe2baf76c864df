(* Lane sets: the bit-mask vocabulary of the bit-parallel campaign
   engine. A set is a native [int], so every set operation is one
   machine instruction; only iteration needs code. *)

let width = Sys.int_size
let ones n = if n >= width then -1 else (1 lsl n) - 1

(* Bit index of an isolated power of two, via the multiplicative order
   of 2 mod 67 (2 is a primitive root mod 67, so [2^k mod 67] is
   distinct for every k in 0..62). Bit 62 is the sign bit of a 63-bit
   OCaml int — [min_int land max_int = 0] — so it is special-cased
   rather than sent through [mod]. *)
let bit_index_tbl =
  let t = Array.make 67 0 in
  for k = 0 to 61 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let iter m f =
  let m = ref m in
  while !m <> 0 do
    let lsb = !m land - !m in
    f (if lsb < 0 then 62 else bit_index_tbl.(lsb mod 67));
    (* clear the lowest set bit: iterations = population count, not
       highest-bit position *)
    m := !m land (!m - 1)
  done

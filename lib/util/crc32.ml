(* CRC-32 (IEEE), table-driven, zlib-compatible: reflected polynomial
   0xEDB88320, initial value 0xFFFFFFFF, final xor 0xFFFFFFFF, with the
   inversions folded into [update] so a running value is always a
   finished CRC. *)

(* the running register is a native int holding 32 bits, so a byte
   costs one table load and no allocation *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update crc s =
  let c = ref (lnot (Int32.to_int crc) land 0xFFFFFFFF) in
  for k = 0 to String.length s - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s k)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xFFFFFFFF)

let string s = update 0l s

let to_hex c = Printf.sprintf "%08lx" c

(* Lane sets: the bit-mask vocabulary of the bit-parallel campaign
   engine, abstracted over its representation.

   The campaign driver and its backends manipulate *sets of lanes*
   (mutant slots inside one batch) with bitwise arithmetic. The native
   representation is an OCaml [int] — 63 lanes, zero overhead. The
   wide representation packs [n] lanes into an [int array] (63 bits
   per word), which is the OCaml-native variant of a Bytes-backed
   bit-slice: same memory layout up to word size, but unboxed word
   reads and no per-byte fixups.

   Values are immutable by contract: every operation allocates a fresh
   set (or returns a shared constant), so [zero] can be shared
   freely. *)

module type S = sig
  type t

  val width : int
  val zero : t
  val ones : int -> t
  val add : t -> int -> t
  val remove : t -> int -> t
  val mem : t -> int -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val is_empty : t -> bool

  val disjoint : t -> t -> bool
  (** [disjoint a b] is [is_empty (inter a b)] without the
      intersection being materialized. *)

  val iter : t -> (int -> unit) -> unit

  val iter2_inter : t -> t -> (int -> unit) -> unit
  (** [iter2_inter a b f] calls [f] on every lane in [a ∩ b] without
      materializing the intersection — the allocation-free form of
      [iter (inter a b) f] for per-step hot paths. Each word of the
      intersection is captured before its lanes are visited, so the
      callback may remove already-visited lanes from [a] or [b]
      (through whatever mutable cell holds them) without affecting the
      traversal. *)
end

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

let iter_word base m f =
  let m = ref m in
  while !m <> 0 do
    let lsb = !m land - !m in
    f (base + if lsb < 0 then 62 else bit_index_tbl.(lsb mod 67));
    (* clear the lowest set bit: iterations = population count, not
       highest-bit position *)
    m := !m land (!m - 1)
  done

module Native = struct
  type t = int

  let width = Sys.int_size
  let zero = 0
  let ones n = if n >= width then -1 else (1 lsl n) - 1
  let add m l = m lor (1 lsl l)
  let remove m l = m land lnot (1 lsl l)
  let mem m l = m land (1 lsl l) <> 0
  let union a b = a lor b
  let inter a b = a land b
  let diff a b = a land lnot b
  let is_empty m = m = 0
  let disjoint a b = a land b = 0
  let iter m f = iter_word 0 m f
  let iter2_inter a b f = iter_word 0 (a land b) f
end

(* Bits per word of the wide representation. 63 (not 64) so each word
   is an immediate OCaml [int]: no Int64 boxing on any operation. *)
let bits_per_word = Sys.int_size

module Wide (W : sig
  val lanes : int
end) =
struct
  let width =
    if W.lanes < 1 then invalid_arg "Lanes.Wide: width must be positive";
    W.lanes

  let nwords = (width + bits_per_word - 1) / bits_per_word

  (* Invariant: bits at positions >= width are always clear, so
     [is_empty] needs no trailing-word masking. *)
  type t = int array

  let zero = Array.make nwords 0

  let ones n =
    let n = min n width in
    if n <= 0 then zero
    else begin
      let a = Array.make nwords 0 in
      let wfull = n / bits_per_word and rem = n mod bits_per_word in
      Array.fill a 0 wfull (-1);
      if rem > 0 then a.(wfull) <- (1 lsl rem) - 1;
      a
    end

  (* Canonical empties: every operation whose result carries no bits
     returns the shared [zero] itself, so the hot-path emptiness tests
     below start with one physical-equality check instead of a word
     scan, and binary operations against an empty operand short-circuit
     without allocating. In the campaign steady state (no diverged
     lanes, no fault site on the current transition) this makes a wide
     step cost almost exactly a native-int step — which is what lets
     512-lane batches beat the 63-lane baseline instead of drowning the
     saved golden passes in per-word overhead. *)

  let add m l =
    let a = if m == zero then Array.make nwords 0 else Array.copy m in
    let w = l / bits_per_word in
    a.(w) <- a.(w) lor (1 lsl (l mod bits_per_word));
    a

  let remove m l =
    if m == zero then zero
    else begin
      let a = Array.copy m in
      let w = l / bits_per_word in
      a.(w) <- a.(w) land lnot (1 lsl (l mod bits_per_word));
      let rec all0 i = i >= nwords || (a.(i) = 0 && all0 (i + 1)) in
      if all0 0 then zero else a
    end

  let mem m l = m.(l / bits_per_word) land (1 lsl (l mod bits_per_word)) <> 0

  (* [nz] accumulates the or of all result words as they are written,
     so detecting an all-zero result costs nothing extra. The word
     loops below use unsafe accesses: every index is bounded by
     [nwords], the length of every [t] by construction. *)
  let map2 op a b =
    let r = Array.make nwords 0 in
    let nz = ref 0 in
    for i = 0 to nwords - 1 do
      let w = op (Array.unsafe_get a i) (Array.unsafe_get b i) in
      Array.unsafe_set r i w;
      nz := !nz lor w
    done;
    if !nz = 0 then zero else r

  let union a b =
    if a == zero then b else if b == zero then a else map2 ( lor ) a b

  let inter a b = if a == zero || b == zero then zero else map2 ( land ) a b
  let diff a b = if a == zero || b == zero then a else map2 (fun x y -> x land lnot y) a b

  let is_empty m =
    m == zero
    ||
    let rec go i = i >= nwords || (Array.unsafe_get m i = 0 && go (i + 1)) in
    go 0

  let disjoint a b =
    a == zero || b == zero
    ||
    let rec go i =
      i >= nwords
      || (Array.unsafe_get a i land Array.unsafe_get b i = 0 && go (i + 1))
    in
    go 0

  let iter m f =
    if m != zero then
      for i = 0 to nwords - 1 do
        let w = Array.unsafe_get m i in
        if w <> 0 then iter_word (i * bits_per_word) w f
      done

  let iter2_inter a b f =
    if a != zero && b != zero then
      for i = 0 to nwords - 1 do
        let w = Array.unsafe_get a i land Array.unsafe_get b i in
        if w <> 0 then iter_word (i * bits_per_word) w f
      done
end

let make n : (module S) =
  if n < 1 then invalid_arg "Lanes.make: width must be positive";
  if n <= Sys.int_size then (module Native)
  else
    (module Wide (struct
      let lanes = n
    end))

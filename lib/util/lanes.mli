(** Lane sets for the bit-parallel campaign engine.

    A lane set is a subset of [0 .. width-1] — the mutant slots of one
    campaign batch — with the bitwise operations the driver and its
    backends perform on batch masks. Two representations:

    - {!Native}: a plain OCaml [int], [Sys.int_size] (= 63) lanes.
      Every operation is one machine instruction.
    - {!Wide}: [n] lanes packed into an [int array], 63 bits per word
      (each word an immediate int — the OCaml-native variant of a
      [Bytes] bit-slice, without per-byte fixups or Int64 boxing).

    Values are immutable by contract: operations never mutate their
    arguments, so the shared {!S.zero} constant is safe to reuse. Bits
    at positions [>= width] are never set, so [is_empty] is
    representation-exact. Every operation whose result is empty
    returns {!S.zero} itself (physically), so callers may test
    emptiness with [== zero]. *)

module type S = sig
  type t

  val width : int
  (** Number of lanes this representation carries per batch. *)

  val zero : t

  val ones : int -> t
  (** [ones n] is the set of lanes [0 .. n-1], clamped to [width]. *)

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
  (** Calls [f] on each member lane in ascending order. *)

  val iter2_inter : t -> t -> (int -> unit) -> unit
  (** [iter2_inter a b f] calls [f] on every lane of [a ∩ b] in
      ascending order without materializing the intersection — the
      allocation-free form of [iter (inter a b) f]. Each word of the
      intersection is captured before its lanes are visited, so the
      callback may remove already-visited lanes from whatever mutable
      cell holds [a] or [b] without affecting the traversal. *)
end

module Native : S with type t = int
(** The 63-lane native-int path: [width = Sys.int_size]. *)

module Wide (_ : sig
  val lanes : int
end) : S
(** [Wide(struct let lanes = n end)] carries [n] lanes per batch.
    @raise Invalid_argument if [n < 1]. *)

val make : int -> (module S)
(** [make n] picks the representation for [n] lanes at runtime:
    {!Native} when [n <= Sys.int_size], a {!Wide} instance otherwise.
    @raise Invalid_argument if [n < 1]. *)

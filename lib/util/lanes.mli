(** Lane sets for the bit-parallel campaign engine.

    A lane set is a subset of [0 .. width-1] — the mutant slots of one
    campaign batch — held in a native OCaml [int]: lane [l] is a
    member when bit [l] is set. Union, intersection and difference are
    the [lor], [land] and [land lnot] operators; bit 62 (the sign bit
    of a 63-bit [int]) is an ordinary lane. *)

val width : int
(** Lanes per batch: [Sys.int_size] (63). *)

val ones : int -> int
(** [ones n] is the set of lanes [0 .. n-1], clamped to [width]. *)

val iter : int -> (int -> unit) -> unit
(** [iter s f] calls [f] on each member lane of [s] in ascending
    order; the work is proportional to the number of members. *)

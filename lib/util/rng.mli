(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the project flows through this module so that every
    experiment and property test is reproducible from a fixed seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** Derive a statistically independent generator (for parallel streams). *)

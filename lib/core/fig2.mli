(** The paper's Figure 2: the limitation of transition tours.

    A fragment of a test model where a transfer error on the [a]
    transition out of state 2 (to 3' instead of 3) is exposed by the
    continuation [b] (different outputs from 3 and 3') but not by [c]
    (same output). A transition tour that happens to cover the [a]
    transition followed by [c] never exposes the error.

    Two machines are provided: the [original] (outputs on [c]
    collide), and the [repaired] one where the state reached through
    the error is ∀1-distinguishable (the [c] outputs differ too — the
    Requirement 5 style fix), for which {e every} tour exposes the
    error. *)

open Simcov_fsm

val original : Fsm.t
(** 7 states (3' and 4' unreachable in the correct machine), inputs
    a, b, c, r, d: [r] closes the loop back to state 1, and [d] is a
    direct edge 1 -> 3 so a tour can cover the [b]/[c] transitions out
    of 3 while traversing the error-prone (2, a) transition exactly
    once. *)

val repaired : Fsm.t
(** Same structure with distinct outputs on [c] from 3 and 3'. *)

type row = {
  machine : string;
  tour : string;
  is_tour : bool;
  detected : bool;
}

val experiment : unit -> row list
(** The Figure 2 demonstration: the 2 -a-> 3' transfer error against
    two transition tours, one whose [a]-coverage continues with [b]
    and one whose continues with [c], on both machines. On [original]
    the [c] tour misses the error; on [repaired] every tour catches
    it. *)

val random_tour_detection : Simcov_util.Rng.t -> n:int -> Fsm.t -> int
(** Of [n] random covering walks (greedy with randomized tie-breaks is
    approximated by random walks extended to full coverage), how many
    detect the transfer error. *)

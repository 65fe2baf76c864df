(** UIO sequences and checking sequences.

    The paper's completeness argument is motivated by protocol
    conformance testing (Dahbura-Sabnani-Uyar; Aho-Dahbura-Lee-Uyar's
    rural-Chinese-postman optimization, both cited in Section 3). A
    {e UIO sequence} for state [s] is an input word whose output from
    [s] differs from its output from every other state — a per-state
    identity check. A {e checking sequence} verifies every transition
    by driving to its source, applying it, and confirming the
    destination with the destination's UIO.

    Checking sequences expose transfer errors even on machines that
    are not ∀k-distinguishable (where plain transition tours can miss,
    Figure 2) — at the price of longer tests. They are the natural
    baseline for the paper's Requirements: either make the test model
    ∀k-distinguishable and use a plain tour (Theorem 1), or pay for
    per-transition verification. *)

open Simcov_fsm

val uio : ?scope:[ `Reachable | `All ] -> ?max_len:int -> Fsm.t -> int -> int list option
(** [uio m s] is a shortest input word separating [s] from every other
    state by outputs (validity differences count as separations), or
    [None] if none exists within [max_len] (default 8) — e.g. when
    another state is equivalent to [s].

    [scope] selects the states [s] must be told apart from:
    [`Reachable] (default) or [`All]. Conformance testing against
    implementations whose faults may land in states that are
    unreachable in the correct machine (the 3' of Figure 2) needs
    [`All].

    Only words valid from [s] are considered; a word that is invalid
    from some other state at a step where the outputs so far agree
    separates that state (the simulator would observe the rejection). *)

val all_uios :
  ?scope:[ `Reachable | `All ] -> ?max_len:int -> Fsm.t -> int list option array
(** UIO for every state ([None] entries for unreachable states or
    states without a UIO within the bound). *)

val checking_sequence :
  ?scope:[ `Reachable | `All ] -> ?max_len:int -> Fsm.t -> int list option
(** A single input word from reset that, for every reachable
    transition (s, i): drives the machine to [s] (shortest path),
    applies [i], and applies the UIO of the destination. [None] when
    some reachable state lacks a UIO within the bound.

    No attempt is made at rural-postman optimality; the greedy
    concatenation is within a small factor on the models here and
    keeps the construction transparent. *)

val length_overhead : Fsm.t -> (int * int) option
(** [(tour_length, checking_length)] for models where both exist —
    the cost of transfer-error certainty without ∀k assumptions. *)

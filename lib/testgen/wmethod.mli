(** The W-method (Chow): characterization sets and P·W test suites.

    The classical alternative to tour-based testing: a
    {e characterization set} W distinguishes every pair of
    inequivalent states; the test suite applies every word of the
    {e transition cover} P followed by every word of W, resetting
    between tests. Complete for implementations with no more states
    than the specification — without the paper's ∀k assumptions, but
    at a multiplicative |P|·|W| cost and requiring a reliable reset.

    Included as the second conformance-testing baseline next to
    {!Uio}: the tour-length ablation compares one certified tour
    against these suites, and a suite's mutant kill count comes from
    the same campaign engine as every other coverage number. *)

open Simcov_fsm

val characterization_set :
  ?scope:[ `Reachable | `All ] -> Fsm.t -> int list list
(** A set W of input words such that every pair of distinct,
    inequivalent states is separated by some word (by outputs or
    validity). Greedy cover over pairwise shortest distinguishing
    words; empty list for the 1-state machine. Pairs of equivalent
    states are ignored (no word can separate them). [scope] defaults
    to [`Reachable]; use [`All] when implementation faults can land in
    specification states that are unreachable in the correct machine
    (Figure 2's 3'). *)

val transition_cover : Fsm.t -> int list list
(** P: the empty word plus, for every reachable transition (s, i), a
    shortest access word to [s] extended with [i]. *)

val suite : ?scope:[ `Reachable | `All ] -> Fsm.t -> int list list
(** The W-method test suite P·W (with W = {ε} fallback when the
    characterization set is empty). Each word runs from reset. *)

val total_length : int list list -> int
(** Input symbols summed over the suite — the cost measure. *)

val campaign :
  Fsm.t -> Simcov_coverage.Fault.t list -> int list list -> Simcov_coverage.Detect.report
(** Campaign over a word suite: one campaign of the engine
    ({!Simcov_coverage.Detect}) per word, each run from reset. A fault
    is excited (detected) when any word excites (detects) it; the
    report's backend is ["fsm-fault/wmethod"] and its missed faults
    come in fault order. *)

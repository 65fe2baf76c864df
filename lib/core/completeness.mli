(** Completeness certification for transition tours (Theorems 1–3).

    Theorem 1: if all output errors are uniform (Requirement 1) and
    all states of the test model are ∀k-distinguishable from each
    other for some fixed k, then a transition tour of the test model
    is sufficient to expose all errors through simulation.

    [certify] establishes the machine-checkable half of that
    statement on a concrete test model: ∀k-distinguishability of every
    reachable state pair, and strong connectivity of the reachable
    transition graph (so a closed tour exists). Requirement 1 lives on
    the abstraction side and is checked separately
    ({!Requirements}). Both facts are {!Simcov_testgen.Tour.facts}; a
    caller already holding them certifies with {!of_facts}. *)

open Simcov_fsm

type certificate = {
  k : int;  (** every distinct reachable pair is ∀k-distinguishable *)
  n_states : int;  (** reachable states *)
  n_transitions : int;
  tour_length : int;  (** optimal (Chinese-postman) tour length *)
  word : int list;
      (** the optimal tour padded by [k] steps ({!Simcov_testgen.Tour.pad}):
          Theorem 1's test, solved once when the certificate is built *)
}

type failure =
  | Not_strongly_connected
  | Indistinguishable_pair of int * int
      (** the first pair ({!Simcov_fsm.Fsm.min_forall_k}) not
          ∀k-distinguishable within the bound — either a larger k is
          needed or Requirement 5 is violated *)

val certify :
  ?scope:[ `Reachable | `All ] -> ?k_bound:int -> Fsm.t -> (certificate, failure) result
(** Find the smallest [k <= k_bound] (default 8) making every distinct
    pair of states ∀k-distinguishable ({!Simcov_fsm.Fsm.min_forall_k}),
    and build the optimal tour and its padded word. A machine with no
    closed tour fails with [Not_strongly_connected] first.

    [scope] (default [`Reachable]) selects the pairs that must be
    distinguishable. Use [`All] when implementation transfer errors
    can land in specification states that are unreachable in the
    correct machine — Figure 2's 3' is such a state, and the original
    fragment certifies under [`Reachable] yet its tours still miss the
    error; under [`All] certification correctly refuses.
    @raise Invalid_argument if [k_bound < 1]. *)

val of_facts :
  Fsm.t -> Simcov_testgen.Tour.facts -> (certificate, failure) result
(** [certify ?scope ?k_bound m] is [of_facts m (Tour.facts ?scope ?k_bound m)]. *)

val padded_tour : Fsm.t -> certificate -> int list
(** The certificate's [word]: its tour followed by [k] extra valid
    steps, so that even a transfer error excited on the tour's last
    transition has the [k] subsequent steps Theorem 1 needs for
    exposure. Nothing is re-solved; the machine argument is ignored. *)

val campaign_word : Fsm.t -> certificate option -> int list
(** The stimulus a fault campaign replays: the certificate's padded
    tour; without a certificate, the greedy transition tour, or the
    transition cover when no closed tour exists. *)

val check_empirically :
  ?count:int ->
  Simcov_util.Rng.t ->
  Fsm.t ->
  certificate ->
  Simcov_coverage.Detect.report
(** Fault-inject the test model ([count] random errors of each kind,
    default 200) and run the padded tour: under the certificate every
    effective fault must be detected. Returns the campaign report (the
    caller asserts [coverage_pct = 100]). *)

(** Test-set generation from test models (Section 6.5).

    A {e transition tour} is an input word, applied from the reset
    state, that traverses every reachable valid transition at least
    once. The minimum-length tour is obtained by reduction to the
    directed Chinese postman problem, "which can be solved in
    polynomial time" (the paper cites Aho et al.'s rural-postman
    formulation); a greedy nearest-first heuristic and a random walk
    are provided as the baselines of the tour-length ablation. *)

open Simcov_fsm

type result = {
  word : int list;  (** input word from reset *)
  length : int;
  n_transitions : int;  (** transitions that had to be covered *)
  extra : int;  (** traversals beyond one per transition *)
}

val transition_tour : Fsm.t -> result option
(** Minimum-length transition tour (closed: returns to reset). [None]
    when the reachable transition graph is not strongly connected, in
    which case no closed tour exists — see {!transition_cover}. *)

(** The facts Theorem 1's completeness rests on, solved once per
    machine and read by fsm-lint, Requirements and the certificate. *)
type facts = {
  k_bound : int;  (** the bound the ∀k search ran under *)
  forall_k : (int, int * int) Stdlib.result;  (** {!Simcov_fsm.Fsm.min_forall_k} *)
  tour : result option;  (** {!transition_tour} *)
}

val facts : ?scope:[ `Reachable | `All ] -> ?k_bound:int -> Fsm.t -> facts
(** One ∀k search (default [k_bound] 8) and one Chinese-postman solve.
    @raise Invalid_argument if [k_bound < 1]. *)

val forall_1 : Fsm.t -> facts -> (int, int * int) Stdlib.result
(** Requirement 5's ∀1 verdict over the reachable pairs: read off
    [facts] when they certify [k = 1], searched otherwise. *)

val pad : Fsm.t -> k:int -> int list -> int list
(** [pad m ~k word] is [word] followed by [k] more valid steps from
    the state where [word] ends (the first valid input each time;
    fewer if a state accepts none). Theorem 1's test is the tour padded
    by the certified [k]: even an error excited on the tour's last
    transition then gets the [k] steps it needs to show.
    @raise Invalid_argument if [word] applies an invalid input. *)

val greedy_transition_tour : Fsm.t -> result option
(** Nearest-uncovered-transition heuristic; same coverage, usually
    longer. *)

val state_tour : Fsm.t -> result option
(** Word visiting every reachable state at least once (state coverage
    in the sense of Iwashita et al., the weaker measure the paper
    contrasts with). [n_transitions] reports the state count. *)

val transition_cover : Fsm.t -> result
(** Fallback for non-strongly-connected models: restart from reset
    whenever no uncovered transition is reachable, concatenating
    segments. The result's [word] is only meaningful for machines with
    a reset input — segments are separated implicitly by returning to
    reset, so [word] is a list of segments flattened; use
    {!transition_cover_segments} when the segments matter. *)

val transition_cover_segments : Fsm.t -> int list list
(** The individual reset-to-end segments of {!transition_cover}. *)

val shortest_input_path : Fsm.t -> src:int -> dst:int -> int list option
(** Shortest input word driving the machine from [src] to [dst]
    (empty when equal; [None] when unreachable). *)

val random_word : Simcov_util.Rng.t -> Fsm.t -> length:int -> int list
(** Random valid walk from reset (uniform over valid inputs per
    state). Stops early only if a state has no valid input. *)

val word_is_tour : Fsm.t -> int list -> bool
(** Check that a word is a transition tour (coverage, not minimality).
    A word containing an input that is invalid in the state where it
    is applied is rejected outright — even if the prefix before the
    invalid input already covers every transition — because such a
    word cannot be replayed on the implementation. *)

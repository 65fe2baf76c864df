(** The FSM error model of Section 4.1.

    Every implementation error is modeled as an {e output error}
    (Definition 1: some transition produces the wrong output) or a
    {e transfer error} (Definition 3: some transition goes to the wrong
    state), following the protocol conformance-testing fault model the
    paper builds on. A fault applied to a machine yields a mutant that
    shares the original's tables (no copying). *)

open Simcov_fsm

type t =
  | Transfer of { state : int; input : int; wrong_next : int }
  | Output of { state : int; input : int; wrong_output : int }
  | Conditional_output of {
      state : int;
      input : int;
      wrong_output : int;
      prev : int * int;
          (** the fault manifests only when the immediately preceding
              transition was [prev] — a {e non-uniform} output error
              (Definition 2 fails): only some histories reaching the
              transition expose it. This is the machine-level form of
              the Section 6.3 interlock example. *)
    }

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val key : t -> string
(** A stable, injective textual key (["t:s:i:w"], ["o:s:i:w"],
    ["c:s:i:w:ps:pi"]) — the coverage-database record key: equal faults
    have equal keys across runs and processes. *)

val to_json : t -> Simcov_util.Json.t
(** Structured rendering for campaign reports ([kind] plus the site and
    wrong-value fields). *)

val apply : Fsm.t -> t -> Fsm.t
(** The mutant machine. Validity is unchanged; only the faulted
    [(state, input)] entry's next state or output differs.
    [Conditional_output] faults depend on one transition of history, so
    the mutant machine's state space is the pair (original state,
    previous transition class); [apply] returns an enlarged machine
    whose states [s * 2 + h] track whether the previous transition was
    [prev] ([h = 1]). Its reset is [reset * 2]. Outputs and validity
    project back onto the original machine's, so lockstep comparison
    against the original golden machine remains meaningful. *)

val apply_all : Fsm.t -> t list -> Fsm.t
(** Multiple simultaneous faults (later faults win on the same
    transition). Used for masking experiments. *)

val site : t -> int * int
(** The faulted [(state, input)] pair. *)

val is_uniform_kind : t -> bool
(** [Transfer] and [Output] faults misbehave on every traversal of
    their site; [Conditional_output] faults do not. *)

val is_effective : Fsm.t -> t -> bool
(** False for degenerate faults ([wrong_next] equal to the correct next
    state, or [wrong_output] equal to the correct output), or faults on
    invalid transitions. *)

(** {1 Fault enumeration} *)

val all_output_faults : ?wrong:(int -> int) -> Fsm.t -> t list
(** One output fault per reachable transition; [wrong] maps the correct
    output to the faulty one (default [succ]). *)

val all_transfer_faults : Fsm.t -> t list
(** Every reachable transition redirected to every other reachable
    state. Quadratic — intended for small test models. *)

val sample_transfer_faults : Simcov_util.Rng.t -> Fsm.t -> count:int -> t list
(** Random effective transfer faults (reachable transition, random
    reachable wrong destination). Duplicates are filtered, so fewer
    than [count] faults may be returned on tiny machines. *)

val sample_output_faults :
  Simcov_util.Rng.t -> Fsm.t -> n_outputs:int -> count:int -> t list

val sample_faults : Simcov_util.Rng.t -> Fsm.t -> count:int -> t list
(** An FSM campaign's population: up to [count] transfer faults, then
    up to [count] output faults (drawn from [rng] first) whose wrong
    outputs stay below one past the largest reachable output. *)

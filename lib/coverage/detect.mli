(** Error detection by simulation, masking, and coverage campaigns.

    A fault is {e excited} when the faulted transition is traversed and
    {e exposed} (detected) when the observed outputs of the mutant
    differ from the golden machine's — possibly several steps later,
    which is exactly the gap between excitation and exposure that
    Section 4.2 illustrates with Figure 2.

    Campaigns route through the shared {!Simcov_campaign.Campaign}
    driver: mutants are packed into int bit lanes and evaluated with
    one golden pass per word instead of one full rerun per fault. The
    scalar path ({!run_verdict}, {!campaign_scalar}) is retained as the
    executable reference the batched engine is tested against. *)

open Simcov_fsm
module Campaign = Simcov_campaign.Campaign

type verdict = Campaign.verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;  (** first step (0-based) with an observable difference *)
  excite_step : int option;  (** first traversal of the faulted transition (golden path) *)
}

val run_verdict : Fsm.t -> Fault.t -> int list -> verdict
(** Simulate golden and mutant in lockstep on the input word. An
    observable difference is a differing output or an input that is
    valid in one machine's current state and not the other's. The word
    is truncated at the first input invalid in {e both} runs.
    Excitation is recorded whenever the golden run traverses the fault
    site — including on the step whose validity mismatch detects the
    fault. *)

val detects : Fsm.t -> Fault.t -> int list -> bool

(** {1 Campaigns} *)

type 'f campaign_report = 'f Campaign.report = {
  backend : string;
  total : int;
  effective : int;  (** faults that actually change behavior locally *)
  excited : int;
  detected : int;
  missed : 'f list;  (** effective, excited, yet undetected *)
  skipped : int;  (** effective faults left unevaluated by truncation *)
  truncated : Simcov_util.Budget.resource option;
  shard_failures : Campaign.shard_failure list;
      (** shards lost to worker faults under [~jobs]; empty on healthy
          runs *)
}
(** The shared campaign report, re-exported so existing field accesses
    ([r.Detect.total], …) keep working. *)

type report = Fault.t campaign_report

val campaign :
  ?budget:Simcov_util.Budget.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  Fsm.t ->
  Fault.t list ->
  int list ->
  report
(** Bit-parallel batched campaign via the shared driver. Budget
    exhaustion yields a [truncated] partial report, never an
    exception.

    [lanes] selects the lane representation of the one FSM backend:
    up to [Sys.int_size] (the default) packs a batch into one native
    int; wider values use a bit-sliced set of that many lanes, so one
    golden pass evaluates that many mutants.
    [jobs > 1] shards the effective faults across that many domains
    (see {!Simcov_campaign.Campaign}'s determinism contract).
    @raise Invalid_argument if [lanes < 1]. *)

val campaign_outcome :
  ?budget:Simcov_util.Budget.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?max_workers:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  ?resume:(Fault.t -> Campaign.verdict option) ->
  ?checkpoint:Fault.t Campaign.checkpoint ->
  ?should_stop:(unit -> bool) ->
  ?shard_retries:int ->
  ?retry_backoff_s:float ->
  Fsm.t ->
  Fault.t list ->
  int list ->
  Fault.t Campaign.outcome
(** As {!campaign}, additionally returning per-fault verdicts, and
    exposing the driver's crash-safety hooks: [resume] retires
    already-decided faults, [checkpoint] flushes cumulative verdicts
    periodically, [should_stop] requests a clean early stop, and a
    worker exception costs at most one shard (reported in
    [shard_failures] after [shard_retries] fresh-domain retries). *)

val campaign_scalar : Fsm.t -> Fault.t list -> int list -> Fault.t Campaign.outcome
(** The scalar reference: one {!run_verdict} rerun per effective fault.
    Same verdicts and report as {!campaign} under an unlimited budget. *)

val coverage_pct : report -> float
(** [100 * detected / effective] (100.0 when there are no effective
    faults). *)

val pp_report : Format.formatter -> report -> unit

val to_json :
  ?extra:(string * Simcov_util.Json.t) list -> report -> Simcov_util.Json.t
(** [simcov-campaign/1] rendering with structured missed faults. *)

(** {1 Masking (Definition 4)} *)

val masked_windows : Fsm.t -> Fsm.t -> int list -> (int * int) list
(** Run golden and mutant on the word; return the maximal index windows
    [(j, l)] in which the state trajectories diverge at [j] and
    re-converge at [l] with no observable output difference inside —
    the operational form of a masked transfer error. An empty list
    means the trajectories never diverged or every divergence was
    exposed or never closed. *)

val has_masked_transfer : Fsm.t -> Fault.t list -> int list -> bool
(** Whether applying the faults produces at least one masked window on
    the word — used to check Requirement 4 experimentally. *)

(** {1 Transition coverage of a word} *)

val transitions_covered : Fsm.t -> int list -> (int * int) list
(** Distinct (state, input) pairs traversed by the word from reset. *)

val is_transition_tour : Fsm.t -> int list -> bool
(** Does the word traverse every reachable valid transition? *)

val state_coverage : Fsm.t -> int list -> int
val transition_coverage : Fsm.t -> int list -> int

(** Error detection by simulation, masking, and coverage campaigns.

    A fault is {e excited} when the faulted transition is traversed and
    {e exposed} (detected) when the observed outputs of the mutant
    differ from the golden machine's — possibly several steps later,
    which is exactly the gap between excitation and exposure that
    Section 4.2 illustrates with Figure 2. A transfer error is
    {e masked} (Definition 4) when the mutant's state leaves the golden
    one and silently rejoins it.

    Campaigns route through the shared {!Simcov_campaign.Campaign}
    driver: mutants are packed into the 63 bit lanes of a native int,
    and a batch visits only the steps of the word at which one of its
    live mutants can differ from the golden machine — the golden
    run's traversals of their fault sites, and every step while a
    transfer mutant's state is diverged. This engine is the library's
    one FSM fault simulator: coverage, Requirement 4's masking scan,
    the SA640/SA641 lint checks, W-method suites and the Figure 2 demo
    all read its verdicts. The one-fault closure-mutant replays (a
    lockstep verdict, Definition 4's masking windows) are the
    references it is tested against, in the test suite. *)

open Simcov_fsm
module Campaign = Simcov_campaign.Campaign

type verdict = Campaign.verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;  (** first step (0-based) with an observable difference *)
  excite_step : int option;  (** first traversal of the faulted transition (golden path) *)
  masked_step : int option;
      (** the close of a transfer fault's first masking window: the
          first step after which the mutant's state silently equals the
          golden one again, before any detection. The window opens at
          [excite_step]: the mutant is the golden machine until the
          golden run traverses the fault site, and an effective fault
          diverges there. A lane that rejoins and is detected later
          still carries it; output and conditional-output faults never
          do. *)
}
(** An observable difference is a differing output or an input that is
    valid in one machine's current state and not the other's. The word
    is truncated at the first input the golden machine rejects; a
    diverged mutant that accepts it is detected there. Excitation is
    recorded whenever the golden run traverses the fault site —
    including on the step whose validity mismatch detects the fault. *)

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
      (** shards lost to worker faults; empty on healthy runs *)
}
(** The shared campaign report, re-exported so existing field accesses
    ([r.Detect.total], …) keep working. *)

type report = Fault.t campaign_report

val campaign :
  ?budget:Simcov_util.Budget.t ->
  ?jobs:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  Fsm.t ->
  Fault.t list ->
  int list ->
  report
(** Bit-parallel batched campaign via the shared driver. The golden
    run over the word is indexed once, before sharding: for every
    transition, the steps at which the golden run traverses it (up to
    the first input it rejects). Budget exhaustion yields a
    [truncated] partial report, never an exception.
    [jobs > 1] shards the effective faults across that many domains
    (see {!Simcov_campaign.Campaign}'s determinism contract). *)

val campaign_outcome :
  ?budget:Simcov_util.Budget.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?max_workers:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  ?resume:(Fault.t -> Campaign.verdict option) ->
  ?checkpoint:Fault.t Campaign.checkpoint ->
  ?should_stop:(unit -> bool) ->
  Fsm.t ->
  Fault.t list ->
  int list ->
  Fault.t Campaign.outcome
(** As {!campaign}, additionally returning per-fault verdicts, and
    exposing the driver's crash-safety hooks: [resume] retires
    already-decided faults, [checkpoint] flushes cumulative verdicts
    periodically, [should_stop] requests a clean early stop, and a
    worker exception costs at most one shard (reported in
    [shard_failures], not retried).

    [lanes] is ignored: every batch carries 63 lanes. It is kept only
    because the frozen benchmark harness ([perfbench/]) passes it. *)

val unrecorded_outcome :
  Fsm.t -> Fault.t list -> int list -> Fault.t Campaign.outcome
(** {!campaign_outcome} under a throwaway {!Simcov_obs.Obs} registry:
    the engine run behind a check (Requirement 4, SA640, SA641) leaves
    the caller's [campaign.*] metrics and trace untouched, so a job's
    metrics count only the campaigns it reports. *)

val coverage_pct : report -> float
(** [100 * detected / effective] (100.0 when there are no effective
    faults). *)

val pp_report : Format.formatter -> report -> unit

val to_json :
  ?extra:(string * Simcov_util.Json.t) list -> report -> Simcov_util.Json.t
(** [simcov-campaign/1] rendering with structured missed faults. *)

(** {1 Coverage of a word's {!Simcov_fsm.Fsm.replay}} *)

val state_coverage : Fsm.t -> int list -> int
val transition_coverage : Fsm.t -> int list -> int

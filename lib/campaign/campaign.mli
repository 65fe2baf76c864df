(** Engine-agnostic fault-simulation campaigns.

    Every coverage number in the methodology is produced by the same
    experiment: instantiate a population of faulty variants of a golden
    model, replay a stimulus word against golden and variants in
    lockstep, and classify each fault as effective / excited / detected
    / missed. The three fault domains in this repository — FSM error
    models (Definitions 1–4), netlist stuck-at faults, and the DLX
    pipeline bug catalog — used to run this experiment through three
    disjoint scalar loops. This module factors the experiment itself
    out: a {!BACKEND} describes one fault domain (how to batch mutants
    and what one lockstep step observes) and {!Make} provides the single
    campaign driver, which is

    - {e bit-parallel}: mutants are packed into the lanes of a native
      OCaml [int] ({!Simcov_util.Lanes}, 63 lanes), so one golden pass
      over the word evaluates a whole batch: the classic
      parallel-pattern fault-simulation trick. There is one lane
      width: the [?lanes] arguments of [Detect.campaign_outcome] and
      [Stuckat.campaign_outcome] and the job field [cov_lanes] are
      ignored, kept only because the frozen benchmark harness
      ([perfbench/]) sets them;
    - {e event-driven}: the backend names the next step at which a
      live lane's verdict can change ({!BACKEND.next}), and the driver
      visits only those steps. The FSM backend skips every step at
      which no live mutant differs from the golden machine; the
      stuck-at and bug backends visit every step;
    - {e domain-parallel}: [run ~jobs:n] splits the effective-fault
      array into [n] contiguous shards, runs them on [Domain.spawn]
      workers with sub-budgets carved by {!Simcov_util.Budget.split},
      and merges the shard reports deterministically (see below). There
      is one run path: [jobs = 1] is the one-shard case, run on the
      caller's domain;
    - {e budget-aware}: {!Simcov_util.Budget} is checkpointed between
      batches and exhaustion yields a [truncated]-tagged partial report
      (whole batches are evaluated or skipped, never split); the driver
      never raises on exhaustion;
    - {e observable}: a per-batch {!progress} callback carries
      throughput counters for CLI and bench reporting; the shared
      counters are atomics and the callback is serialized.

    Each backend has a one-mutant-at-a-time scalar reference in the
    test suite ([test/oracles.ml]); those are the oracle the batched
    driver is tested against.

    {b Determinism / merge contract.} Shards are contiguous slices of
    the effective-fault array in fault order (a pure function of
    [(n, jobs)]; see {!shard_ranges}). Each shard evaluates whole
    batches in order, so its evaluated faults are a prefix of the
    shard; the merged [verdicts] list is the concatenation of shard
    prefixes in shard order, every evaluated verdict is identical to
    the scalar run's verdict for that fault, [truncated] is the first
    shard's truncation reason in shard order (so [Some] iff any shard
    was truncated), and [effective]/[skipped] count evaluated and
    unevaluated effective faults across all shards. With an unlimited
    budget the report is the same at every [jobs].

    Lane encoding: lane [l] of a batch is fault [l] of the fault array
    passed to {!BACKEND.start}; a lane set has lane [l] as a member
    when bit [l] is set. Bit 62 (the sign bit of a 63-bit OCaml [int])
    is an ordinary lane — all lane-set operations are bitwise. *)

module Budget = Simcov_util.Budget

(** {1 Verdicts and step events} *)

type verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;  (** first step (0-based) with an observable difference *)
  excite_step : int option;  (** first step the golden run traverses the fault site *)
  masked_step : int option;
      (** first step (0-based) at which the mutant's state silently
          rejoined the golden state before any detection: the close of
          its first masking window (Definition 4). Only a backend that
          tracks per-lane state divergence reports one (the FSM
          backend, for transfer faults). Neither rendered in
          [simcov-campaign/1] nor persisted in a coverage snapshot, so
          a resumed verdict reads [None]. *)
}

type lane_event = {
  excited : int;  (** lane set whose fault site the golden run traversed this step *)
  detected : int;  (** lane set with an observable difference this step *)
  rejoined : int;
      (** lane set whose state silently rejoined the golden state this
          step (no observable difference); [0] for a backend without
          per-lane state divergence *)
  halt : bool;
      (** the golden run cannot continue (stimulus invalid for the
          golden model); the batch stops after this event's lane sets
          are folded in *)
}

(** {1 Backends} *)

(** One fault domain: a golden model type, a fault type, a stimulus
    type, and a batched lockstep simulator over native-[int] lane
    sets. One batch carries up to [min max_lanes Lanes.width]
    mutants. *)
module type BACKEND = sig
  type ctx  (** the golden model, possibly pre-tabulated *)

  type fault
  type stim  (** one element of the stimulus word *)

  val name : string
  (** Backend tag recorded in reports (["fsm-fault"], ["stuck-at"], …). *)

  val max_lanes : int
  (** Upper bound on lanes per batch; the driver uses
      [min max_lanes Lanes.width]. A scalar backend declares [1]. *)

  val effective : ctx -> fault -> bool
  (** Faults that actually change behavior locally; ineffective faults
      count toward [total] only and are never simulated. *)

  type batch
  (** Mutable lockstep state for one batch of faults (golden state plus
      per-lane mutant state). *)

  val start : ctx -> fault array -> batch
  (** Begin a batch at reset. The array has at most
      [min max_lanes Lanes.width] entries, all effective. *)

  val next : batch -> active:int -> int -> int
  (** [next b ~active t] is the first step at or after [t] at which
      {!step} can report an event for a lane of [active], and
      positions the batch there; a step it skips must be one where
      [step] would report nothing for [active]. A result at or past
      the word's end ends the batch. A backend that cannot tell
      returns [t]. *)

  val step : batch -> active:int -> stim -> lane_event
  (** Simulate the step {!next} positioned the batch at, on that
      step's stimulus element. [active] is the lane set still
      undetected; lanes outside it need not be simulated precisely
      (the driver masks the returned lane sets with [active]). *)
end

(** {1 Reports} *)

type shard_failure = {
  shard : int;  (** index into {!shard_ranges}'s decomposition *)
  faults : int;  (** effective faults the failed shard was assigned *)
  error : string;  (** [Printexc.to_string] of the worker's exception *)
}
(** A shard whose worker raised; its faults are counted in [skipped].
    It is not retried: its verdicts are a pure function of
    [(fault, word)], so a second run could only fail again. *)

type 'f report = {
  backend : string;
  total : int;  (** faults submitted, including ineffective ones *)
  effective : int;  (** effective faults actually evaluated *)
  excited : int;
  detected : int;
  missed : 'f list;  (** effective, excited, yet undetected *)
  skipped : int;  (** effective faults left unevaluated by truncation *)
  truncated : Budget.resource option;
      (** [Some r] when the budget ran out mid-campaign; the counters
          then describe the evaluated shard prefixes of the fault list *)
  shard_failures : shard_failure list;
      (** shards lost to worker faults, in shard order, at every
          [jobs]; empty on any healthy run *)
}

val coverage_pct : 'f report -> float
(** [100 * detected / effective] (100.0 when no effective fault was
    evaluated). *)

val pp_report : Format.formatter -> 'f report -> unit

val to_json :
  ?fault:('f -> Simcov_util.Json.t) ->
  ?extra:(string * Simcov_util.Json.t) list ->
  'f report ->
  Simcov_util.Json.t
(** Render as the [simcov-campaign/1] schema: an object with [schema],
    [backend], [total], [effective], [excited], [detected], [missed]
    (count), [skipped], [coverage_pct] and [truncated]
    ([null] or the resource name). When [fault] is given, the missed
    faults themselves are listed under [missed_faults]; [extra] fields
    are appended verbatim. *)

type progress = {
  batch : int;  (** 0-based completion-order sequence number of the
                    batch just finished (the batch index when [jobs = 1]) *)
  batches : int;
  faults_done : int;  (** effective faults evaluated so far *)
  faults_total : int;  (** effective faults in the campaign *)
  detected_so_far : int;
  sim_steps : int;  (** lockstep steps visited so far (all batches) *)
  elapsed_s : float;
}

val pp_progress : Format.formatter -> progress -> unit
(** One human-readable progress line (no trailing newline) — the
    rendering the CLI writes to stderr. *)

type 'f outcome = {
  report : 'f report;
  verdicts : ('f * verdict) list;
      (** per-fault verdicts for the evaluated effective faults
          (including resumed ones), in fault-list order *)
}

type 'f checkpoint = {
  every : int;
      (** flush after every [every] completed batches (counted across
          all shards); must be positive *)
  flush : ('f * verdict) list -> unit;
      (** Receives every verdict decided so far — resumed verdicts
          included, so a chain of interrupted runs never loses earlier
          decisions. The list is unordered, one entry per decided
          fault. Called under the checkpoint lock: keep it quick, and
          never let it raise (an exception would cost the calling
          shard, which is then reported in [shard_failures]). *)
}
(** Periodic persistence hook, designed to feed [Covdb.save]: because a
    verdict depends only on [(fault, stimulus word)], a snapshot taken
    at any batch boundary can seed [?resume] of a later run — under any
    [jobs] — and that run's final report is
    identical to the uninterrupted one. *)

val shard_ranges : n:int -> jobs:int -> (int * int) array
(** The contiguous balanced shard decomposition used by [run ~jobs]:
    [(offset, length)] per shard, covering [0..n-1] in order with
    [min jobs (max n 1)] shards of near-equal length (the first
    [n mod jobs] shards get one extra element). Exposed so tests can
    state the merge contract exactly. *)

(** {1 The driver} *)

module Make (B : BACKEND) : sig
  val run :
    ?budget:Budget.t ->
    ?jobs:int ->
    ?max_workers:int ->
    ?on_batch:(progress -> unit) ->
    ?resume:(B.fault -> verdict option) ->
    ?checkpoint:B.fault checkpoint ->
    ?should_stop:(unit -> bool) ->
    B.ctx ->
    B.fault list ->
    B.stim list ->
    B.fault outcome
  (** Run the campaign: filter effective faults, batch them
      [min B.max_lanes Lanes.width] to a batch in fault order, and
      lockstep-simulate each batch over the steps of the stimulus
      word that {!BACKEND.next} names, recording per-lane excitation,
      detection and first silent rejoin (a lane's simulation stops at
      its first detection;
      a batch stops when every lane is detected, the backend halts or
      no step is left to visit).
      One budget step is consumed per batch; when the budget is
      exhausted the remaining batches are skipped and the report is
      tagged [truncated]. Never raises [Budget_exceeded].

      [jobs] shards the effective faults across that many domains
      (clamped to the undecided-fault count; default 1), each with a
      sub-budget from {!Budget.split}; reports are merged per the
      determinism contract above and unspent sub-allowances are
      {!Budget.reclaim}ed. A sub-budget keeps the deadline and its
      slice of the step allowance; the node probe stays with the
      caller's budget, which no campaign step reads.

      [max_workers] additionally caps the number of {e concurrently
      running} worker domains (the shard decomposition — and with it
      the report — stays a function of [jobs] alone): a scheduler
      running several campaigns at once hands each a slice of one
      global domain budget this way, so a sharded campaign cannot
      oversubscribe the cores other jobs are using. The default is the
      hardware parallelism cap alone.

      {b Crash safety and isolation} (all default off):
      - [resume] retires faults whose verdict a previous run already
        recorded: [Some v] injects [v] verbatim and the fault is never
        simulated, [None] leaves it for this run. Only undecided faults
        are sharded, so resuming changes batching — but not verdicts,
        which depend only on [(fault, word)]; the assembled report
        equals the uninterrupted run's.
      - [checkpoint] flushes cumulative verdicts every [every] batches
        (see {!type-checkpoint}). The driver never flushes at the end
        of the run — the caller persists the final outcome itself,
        where it also knows completeness.
      - [should_stop] is polled before each batch (and before each
        budget spend); once true, every shard stops cleanly at its next
        batch boundary. The report is then partial exactly as under
        truncation, except [truncated] stays [None] — the caller
        (e.g. a SIGINT handler) knows why it stopped.
      - A worker exception aborts only its shard, at every [jobs]
        (including 1): the shard becomes a {!shard_failure} entry, its
        faults counted in [skipped], and the other shards finish. It is
        not retried. *)
end


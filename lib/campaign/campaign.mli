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

    - {e bit-parallel}: mutants are packed into the lanes of the
      backend's {!Simcov_util.Lanes} set — a native OCaml [int]
      (63 lanes) or a bit-sliced wide set (256/512/1024 lanes) — so one
      golden pass over the word evaluates a whole batch: the classic
      parallel-pattern fault-simulation trick, freed of the word-size
      cap;
    - {e domain-parallel}: [run ~jobs:n] splits the effective-fault
      array into [n] contiguous shards, runs them on [Domain.spawn]
      workers with sub-budgets carved by {!Simcov_util.Budget.split},
      and merges the shard reports deterministically (see below);
    - {e budget-aware}: {!Simcov_util.Budget} is checkpointed between
      batches and exhaustion yields a [truncated]-tagged partial report
      (whole batches are evaluated or skipped, never split); the driver
      never raises on exhaustion;
    - {e observable}: a per-batch {!progress} callback carries
      throughput counters for CLI and bench reporting; under sharding
      the shared counters are atomics and the callback is serialized.

    Each backend keeps a one-mutant-at-a-time scalar reference
    ([Detect.campaign_scalar], [Stuckat.run_verdict],
    [Validate.detects_bug]); those are the oracle the batched driver
    is tested against.

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
    budget the sharded report equals the sequential one exactly.

    Lane encoding: lane [l] of a batch is fault [l] of the fault array
    passed to {!BACKEND.start}; a lane set has lane [l] as a member
    when bit [l] is set. For the native-[int] representation bit 62
    (the sign bit of a 63-bit OCaml [int]) is an ordinary lane — all
    lane-set operations are bitwise. *)

module Budget = Simcov_util.Budget
module Lanes = Simcov_util.Lanes

(** {1 Verdicts and step events} *)

type verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;  (** first step (0-based) with an observable difference *)
  excite_step : int option;  (** first step the golden run traverses the fault site *)
}

type 'l lane_event = {
  excited : 'l;  (** lane set whose fault site the golden run traversed this step *)
  detected : 'l;  (** lane set with an observable difference this step *)
  halt : bool;
      (** the golden run cannot continue (stimulus invalid for the
          golden model); the batch stops after this event's lane sets
          are folded in *)
}

(** {1 Backends} *)

(** One fault domain: a golden model type, a fault type, a stimulus
    type, and a batched lockstep simulator over the lane
    representation [L]. One batch carries up to
    [min max_lanes L.width] mutants. *)
module type BACKEND = sig
  module L : Lanes.S

  type ctx  (** the golden model, possibly pre-tabulated *)

  type fault
  type stim  (** one element of the stimulus word *)

  val name : string
  (** Backend tag recorded in reports (["fsm-fault"], ["stuck-at"], …). *)

  val max_lanes : int
  (** Upper bound on lanes per batch; the driver uses
      [min max_lanes L.width]. A scalar backend declares [1]. *)

  val effective : ctx -> fault -> bool
  (** Faults that actually change behavior locally; ineffective faults
      count toward [total] only and are never simulated. *)

  type batch
  (** Mutable lockstep state for one batch of faults (golden state plus
      per-lane mutant state). *)

  val start : ctx -> fault array -> batch
  (** Begin a batch at reset. The array has at most
      [min max_lanes L.width] entries, all effective. *)

  val step : batch -> active:L.t -> stim -> L.t lane_event
  (** Advance the batch by one stimulus element. [active] is the lane
      set still undetected; lanes outside it need not be simulated
      precisely (the driver masks the returned lane sets with
      [active]). *)
end

(** {1 Reports} *)

type shard_failure = {
  shard : int;  (** index into {!shard_ranges}'s decomposition *)
  faults : int;  (** effective faults the failed shard was assigned *)
  error : string;  (** [Printexc.to_string] of the last attempt's exception *)
}
(** A shard whose worker raised on every attempt (initial run plus
    retries on fresh domains); its faults are counted in [skipped]. *)

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
      (** shards lost to worker faults, in shard order; empty on any
          healthy run (and always on the sequential path, where there
          is no pool to isolate an exception from) *)
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
  batch : int;  (** 0-based index of the batch just finished; under
                    sharding, a completion-order sequence number *)
  batches : int;
  faults_done : int;  (** effective faults evaluated so far *)
  faults_total : int;  (** effective faults in the campaign *)
  detected_so_far : int;
  sim_steps : int;  (** lockstep steps executed so far (all batches) *)
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
          decisions. The list is unordered and may repeat a fault when
          a retried shard re-evaluates a batch; consumers must key by
          fault. Called under the checkpoint lock: keep it quick, and
          never let it raise. *)
}
(** Periodic persistence hook, designed to feed [Covdb.save]: because a
    verdict depends only on [(fault, stimulus word)], a snapshot taken
    at any batch boundary can seed [?resume] of a later run — under any
    [jobs]/lane-width configuration — and that run's final report is
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
    ?shard_retries:int ->
    ?retry_backoff_s:float ->
    B.ctx ->
    B.fault list ->
    B.stim list ->
    B.fault outcome
  (** Run the campaign: filter effective faults, batch them
      [min B.max_lanes B.L.width] to a batch, and lockstep-simulate
      each batch over the stimulus word, recording per-lane excitation
      and detection (a lane's simulation stops at its first detection;
      a batch stops when every lane is detected or the backend halts).
      One budget step is consumed per batch; when the budget is
      exhausted the remaining batches are skipped and the report is
      tagged [truncated]. Never raises [Budget_exceeded].

      [jobs > 1] shards the effective faults across that many domains
      (clamped to the undecided-fault count), each with a sub-budget
      from {!Budget.split}; reports are merged per the determinism
      contract above and unspent sub-allowances are
      {!Budget.reclaim}ed.

      [max_workers] additionally caps the number of {e concurrently
      running} worker domains (the shard decomposition — and with it
      the report — stays a function of [jobs] alone): a scheduler
      running several campaigns at once hands each a slice of one
      global domain budget this way, so a wide campaign cannot
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
      - A worker exception aborts only its shard: the shard is retried
        [shard_retries] times, each retry on a freshly spawned domain
        after an exponentially growing backoff starting at
        [retry_backoff_s] (sharing the shard's remaining sub-budget),
        and a shard failing every attempt becomes a {!shard_failure}
        entry, its faults counted in [skipped]. Sequential runs
        ([jobs = 1]) propagate the exception instead. *)
end


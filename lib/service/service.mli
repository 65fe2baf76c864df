(** Job execution: one entry point that runs any {!Job.t}.

    This is the engine the CLI subcommands and the daemon share. A
    call builds the job's own {!Simcov_util.Budget} from [timeout_s] /
    [max_nodes], resolves models through a {!Model_cache.t}, runs the
    work, and returns everything the two front-ends need to render:
    the exit code, the versioned JSON report, the human-readable text,
    warnings for stderr, and the fatal error (if any) — without ever
    printing, exiting, or touching signal handlers itself. Campaign
    jobs get the full crash-safety treatment the CLI used to wire up
    inline: [--resume] validation (config/stimulus fingerprints),
    periodic durable checkpoints via {!Simcov_covdb.Covdb}, and a
    clean batch-boundary stop when [should_stop] flips.

    Report schemas by job kind: [validate-dlx] → [simcov-validate/1],
    [lint] → [simcov-lint/1] or [simcov-fsmlint/1], [coverage] →
    [simcov-campaign/1], [merge] → [simcov-merge/1], [minimize] →
    [simcov-minimize/1], [stats] → [simcov-stats/1].

    Observability: the run emits [job.start] / [job.progress] /
    [job.done] trace events and the usual engine metrics on the {e
    current} {!Simcov_obs.Obs} registry — the caller chooses the scope
    (the one-shot CLI stays on the default registry; the pool installs
    a per-job one). *)

module Json = Simcov_util.Json

type outcome = {
  exit_code : int;
      (** the CLI exit-code contract: 0 success, 1 validation failed,
          3 resource limit, 4 malformed input, 5 degraded shards,
          130 interrupted *)
  report : Json.t option;
      (** the versioned machine-readable report; [None] only when the
          job failed before producing one *)
  human : string;  (** human-readable report text ([""] when absent) *)
  notes : string list;  (** warnings, for stderr *)
  error : string option;  (** fatal error message (without prefix) *)
  interrupted : bool;  (** [should_stop] cut the run short *)
}

val run :
  ?cache:Model_cache.t ->
  ?max_workers:int ->
  ?should_stop:(unit -> bool) ->
  ?on_progress:(Simcov_campaign.Campaign.progress -> unit) ->
  ?chaos_kill_after:int ->
  Job.t ->
  outcome
(** Execute one job to completion (or interruption).

    [cache] defaults to {!Model_cache.shared}. [max_workers] caps the
    domains a sharded campaign may run concurrently without changing
    its report (see {!Simcov_campaign.Campaign}); the pool passes its
    domain-token allowance here. [should_stop] is polled at batch
    boundaries; a sticky [true] drains the campaign through its
    checkpoint and yields [interrupted = true] with exit code 130.
    [on_progress] receives per-batch campaign progress (in addition to
    the [job.progress] trace events, which fire regardless).
    [chaos_kill_after] is the CLI chaos-harness hook (SIGKILL after
    the N-th checkpoint flush). *)

val stim_hash_ints : int list -> string
(** The stimulus fingerprint an FSM campaign's coverage snapshot
    records in its header, which a resume must match: the CRC-32 (hex)
    of the word's inputs in decimal, one per line. *)

val campaign_exit :
  fail_under:float option ->
  interrupted:bool ->
  pct:float ->
  _ Simcov_campaign.Campaign.report ->
  int
(** A coverage job's exit code: 130 when interrupted, else 5 when a
    shard was lost ([shard_failures] non-empty), else 3 when
    truncated, else 1 when [pct] is below [fail_under], else 0. *)

val validate_exit : Simcov_core.Methodology.run_report -> int
(** A validate-dlx job's exit code: 5 when either campaign lost a
    shard, else 3 when either was truncated, else 0 when lint, the FSM
    precondition gate, the certificate and every seeded bug pass, else
    1. *)

val status_of : outcome -> Job.status
(** The envelope status an outcome maps to: [Interrupted] when
    interrupted, [Failed] when [error] is set, [Done] otherwise. *)

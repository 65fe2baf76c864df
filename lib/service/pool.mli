(** Bounded job queue and domain-budgeted scheduler.

    The daemon's execution core, usable in-process by tests: a FIFO
    queue of {!Job.t}s bounded at [queue_limit], drained by [workers]
    worker domains, under one global {e domain-token} budget shared
    with the campaign engine's [--jobs] sharding. A worker holds one
    token implicitly; before running a job that declares [jobs = n] it
    acquires up to [n - 1] extra tokens (taking only what is free —
    never blocking) and passes the total as the campaign's
    [max_workers] cap, so concurrent jobs time-share the machine's
    cores without changing any job's report (shard decomposition stays
    exactly as requested).

    Each job runs under its own {!Simcov_obs.Obs} registry:
    its trace events (including the [job.progress] stream) and
    throttled [simcov-metrics/1] snapshots are forwarded line-by-line
    to the submitter's [on_line], and never interleave with a
    concurrent job's. The final [simcov-job/1] result envelope goes to
    [on_done].

    Cancellation: {!cancel} on a queued job resolves it immediately
    with status [cancelled]; on a running job it flips the job's
    [should_stop], which drains the campaign through its durable
    checkpoint and resolves with status [interrupted] (exit 130).
    A submitter's [gone] flag does the same to its own job. {!drain}
    does this to the whole pool — the daemon's SIGTERM path.

    Memory stays bounded: a job's closures are dropped once it
    resolves, and only the last 256 finished jobs are remembered for
    {!list} and {!cancel}. *)

module Json = Simcov_util.Json

type t

val create :
  ?cache:Model_cache.t -> ?queue_limit:int -> ?workers:int -> unit -> t
(** Defaults: the shared model cache, queue bound 64, 2 worker
    domains. The extra domain-token budget is
    [max 1 (Domain.recommended_domain_count () - workers)]: the cores
    the workers themselves do not occupy, but at least one. *)

val submit :
  t ->
  ?on_line:(string -> unit) ->
  ?on_done:(Json.t -> unit) ->
  ?gone:bool Atomic.t ->
  Job.t ->
  (string, string) result
(** Enqueue a job. Returns the assigned id (the job's own [id] when
    given and not listed, a generated [job-N] otherwise) or
    [Error reason] when the queue is full or the pool is draining —
    the daemon maps that to a [rejected] envelope with exit code 6.
    [on_line] receives streamed trace/metrics lines (called from a
    worker domain; must be thread-safe). [on_done] receives the final
    envelope exactly once. Once [gone] is set (the daemon sets it when
    a write to the client fails), the running job stops at its next
    batch boundary, as under {!cancel}. *)

val cancel : t -> string -> bool
(** [true] if the id named a queued or running job. *)

val list : t -> Json.t
(** The [simcov-jobs/1] snapshot:
    [{"schema":"simcov-jobs/1","jobs":[{"id","kind","state"},...]}]
    with [state] one of [queued], [running], or a final
    {!Job.status_name}: every queued and running job and the last 256
    finished ones, in submission order. A job is listed with its final
    status from the moment its envelope goes to [on_done], so a
    submitter holding the envelope never sees it running. *)

val drain : t -> unit
(** Stop accepting, cancel every queued job, interrupt every running
    job (through the durable checkpoint path), wait for the workers to
    exit. Idempotent. *)

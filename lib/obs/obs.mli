(** Unified observability: metrics and tracing for the simulation
    engines.

    One process-wide registry of named metrics — monotonic {!counter}s,
    last-value {!gauge}s and accumulating wall-clock {!timer}s — plus
    an optional JSONL trace sink for per-event detail. The engines
    (BDD kernel, symbolic traversal, campaign driver) increment these
    unconditionally; the registry is rendered on demand as one
    [simcov-metrics/1] JSON snapshot.

    {b Overhead contract.} The layer must be near-free when nobody is
    looking:
    - {!incr} / {!add} / {!set} / {!set_max} are a single atomic
      read-modify-write on a preallocated cell — no allocation, no
      lock, no branch on an "enabled" flag — plus the cell resolution:
      one domain-local read and a pointer-equality scan of the
      handle's (tiny, immutable) registry cache. These are safe in the
      hottest loops (BDD cache probes).
    - {!observe} adds a float to an accumulator; {!span} additionally
      pays two clock reads. Use them at batch/iteration granularity,
      not per node.
    - {!event} and the [?fields] thunks of {!span} are lazy: with no
      sink installed the cost is one [ref] load and a branch; field
      lists are only computed (and JSON only rendered) when a sink is
      present.

    Metric state lives in a {!registry}. The process has one default
    registry — the one-shot CLI path, where callers that
    want a per-command view call {!reset} first — and a long-running
    service creates one registry per job ({!registry}) and
    runs the job under it ({!with_registry}), so two concurrent jobs
    never interleave counters in one [simcov-metrics/1] snapshot.
    Handles stay static: the {e current} registry is domain-local, and
    a handle resolves to the current registry's cell on use through a
    lock-free one-or-two-entry cache (a pointer-equality scan of an
    immutable list), so scoping costs a few ns on the hot paths and
    nothing changes for engines.

    {b Domain safety.} A registry may be shared by every domain of the
    process. Counters and gauges are [Atomic]-backed, so concurrent
    {!incr} / {!add} / {!set_max} from sharded campaign workers lose
    no updates and take no lock; timer accumulation, cell/handle
    creation, trace emission and {!snapshot} serialize on one internal
    mutex (they run at batch granularity, where a lock is free). A
    snapshot taken after the workers are joined therefore reflects
    every increment exactly once. The current registry is per-domain
    ([Domain.DLS]): a freshly spawned domain starts in the default
    registry, so drivers that shard scoped work across domains install
    the parent's registry in the worker body (the campaign driver
    does). *)

type counter
type gauge
type timer

(** {1 Registries} *)

type registry
(** An isolated metric/trace namespace: its own counter/gauge/timer
    cells and its own trace sink. *)

val registry : unit -> registry
(** A fresh, empty registry (e.g. one per service job). *)

val current : unit -> registry
(** This domain's current registry. *)

val with_registry : registry -> (unit -> 'a) -> 'a
(** [with_registry r f] runs [f] with [r] as this domain's current
    registry, restoring the previous one afterwards (also on raise).
    Every {!incr} / {!event} / {!snapshot} / {!set_sink} inside [f]
    operates on [r]. *)

val release : registry -> unit
(** Drop a retired registry's cells from every handle's resolution
    cache so a service creating one registry per job does not grow
    handle caches without bound. Call it once the registry will no
    longer be used; no-op on the default registry. *)

val counter : string -> counter
(** [counter name] returns the registered counter for [name], creating
    it (at zero) on first use. Names are conventionally dotted paths,
    e.g. ["bdd.cache.and.hits"]. *)

val gauge : string -> gauge
val timer : string -> timer

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** Keep the running maximum: [set_max g v] is [set g v] only when [v]
    exceeds the current value (atomically, via compare-and-set). *)

val observe : timer -> float -> unit
(** Record one span of the given duration (seconds). *)

val span :
  timer ->
  ?fields:(unit -> (string * Simcov_util.Json.t) list) ->
  (unit -> 'a) ->
  'a
(** [span t f] times [f ()], {!observe}s the duration on [t], and — if
    a trace sink is installed — emits a trace event named [t.t_name]
    with a [dur_s] field plus [fields ()]. The duration is recorded
    even when [f] raises. *)

(** {1 Tracing}

    A trace sink receives one minified JSON object per line:
    [{"ev": <name>, "t_s": <seconds since sink install>, ...fields}].
    Spans add ["dur_s"]. *)

val set_sink : (string -> unit) option -> unit
(** Install ([Some emit]) or remove ([None]) the current registry's
    trace sink. Installing resets that registry's trace clock. *)

val event :
  ?fields:(unit -> (string * Simcov_util.Json.t) list) -> string -> unit
(** Emit a trace event. Free (one branch) when no sink is installed;
    [fields] is never called in that case. *)

(** {1 Snapshot} *)

val snapshot : ?extra:(string * Simcov_util.Json.t) list -> unit -> Simcov_util.Json.t
(** The [simcov-metrics/1] snapshot: an object with [schema],
    [wall_clock_s] (seconds since process start or last {!reset}),
    [counters] (name → int), [gauges] (name → int) and [timers]
    (name → [{count, total_s}]), each sorted by name. [extra] fields
    are appended at the top level. Every metric ever registered in the
    process appears, including untouched ones (at zero), so the field
    set is stable for a given binary. *)

val reset : unit -> unit
(** Zero every metric of the current registry and restart its snapshot
    clock. Does not touch the trace sink. *)

(** Content-hash-keyed cache of resolved models and static-analysis
    verdicts.

    The service resolves the same MODEL arguments over and over — the
    DLX builtins, a circuit file submitted by every job of a sweep —
    and parsing, tabulating and linting them dominates small-job
    latency. This cache memoizes the three expensive resolution steps
    behind content fingerprints:

    - {e circuits}: a file is keyed by the (byte length, CRC-32) pair
      of its raw bytes ([file:<len>:<crc>]), a builtin by its name
      ([builtin:<name>]), so an edited file misses while an unchanged
      one skips the parse. The length matters: CRC-32 alone is 32 bits
      — casually collidable, and a long-lived daemon serving each
      other's cached verdicts across a collision would be silent data
      corruption. Each cached circuit also carries its {e canonical
      key} — the same fingerprint of its canonical serialization
      ([circ:<len>:<crc>]) — which identifies the circuit by content
      regardless of how it was named or formatted.
    - {e tabulated FSMs}: keyed by the canonical key of the circuit
      they were enumerated from ([fsm:<canonical>]), or by builtin name
      for the explicit test models. A machine's Theorem 1 facts, once
      solved, stay with it.
    - {e lint verdicts}: netlist reports keyed
      [lint:<canonical>:<against-canonical|->], FSM reports
      [fsmlint:<fsm-key>:k<bound>]. Only untruncated reports are
      cached — a verdict cut short by one job's budget must not be
      served to a job with a larger one. Suite-carrying FSM lint runs
      are never cached (the suite file is outside the key).

    Entries are bounded by total estimated bytes and entry count and
    evicted least-recently-used. Hits, misses and evictions are
    counted on the [service.cache.*] metrics of the {e current}
    {!Simcov_obs.Obs} registry — under the service's per-job scoping,
    each job's snapshot shows its own cache traffic.

    All operations are domain-safe (one internal mutex); concurrent
    misses on the same key may both compute, last store wins. *)

module Budget = Simcov_util.Budget

type t

val create : ?max_bytes:int -> ?max_entries:int -> unit -> t
(** Defaults: 64 MiB, 256 entries. *)

val shared : t
(** The process-wide cache the service uses by default. *)

val circuit_of_spec :
  t -> string -> (Simcov_netlist.Circuit.t * string * string, string) result
(** [circuit_of_spec cache spec] resolves a MODEL argument exactly like
    the CLI: [dlx-control] / [dlx-test] builtins, anything else a
    serialized-circuit path. Returns
    [(circuit, display_name, canonical_key)]; [Error msg] on an
    unreadable or malformed file. *)

val fsm_of_spec :
  t -> string -> (Simcov_fsm.Fsm.t * string * string, string) result
(** An FSM MODEL argument: [dlx] / [dlx-test] / [dsp] builtins, or any
    circuit small enough for [Circuit.to_fsm] to enumerate. Returns the
    tabulated machine, its display name and its cache key. The entry is
    charged the machine's compiled form ({!Simcov_fsm.Fsm.compiled_bytes}). *)

val fsm_facts :
  t ->
  string ->
  (Simcov_fsm.Fsm.t * Simcov_testgen.Tour.facts * string * string, string) result
(** {!fsm_of_spec} (the same one lookup) plus the machine's Theorem 1
    facts ({!Simcov_testgen.Tour.facts} at its default bound), kept
    with the cached machine: the first job to ask solves them, and
    their tour joins the entry's charge; later jobs read them. *)

val lint :
  t ->
  budget:Budget.t ->
  name:string ->
  key:string ->
  ?against:Simcov_netlist.Circuit.t * string ->
  Simcov_netlist.Circuit.t ->
  Simcov_analysis.Lint.report
(** Cached [Lint.run]. [key] is the circuit's canonical key (from
    {!circuit_of_spec}); [against] carries the concrete circuit and
    {e its} canonical key. *)

val fsm_lint :
  t ->
  budget:Budget.t ->
  name:string ->
  key:string ->
  k_bound:int ->
  ?suite:int list list ->
  Simcov_fsm.Fsm.t ->
  Simcov_analysis.Fsm_lint.report
(** Cached [Fsm_lint.run]. [key] is the machine's cache key (from
    {!fsm_of_spec}). Runs with [?suite] bypass the cache. While the
    machine is cached and [k_bound] is its facts' bound, the lint reads
    the facts {!fsm_facts} keeps, solving them if no job has. *)

type sym_entry = {
  sym : Simcov_symbolic.Symfsm.t;
  s_lock : Mutex.t;
      (** hold while using [sym] — jobs share the live BDD manager *)
}

val sym_of_circuit :
  t ->
  reorder:Job.reorder_mode ->
  canonical:string ->
  (unit -> Simcov_symbolic.Symfsm.t) ->
  sym_entry
(** Cached compiled symbolic machine, keyed
    [sym:<canonical>:<reorder-mode>] — the mode is part of the key so
    a [Reorder_off] job can never observe a variable order mutated by
    an [on]/[auto] job. The caller must lock [s_lock] while operating
    on the machine (and re-attach its budget first:
    {!Simcov_symbolic.Symfsm.attach_budget}). A cached manager's order
    changes only inside the jobs that use it. *)

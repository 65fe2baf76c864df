(** Job specifications: the [simcov-job/1] schema.

    One {!t} describes one unit of work the service can execute — the
    same work the one-shot CLI subcommands used to wire up by hand:
    the full DLX validation, a lint run, a fault campaign, a coverage
    snapshot merge/minimize, or the symbolic statistics of the derived
    control model. The CLI subcommands construct jobs from flags; the
    daemon parses them off the wire with {!of_json}; both hand them to
    [Service.run].

    {b Wire format.} A job request is one JSON object:

    {v
    {"schema":"simcov-job/1","kind":"coverage","id":"cov-1",
     "timeout_s":30.0,"max_nodes":100000,
     "params":{"model":"dlx","faults":"fsm","seed":2026,...}}
    v}

    [schema], [id], [timeout_s], [max_nodes] and every [params] field
    are optional; omitted fields take the CLI defaults, so the minimal
    [{"kind":"coverage"}] is a complete job. {!of_json} is total and
    pure; {!to_json} round-trips exactly.

    The service replies with the {e result envelope}, also tagged
    [simcov-job/1] — distinguished from a request by the presence of
    [status]:

    {v
    {"schema":"simcov-job/1","id":"cov-1","kind":"coverage",
     "status":"done","exit_code":0,"report":{...simcov-campaign/1...}}
    v}

    [report] holds the job's existing versioned report
    ([simcov-lint/1], [simcov-fsmlint/1], [simcov-campaign/1],
    [simcov-validate/1], [simcov-stats/1], [simcov-merge/1],
    [simcov-minimize/1]); [error] appears instead on failures. *)

module Json = Simcov_util.Json

type reorder_mode = Reorder_off | Reorder_on | Reorder_auto
(** BDD dynamic-variable-reordering policy for the job's symbolic
    phase; wire values ["off"] (the default — omitted when rendering,
    so pre-reorder requests round-trip unchanged), ["on"], ["auto"]. *)

val reorder_name : reorder_mode -> string
val reorder_of_name : string -> reorder_mode option

type validate_params = {
  va_regs : int;  (** registers in the reduced file (default 4) *)
  va_track_dest : bool;
  va_observable_dest : bool;
  va_seed : int;
  va_lanes : int;
  va_jobs : int;
  va_reorder : reorder_mode;
}

type lint_params = {
  li_model : string;  (** builtin name or circuit file path *)
  li_against : string option;
  li_fsm : bool;  (** FSM-level (SA6xx) instead of netlist passes *)
  li_suite : string option;  (** suite file, [--fsm] only *)
  li_k_bound : int;
  li_fail_on : Simcov_analysis.Diag.severity;
}

type fault_kind = Fsm_faults | Stuckat_faults

type coverage_params = {
  cov_model : string;
  cov_faults : fault_kind;
  cov_seed : int;
  cov_count : int;  (** FSM faults sampled per kind *)
  cov_steps : int;  (** stimulus length for stuck-at campaigns *)
  cov_fail_under : float option;
  cov_lanes : int;
  cov_jobs : int;
  cov_checkpoint : string option;
  cov_checkpoint_every : int;
  cov_resume : string option;
}

type stats_params = { st_reorder : reorder_mode }

type spec =
  | Validate_dlx of validate_params
  | Lint of lint_params
  | Coverage of coverage_params
  | Merge of { inputs : string list; output : string }
  | Minimize of { inputs : string list }
  | Stats of stats_params

type t = {
  id : string option;  (** caller-chosen id echoed in the envelope *)
  spec : spec;
  timeout_s : float option;  (** per-job wall-clock budget *)
  max_nodes : int option;  (** per-job BDD node budget *)
}

val schema_id : string
(** ["simcov-job/1"]. *)

val kind : t -> string
(** ["validate-dlx"], ["lint"], ["coverage"], ["merge"], ["minimize"]
    or ["stats"]. *)

val lanes_range : int * int
(** Inclusive bounds on the [lanes] param, [(1, 65536)]: shared by the
    CLI's [--lanes] and {!of_json}. *)

val jobs_range : int * int
(** Inclusive bounds on the [jobs] param, [(1, 256)]: shared by the
    CLI's [--jobs] and {!of_json}. *)

val k_bound_range : int * int
(** Inclusive bounds on a lint job's [k_bound] param, [(1, 64)]: shared
    by the CLI's [--k-bound] and {!of_json}. *)

val default_validate : validate_params
val default_lint : model:string -> lint_params
val default_coverage : model:string -> coverage_params
val default_stats : stats_params

val make : ?id:string -> ?timeout_s:float -> ?max_nodes:int -> spec -> t

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Total inverse of {!to_json}; unknown [kind]s, ill-typed fields and
    [lanes]/[jobs]/[k_bound] outside
    {!lanes_range}/{!jobs_range}/{!k_bound_range} yield [Error],
    unknown {e fields} are ignored (schema growth). *)

(** {1 Result envelope} *)

type status = Done | Failed | Interrupted | Cancelled | Rejected

val status_name : status -> string
(** ["done"], ["failed"], ["interrupted"], ["cancelled"],
    ["rejected"]. *)

val envelope :
  id:string ->
  kind:string ->
  status:status ->
  exit_code:int ->
  ?error:string ->
  ?report:Json.t ->
  unit ->
  Json.t
(** The result envelope described above. *)

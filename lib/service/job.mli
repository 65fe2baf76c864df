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
(** BDD dynamic-variable-reordering policy of a stats job; wire values
    ["off"] (the default — omitted when rendering, so pre-reorder
    requests round-trip unchanged), ["on"], ["auto"]. Other kinds
    ignore a [reorder] member like any unknown field. *)

val reorder_name : reorder_mode -> string
val reorder_of_name : string -> reorder_mode option

type validate_params = {
  va_regs : int;  (** registers in the reduced file (default 4) *)
  va_track_dest : bool;
  va_observable_dest : bool;
  va_seed : int;
  va_jobs : int;
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
      (** Ignored, and neither read from nor written to the wire (a
          request's [lanes] member is dropped like any unknown one):
          every campaign batch carries 63 lanes. Kept only because the
          frozen benchmark harness ([perfbench/]) sets it. *)
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

(** The values each param that sizes work accepts, shared by the
    CLI's flag of the same name and {!of_json}. Inclusive ranges:
    [jobs] [(1, 256)], a lint job's [k_bound] [(1, 64)],
    a coverage job's [count] and [steps] [(1, 100_000)] and
    [checkpoint_every] [(1, max_int)], and every job's [max_nodes]
    [(1, max_int)]. A validate-dlx job's [regs] is one of
    [[2; 4; 8; 16]]: the powers of two the test model encodes and can
    tabulate. A job's [timeout_s] must satisfy {!timeout_ok}. *)

val jobs_range : int * int
val k_bound_range : int * int
val count_range : int * int
val steps_range : int * int
val checkpoint_every_range : int * int
val regs_values : int list
val max_nodes_range : int * int

val timeout_ok : float -> bool
(** A finite number of seconds [>= 0] ([0] runs with an already-passed
    deadline). *)

val default_validate : validate_params
val default_lint : model:string -> lint_params
val default_coverage : model:string -> coverage_params
val default_stats : stats_params

val make : ?id:string -> ?timeout_s:float -> ?max_nodes:int -> spec -> t

val budget :
  timeout_s:float option -> max_nodes:int option -> Simcov_util.Budget.t
(** The budget [timeout_s] and [max_nodes] describe (unlimited without either). *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Total inverse of {!to_json}; unknown [kind]s, ill-typed fields
    and sizing params outside their values above yield [Error],
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

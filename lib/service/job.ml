module Json = Simcov_util.Json
module Diag = Simcov_analysis.Diag

type reorder_mode = Reorder_off | Reorder_on | Reorder_auto

let reorder_name = function
  | Reorder_off -> "off"
  | Reorder_on -> "on"
  | Reorder_auto -> "auto"

let reorder_of_name = function
  | "off" -> Some Reorder_off
  | "on" -> Some Reorder_on
  | "auto" -> Some Reorder_auto
  | _ -> None

type validate_params = {
  va_regs : int;
  va_track_dest : bool;
  va_observable_dest : bool;
  va_seed : int;
  va_jobs : int;
}

type lint_params = {
  li_model : string;
  li_against : string option;
  li_fsm : bool;
  li_suite : string option;
  li_k_bound : int;
  li_fail_on : Diag.severity;
}

type fault_kind = Fsm_faults | Stuckat_faults

type coverage_params = {
  cov_model : string;
  cov_faults : fault_kind;
  cov_seed : int;
  cov_count : int;
  cov_steps : int;
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
  id : string option;
  spec : spec;
  timeout_s : float option;
  max_nodes : int option;
}

let schema_id = "simcov-job/1"

let kind t =
  match t.spec with
  | Validate_dlx _ -> "validate-dlx"
  | Lint _ -> "lint"
  | Coverage _ -> "coverage"
  | Merge _ -> "merge"
  | Minimize _ -> "minimize"
  | Stats _ -> "stats"

(* the CLI's flag defaults: a job built from an empty params object
   runs the same experiment the bare subcommand does *)
let default_validate =
  {
    va_regs = 4;
    va_track_dest = true;
    va_observable_dest = true;
    va_seed = 2026;
    va_jobs = 1;
  }

let default_lint ~model =
  {
    li_model = model;
    li_against = None;
    li_fsm = false;
    li_suite = None;
    li_k_bound = 8;
    li_fail_on = Diag.Error;
  }

let default_coverage ~model =
  {
    cov_model = model;
    cov_faults = Fsm_faults;
    cov_seed = 2026;
    cov_count = 150;
    cov_steps = 256;
    cov_fail_under = None;
    cov_lanes = Sys.int_size;
    cov_jobs = 1;
    cov_checkpoint = None;
    cov_checkpoint_every = 1;
    cov_resume = None;
  }

let default_stats = { st_reorder = Reorder_off }

let make ?id ?timeout_s ?max_nodes spec = { id; spec; timeout_s; max_nodes }

let budget ~timeout_s ~max_nodes =
  match (timeout_s, max_nodes) with
  | None, None -> Simcov_util.Budget.unlimited
  | timeout_s, max_nodes -> Simcov_util.Budget.create ?timeout_s ?max_nodes ()

(* ---- rendering ---- *)

let opt_str name = function
  | None -> []
  | Some s -> [ (name, Json.String s) ]

let opt_float name = function
  | None -> []
  | Some f -> [ (name, Json.Float f) ]

let opt_int name = function None -> [] | Some i -> [ (name, Json.Int i) ]

(* [Reorder_off] is the wire default and is omitted when rendering, so
   every pre-reorder request and its echo stay byte-identical *)
let opt_reorder = function
  | Reorder_off -> []
  | m -> [ ("reorder", Json.String (reorder_name m)) ]

let params_json = function
  | Validate_dlx p ->
      Json.Obj
        ([
           ("regs", Json.Int p.va_regs);
           ("track_dest", Json.Bool p.va_track_dest);
           ("observable_dest", Json.Bool p.va_observable_dest);
           ("seed", Json.Int p.va_seed);
           ("jobs", Json.Int p.va_jobs);
         ])
  | Lint p ->
      Json.Obj
        ([ ("model", Json.String p.li_model) ]
        @ opt_str "against" p.li_against
        @ [ ("fsm", Json.Bool p.li_fsm) ]
        @ opt_str "suite" p.li_suite
        @ [
            ("k_bound", Json.Int p.li_k_bound);
            ("fail_on", Json.String (Diag.severity_name p.li_fail_on));
          ])
  | Coverage p ->
      Json.Obj
        ([
           ("model", Json.String p.cov_model);
           ( "faults",
             Json.String
               (match p.cov_faults with
               | Fsm_faults -> "fsm"
               | Stuckat_faults -> "stuckat") );
           ("seed", Json.Int p.cov_seed);
           ("count", Json.Int p.cov_count);
           ("steps", Json.Int p.cov_steps);
         ]
        @ opt_float "fail_under" p.cov_fail_under
        @ [ ("jobs", Json.Int p.cov_jobs) ]
        @ opt_str "checkpoint" p.cov_checkpoint
        @ [ ("checkpoint_every", Json.Int p.cov_checkpoint_every) ]
        @ opt_str "resume" p.cov_resume)
  | Merge { inputs; output } ->
      Json.Obj
        [
          ("inputs", Json.List (List.map (fun s -> Json.String s) inputs));
          ("output", Json.String output);
        ]
  | Minimize { inputs } ->
      Json.Obj
        [ ("inputs", Json.List (List.map (fun s -> Json.String s) inputs)) ]
  | Stats p -> Json.Obj (opt_reorder p.st_reorder)

let to_json t =
  Json.Obj
    ([ ("schema", Json.String schema_id); ("kind", Json.String (kind t)) ]
    @ opt_str "id" t.id
    @ opt_float "timeout_s" t.timeout_s
    @ opt_int "max_nodes" t.max_nodes
    @ [ ("params", params_json t.spec) ])

(* ---- parsing ---- *)

(* every accessor returns the default on a *missing* field but errors
   on an ill-typed one: silently coercing a mistyped request would run
   the wrong experiment *)
exception Bad of string

let get_field obj name = Json.member name obj

let get_int obj name ~default =
  match get_field obj name with
  | None -> default
  | Some (Json.Int i) -> i
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be an integer" name))

(* jobs sizes the domain count, k_bound the rounds of the ∀k search,
   count and steps the fault population and the stimulus,
   checkpoint_every the batches between saves (it must be positive),
   regs the tabulated test model, and timeout_s and max_nodes the
   job's budget: the wire accepts exactly the CLI's values *)
let jobs_range = (1, 256)
let k_bound_range = (1, 64)
let count_range = (1, 100_000)
let steps_range = (1, 100_000)
let checkpoint_every_range = (1, max_int)
let regs_values = [ 2; 4; 8; 16 ]
let max_nodes_range = (1, max_int)
let timeout_ok t = Float.is_finite t && t >= 0.0

let check_range name (lo, hi) v =
  if v < lo || v > hi then
    raise
      (Bad (Printf.sprintf "field '%s' must be an integer in [%d, %d]" name lo hi));
  v

let get_bounded obj name range ~default =
  check_range name range (get_int obj name ~default)

let get_choice obj name values ~default =
  let v = get_int obj name ~default in
  let names = String.concat ", " (List.map string_of_int values) in
  if not (List.mem v values) then
    raise (Bad (Printf.sprintf "field '%s' must be one of %s" name names));
  v

let get_bool obj name ~default =
  match get_field obj name with
  | None -> default
  | Some (Json.Bool b) -> b
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be a boolean" name))

let get_str obj name ~default =
  match get_field obj name with
  | None -> default
  | Some (Json.String s) -> s
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be a string" name))

let get_str_opt obj name =
  match get_field obj name with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be a string" name))

let get_float_opt obj name =
  match get_field obj name with
  | None | Some Json.Null -> None
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be a number" name))

let get_int_opt obj name =
  match get_field obj name with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be an integer" name))

let get_str_list obj name =
  match get_field obj name with
  | None -> raise (Bad (Printf.sprintf "field '%s' is required" name))
  | Some (Json.List l) ->
      List.map
        (function
          | Json.String s -> s
          | _ ->
              raise (Bad (Printf.sprintf "field '%s' must list strings" name)))
        l
  | Some _ -> raise (Bad (Printf.sprintf "field '%s' must be a list" name))

let require_str obj name =
  match get_str_opt obj name with
  | Some s -> s
  | None -> raise (Bad (Printf.sprintf "field '%s' is required" name))

let get_reorder params =
  let s = get_str params "reorder" ~default:"off" in
  match reorder_of_name s with
  | Some m -> m
  | None -> raise (Bad (Printf.sprintf "unknown reorder mode '%s'" s))

let spec_of ~kind params =
  match kind with
  | "validate-dlx" ->
      let d = default_validate in
      Validate_dlx
        {
          va_regs = get_choice params "regs" regs_values ~default:d.va_regs;
          va_track_dest = get_bool params "track_dest" ~default:d.va_track_dest;
          va_observable_dest =
            get_bool params "observable_dest" ~default:d.va_observable_dest;
          va_seed = get_int params "seed" ~default:d.va_seed;
          va_jobs = get_bounded params "jobs" jobs_range ~default:d.va_jobs;
        }
  | "lint" ->
      let model = require_str params "model" in
      let d = default_lint ~model in
      let fail_on =
        let s = get_str params "fail_on" ~default:"error" in
        match Diag.severity_of_name s with
        | Some sev -> sev
        | None -> raise (Bad (Printf.sprintf "unknown severity '%s'" s))
      in
      Lint
        {
          li_model = model;
          li_against = get_str_opt params "against";
          li_fsm = get_bool params "fsm" ~default:d.li_fsm;
          li_suite = get_str_opt params "suite";
          li_k_bound =
            get_bounded params "k_bound" k_bound_range ~default:d.li_k_bound;
          li_fail_on = fail_on;
        }
  | "coverage" ->
      let model = get_str params "model" ~default:"dlx" in
      let d = default_coverage ~model in
      let faults =
        match get_str params "faults" ~default:"fsm" with
        | "fsm" -> Fsm_faults
        | "stuckat" -> Stuckat_faults
        | s -> raise (Bad (Printf.sprintf "unknown fault kind '%s'" s))
      in
      Coverage
        {
          cov_model = model;
          cov_faults = faults;
          cov_seed = get_int params "seed" ~default:d.cov_seed;
          cov_count = get_bounded params "count" count_range ~default:d.cov_count;
          cov_steps = get_bounded params "steps" steps_range ~default:d.cov_steps;
          cov_fail_under = get_float_opt params "fail_under";
          cov_lanes = d.cov_lanes;
          cov_jobs = get_bounded params "jobs" jobs_range ~default:d.cov_jobs;
          cov_checkpoint = get_str_opt params "checkpoint";
          cov_checkpoint_every =
            get_bounded params "checkpoint_every" checkpoint_every_range
              ~default:d.cov_checkpoint_every;
          cov_resume = get_str_opt params "resume";
        }
  | "merge" ->
      Merge
        {
          inputs = get_str_list params "inputs";
          output = require_str params "output";
        }
  | "minimize" -> Minimize { inputs = get_str_list params "inputs" }
  | "stats" -> Stats { st_reorder = get_reorder params }
  | k -> raise (Bad (Printf.sprintf "unknown job kind '%s'" k))

let of_json j =
  match j with
  | Json.Obj _ -> (
      try
        (match get_field j "schema" with
        | None -> ()
        | Some (Json.String s) when s = schema_id -> ()
        | Some (Json.String s) ->
            raise (Bad (Printf.sprintf "unsupported schema '%s'" s))
        | Some _ -> raise (Bad "field 'schema' must be a string"));
        let kind = require_str j "kind" in
        let params =
          match get_field j "params" with
          | None -> Json.Obj []
          | Some (Json.Obj _ as p) -> p
          | Some _ -> raise (Bad "field 'params' must be an object")
        in
        Ok
          {
            id = get_str_opt j "id";
            spec = spec_of ~kind params;
            timeout_s =
              (match get_float_opt j "timeout_s" with
              | Some t when not (timeout_ok t) ->
                  raise (Bad "field 'timeout_s' must be a finite number >= 0")
              | t -> t);
            max_nodes =
              Option.map
                (check_range "max_nodes" max_nodes_range)
                (get_int_opt j "max_nodes");
          }
      with Bad msg -> Error msg)
  | _ -> Error "a job must be a JSON object"

(* ---- result envelope ---- *)

type status = Done | Failed | Interrupted | Cancelled | Rejected

let status_name = function
  | Done -> "done"
  | Failed -> "failed"
  | Interrupted -> "interrupted"
  | Cancelled -> "cancelled"
  | Rejected -> "rejected"

let envelope ~id ~kind ~status ~exit_code ?error ?report () =
  Json.Obj
    ([
       ("schema", Json.String schema_id);
       ("id", Json.String id);
       ("kind", Json.String kind);
       ("status", Json.String (status_name status));
       ("exit_code", Json.Int exit_code);
     ]
    @ (match error with None -> [] | Some e -> [ ("error", Json.String e) ])
    @ match report with None -> [] | Some r -> [ ("report", r) ])

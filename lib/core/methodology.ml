open Simcov_dlx
module Budget = Simcov_util.Budget
module Obs = Simcov_obs.Obs
module Json = Simcov_util.Json

type tier = Partitioned_symbolic | Explicit

let tier_name = function
  | Partitioned_symbolic -> "partitioned symbolic"
  | Explicit -> "explicit enumeration"

type symbolic_figures = {
  sym_states : float;
  sym_transitions : float;
  tier : tier;
  degradations : string list;
}

(* The state/transition counts of the test model, computed at the
   richest representation the resource budget admits: partitioned
   symbolic reachability over the model's netlist, then plain
   enumeration of the built machine (which needs no BDDs at all and
   cannot fail). The abandoned symbolic tier leaves a note. *)
let symbolic_figures ~budget config model =
  let module Symfsm = Simcov_symbolic.Symfsm in
  let module Bdd = Simcov_bdd.Bdd in
  let name = tier_name Partitioned_symbolic in
  let symbolic () =
    try
      let sf = Symfsm.of_circuit ~budget (Testmodel.netlist config) in
      let tr = Symfsm.traverse ~budget sf in
      match tr.Symfsm.truncated with
      | Some r ->
          Error
            (Printf.sprintf "%s reachability truncated (out of %s)" name
               (Budget.resource_name r))
      | None ->
          sf.Symfsm.reach <- Some tr;
          ignore (Bdd.protect sf.Symfsm.man tr.Symfsm.reached);
          Ok
            {
              sym_states = Symfsm.count_reachable sf;
              sym_transitions = Symfsm.count_transitions sf;
              tier = Partitioned_symbolic;
              degradations = [];
            }
    with
    | Bdd.Node_limit live ->
        Error
          (Printf.sprintf "%s out of BDD nodes (%d live at the ceiling)" name
             live)
    | Budget.Budget_exceeded r ->
        Error
          (Printf.sprintf "%s abandoned (out of %s)" name
             (Budget.resource_name r))
  in
  match symbolic () with
  | Ok f -> f
  | Error note ->
      Obs.event "methodology.degrade" ~fields:(fun () ->
          [ ("tier", Json.String name); ("note", Json.String note) ]);
      (* the explicit tier allocates no BDD nodes: stop consulting the
         abandoned manager's live-node probe (budget.mli) *)
      Budget.set_node_probe budget None;
      let open Simcov_fsm in
      {
        sym_states = float_of_int (Fsm.n_reachable model);
        sym_transitions = float_of_int (Fsm.n_transitions model);
        tier = Explicit;
        degradations = [ note ];
      }

type run_report = {
  config : Testmodel.config;
  lint_errors : Simcov_analysis.Diag.t list;
  fsm_lint : Simcov_analysis.Fsm_lint.report;
  model_states : int;
  model_transitions : int;
  symbolic : symbolic_figures;
  requirements : Requirements.report;
  certificate : (Completeness.certificate, Completeness.failure) result;
  tour_length : int;
  program_length : int;
  issued : int;
  bug_results : (string * bool) list;
  n_bugs_detected : int;
  bug_coverage : (string * Pipeline.bugs) Simcov_campaign.Campaign.report;
  fsm_fault_coverage : Simcov_coverage.Detect.report;
  timings : (string * float) list;
}

let campaigns_truncated r =
  r.fsm_fault_coverage.Simcov_coverage.Detect.truncated <> None
  || r.bug_coverage.Simcov_campaign.Campaign.truncated <> None

(* static-analysis front gate: sweep the netlist models before any
   symbolic effort is spent on them; only errors block a run *)
let lint_gate ~budget =
  let open Simcov_analysis in
  let impl = Control.build () in
  let test, _ = Control.derive_test_model () in
  let errors r = List.filter (fun d -> d.Diag.severity = Diag.Error) r.Lint.diags in
  errors (Lint.run ~budget ~name:"dlx-control" impl)
  @ errors (Lint.run ~budget ~name:"dlx-test" ~against:impl test)

let validate_dlx ?(config = Testmodel.default) ?(seed = 2026)
    ?(budget = Budget.unlimited) ?jobs () =
  let open Simcov_fsm in
  let rng = Simcov_util.Rng.create seed in
  (* per-figure wall clock: each phase is both recorded in the report
     (timings, in run order) and observed on a methodology.<phase>
     timer so it lands in the metrics snapshot; a [checked] phase must
     leave budget to spare *)
  let timings = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = Obs.span (Obs.timer ("methodology." ^ name)) f in
    timings := (name, Unix.gettimeofday () -. t0) :: !timings;
    r
  in
  let checked name f =
    let r = timed name f in
    Budget.check budget;
    r
  in
  let lint_errors = checked "lint" (fun () -> lint_gate ~budget) in
  let model = checked "tabulate" (fun () -> Testmodel.build config) in
  (* FSM-level precondition gate (Theorem 1): certify strong
     connectivity, minimality and the ∀k bound on the machine the tour
     will be generated from. Warnings are recorded, not fatal; the CLI
     treats error-severity findings like lint_errors. The tour and the
     ∀k verdict are solved here once; the requirements and the
     certificate read the same facts. *)
  let facts, fsm_lint =
    checked "fsm_lint" (fun () ->
        let facts = Simcov_testgen.Tour.facts model in
        (facts, Simcov_analysis.Fsm_lint.run ~budget ~name:"dlx-test" ~facts ~seed model))
  in
  let symbolic =
    checked "symbolic" (fun () -> symbolic_figures ~budget config model)
  in
  let requirements =
    checked "requirements" (fun () ->
        Requirements.check ~facts ~rng:(Simcov_util.Rng.split rng) model)
  in
  let certificate = checked "certificate" (fun () -> Completeness.of_facts model facts) in
  (* the tour itself: the certified padded tour, or the greedy
     fallback when certification fails *)
  let word =
    checked "tour" (fun () ->
        Completeness.campaign_word model (Result.to_option certificate))
  in
  let conc = timed "concretize" (fun () -> Testmodel.concretize config word) in
  (* the two fault campaigns are budget-aware themselves: exhaustion
     mid-campaign yields a truncated partial report instead of an
     exception, so no Budget.check separates them *)
  let bug_campaign =
    timed "bug_campaign" (fun () ->
        Validate.bug_campaign_tests ~budget ?jobs [ conc.Testmodel.test ])
  in
  let fsm_fault_coverage =
    timed "fsm_campaign" (fun () ->
        let faults = Simcov_coverage.Fault.sample_faults rng model ~count:150 in
        Simcov_coverage.Detect.campaign ~budget ?jobs model faults word)
  in
  {
    config;
    lint_errors;
    fsm_lint;
    model_states = Fsm.n_reachable model;
    model_transitions = Fsm.n_transitions model;
    symbolic;
    requirements;
    certificate;
    tour_length = List.length word;
    program_length = Array.length conc.Testmodel.test.Validate.program;
    issued = Array.length conc.Testmodel.issue_map;
    bug_results = bug_campaign.Validate.bug_results;
    n_bugs_detected = bug_campaign.Validate.n_detected;
    bug_coverage = bug_campaign.Validate.report;
    fsm_fault_coverage;
    timings = List.rev !timings;
  }

type ablation_report = {
  refined_transitions : int;
  abstract_transitions : int;
  refined_covered_by_abstract_tour : int;
  refined_tour_length : int;
  abstract_tour_length : int;
  quotient_conflict : bool;
  fault_coverage_abstract_tour : Simcov_coverage.Detect.report;
  fault_coverage_refined_tour : Simcov_coverage.Detect.report;
}

let ablation_dest_tracking ?(config = Testmodel.default) ?(seed = 2026) () =
  let open Simcov_fsm in
  let rng = Simcov_util.Rng.create seed in
  let refined = Testmodel.build config in
  let abstract = Testmodel.build { config with Testmodel.track_dest = false } in
  let tour_of m =
    match Simcov_testgen.Tour.transition_tour m with
    | Some t -> t.Simcov_testgen.Tour.word
    | None -> invalid_arg "ablation: model not strongly connected"
  in
  let abstract_word = tour_of abstract in
  let refined_word = tour_of refined in
  (* both models share the same input alphabet, so the abstract tour
     replays directly on the refined model *)
  let covered = Simcov_coverage.Detect.transition_coverage refined abstract_word in
  let quotient_conflict =
    Result.is_error
      (Simcov_abstraction.Homomorphism.quotient refined (Testmodel.dest_merge_mapping config))
  in
  let faults = Simcov_coverage.Fault.sample_faults rng refined ~count:150 in
  {
    refined_transitions = Fsm.n_transitions refined;
    abstract_transitions = Fsm.n_transitions abstract;
    refined_covered_by_abstract_tour = covered;
    refined_tour_length = List.length refined_word;
    abstract_tour_length = List.length abstract_word;
    quotient_conflict;
    fault_coverage_abstract_tour = Simcov_coverage.Detect.campaign refined faults abstract_word;
    fault_coverage_refined_tour = Simcov_coverage.Detect.campaign refined faults refined_word;
  }

let pp_ablation_report ppf r =
  Format.fprintf ppf
    "@[<v>refined model: %d transitions (tour %d); dest-less model: %d transitions (tour %d)@,\
     abstract tour covers %d/%d refined transitions (%.1f%%)@,\
     quotient conflict: %b@,\
     fault coverage, abstract tour: %a@,\
     fault coverage, refined tour:  %a@]"
    r.refined_transitions r.refined_tour_length r.abstract_transitions
    r.abstract_tour_length r.refined_covered_by_abstract_tour r.refined_transitions
    (100.0 *. float_of_int r.refined_covered_by_abstract_tour
    /. float_of_int r.refined_transitions)
    r.quotient_conflict Simcov_coverage.Detect.pp_report r.fault_coverage_abstract_tour
    Simcov_coverage.Detect.pp_report r.fault_coverage_refined_tour

let pp_run_report ppf r =
  Format.fprintf ppf "@[<v>";
  (match r.lint_errors with
  | [] -> Format.fprintf ppf "static analysis: no errors@,"
  | errs ->
      Format.fprintf ppf "static analysis: %d error%s@," (List.length errs)
        (if List.length errs = 1 then "" else "s");
      List.iter
        (fun d -> Format.fprintf ppf "  %a@," Simcov_analysis.Diag.pp d)
        errs);
  Format.fprintf ppf "test model: %d states, %d transitions@," r.model_states
    r.model_transitions;
  (let module Fl = Simcov_analysis.Fsm_lint in
   let module D = Simcov_analysis.Diag in
   let fl = r.fsm_lint in
   let errors = D.count fl.Fl.diags D.Error and warnings = D.count fl.Fl.diags D.Warning in
   Format.fprintf ppf
     "fsm precondition gate: %d SCC%s, %d classes, %s; %d error%s, %d warning%s@,"
     fl.Fl.stats.Fl.n_sccs
     (if fl.Fl.stats.Fl.n_sccs = 1 then "" else "s")
     fl.Fl.stats.Fl.n_classes
     (match fl.Fl.stats.Fl.certified_k with
     | Some k -> Printf.sprintf "certified forall-%d-distinguishable" k
     | None -> "forall-k UNCERTIFIED")
     errors
     (if errors = 1 then "" else "s")
     warnings
     (if warnings = 1 then "" else "s");
   List.iter
     (fun d -> if d.D.severity = D.Error then Format.fprintf ppf "  %a@," D.pp d)
     fl.Fl.diags);
  Format.fprintf ppf "state-space figures (%s): %.0f states, %.0f transitions@,"
    (tier_name r.symbolic.tier) r.symbolic.sym_states r.symbolic.sym_transitions;
  List.iter
    (fun note -> Format.fprintf ppf "  degraded: %s@," note)
    r.symbolic.degradations;
  Format.fprintf ppf "%a@," Requirements.pp_report r.requirements;
  (match r.certificate with
  | Ok c ->
      Format.fprintf ppf "certificate: forall-%d-distinguishable, tour length %d@," c.Completeness.k
        c.Completeness.tour_length
  | Error Completeness.Not_strongly_connected ->
      Format.fprintf ppf "certificate: FAILED (not strongly connected)@,"
  | Error (Completeness.Indistinguishable_pair (p, q)) ->
      Format.fprintf ppf "certificate: FAILED (states %d and %d not distinguishable)@," p q);
  Format.fprintf ppf "tour: %d inputs -> program of %d instructions (%d issued)@,"
    r.tour_length r.program_length r.issued;
  Format.fprintf ppf "FSM fault coverage: %a@," Simcov_coverage.Detect.pp_report
    r.fsm_fault_coverage;
  Format.fprintf ppf "pipeline bugs detected: %d/%d" r.n_bugs_detected
    (List.length r.bug_results);
  (match r.bug_coverage.Simcov_campaign.Campaign.truncated with
  | None -> ()
  | Some res ->
      Format.fprintf ppf " [truncated: out of %s, %d bug%s not run]"
        (Budget.resource_name res) r.bug_coverage.Simcov_campaign.Campaign.skipped
        (if r.bug_coverage.Simcov_campaign.Campaign.skipped = 1 then "" else "s"));
  Format.fprintf ppf "@,";
  List.iter
    (fun (name, det) ->
      Format.fprintf ppf "  %-24s %s@," name (if det then "DETECTED" else "missed"))
    r.bug_results;
  Format.fprintf ppf "phase wall times:";
  List.iter
    (fun (name, s) -> Format.fprintf ppf "@,  %-24s %.3f s" name s)
    r.timings;
  Format.fprintf ppf "@]"

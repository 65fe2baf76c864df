(* simcov — command-line front end for the simulation-coverage
   validation methodology (Gupta, Malik, Ashar, DAC 1997).

   Subcommands:
     validate-dlx   run the full methodology on the pipelined DLX
     tour           generate a transition tour / test program
     abstract       show the Figure 3(b) abstraction sequence
     stats          symbolic statistics of the derived control model
     fig2           the Figure 2 limitation demo
     run            assemble and co-simulate a DLX program
     serve          job daemon on a Unix socket
     submit / jobs  daemon clients

   The heavy lifting lives in lib/service: each job-shaped subcommand
   builds a Job.t and hands it to Service.run; this file only parses
   flags and routes the outcome's report/human/notes to the right
   stream. The same jobs go over the wire to `simcov serve`.

   Exit codes: 0 success; 1 validation failed (bugs missed /
   certificate failed); 2 usage error; 3 resource limit exceeded;
   4 malformed or unreadable input file, or unwritable output path;
   5 campaign degraded by worker failures;
   6 job rejected by the daemon (bad request, queue full, draining);
   7 socket / protocol error; 130 interrupted (SIGINT/SIGTERM) with a
   final checkpoint flushed. *)

open Cmdliner
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Job = Simcov_service.Job
module Service = Simcov_service.Service
module Daemon = Simcov_service.Daemon

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1 ~doc:"when validation fails (bugs missed or certificate failed).";
    Cmd.Exit.info 2 ~doc:"on command-line parsing errors.";
    Cmd.Exit.info 3 ~doc:"when a resource limit (--timeout, --max-nodes) is exceeded.";
    Cmd.Exit.info 4
      ~doc:
        "on a malformed or unreadable input file, or an output path that \
         cannot be written (snapshot, program, model, trace or metrics \
         file).";
    Cmd.Exit.info 5
      ~doc:
        "when a campaign completed degraded: one or more worker shards failed \
         (see the report's $(b,shard_failures); shards are not retried).";
    Cmd.Exit.info 6
      ~doc:
        "when the daemon rejected the job (malformed, oversized or late \
         request, too many connections, queue full, or draining after \
         SIGTERM).";
    Cmd.Exit.info 7 ~doc:"on a socket or protocol error talking to the daemon.";
    Cmd.Exit.info 130
      ~doc:
        "when interrupted (SIGINT/SIGTERM) mid-campaign; with \
         $(b,--checkpoint) a final snapshot is flushed first.";
  ]

let cmd_info name ~doc = Cmd.info name ~doc ~exits

(* an integer flag bounded to the same inclusive range its job field
   accepts on the wire (see [Job.jobs_range] and friends) *)
let bounded_int ~name (lo, hi) =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo && v <= hi -> Ok v
    | _ ->
        Error
          (`Msg (Printf.sprintf "%s must be an integer in [%d, %d]" name lo hi))
  in
  Arg.conv (parse, Format.pp_print_int)

(* ---- the shared common-options term ----

   Every job-shaped subcommand takes the same resource and output
   options; they are defined once here instead of per command. *)

type common = {
  timeout_s : float option;
  max_nodes : int option;
  metrics : string option;
  trace : string option;
  json : bool;
}

let common_term =
  let timeout =
    let doc = "Abort (exit 3) if the run exceeds $(docv) seconds of wall time." in
    let parse s =
      match float_of_string_opt s with
      | Some t when Job.timeout_ok t -> Ok t
      | _ -> Error (`Msg "--timeout must be a finite number of seconds >= 0")
    in
    Arg.(
      value
      & opt (some (conv (parse, Format.pp_print_float))) None
      & info [ "timeout" ] ~docv:"SEC" ~doc)
  in
  let max_nodes =
    let doc =
      "Cap live BDD nodes at $(docv); symbolic phases garbage-collect, then \
       degrade or stop when the cap is hit."
    in
    Arg.(
      value
      & opt (some (bounded_int ~name:"--max-nodes" Job.max_nodes_range)) None
      & info [ "max-nodes" ] ~docv:"N" ~doc)
  in
  let metrics =
    let doc =
      "Write a $(b,simcov-metrics/1) JSON snapshot (engine counters, gauges \
       and per-phase wall times) to $(docv) when the command finishes; \
       $(b,-) writes it to stdout (the human-readable report then moves to \
       stderr)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let trace =
    let doc =
      "Stream engine trace events (one minified JSON object per line) to \
       $(docv) while the command runs; $(b,-) streams to stdout."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the machine-readable report as JSON.")
  in
  let build timeout_s max_nodes metrics trace json =
    { timeout_s; max_nodes; metrics; trace; json }
  in
  Term.(const build $ timeout $ max_nodes $ metrics $ trace $ json)

(* legacy budget term for the non-job commands (model) *)
let budget_term =
  Term.(
    const (fun c -> Job.budget ~timeout_s:c.timeout_s ~max_nodes:c.max_nodes)
    $ common_term)

(* map resource exhaustion escaping a non-job subcommand to exit 3 *)
let guarded f =
  try f () with
  | Budget.Budget_exceeded r ->
      Printf.eprintf "error: resource limit exceeded (out of %s)\n"
        (Budget.resource_name r);
      3
  | Simcov_bdd.Bdd.Node_limit live ->
      Printf.eprintf "error: BDD node ceiling reached (%d nodes live)\n" live;
      3

(* an output file the command cannot create or publish: exit 4, as for
   an unwritable snapshot path *)
let cannot_write path e =
  Printf.eprintf "error: cannot write %s: %s\n" path e;
  4

(* ---- observability plumbing (--metrics / --trace) ---- *)

(* metrics on stdout claims the machine-readable stream: callers route
   their human-readable report to stderr in that case *)
let metrics_on_stdout c = c.metrics = Some "-"

(* Reset the metric registry, install the trace sink, run the command,
   and — whatever way it exits — tear the sink down and write the
   snapshot. The snapshot is written even on a resource-limit exit so a
   truncated run still reports what it spent. *)
let with_obs c f =
  Obs.reset ();
  (* the first file that cannot be published; the command then exits 4
     once the run is over *)
  let unwritten = ref None in
  let publish path write =
    try write () with Sys_error e -> if !unwritten = None then unwritten := Some (path, e)
  in
  let close_trace =
    match c.trace with
    | None -> Ok (fun () -> ())
    | Some "-" ->
        Obs.set_sink (Some print_endline);
        Ok (fun () -> flush stdout)
    | Some path -> (
        (* published atomically at close: the destination never holds a
           torn trace, only the previous one until commit *)
        match Simcov_util.Durable.start path with
        | exception Sys_error e -> Error (path, e)
        | w ->
            let oc = Simcov_util.Durable.channel w in
            Obs.set_sink
              (Some
                 (fun line ->
                   output_string oc line;
                   output_char oc '\n'));
            Ok (fun () -> publish path (fun () -> Simcov_util.Durable.commit w)))
  in
  match close_trace with
  | Error (path, e) -> cannot_write path e
  | Ok close_trace -> (
      let code =
        Fun.protect
          ~finally:(fun () ->
            Obs.set_sink None;
            close_trace ();
            match c.metrics with
            | None -> ()
            | Some path ->
                let doc = Json.to_string (Obs.snapshot ()) ^ "\n" in
                if path = "-" then begin
                  print_string doc;
                  flush stdout
                end
                else publish path (fun () -> Simcov_util.Durable.write_string path doc))
          f
      in
      match !unwritten with None -> code | Some (path, e) -> cannot_write path e)

(* commands whose engines allocate no BDD nodes: a node allowance would
   be silently inert, so say so (budget.mli, "enforcement split") *)
let warn_inert_max_nodes c =
  if c.max_nodes <> None then
    prerr_endline
      "warning: --max-nodes has no effect here (this command runs no BDD \
       engine); use --timeout to bound the run"

(* ---- running a job through the service ---- *)

(* render a Service outcome the way the monolithic subcommands used to:
   report JSON (with --json) or human text to stdout — stderr when
   --metrics - claims stdout — and notes/errors to stderr *)
let print_outcome c (o : Service.outcome) =
  (match o.Service.error with
  | Some e -> Printf.eprintf "error: %s\n" e
  | None ->
      if c.json then
        match o.Service.report with
        | Some r -> print_endline (Json.to_string r)
        | None -> ()
      else if o.Service.human <> "" then begin
        let out = if metrics_on_stdout c then stderr else stdout in
        output_string out o.Service.human;
        flush out
      end);
  List.iter (fun n -> Printf.eprintf "%s\n%!" n) o.Service.notes;
  o.Service.exit_code

let run_job ?should_stop ?on_progress ?chaos_kill_after c job =
  with_obs c @@ fun () ->
  print_outcome c
    (Service.run ?should_stop ?on_progress ?chaos_kill_after job)

(* campaigns convert SIGINT/SIGTERM into a clean batch-boundary stop
   with a final checkpoint flush; the handler scope is the run only *)
let with_interrupt f =
  let interrupted = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set interrupted true) in
  let prev_int = Sys.signal Sys.sigint on_signal in
  let prev_term = Sys.signal Sys.sigterm on_signal in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term)
    (fun () -> f (fun () -> Atomic.get interrupted))

(* flag defaults come from the [Job] default records: a bare subcommand
   runs the job an empty params object describes *)
let validate_defaults = Job.default_validate
let coverage_defaults = Job.default_coverage ~model:"dlx"
let lint_defaults = Job.default_lint ~model:"dlx-test"

let config_term =
  let regs =
    let sizes = List.map (fun n -> (string_of_int n, n)) Job.regs_values in
    let doc =
      Printf.sprintf "Number of registers in the reduced file: %s."
        (Arg.doc_alts_enum sizes)
    in
    Arg.(value & opt (enum sizes) validate_defaults.Job.va_regs & info [ "regs" ] ~docv:"N" ~doc)
  in
  let no_track =
    let doc =
      "Drop destination-register addresses from the test-model state (the \
       Section 6.3 'abstracting too much' configuration)."
    in
    Arg.(value & flag & info [ "no-track-dest" ] ~doc)
  in
  let no_obs =
    let doc = "Hide the interaction state from the outputs (violates Requirement 5)." in
    Arg.(value & flag & info [ "no-observable-dest" ] ~doc)
  in
  let build n_regs no_track no_obs =
    {
      Simcov_dlx.Testmodel.n_regs;
      track_dest = not no_track;
      observable_dest = not no_obs;
    }
  in
  Term.(const build $ regs $ no_track $ no_obs)

let seed_term default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* ---- campaign parallelism (--jobs) ---- *)

let jobs_term default =
  Arg.(
    value
    & opt (bounded_int ~name:"--jobs" Job.jobs_range) default
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Shard the campaign's faults across $(docv) domains. The merged \
           report is bit-identical to the sequential run (deterministic \
           shard order; budgets are carved into per-shard sub-budgets).")

(* ---- BDD variable reordering (--reorder) ---- *)

let reorder_term =
  let mode =
    Arg.enum
      [
        ("off", Job.Reorder_off);
        ("on", Job.Reorder_on);
        ("auto", Job.Reorder_auto);
      ]
  in
  Arg.(
    value
    & opt mode Job.default_stats.Job.st_reorder
    & info [ "reorder" ] ~docv:"MODE"
        ~doc:
          "BDD dynamic variable reordering (Rudell sifting) for the symbolic \
           phase. $(b,off) (default) keeps the build-time interleaved order — \
           byte-identical reports to previous releases. $(b,auto) sifts \
           whenever the unique table has grown past a ratio since the last \
           pass. $(b,on) additionally sifts once right after the model is \
           compiled.")

(* ---- validate-dlx ---- *)

let validate_dlx config seed jobs common =
  let p =
    {
      Job.va_regs = config.Simcov_dlx.Testmodel.n_regs;
      va_track_dest = config.Simcov_dlx.Testmodel.track_dest;
      va_observable_dest = config.Simcov_dlx.Testmodel.observable_dest;
      va_seed = seed;
      va_jobs = jobs;
    }
  in
  run_job common
    (Job.make ?timeout_s:common.timeout_s ?max_nodes:common.max_nodes
       (Job.Validate_dlx p))

let validate_cmd =
  let doc = "Run the full validation methodology on the pipelined DLX." in
  Cmd.v
    (cmd_info "validate-dlx" ~doc)
    Term.(
      const validate_dlx $ config_term $ seed_term validate_defaults.Job.va_seed
      $ jobs_term validate_defaults.Job.va_jobs
      $ common_term)

(* ---- tour ---- *)

let tour config emit =
  let open Simcov_dlx in
  let model = Testmodel.build config in
  match Simcov_testgen.Tour.transition_tour model with
  | None ->
      prerr_endline "error: test model is not strongly connected";
      1
  | Some t ->
      Printf.printf "test model: %d states, %d transitions\n"
        (Simcov_fsm.Fsm.n_reachable model)
        t.Simcov_testgen.Tour.n_transitions;
      Printf.printf "transition tour: %d inputs (%d extra traversals)\n"
        t.Simcov_testgen.Tour.length t.Simcov_testgen.Tour.extra;
      let conc = Testmodel.concretize config t.Simcov_testgen.Tour.word in
      Printf.printf "concretized program: %d instructions (%d issued)\n"
        (Array.length conc.Testmodel.test.Validate.program)
        (Array.length conc.Testmodel.issue_map);
      match emit with
      | None -> 0
      | Some path -> (
          match
            Simcov_util.Durable.write_file path (fun oc ->
                Validate.output_test_program oc conc.Testmodel.test)
          with
          | () ->
              Printf.printf "program written to %s\n" path;
              0
          | exception Sys_error e -> cannot_write path e)

let tour_cmd =
  let doc = "Generate the minimum transition tour and its DLX test program." in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-program" ] ~docv:"FILE" ~doc:"Write the program as assembly.")
  in
  Cmd.v (cmd_info "tour" ~doc) Term.(const tour $ config_term $ emit)

(* ---- abstract ---- *)

let abstract emit =
  let final, trace = Simcov_dlx.Control.derive_test_model () in
  Printf.printf "%-45s %5s %5s %7s %7s\n" "abstraction step" "before" "after" "inputs"
    "gates";
  List.iter
    (fun (e : Simcov_abstraction.Netabs.trace_entry) ->
      Printf.printf "%-45s %5d %5d %7d %7d\n" e.Simcov_abstraction.Netabs.step_label
        e.Simcov_abstraction.Netabs.regs_before e.Simcov_abstraction.Netabs.regs_after
        e.Simcov_abstraction.Netabs.inputs_after e.Simcov_abstraction.Netabs.gates_after)
    trace;
  match emit with
  | None -> 0
  | Some path -> (
      match Simcov_netlist.Serialize.save final path with
      | () ->
          Printf.printf "derived model written to %s\n" path;
          0
      | exception Sys_error e -> cannot_write path e)

let abstract_cmd =
  let doc = "Derive the control test model, printing the abstraction sequence." in
  let emit =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE" ~doc:"Write the derived model (text netlist).")
  in
  Cmd.v (cmd_info "abstract" ~doc) Term.(const abstract $ emit)

(* ---- stats ---- *)

let stats reorder common =
  run_job common
    (Job.make ?timeout_s:common.timeout_s ?max_nodes:common.max_nodes
       (Job.Stats { Job.st_reorder = reorder }))

let stats_cmd =
  let doc = "Symbolic (BDD) statistics of the derived control test model." in
  Cmd.v (cmd_info "stats" ~doc) Term.(const stats $ reorder_term $ common_term)

(* ---- fig2 ---- *)

let fig2 () =
  List.iter
    (fun (r : Simcov_core.Fig2.row) ->
      Printf.printf "%-9s %-12s tour=%b detected=%b\n" r.Simcov_core.Fig2.machine
        r.Simcov_core.Fig2.tour r.Simcov_core.Fig2.is_tour r.Simcov_core.Fig2.detected)
    (Simcov_core.Fig2.experiment ());
  0

let fig2_cmd =
  let doc = "Reproduce the Figure 2 transition-tour limitation demo." in
  Cmd.v (cmd_info "fig2" ~doc) Term.(const fig2 $ const ())

(* ---- run ---- *)

let run_file path bug_name do_trace =
  match
    Result.bind
      (try Ok (In_channel.with_open_text path In_channel.input_all)
       with Sys_error e -> Error e)
      Simcov_dlx.Validate.parse_test_program
  with
  | Error e ->
      Printf.eprintf "error: %s: %s\n" path e;
      4
  | Ok ({ Simcov_dlx.Validate.program; preload_regs; preload_mem } as test) -> (
      let bugs =
        match bug_name with
        | None -> Simcov_dlx.Pipeline.no_bugs
        | Some name -> (
            match List.assoc_opt name Simcov_dlx.Pipeline.bug_catalog with
            | Some b -> b
            | None ->
                Printf.eprintf "unknown bug %s; known bugs:\n" name;
                List.iter
                  (fun (n, _) -> Printf.eprintf "  %s\n" n)
                  Simcov_dlx.Pipeline.bug_catalog;
                exit 2)
      in
      if do_trace then
        print_string (Simcov_dlx.Pipeline.trace (Simcov_dlx.Validate.pipeline ~bugs test));
      match Simcov_dlx.Validate.run_program ~bugs ~preload_regs ~preload_mem program with
      | Simcov_dlx.Validate.Pass { compared; cut = false } ->
          Printf.printf "PASS: %d commits match the specification\n" compared;
          0
      | Simcov_dlx.Validate.Pass { compared; cut = true } ->
          Printf.printf
            "PASS: the first %d commits match the specification (cut: the program \
             had not halted after %d steps)\n"
            compared compared;
          0
      | Simcov_dlx.Validate.Fail _ as f ->
          Format.printf "%a@." Simcov_dlx.Validate.pp_outcome f;
          1)

let run_cmd =
  let doc =
    "Assemble a DLX program, apply its $(b,# preload) lines (as $(b,tour \
     --emit-program) writes them) and co-simulate spec vs pipeline (a program still \
     running after 1,000,000 steps is compared up to that step, as cut)."
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Assembly file.")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"NAME" ~doc:"Inject a named pipeline bug.")
  in
  let do_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-cycle pipeline diagram.")
  in
  Cmd.v (cmd_info "run" ~doc) Term.(const run_file $ file $ bug $ do_trace)

(* ---- dsp ---- *)

let dsp () =
  let open Simcov_dsp.Mac in
  let model = Testmodel.build () in
  match Simcov_core.Completeness.certify model with
  | Error _ ->
      prerr_endline "error: DSP test model failed certification";
      1
  | Ok cert ->
      Printf.printf
        "DSP MAC test model: %d states, %d transitions, forall-%d-distinguishable\n"
        cert.Simcov_core.Completeness.n_states cert.Simcov_core.Completeness.n_transitions
        cert.Simcov_core.Completeness.k;
      let word = Simcov_core.Completeness.padded_tour model cert in
      let cmds = Testmodel.concretize word in
      Printf.printf "tour: %d inputs -> %d commands\n" (List.length word)
        (List.length cmds);
      let results = Validate.bug_campaign cmds in
      List.iter
        (fun (name, detected) ->
          Printf.printf "  %-18s %s\n" name (if detected then "DETECTED" else "missed"))
        results;
      if List.for_all snd results then 0 else 1

let dsp_cmd =
  let doc = "Run the methodology on the fixed-program DSP (MAC ASIC) case study." in
  Cmd.v (cmd_info "dsp" ~doc) Term.(const dsp $ const ())

(* ---- model: operate on a serialized circuit ---- *)

let model_cmd_run path do_tour max_steps budget =
  guarded @@ fun () ->
  match Simcov_netlist.Serialize.load path with
  | Error e ->
      Printf.eprintf "error: %s: %s\n" path (Simcov_netlist.Serialize.error_to_string e);
      4
  | Ok c ->
      Format.printf "%a@." Simcov_netlist.Circuit.pp_stats c;
      let sym = Simcov_symbolic.Symfsm.of_circuit ~budget c in
      let open Simcov_symbolic.Symfsm in
      let r, iters = reachable sym in
      Printf.printf "reachable states: %.0f of %.0f (in %d iterations)\n"
        (count_states sym r) (state_space_size sym) iters;
      Printf.printf "valid input combinations: %.0f of %.0f\n" (count_valid_inputs sym)
        (input_space_size sym);
      Printf.printf "transitions to cover: %.0f\n" (count_transitions sym);
      if do_tour then begin
        let res = Simcov_symbolic.Symtour.generate ~max_steps ~budget c in
        Printf.printf "symbolic tour: %d steps, %.0f/%.0f transitions covered%s\n"
          res.Simcov_symbolic.Symtour.progress.Simcov_symbolic.Symtour.steps
          res.Simcov_symbolic.Symtour.progress.Simcov_symbolic.Symtour.covered
          res.Simcov_symbolic.Symtour.progress.Simcov_symbolic.Symtour.total
          (if res.Simcov_symbolic.Symtour.complete then " (complete)" else " (truncated)");
        match res.Simcov_symbolic.Symtour.truncated_by with
        | Some r ->
            Printf.printf "tour cut short: out of %s\n" (Budget.resource_name r)
        | None -> ()
      end;
      0

let model_cmd =
  let doc = "Analyze a serialized circuit: statistics and optional symbolic tour." in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Circuit file.")
  in
  let do_tour =
    Arg.(value & flag & info [ "tour" ] ~doc:"Generate a symbolic transition tour.")
  in
  let max_steps =
    Arg.(
      value & opt int 100_000
      & info [ "max-steps" ] ~docv:"N" ~doc:"Symbolic tour step budget.")
  in
  Cmd.v
    (cmd_info "model" ~doc)
    Term.(const model_cmd_run $ file $ do_tour $ max_steps $ budget_term)

(* ---- lint ---- *)

let catalog_json entries =
  Json.Obj
    [
      ("schema", Json.String "simcov-diag-catalog/1");
      ( "entries",
        Json.List
          (List.map
             (fun (e : Simcov_analysis.Diag.catalog_entry) ->
               Json.Obj
                 [
                   ("code", Json.String e.Simcov_analysis.Diag.entry_code);
                   ( "severity",
                     Json.String
                       (Simcov_analysis.Diag.severity_name
                          e.Simcov_analysis.Diag.default_severity) );
                   ("title", Json.String e.Simcov_analysis.Diag.title);
                   ("fix", Json.String e.Simcov_analysis.Diag.fix);
                 ])
             entries) );
    ]

let print_entry (e : Simcov_analysis.Diag.catalog_entry) =
  Printf.printf "%s (%s)\n  %s\n  fix: %s\n" e.Simcov_analysis.Diag.entry_code
    (Simcov_analysis.Diag.severity_name e.Simcov_analysis.Diag.default_severity)
    e.Simcov_analysis.Diag.title e.Simcov_analysis.Diag.fix

(* --explain CODE prints one catalog entry; bare --explain (or
   --explain all) walks the whole catalog *)
let explain_code ~json code =
  match code with
  | "all" ->
      let entries = Simcov_analysis.Diag.catalog in
      if json then print_endline (Json.to_string (catalog_json entries))
      else List.iter print_entry entries;
      0
  | code -> (
      match Simcov_analysis.Diag.explain code with
      | Some e ->
          if json then print_endline (Json.to_string (catalog_json [ e ]))
          else print_entry e;
          0
      | None ->
          Printf.eprintf "error: unknown diagnostic code '%s'\n" code;
          4)

let lint model against fsm suite_file k_bound explain fail_on common =
  match explain with
  | Some code -> explain_code ~json:common.json code
  | None -> (
      match model with
      | None ->
          prerr_endline "error: a MODEL argument is required (or use --explain CODE)";
          4
      | Some model ->
          warn_inert_max_nodes common;
          let p =
            {
              Job.li_model = model;
              li_against = against;
              li_fsm = fsm;
              li_suite = suite_file;
              li_k_bound = k_bound;
              li_fail_on = fail_on;
            }
          in
          run_job common
            (Job.make ?timeout_s:common.timeout_s ?max_nodes:common.max_nodes
               (Job.Lint p)))

let lint_cmd =
  let doc =
    "Statically analyze a model: structural lint, combinational cycles, \
     ternary constants, dead logic, abstraction prechecks — or, with \
     $(b,--fsm), the FSM-level Theorem 1 precondition certification \
     (connectivity, minimality, forall-k-distinguishability, R1/R4)."
  in
  let model =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"MODEL"
          ~doc:
            "Circuit file, or a builtin: $(b,dlx-control) (the pipelined DLX \
             control implementation), $(b,dlx-test) (the derived test model). \
             With $(b,--fsm): $(b,dlx-test) / $(b,dsp) (the explicit test \
             models) or any circuit small enough to enumerate. Optional only \
             with $(b,--explain).")
  in
  let fsm =
    Arg.(
      value & flag
      & info [ "fsm" ]
          ~doc:
            "Lint $(i,MODEL) as an explicit Mealy machine (SA6xx passes; \
             $(b,simcov-fsmlint/1) JSON) instead of as a netlist.")
  in
  let suite_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "suite" ] ~docv:"FILE"
          ~doc:
            "With $(b,--fsm): statically predict the state/transition coverage \
             of the input words in $(docv) (one word per line, space-separated \
             input indices, $(b,#) comments) and flag redundant words and \
             missed transitions.")
  in
  let k_bound =
    Arg.(
      value
      & opt (bounded_int ~name:"--k-bound" Job.k_bound_range) lint_defaults.Job.li_k_bound
      & info [ "k-bound" ] ~docv:"K"
          ~doc:"With $(b,--fsm): bound of the forall-k-distinguishability search.")
  in
  let explain =
    Arg.(
      value
      & opt ~vopt:(Some "all") (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:
            "Print the catalog entry (title, severity, suggested fix) for a \
             stable diagnostic code such as $(b,SA101) or $(b,SA620), and \
             exit; bare $(b,--explain) (or $(b,--explain all)) lists the \
             whole catalog.")
  in
  let against =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"MODEL"
          ~doc:
            "Concrete model $(i,MODEL) was abstracted from; enables the \
             homomorphism cone-compatibility precheck.")
  in
  let fail_on =
    let sev =
      Arg.enum
        [
          ("error", Simcov_analysis.Diag.Error);
          ("warning", Simcov_analysis.Diag.Warning);
          ("info", Simcov_analysis.Diag.Info);
        ]
    in
    Arg.(
      value
      & opt sev lint_defaults.Job.li_fail_on
      & info [ "fail-on" ] ~docv:"SEVERITY"
          ~doc:"Exit 1 when a diagnostic of $(docv) (or higher) is reported.")
  in
  Cmd.v
    (cmd_info "lint" ~doc)
    Term.(
      const lint $ model $ against $ fsm $ suite_file $ k_bound $ explain
      $ fail_on $ common_term)

(* ---- coverage: fault campaigns through the service engine ---- *)

let persist_term =
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a durable $(b,simcov-covdb/1) snapshot of per-fault \
             results to $(docv) periodically and at exit (atomic temp-file + \
             fsync + rename, CRC per record); a killed run resumes from it \
             with $(b,--resume).")
  in
  let every =
    Arg.(
      value
      & opt (bounded_int ~name:"--checkpoint-every" Job.checkpoint_every_range)
          coverage_defaults.Job.cov_checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Flush the checkpoint after every $(docv) completed batches.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from a $(b,simcov-covdb/1) snapshot: already-decided \
             faults are retired without re-simulation, and the final report \
             is identical to the uninterrupted run's. The snapshot must come \
             from the same campaign configuration and stimulus (same model, \
             fault population, $(b,--seed), $(b,--steps)). Unless \
             $(b,--checkpoint) is also given, new snapshots overwrite \
             $(docv).")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-kill-after" ] ~docv:"N"
          ~doc:
            "Testing hook for the chaos harness: SIGKILL this process right \
             after the $(docv)-th checkpoint flush commits (requires \
             $(b,--checkpoint)).")
  in
  Term.(
    const (fun checkpoint every resume chaos -> (checkpoint, every, resume, chaos))
    $ checkpoint $ every $ resume $ chaos)

let coverage_run model kind seed count steps fail_under progress jobs
    (checkpoint, checkpoint_every, resume, chaos_kill_after) common =
  warn_inert_max_nodes common;
  let p =
    {
      (Job.default_coverage ~model) with
      Job.cov_faults = kind;
      cov_seed = seed;
      cov_count = count;
      cov_steps = steps;
      cov_fail_under = fail_under;
      cov_jobs = jobs;
      cov_checkpoint = checkpoint;
      cov_checkpoint_every = checkpoint_every;
      cov_resume = resume;
    }
  in
  let on_progress =
    (* progress goes to stderr only: stdout is reserved for the report
       (the stdout-purity CI check pins this down) *)
    if progress then
      Some
        (fun (pr : Simcov_campaign.Campaign.progress) ->
          Format.fprintf Format.err_formatter "%a@."
            Simcov_campaign.Campaign.pp_progress pr)
    else None
  in
  with_interrupt @@ fun should_stop ->
  run_job ~should_stop ?on_progress ?chaos_kill_after common
    (Job.make ?timeout_s:common.timeout_s ?max_nodes:common.max_nodes
       (Job.Coverage p))

let coverage_cmd =
  let doc =
    "Run a fault campaign (FSM error-model or stuck-at) through the shared \
     bit-parallel campaign engine."
  in
  let model =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MODEL"
          ~doc:
            "$(b,dlx) (the DLX test model / its derived control netlist), a \
             builtin ($(b,dlx-control), $(b,dlx-test)) or a circuit file.")
  in
  let kind =
    let k = Arg.enum [ ("fsm", Job.Fsm_faults); ("stuckat", Job.Stuckat_faults) ] in
    Arg.(
      value & opt k coverage_defaults.Job.cov_faults
      & info [ "faults" ] ~docv:"KIND"
          ~doc:
            "Fault model: $(b,fsm) (transfer + output error-model mutants on the \
             enumerated machine) or $(b,stuckat) (netlist stuck-at faults under \
             random constraint-respecting stimuli).")
  in
  let count =
    Arg.(
      value & opt (bounded_int ~name:"--count" Job.count_range) coverage_defaults.Job.cov_count
      & info [ "count" ] ~docv:"N"
          ~doc:"FSM faults sampled per kind (transfer, output).")
  in
  let steps =
    Arg.(
      value & opt (bounded_int ~name:"--steps" Job.steps_range) coverage_defaults.Job.cov_steps
      & info [ "steps" ] ~docv:"N" ~doc:"Stimulus length for stuck-at campaigns.")
  in
  let fail_under =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-under" ] ~docv:"PCT"
          ~doc:"Exit 1 when coverage falls below $(docv) percent.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ] ~doc:"Print per-batch campaign progress to stderr.")
  in
  Cmd.v
    (cmd_info "coverage" ~doc)
    Term.(
      const coverage_run $ model $ kind $ seed_term coverage_defaults.Job.cov_seed $ count
      $ steps $ fail_under $ progress
      $ jobs_term coverage_defaults.Job.cov_jobs
      $ persist_term $ common_term)

(* ---- merge / minimize: offline aggregation of coverage snapshots ---- *)

let merge_run inputs output common =
  run_job common (Job.make (Job.Merge { inputs; output }))

let merge_cmd =
  let doc =
    "Union $(b,simcov-covdb/1) snapshots of the same campaign configuration \
     (per fault, the strongest status and earliest steps win) into one \
     durable snapshot."
  in
  let inputs =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Input $(b,simcov-covdb/1) snapshots.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Merged snapshot destination.")
  in
  Cmd.v (cmd_info "merge" ~doc) Term.(const merge_run $ inputs $ output $ common_term)

let minimize_run inputs common =
  run_job common (Job.make (Job.Minimize { inputs }))

let minimize_cmd =
  let doc =
    "Greedy set-cover over $(b,simcov-covdb/1) snapshots: pick the smallest \
     run subset (largest marginal detection first) that covers every fault \
     the whole fleet detected — a minimal regression suite."
  in
  let inputs =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Input $(b,simcov-covdb/1) snapshots.")
  in
  Cmd.v (cmd_info "minimize" ~doc) Term.(const minimize_run $ inputs $ common_term)

(* ---- serve / submit / jobs: the daemon front-end ---- *)

let socket_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve socket queue_limit workers =
  match Daemon.serve ~socket ~queue_limit ~workers () with
  | Ok () -> 0
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      7

let serve_cmd =
  let doc =
    "Run the job daemon: accept newline-delimited $(b,simcov-job/1) requests \
     over a Unix socket, stream $(b,simcov-metrics/1) snapshots and JSONL \
     trace events while each job runs, then the result envelope. SIGTERM \
     drains the queue through the durable checkpoint path and exits 0."
  in
  let queue_limit =
    Arg.(
      value & opt (bounded_int ~name:"--queue-limit" (1, 4096)) 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:"Reject new jobs (exit 6 at the client) beyond $(docv) queued.")
  in
  let workers =
    Arg.(
      value & opt (bounded_int ~name:"--workers" (1, 64)) 2
      & info [ "workers" ] ~docv:"N" ~doc:"Concurrent job worker domains.")
  in
  Cmd.v
    (cmd_info "serve" ~doc)
    Term.(const serve $ socket_term $ queue_limit $ workers)

(* a --param KEY=VALUE becomes a params field; values parse as JSON
   scalars when they look like one, strings otherwise *)
let param_value s =
  match Json.parse s with
  | Ok ((Json.Int _ | Json.Float _ | Json.Bool _ | Json.Null) as v) -> v
  | _ -> Json.String s

let build_job_json kind id timeout_s max_nodes params =
  let fields =
    List.map
      (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
            ( String.sub kv 0 i,
              param_value (String.sub kv (i + 1) (String.length kv - i - 1)) )
        | None -> (kv, Json.Bool true))
      params
  in
  Json.Obj
    ([ ("schema", Json.String Job.schema_id); ("kind", Json.String kind) ]
    @ (match id with Some i -> [ ("id", Json.String i) ] | None -> [])
    @ (match timeout_s with Some t -> [ ("timeout_s", Json.Float t) ] | None -> [])
    @ (match max_nodes with Some n -> [ ("max_nodes", Json.Int n) ] | None -> [])
    @ [ ("params", Json.Obj fields) ])

let submit socket kind file id params quiet report_only common =
  let job_json =
    match file with
    | Some path -> (
        let read () =
          if path = "-" then Ok (In_channel.input_all stdin)
          else
            try Ok (In_channel.with_open_text path In_channel.input_all)
            with Sys_error e -> Error e
        in
        match read () with
        | Error e ->
            Printf.eprintf "error: %s\n" e;
            Error 4
        | Ok text -> (
            match Json.parse text with
            | Error e ->
                Printf.eprintf "error: %s: %s\n" path e;
                Error 4
            | Ok j -> Ok j))
    | None -> (
        match kind with
        | Some kind ->
            Ok (build_job_json kind id common.timeout_s common.max_nodes params)
        | None ->
            prerr_endline "error: a job KIND (or --file JOB.json) is required";
            Error 2)
  in
  match job_json with
  | Error code -> code
  | Ok j -> (
      match Job.of_json j with
      | Error e ->
          Printf.eprintf "error: invalid job: %s\n" e;
          4
      | Ok job -> (
          let on_event ev =
            if not quiet then Printf.eprintf "%s\n%!" (Json.to_string ~indent:0 ev)
          in
          match Daemon.submit ~socket ~on_event job with
          | Error e ->
              Printf.eprintf "error: %s\n" e;
              7
          | Ok envelope ->
              (* re-rendering the parsed report with the library
                 renderer reproduces the one-shot CLI output byte for
                 byte (parse ∘ render is the identity on its image) *)
              (if report_only then
                 match Json.member "report" envelope with
                 | Some r -> print_endline (Json.to_string r)
                 | None -> ()
               else print_endline (Json.to_string envelope));
              (match Json.member "exit_code" envelope with
              | Some (Json.Int c) -> c
              | _ -> 7)))

let submit_cmd =
  let doc =
    "Submit a job to a running $(b,simcov serve) daemon and stream its \
     progress: trace/metrics events to stderr, the $(b,simcov-job/1) result \
     envelope to stdout; exits with the job's exit code."
  in
  let kind =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"KIND"
          ~doc:
            "Job kind: $(b,validate-dlx), $(b,lint), $(b,coverage), \
             $(b,merge), $(b,minimize) or $(b,stats).")
  in
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Read the full $(b,simcov-job/1) request from $(docv) ($(b,-) for stdin).")
  in
  let id =
    Arg.(
      value
      & opt (some string) None
      & info [ "id" ] ~docv:"ID" ~doc:"Job id echoed in the envelope.")
  in
  let params =
    Arg.(
      value & opt_all string []
      & info [ "param"; "p" ] ~docv:"KEY=VALUE"
          ~doc:
            "A job parameter, e.g. $(b,-p model=dlx -p jobs=2); repeatable. \
             Values parse as JSON scalars when they look like one.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Do not echo streamed events to stderr.")
  in
  let report_only =
    Arg.(
      value & flag
      & info [ "report-only" ]
          ~doc:
            "Print only the envelope's $(b,report) member — byte-identical \
             to the one-shot subcommand's $(b,--json) output.")
  in
  Cmd.v
    (cmd_info "submit" ~doc)
    Term.(
      const submit $ socket_term $ kind $ file $ id $ params $ quiet
      $ report_only $ common_term)

let jobs_cmd_run socket cancel =
  match cancel with
  | Some id -> (
      match Daemon.cancel_job ~socket ~id with
      | Ok reply ->
          print_endline (Json.to_string reply);
          0
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          7)
  | None -> (
      match Daemon.list_jobs ~socket with
      | Ok reply ->
          print_endline (Json.to_string reply);
          0
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          7)

let jobs_cmd =
  let doc = "List (or cancel) jobs on a running $(b,simcov serve) daemon." in
  let cancel =
    Arg.(
      value
      & opt (some string) None
      & info [ "cancel" ] ~docv:"ID" ~doc:"Cancel the job with id $(docv).")
  in
  Cmd.v (cmd_info "jobs" ~doc) Term.(const jobs_cmd_run $ socket_term $ cancel)

(* ---- main ---- *)

let () =
  (* A 4M-word minor arena (32 MB, per domain) instead of the default
     256k words. It was sized for the bit-sliced lane sets of wide
     campaigns, which are gone; perfbench runs with the same arena, so
     the CLI keeps it until a measurement says otherwise. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let doc = "validation methodology using simulation coverage (DAC 1997)" in
  let info = Cmd.info "simcov" ~version:"1.0.0" ~doc ~exits in
  let group =
    Cmd.group info
      [
        validate_cmd; tour_cmd; abstract_cmd; stats_cmd; fig2_cmd; run_cmd; dsp_cmd;
        model_cmd; lint_cmd; coverage_cmd; merge_cmd; minimize_cmd; serve_cmd;
        submit_cmd; jobs_cmd;
      ]
  in
  exit (Cmd.eval' ~term_err:2 group)

(* The observability layer: metric registry semantics, the
   simcov-metrics/1 snapshot, trace sinks, and the counters' agreement
   with the engines' own statistics. Every test resets the global
   registry first — metrics are process-wide by design. *)

module Obs = Simcov_obs.Obs
module Json = Simcov_util.Json
module Budget = Simcov_util.Budget
module Bdd = Simcov_bdd.Bdd

let test_registry_create_on_first_use () =
  Obs.reset ();
  let c1 = Obs.counter "test.counter" in
  let c2 = Obs.counter "test.counter" in
  Alcotest.(check bool) "same cell" true (c1 == c2);
  Obs.incr c1;
  Obs.add c1 4;
  Alcotest.(check int) "visible through alias" 5 (Metrics.count "test.counter");
  let g = Obs.gauge "test.gauge" in
  Obs.set g 7;
  Obs.set_max g 3;
  Alcotest.(check int) "set_max keeps maximum" 7 (Metrics.value "test.gauge");
  Obs.set_max g 11;
  Alcotest.(check int) "set_max raises" 11 (Metrics.value "test.gauge")

let test_snapshot_schema () =
  Obs.reset ();
  let c = Obs.counter "test.snap.counter" in
  let g = Obs.gauge "test.snap.gauge" in
  let t = Obs.timer "test.snap.timer" in
  Obs.add c 42;
  Obs.set g 9;
  Obs.observe t 0.25;
  Obs.observe t 0.5;
  (* the snapshot must round-trip through its own JSON renderer *)
  let json =
    match Json.parse (Json.to_string (Obs.snapshot ())) with
    | Ok v -> v
    | Error e -> Alcotest.failf "snapshot is not valid JSON: %s" e
  in
  Alcotest.(check bool)
    "schema tag" true
    (Json.member "schema" json = Some (Json.String "simcov-metrics/1"));
  Alcotest.(check bool) "wall clock present" true
    (Json.member "wall_clock_s" json <> None);
  Alcotest.(check int) "counter value" 42 (Metrics.int_at json [ "counters"; "test.snap.counter" ]);
  Alcotest.(check int) "gauge value" 9 (Metrics.int_at json [ "gauges"; "test.snap.gauge" ]);
  Alcotest.(check int) "timer span count" 2
    (Metrics.int_at json [ "timers"; "test.snap.timer"; "count" ]);
  (* instrumented-engine metrics are registered at module init, so they
     appear (at zero) in every snapshot: the field set is stable *)
  List.iter
    (fun name -> ignore (Metrics.int_at json [ "counters"; name ]))
    [
      "bdd.cache.and.hit"; "bdd.cache.and.miss"; "bdd.cache.or.hit";
      "bdd.cache.xor.hit"; "bdd.cache.not.hit"; "bdd.cache.ite.hit";
      "bdd.unique.hit"; "bdd.unique.miss"; "bdd.gc.runs"; "bdd.gc.reclaimed";
      "symfsm.iterations"; "symfsm.images"; "campaign.batches";
      "campaign.sim_steps"; "campaign.faults_evaluated";
      "campaign.lanes_diverged";
    ];
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0
    (Metrics.int_at (Obs.snapshot ()) [ "counters"; "test.snap.counter" ])

let test_trace_sink () =
  Obs.reset ();
  let lines = ref [] in
  Obs.set_sink (Some (fun l -> lines := l :: !lines));
  Obs.event "test.ev" ~fields:(fun () -> [ ("k", Json.Int 3) ]);
  let tm = Obs.timer "test.trace.span" in
  let r = Obs.span tm (fun () -> 17) in
  Alcotest.(check int) "span returns" 17 r;
  Obs.set_sink None;
  (* fields thunk must not run without a sink *)
  Obs.event "test.silent" ~fields:(fun () -> Alcotest.fail "fields forced");
  let parsed =
    List.rev_map
      (fun l ->
        match Json.parse l with
        | Ok v -> v
        | Error e -> Alcotest.failf "trace line is not JSON: %s" e)
      !lines
  in
  Alcotest.(check int) "two events" 2 (List.length parsed);
  (match parsed with
  | [ ev; sp ] ->
      Alcotest.(check bool) "ev name" true
        (Json.member "ev" ev = Some (Json.String "test.ev"));
      Alcotest.(check int) "ev field" 3 (Metrics.int_at ev [ "k" ]);
      Alcotest.(check bool) "span name" true
        (Json.member "ev" sp = Some (Json.String "test.trace.span"));
      Alcotest.(check bool) "span duration" true (Json.member "dur_s" sp <> None)
  | _ -> Alcotest.fail "expected exactly the two traced events");
  Alcotest.(check int) "span observed" 1 (Metrics.spans "test.trace.span")

let test_span_observes_on_raise () =
  Obs.reset ();
  let tm = Obs.timer "test.raise.span" in
  (try Obs.span tm (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded despite raise" 1 (Metrics.spans "test.raise.span")

(* ---- BDD counters vs the manager's own statistics ---- *)

let test_bdd_counters_match_gc_stats () =
  Obs.reset ();
  let m = Bdd.man 8 in
  let f =
    Bdd.conj m (List.init 8 (fun v -> Bdd.var m v)) |> Bdd.protect m
  in
  let g = Bdd.protect m (List.fold_left (Bdd.bor m) (Bdd.bfalse m) (List.init 8 (fun v -> Bdd.nvar m v))) in
  ignore (Bdd.band m f g);
  ignore (Bdd.bxor m f g);
  ignore (Bdd.bnot m f);
  ignore (Bdd.gc m);
  let st = Bdd.gc_stats m in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "gc runs" st.Bdd.runs (Metrics.int_at snap [ "counters"; "bdd.gc.runs" ]);
  Alcotest.(check int) "gc reclaimed" st.Bdd.reclaimed
    (Metrics.int_at snap [ "counters"; "bdd.gc.reclaimed" ]);
  Alcotest.(check int) "live gauge" st.Bdd.live
    (Metrics.int_at snap [ "gauges"; "bdd.nodes.live" ]);
  Alcotest.(check int) "peak gauge" st.Bdd.peak_live
    (Metrics.int_at snap [ "gauges"; "bdd.nodes.peak" ]);
  (* every live node was once a unique-table miss *)
  Alcotest.(check bool) "unique misses cover peak" true
    (Metrics.int_at snap [ "counters"; "bdd.unique.miss" ] >= st.Bdd.peak_live)

let test_symfsm_counters_match_traversal () =
  Obs.reset ();
  let model =
    Simcov_fsm.Fsm.make ~n_states:6 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (s + 1) mod 6 else 0)
      ~output:(fun s i -> if i = 0 then s else 0)
      ()
  in
  let sym = Fsm_netlist.of_fsm model in
  let tr = Simcov_symbolic.Symfsm.traverse sym in
  let snap = Obs.snapshot () in
  Alcotest.(check int) "iterations counter" tr.Simcov_symbolic.Symfsm.iterations
    (Metrics.int_at snap [ "counters"; "symfsm.iterations" ]);
  Alcotest.(check int) "images counter" tr.Simcov_symbolic.Symfsm.images
    (Metrics.int_at snap [ "counters"; "symfsm.images" ]);
  Alcotest.(check int) "iteration timer spans" tr.Simcov_symbolic.Symfsm.iterations
    (Metrics.int_at snap [ "timers"; "symfsm.iteration"; "count" ])

(* ---- campaign progress invariants ---- *)

let test_campaign_progress_invariants () =
  Obs.reset ();
  let open Simcov_fsm in
  let model =
    Fsm.make ~n_states:5 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (s + 1) mod 5 else 0)
      ~output:(fun s i -> if i = 0 then s else s + 1)
      ()
  in
  let word =
    match Simcov_testgen.Tour.transition_tour model with
    | Some t -> t.Simcov_testgen.Tour.word
    | None -> Alcotest.fail "expected tour"
  in
  let rng = Simcov_util.Rng.create 7 in
  let faults =
    Simcov_coverage.Fault.sample_transfer_faults rng model ~count:100
    @ Simcov_coverage.Fault.sample_output_faults rng model ~n_outputs:6 ~count:100
  in
  let seen = ref [] in
  let r =
    Simcov_coverage.Detect.campaign
      ~on_batch:(fun p -> seen := p :: !seen)
      model faults word
  in
  let progresses = List.rev !seen in
  Alcotest.(check bool) "at least one batch" true (progresses <> []);
  let module C = Simcov_campaign.Campaign in
  List.iteri
    (fun i (p : C.progress) ->
      Alcotest.(check int) "batch index is sequential" i p.C.batch;
      Alcotest.(check bool) "faults_done <= faults_total" true
        (p.C.faults_done <= p.C.faults_total);
      Alcotest.(check bool) "detected <= faults_done" true
        (p.C.detected_so_far <= p.C.faults_done);
      Alcotest.(check bool) "elapsed_s >= 0" true (p.C.elapsed_s >= 0.0))
    progresses;
  let rec monotone extract = function
    | a :: (b :: _ as rest) ->
        extract (a : C.progress) <= extract (b : C.progress) && monotone extract rest
    | _ -> true
  in
  Alcotest.(check bool) "faults_done monotone" true
    (monotone (fun p -> p.C.faults_done) progresses);
  Alcotest.(check bool) "detected monotone" true
    (monotone (fun p -> p.C.detected_so_far) progresses);
  Alcotest.(check bool) "sim_steps monotone" true
    (monotone (fun p -> p.C.sim_steps) progresses);
  (* the last progress report accounts for every evaluated fault *)
  (match List.rev progresses with
  | last :: _ ->
      Alcotest.(check int) "final faults_done = effective"
        r.Simcov_coverage.Detect.effective last.C.faults_done
  | [] -> ());
  (* and the global counters agree with the report *)
  let snap = Obs.snapshot () in
  Alcotest.(check int) "faults_evaluated counter"
    r.Simcov_coverage.Detect.effective
    (Metrics.int_at snap [ "counters"; "campaign.faults_evaluated" ]);
  Alcotest.(check int) "batches counter" (List.length progresses)
    (Metrics.int_at snap [ "counters"; "campaign.batches" ])

(* ---- domain safety: no lost updates under concurrent increments ---- *)

let test_domain_hammer () =
  Obs.reset ();
  let c = Obs.counter "test.domains.counter" in
  let g = Obs.gauge "test.domains.gauge" in
  let tm = Obs.timer "test.domains.timer" in
  let iters = 200_000 in
  let worker lo =
    for i = lo to lo + iters - 1 do
      Obs.incr c;
      Obs.set_max g i;
      if i mod 50_000 = 0 then Obs.observe tm 0.001
    done
  in
  let d = Domain.spawn (fun () -> worker iters) in
  worker 0;
  Domain.join d;
  (* every increment from both domains must land: counters are atomic,
     not last-writer-wins *)
  Alcotest.(check int) "no lost increments" (2 * iters) (Metrics.count "test.domains.counter");
  Alcotest.(check int) "set_max keeps the global maximum"
    ((2 * iters) - 1) (Metrics.value "test.domains.gauge");
  Alcotest.(check int) "mutex-guarded timer lost no spans" 8 (Metrics.spans "test.domains.timer");
  (* and the merged snapshot reflects the final state *)
  let snap = Obs.snapshot () in
  Alcotest.(check int) "snapshot agrees" (2 * iters)
    (Metrics.int_at snap [ "counters"; "test.domains.counter" ])

(* ---- the budget's secondary node enforcement (fake probe) ---- *)

let test_budget_node_probe () =
  let b = Budget.create ~max_nodes:10 () in
  Alcotest.(check bool) "no probe, never Nodes" true (Budget.exceeded b = None);
  let reading = ref 5 in
  Budget.set_node_probe b (Some (fun () -> !reading));
  Alcotest.(check bool) "below cap" true (Budget.exceeded b = None);
  reading := 10;
  (* at the cap is fine: the primary enforcer (a BDD manager) holds the
     live count AT its ceiling, which must not read as exhaustion *)
  Alcotest.(check bool) "at cap" true (Budget.exceeded b = None);
  reading := 11;
  Alcotest.(check bool) "above cap" true (Budget.exceeded b = Some Budget.Nodes);
  (match Budget.check b with
  | exception Budget.Budget_exceeded Budget.Nodes -> ()
  | _ -> Alcotest.fail "check must raise Nodes");
  Budget.set_node_probe b None;
  Alcotest.(check bool) "probe cleared" true (Budget.exceeded b = None);
  (* the shared unlimited singleton must stay stateless *)
  Budget.set_node_probe Budget.unlimited (Some (fun () -> 1_000_000));
  Alcotest.(check bool) "unlimited ignores probes" true
    (Budget.exceeded Budget.unlimited = None)

(* A job's campaign.* metrics count only the campaigns it reports:
   the FSM lint's SA640/SA641 engine runs stay out of them. validate-dlx
   runs a 300-fault FSM campaign (5 batches) and the 12-bug pipeline
   campaign (12 one-lane batches). *)
let test_campaign_metrics_count_reported_campaigns () =
  let module Job = Simcov_service.Job in
  let counts job =
    let reg = Obs.registry () in
    Fun.protect
      ~finally:(fun () -> Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            ignore (Simcov_service.Service.run (Job.make job));
            ( Metrics.count "campaign.batches",
              Metrics.count "campaign.faults_evaluated" )))
  in
  Alcotest.(check (pair int int))
    "lint --fsm dlx-test: batches, faults" (0, 0)
    (counts (Job.Lint { (Job.default_lint ~model:"dlx-test") with Job.li_fsm = true }));
  Alcotest.(check (pair int int))
    "validate-dlx: batches, faults" (17, 312)
    (counts (Job.Validate_dlx Job.default_validate))

(* one compiled model per job: a validate-dlx run and a cold coverage
   dlx job each build the tables once and solve the postman tour once;
   a warm coverage job on a shared cache does neither, and a cold
   fsm-lint job builds the tables once *)
let test_one_tabulation_per_job () =
  let module Job = Simcov_service.Job in
  let module Model_cache = Simcov_service.Model_cache in
  let counts ?(cache = Model_cache.create ()) job =
    let reg = Obs.registry () in
    Fun.protect
      ~finally:(fun () -> Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            ignore (Simcov_service.Service.run ~cache (Job.make job));
            (Metrics.count "fsm.tabulations", Metrics.count "tour.solves")))
  in
  Alcotest.(check (pair int int))
    "validate-dlx: tabulations, tour solves" (1, 1)
    (counts (Job.Validate_dlx Job.default_validate));
  let shared = Model_cache.create () in
  let coverage = Job.Coverage (Job.default_coverage ~model:"dlx") in
  Alcotest.(check (pair int int))
    "cold coverage dlx: tabulations, tour solves" (1, 1) (counts ~cache:shared coverage);
  Alcotest.(check (pair int int))
    "warm coverage dlx: tabulations, tour solves" (0, 0) (counts ~cache:shared coverage);
  Alcotest.(check int) "cold lint --fsm dlx-test: tabulations" 1
    (fst (counts (Job.Lint { (Job.default_lint ~model:"dlx-test") with Job.li_fsm = true })))

(* the bug campaign holds each bug's pipeline against one spec run
   per program, commit by commit, up to its first mismatch: the sum of
   the twelve first-mismatch indices plus one each *)
let test_commits_compared () =
  let module Job = Simcov_service.Job in
  let compared regs =
    let reg = Obs.registry () in
    Fun.protect
      ~finally:(fun () -> Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            ignore
              (Simcov_service.Service.run ~cache:(Simcov_service.Model_cache.create ())
                 (Job.make (Job.Validate_dlx { Job.default_validate with Job.va_regs = regs })));
            Metrics.count "validate.commits_compared"))
  in
  Alcotest.(check int) "4 registers" 4_721 (compared 4);
  Alcotest.(check int) "2 registers" 1_075 (compared 2)

(* one compilation per construction path: a cold coverage dsp job
   builds the MAC model once, a cold lint --fsm job builds its circuit's
   or the built-in test model's machine once, and each warm repeat on a
   shared cache builds none; every job exits 0 *)
let test_one_compilation_per_construction_path () =
  let module Job = Simcov_service.Job in
  let module Model_cache = Simcov_service.Model_cache in
  let tabulations ~cache job =
    let reg = Obs.registry () in
    Fun.protect
      ~finally:(fun () -> Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            let o = Simcov_service.Service.run ~cache (Job.make job) in
            (o.Simcov_service.Service.exit_code, Metrics.count "fsm.tabulations")))
  in
  let lint_fsm model = Job.Lint { (Job.default_lint ~model) with Job.li_fsm = true } in
  (* cwd is test/ under `dune runtest` but the workspace root under
     `dune exec test/test_main.exe` *)
  let counter =
    List.find Sys.file_exists
      [ "../examples/models/counter.circ"; "examples/models/counter.circ" ]
  in
  List.iter
    (fun (name, job) ->
      let cache = Model_cache.create () in
      Alcotest.(check (pair int int)) ("cold " ^ name) (0, 1) (tabulations ~cache job);
      Alcotest.(check (pair int int)) ("warm " ^ name) (0, 0) (tabulations ~cache job))
    [
      ("coverage dsp", Job.Coverage (Job.default_coverage ~model:"dsp"));
      ("lint --fsm counter.circ", lint_fsm counter);
      ("lint --fsm dlx-test", lint_fsm "dlx-test");
    ]

(* Theorem 1's facts are solved once per cached machine: a lint --fsm
   job and a coverage job of the DLX test model share them in either
   order, and each report reads as from a cold cache *)
let test_one_tour_solve_per_cached_machine () =
  let module Job = Simcov_service.Job in
  let module Model_cache = Simcov_service.Model_cache in
  let module Service = Simcov_service.Service in
  let run ~cache job =
    let reg = Obs.registry () in
    Fun.protect
      ~finally:(fun () -> Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            let o = Service.run ~cache (Job.make job) in
            let report = Option.fold ~none:"" ~some:Json.to_string o.Service.report in
            ((o.Service.exit_code, report), Metrics.count "tour.solves")))
  in
  let cold job = fst (run ~cache:(Model_cache.create ()) job) in
  let lint = Job.Lint { (Job.default_lint ~model:"dlx-test") with Job.li_fsm = true } in
  let coverage = Job.Coverage (Job.default_coverage ~model:"dlx") in
  List.iter
    (fun (name, first, second) ->
      let cache = Model_cache.create () in
      let r1, s1 = run ~cache first in
      let r2, s2 = run ~cache second in
      Alcotest.(check (pair int int)) (name ^ ": tour solves") (1, 0) (s1, s2);
      Alcotest.(check bool) (name ^ ": first report") true (r1 = cold first);
      Alcotest.(check bool) (name ^ ": second report") true (r2 = cold second))
    [ ("lint then coverage", lint, coverage); ("coverage then lint", coverage, lint) ]

let suite =
  [
    Alcotest.test_case "registry create-on-first-use" `Quick
      test_registry_create_on_first_use;
    Alcotest.test_case "snapshot schema" `Quick test_snapshot_schema;
    Alcotest.test_case "trace sink" `Quick test_trace_sink;
    Alcotest.test_case "span observes on raise" `Quick test_span_observes_on_raise;
    Alcotest.test_case "bdd counters match gc_stats" `Quick
      test_bdd_counters_match_gc_stats;
    Alcotest.test_case "symfsm counters match traversal" `Quick
      test_symfsm_counters_match_traversal;
    Alcotest.test_case "campaign progress invariants" `Quick
      test_campaign_progress_invariants;
    Alcotest.test_case "two-domain counter hammer" `Quick test_domain_hammer;
    Alcotest.test_case "budget node probe" `Quick test_budget_node_probe;
    Alcotest.test_case "campaign metrics count reported campaigns only" `Quick
      test_campaign_metrics_count_reported_campaigns;
    Alcotest.test_case "one tabulation and one tour solve per job" `Quick
      test_one_tabulation_per_job;
    Alcotest.test_case "one compilation per construction path" `Quick
      test_one_compilation_per_construction_path;
    Alcotest.test_case "one tour solve per cached machine" `Quick
      test_one_tour_solve_per_cached_machine;
    Alcotest.test_case "validate-dlx commits compared" `Quick test_commits_compared;
  ]

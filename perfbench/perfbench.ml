(* perfbench: the end-to-end and per-layer benchmark of simcov.

   perfbench --workload campaign|validate|service --seed N --seconds S --trace 0|1

   Run from the root of a source tree after `dune build`. Every input is
   derived from --seed and --seconds alone; each run is bounded by a job
   count (not a clock) so that memory figures do not depend on host
   speed. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1, the per-layer ones
   from a second, traced pass over the same job list. Artifacts (host
   record, spans, class placement) go to .perfbench/out/. See README.md. *)

module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs

let now = Unix.gettimeofday

(* ---- statistics ---- *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile p l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ---- class placement ---- *)

(* Each class's share of the jobs and its median latency. Sorted by
   median, the shares partition [0, 100]; a p50 or p90 within 10 points
   of a boundary between classes is flagged: a small shift in the mix
   would move it into another class. *)
let placement samples =
  let n = float_of_int (List.length samples) in
  let classes = List.sort_uniq compare (List.map fst samples) in
  let rows =
    List.map
      (fun c ->
        let l = List.filter_map (fun (c', v) -> if c = c' then Some v else None) samples in
        (c, 100. *. float_of_int (List.length l) /. n, median l))
      classes
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  in
  let _, bounds =
    List.fold_left (fun (lo, acc) (c, share, med) -> (lo +. share, (c, share, med, lo, lo +. share) :: acc)) (0., []) rows
  in
  let bounds = List.rev bounds in
  let flags =
    List.filter_map
      (fun p ->
        List.find_map
          (fun (c, _, _, lo, hi) ->
            if p > lo && p <= hi then
              let d = Float.min (p -. lo) (hi -. p) in
              if d < 10. then Some (Printf.sprintf "p%.0f lies %.1f points from a boundary of class %s" p d c)
              else None
            else None)
          bounds)
      [ 50.; 90. ]
  in
  let json =
    Json.Obj
      [
        ( "classes",
          Json.List
            (List.map
               (fun (c, share, med, lo, hi) ->
                 Json.Obj
                   [
                     ("class", Json.String c);
                     ("share_pct", Json.Float share);
                     ("median_ms", Json.Float (med *. 1000.));
                     ("from_pct", Json.Float lo);
                     ("to_pct", Json.Float hi);
                   ])
               bounds) );
        ("flags", Json.List (List.map (fun f -> Json.String f) flags));
      ]
  in
  (flags, json)

(* ---- per-layer metrics from the traced pass ---- *)

type traced = {
  spans : Spans.span list;
  snaps : (int * Json.t) list;
      (** per job: its simcov-metrics/1 snapshot, taken around Service.run
          in process and streamed by the daemon on service *)
  jobs_per_s_untraced : float;
  jobs_per_s_traced : float;
  service : bool;
}

let counter name snap =
  match Option.bind (Json.member "counters" snap) (Json.member name) with
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

let gauge name snap =
  match Option.bind (Json.member "gauges" snap) (Json.member name) with
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.

(* "name (a vs b)" for every counter whose value differs *)
let counters_differ a b =
  let counters s = match Json.member "counters" s with Some (Json.Obj l) -> l | _ -> [] in
  let cb = counters b in
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k cb with
      | Some v' when v' = v -> None
      | v' ->
          let show = function Some (Json.Int i) -> string_of_int i | _ -> "-" in
          Some (Printf.sprintf "%s (%s vs %s)" k (show (Some v)) (show v')))
    (counters a)

let bdd_ops = [ "and"; "or"; "xor"; "not"; "ite" ]

let layer_metrics ~flags t =
  let selfs = Spans.self_times t.spans in
  let ms = 1000. in
  (* mean over jobs that ran a matching span of the job's summed self time *)
  let per_job pred =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ((s : Spans.span), self) ->
        if pred s.Spans.name then
          Hashtbl.replace tbl s.Spans.job (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.Spans.job)))
      selfs;
    ms *. mean (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  in
  let calls pred = List.filter (fun ((s : Spans.span), _) -> pred s.Spans.name) selfs in
  let per_call pred = ms *. mean (List.map snd (calls pred)) in
  let is n s = s = n in
  let prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let snaps = List.map snd t.snaps in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0. l in
  let over pred f = mean (List.filter_map (fun s -> if pred s then Some (f s) else None) snaps) in
  let ratio num den = if den > 0. then num /. den else 0. in
  (* campaign *)
  let campaign_jobs = List.filter (fun s -> counter "campaign.batches" s > 0.) snaps in
  let campaign_self_s = List.fold_left (fun a (_, self) -> a +. self) 0. (calls (prefix "campaign.")) in
  let sim_steps = sum (counter "campaign.sim_steps") campaign_jobs in
  let occupancy =
    ratio
      (sum (counter "campaign.faults_evaluated") campaign_jobs)
      (sum (fun s -> counter "campaign.batches" s *. gauge "campaign.lanes" s) campaign_jobs)
  in
  (* bdd *)
  let bdd_lookups s = counter "bdd.unique.hit" s +. counter "bdd.unique.miss" s in
  let bdd_jobs = List.filter (fun s -> bdd_lookups s > 0.) snaps in
  let op_hits = sum (fun s -> sum (fun op -> counter ("bdd.cache." ^ op ^ ".hit") s) bdd_ops) bdd_jobs in
  let op_all =
    op_hits +. sum (fun s -> sum (fun op -> counter ("bdd.cache." ^ op ^ ".miss") s) bdd_ops) bdd_jobs
  in
  (* model cache: in-process every lookup is a one-shot miss; on the
     daemon a miss is seen as the server-side run of a job whose
     streamed snapshot counted one *)
  let hits = sum (counter "service.cache.hits") snaps in
  let misses = sum (counter "service.cache.misses") snaps in
  let miss_ms =
    if t.service then
      let missed = List.filter_map (fun (j, s) -> if counter "service.cache.misses" s > 0. then Some j else None) t.snaps in
      ms *. mean (List.filter_map (fun ((s : Spans.span), self) ->
          if s.Spans.name = "service.run" && List.mem s.Spans.job missed then Some self else None) selfs)
    else per_call (prefix "model_cache.")
  in
  let service_run_ms =
    if t.service then per_call (is "service.run")
    else ms *. mean (List.filter_map (fun (s : Spans.span) -> if s.Spans.parent = 0 then Some (s.Spans.t1 -. s.Spans.t0) else None) t.spans)
  in
  (* share of each job's wall time inside layer spans (not the root) *)
  let coverage =
    let roots = List.filter (fun ((s : Spans.span), _) -> s.Spans.parent = 0) selfs in
    List.fold_left
      (fun acc ((s : Spans.span), self) ->
        let d = s.Spans.t1 -. s.Spans.t0 in
        if d > 0. then Float.min acc (100. *. (1. -. (self /. d))) else acc)
      100. roots
  in
  let saves = List.filter (fun s -> counter "covdb.saves" s > 0.) snaps in
  [
    ("campaign.busy_ms", "ms", per_job (prefix "campaign."));
    ("campaign.fsm_native_ms", "ms", per_job (is "campaign.fsm_native"));
    ("campaign.fsm_wide_ms", "ms", per_job (is "campaign.fsm_wide"));
    ("campaign.fsm_sharded_ms", "ms", per_job (is "campaign.fsm_sharded"));
    ("campaign.stuckat_native_ms", "ms", per_job (is "campaign.stuckat_native"));
    ("campaign.stuckat_wide_ms", "ms", per_job (is "campaign.stuckat_wide"));
    ("campaign.sim_steps", "count", mean (List.map (counter "campaign.sim_steps") campaign_jobs));
    ("campaign.sim_steps_per_s", "1/s", ratio sim_steps campaign_self_s);
    ("campaign.lane_occupancy", "ratio", occupancy);
    ("campaign.alloc_mb", "MB", Spans.mean_sample "campaign.alloc_mb");
    ("tour.certify_ms", "ms", per_call (is "tour.certify"));
    ("fault.sample_ms", "ms", per_call (is "fault.sample"));
    ("covdb.save_ms", "ms", per_call (is "covdb.save"));
    ("covdb.saves", "count", mean (List.map (counter "covdb.saves") saves));
    ("covdb.bytes_written", "bytes", Spans.mean_sample "covdb.bytes_written");
    ("covdb.load_ms", "ms", per_call (is "covdb.load"));
    ("covdb.records_loaded", "count", Spans.mean_sample "covdb.records_loaded");
    ("methodology.lint_ms", "ms", per_job (is "lint.netlist"));
    ("methodology.fsm_lint_ms", "ms", per_job (is "fsm_lint.certify"));
    ("methodology.symbolic_ms", "ms", per_job (is "symfsm.methodology"));
    ("methodology.requirements_ms", "ms", per_job (is "methodology.requirements"));
    ("methodology.tour_ms", "ms", per_job (is "methodology.tour"));
    ("methodology.campaigns_ms", "ms", per_job (fun n -> n = "campaign.bugs" || n = "campaign.methodology_fsm"));
    ("symfsm.build_ms", "ms", per_call (is "symfsm.build"));
    ("symfsm.reach_ms", "ms", per_call (is "symfsm.reach"));
    ("symfsm.count_ms", "ms", per_job (is "symfsm.count"));
    ("symfsm.images", "count", over (fun s -> counter "symfsm.images" s > 0.) (counter "symfsm.images"));
    ("bdd.peak_nodes", "count", List.fold_left (fun a s -> Float.max a (gauge "bdd.nodes.peak" s)) 0. snaps);
    ("bdd.unique_lookups", "count", mean (List.map bdd_lookups bdd_jobs));
    ("bdd.op_cache_hit_ratio", "ratio", ratio op_hits op_all);
    ("bdd.gc_runs", "count", mean (List.map (counter "bdd.gc.runs") bdd_jobs));
    ("bdd.reorder_swaps", "count", mean (List.map (counter "bdd.reorder.swaps") bdd_jobs));
    ("model_cache.hit_ratio", "ratio", ratio hits (hits +. misses));
    ("model_cache.miss_ms", "ms", miss_ms);
    ("model_cache.evictions", "count", mean (List.map (counter "service.cache.evictions") snaps));
    ("service.run_ms", "ms", service_run_ms);
    ("json.render_ms", "ms", per_call (is "json.render"));
    ("json.report_bytes", "bytes", Spans.mean_sample "json.report_bytes");
    ("daemon.dispatch_ms", "ms", per_call (is "daemon.dispatch"));
    ("daemon.reply_ms", "ms", per_call (is "daemon.reply"));
    ("daemon.lines_per_job", "count", Spans.mean_sample "daemon.lines_per_job");
    ( "bench.trace_overhead_pct", "%",
      100. *. ratio (t.jobs_per_s_untraced -. t.jobs_per_s_traced) t.jobs_per_s_untraced );
    ("bench.layer_coverage_pct", "%", coverage);
    ("bench.placement_flags", "count", float_of_int flags);
  ]

(* ---- a run ---- *)

type run = {
  setup_s : float list;  (** one per set-up repetition *)
  samples : (string * float) list;  (** (class, latency s) of every timed job *)
  wall_s : float;  (** timed phase, the untimed work between jobs excluded *)
  peak_rss_mb : float;
  failures : string list;
  attempted : int;
  traced : traced option;
}

let setup_reps = 5

(* run [setup] [reps] >= 1 times: the last result, and every duration *)
let repeated ~reps setup =
  let timed () =
    let t0 = now () in
    let r = setup () in
    (r, now () -. t0)
  in
  let runs = List.init reps (fun _ -> timed ()) in
  (fst (List.nth runs (reps - 1)), List.map snd runs)

(* campaign and validate: one job at a time through Service.run *)
let run_inprocess ~cycle ~spec ~rate ~seed ~seconds ~trace ~dir =
  let n = max 100 (int_of_float (rate *. float_of_int seconds)) in
  let failures = ref [] in
  let miss = function Some m -> failures := m :: !failures | None -> () in
  (* between two jobs, untimed: the oracles, then a heap compaction, so
     that each job starts from a heap like that of the fresh `simcov`
     process a user would run it in *)
  let between ~first_fsm j r =
    let t0 = now () in
    miss (Inproc.oracle ~dir ~first_fsm j r);
    Gc.compact ();
    now () -. t0
  in
  let jobs, setup_s =
    repeated ~reps:(if trace then 1 else setup_reps) (fun () ->
        let jobs = Inproc.job_list ~cycle ~spec ~seed ~n in
        let first_fsm = Hashtbl.create 4 in
        List.iter
          (fun j -> ignore (between ~first_fsm j (Inproc.run_untraced j)))
          (Inproc.warmup_list ~cycle ~spec ~seed:(seed + 1));
        jobs)
  in
  let first_fsm = Hashtbl.create 64 in
  let untimed = ref 0. in
  let t0 = now () in
  let results =
    List.map
      (fun j ->
        let r = Inproc.run_untraced j in
        untimed := !untimed +. between ~first_fsm j r;
        (j, r))
      jobs
  in
  let wall_s = now () -. t0 -. !untimed in
  let traced =
    if not trace then None
    else begin
      Spans.reset ();
      let t0 = now () in
      let cmp_s = ref 0. in
      List.iter
        (fun ((j : Inproc.job), (r : Inproc.result)) ->
          Obs.reset ();
          let rep = try Ok (Inproc.run_traced j) with e -> Error (Printexc.to_string e) in
          let c0 = now () in
          let metrics = Obs.snapshot () in
          let tag = Printf.sprintf "traced %s #%d" j.Inproc.cls j.Inproc.idx in
          (match (rep, r.Inproc.report) with
          | Ok a, Some b when Json.to_string (Inproc.strip_timing a) = Json.to_string (Inproc.strip_timing b) -> ()
          | Error e, _ -> miss (Some (Printf.sprintf "%s raised %s" tag e))
          | _ -> miss (Some (tag ^ ": report differs from untraced")));
          (* the re-enacted job must make the library calls Service.run
             made: every counter of its snapshot equals the untraced one *)
          (match counters_differ metrics r.Inproc.metrics with
          | [] -> ()
          | d -> miss (Some (Printf.sprintf "%s: counters differ from Service.run: %s" tag (String.concat ", " d))));
          Gc.compact ();
          cmp_s := !cmp_s +. (now () -. c0))
        results;
      let traced_wall = now () -. t0 -. !cmp_s in
      Some
        {
          spans = Spans.all ();
          snaps = List.map (fun ((j : Inproc.job), (r : Inproc.result)) -> (j.Inproc.idx, r.Inproc.metrics)) results;
          jobs_per_s_untraced = float_of_int n /. wall_s;
          jobs_per_s_traced = float_of_int n /. traced_wall;
          service = false;
        }
    end
  in
  {
    setup_s;
    samples = List.map (fun ((j : Inproc.job), (r : Inproc.result)) -> (j.Inproc.cls, r.Inproc.latency_s)) results;
    wall_s;
    peak_rss_mb = Host.peak_rss_mb "self";
    failures = List.rev !failures;
    attempted = (if trace then 2 * n else n);
    traced;
  }

(* service: the real daemon, two client threads. The run is split into
   rounds of [round_jobs] jobs, each on a freshly spawned daemon: it
   keeps every served job's record, so a longer-lived one would grow its
   memory and its jobs-op listing with the run length. *)
let service_rate = 360.
let round_jobs = 800
let clients = 2

let run_service ~exe ~seed ~seconds ~trace ~dir =
  let rounds = max 1 (int_of_float (service_rate *. float_of_int seconds) / round_jobs) in
  let failures = ref [] in
  let miss = function Some m -> failures := m :: !failures | None -> () in
  let bad_results l =
    Array.iter
      (fun (j, (r : Service_load.result)) ->
        match r.Service_load.ok with
        | Ok _ -> ()
        | Error e -> miss (Some (Printf.sprintf "%s #%d: %s" j.Service_load.cls j.Service_load.idx e)))
      l
  in
  let warm = Service_load.warmup_list ~dir ~seed:(seed + 1) in
  let reference = lazy (List.map (fun j -> (j.Service_load.idx, Service_load.inprocess_report j)) warm) in
  (* set-up: generate the round's inputs, spawn, answer ping, warm one
     job per class and check its wire report against the in-process one
     (computed in the first round); then the timed jobs; then the
     SIGTERM drain, which must exit 0 *)
  let round ~prefix k =
    let t0 = now () in
    let jobs =
      Service_load.job_list ~first:(k * round_jobs) ~dir ~prefix:(Printf.sprintf "%s%d" prefix k)
        ~seed:(seed + (7919 * k)) ~n:round_jobs ()
    in
    let srv = match Service_load.spawn ~exe ~dir with Ok s -> s | Error e -> failwith e in
    let reference = Lazy.force reference in
    List.iter
      (fun j ->
        let r = Service_load.run_one srv j in
        bad_results [| (j, r) |];
        miss (Service_load.wire_matches ~reference:(List.assoc j.Service_load.idx reference) j r))
      warm;
    let t1 = now () in
    let results = Service_load.drive srv ~clients jobs in
    let wall_s = now () -. t1 in
    let paired = Array.map2 (fun j r -> (j, r)) (Array.of_list jobs) results in
    bad_results paired;
    let rss = Host.peak_rss_mb (string_of_int srv.Service_load.pid) in
    miss (Service_load.stop srv);
    (t1 -. t0, wall_s, rss, Array.to_list paired)
  in
  let pass prefix = List.init rounds (round ~prefix) in
  let untraced = pass "u" in
  let wall_of p = List.fold_left (fun a (_, w, _, _) -> a +. w) 0. p in
  let n = rounds * round_jobs in
  let traced =
    if not trace then None
    else begin
      Spans.reset ();
      let p = pass "t" in
      let snaps =
        List.concat_map (fun (_, _, _, paired) -> paired) p
        |> List.filter_map (fun (j, (r : Service_load.result)) ->
               Service_load.record_spans j r;
               (match r.Service_load.ok with
               | Ok rep when j.Service_load.request <> None ->
                   Spans.note "daemon.lines_per_job" (float_of_int r.Service_load.trace.Service_load.lines);
                   Spans.note "json.report_bytes" (float_of_int (String.length (Json.to_string rep)))
               | _ -> ());
               Option.map (fun s -> (j.Service_load.idx, s)) r.Service_load.trace.Service_load.last_metrics)
      in
      Some
        {
          spans = Spans.all ();
          snaps;
          jobs_per_s_untraced = float_of_int n /. wall_of untraced;
          jobs_per_s_traced = float_of_int n /. wall_of p;
          service = true;
        }
    end
  in
  {
    setup_s = List.map (fun (s, _, _, _) -> s) untraced;
    samples =
      List.concat_map
        (fun (_, _, _, paired) ->
          List.map (fun (j, (r : Service_load.result)) -> (j.Service_load.cls, r.Service_load.latency_s)) paired)
        untraced;
    wall_s = wall_of untraced;
    peak_rss_mb = List.fold_left (fun a (_, _, r, _) -> Float.max a r) 0. untraced;
    failures = List.rev !failures;
    attempted = (if trace then 2 * n else n);
    traced;
  }

(* ---- main ---- *)

let usage () =
  prerr_endline "usage: perfbench --workload campaign|validate|service --seed N --seconds S --trace 0|1";
  exit 2

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write path json =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc (Json.to_string json ^ "\n"))

let () =
  (* the allocation setting bin/simcov.ml makes, so the in-process
     workloads run the program users run *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--probe" ] then (
    Host.probe_main ();
    exit 0);
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := int_of_string v; parse r
    | "--trace" :: v :: r -> trace := int_of_string v; parse r
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload [ "campaign"; "validate"; "service" ]))
    || !seed < 0 || !seconds <= 0
    || (!trace <> 0 && !trace <> 1)
  then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let exe = Filename.concat (Sys.getcwd ()) "_build/default/bin/simcov.exe" in
  let dir = Filename.concat ".perfbench" (Filename.concat "tmp" !workload) in
  let out = Filename.concat ".perfbench" "out" in
  mkdir_p dir;
  mkdir_p out;
  let probes_start = Host.probes () in
  let run =
    match !workload with
    | "campaign" ->
        Inproc.(run_inprocess ~cycle:campaign_cycle ~spec:(campaign_spec ~dir) ~rate:20.)
          ~seed ~seconds ~trace ~dir
    | "validate" ->
        Inproc.(run_inprocess ~cycle:validate_cycle ~spec:validate_spec ~rate:2.5) ~seed ~seconds ~trace ~dir
    | "service" -> run_service ~exe ~seed ~seconds ~trace ~dir
    | _ -> usage ()
  in
  let probes_end = Host.probes () in
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload seed (if trace then 1 else 0) in
  let file name = Filename.concat out (tag ^ "." ^ name ^ ".json") in
  write (file "host") (Host.record ~workload:!workload ~seed ~scratch:dir ~probes_start ~probes_end);
  let flags, placement_json = placement run.samples in
  write (file "placement") placement_json;
  write (file "latencies")
    (Json.List (List.map (fun (c, v) -> Json.List [ Json.String c; Json.Float (v *. 1000.) ]) run.samples));
  let lat = List.map snd run.samples in
  let n = List.length lat in
  let end_to_end =
    [
      ("setup_s", "s", median run.setup_s);
      ("jobs_per_s", "1/s", float_of_int n /. run.wall_s);
      ("latency_p50_ms", "ms", 1000. *. percentile 50. lat);
      ("latency_p90_ms", "ms", 1000. *. percentile 90. lat);
      ("peak_rss_mb", "MB", run.peak_rss_mb);
    ]
  in
  let failed = List.length run.failures in
  Printf.eprintf "%s: %d jobs, %d failed (failed_ratio %.4f)\n" tag n failed
    (float_of_int failed /. float_of_int run.attempted);
  List.iter (fun f -> Printf.eprintf "  FAILED %s\n" f) run.failures;
  List.iter
    (fun (name, unit, v) ->
      let samples = if name = "setup_s" then List.length run.setup_s else if name = "peak_rss_mb" then 1 else n in
      Printf.eprintf "  %-16s %12.4f %-4s (n=%d)\n" name v unit samples)
    end_to_end;
  List.iter (fun f -> Printf.eprintf "  placement flag: %s\n" f) flags;
  let metrics =
    match run.traced with
    | None -> end_to_end
    | Some t ->
        write (file "spans") (Spans.to_json t.spans);
        let m = layer_metrics ~flags:(List.length flags) t in
        List.iter (fun (name, unit, v) -> Printf.eprintf "  %-30s %14.4f %s\n" name v unit) m;
        m
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int run.attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map (fun (name, unit, v) -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])) metrics) );
      ]
  in
  write (file "result") result;
  print_endline (Json.to_string ~indent:0 result)

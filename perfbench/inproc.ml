(* The two in-process workloads, [campaign] and [validate]: their job
   lists, the untraced run through [Service.run], the traced re-run that
   drives each layer from here, and the correctness oracles. *)

module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Budget = Simcov_util.Budget
module Rng = Simcov_util.Rng
module Crc32 = Simcov_util.Crc32
module Job = Simcov_service.Job
module Service = Simcov_service.Service
module Model_cache = Simcov_service.Model_cache
module Campaign = Simcov_campaign.Campaign
module Covdb = Simcov_covdb.Covdb
module Circuit = Simcov_netlist.Circuit
module Fsm = Simcov_fsm.Fsm
module Detect = Simcov_coverage.Detect
module Stuckat = Simcov_coverage.Stuckat
module Fault = Simcov_coverage.Fault
module Completeness = Simcov_core.Completeness
module Symfsm = Simcov_symbolic.Symfsm

type job = {
  idx : int;
  cls : string;  (** job class: one row of the workload's mix *)
  group : int;  (** cycle of the job list *)
  shared : bool;  (** runs on its cycle's shared seed *)
  job : Job.t;
}

(* ---- job lists ---- *)

(* Class sizes. FSM campaigns sample [fsm_count] faults per kind on the
   certified DLX test model; the checkpointed pair samples [ckpt_count]
   and flushes a snapshot after every batch, so Covdb writes take about
   a third of the workload's time; stuck-at campaigns run [sa_steps]
   random stimulus vectors, and the two on [dlx-test] save one final
   snapshot each for [merge-stuckat]. *)
let fsm_count = 1500
let ckpt_count = 600
let sa_steps = 128

(* One cycle of the campaign mix, in run order. Sorted by latency, six
   to eight of the nine one-off rows sort below the plain FSM row at
   lanes 63 (11 of 26), which then covers about the 23rd-65th
   percentiles (31st-73rd at most), so p50 falls inside it; the
   checkpointed lanes-63 row (6 of 26), the slowest, covers the top 23%,
   so p90 falls inside it. Each job draws its own seed, except that the
   rows marked [*] share one per cycle: the FSM triple whose reports
   must be byte-identical, and the checkpointed pair that merge and
   minimize read. The two [dlx-test] stuck-at rows draw different seeds,
   so [merge-stuckat] unites two different detection sets. *)
let campaign_cycle =
  [
    "fsm-63*"; "fsm-512*"; "fsm-63-jobs2*"; "ckpt-63"; "fsm-63"; "stuckat-test-63"; "ckpt-63";
    "fsm-63"; "fsm-63"; "ckpt-63"; "stuckat-test-512"; "fsm-63"; "ckpt-63"; "fsm-63";
    "stuckat-control-63"; "merge-stuckat"; "fsm-63"; "ckpt-63*"; "ckpt-512*"; "merge"; "minimize";
    "fsm-63"; "ckpt-63"; "fsm-63"; "fsm-63"; "fsm-63";
  ]

(* 6:2:2 — p50 sits in validate-dlx, p90 in stats with reorder on *)
let validate_cycle =
  [
    "validate-dlx"; "stats"; "validate-dlx"; "stats-reorder"; "validate-dlx";
    "validate-dlx"; "stats"; "validate-dlx"; "stats-reorder"; "validate-dlx";
  ]

let coverage ~model ~faults ~seed ~lanes ?(jobs = 1) ?checkpoint ?(checkpoint_every = 1)
    ?(count = 150) ?(steps = 256) () =
  Job.Coverage
    {
      (Job.default_coverage ~model) with
      Job.cov_faults = faults;
      cov_seed = seed;
      cov_count = count;
      cov_steps = steps;
      cov_lanes = lanes;
      cov_jobs = jobs;
      cov_checkpoint = checkpoint;
      cov_checkpoint_every = checkpoint_every;
    }

let snapshot_a dir = Filename.concat dir "ckpt-63.covdb"
let snapshot_b dir = Filename.concat dir "ckpt-512.covdb"
let stuckat_a dir = Filename.concat dir "stuckat-63.covdb"
let stuckat_b dir = Filename.concat dir "stuckat-512.covdb"

(* the merge and minimize inputs of each class, and merge's output *)
let merge_inputs ~dir = function
  | "merge-stuckat" -> [ stuckat_a dir; stuckat_b dir ]
  | _ -> [ snapshot_a dir; snapshot_b dir ]

let merge_output ~dir cls = Filename.concat dir (cls ^ "-out.covdb")

(* a stuck-at campaign that saves only its final snapshot *)
let final_only = max_int

let campaign_spec ~dir ~seed = function
  | "fsm-63" -> coverage ~model:"dlx" ~faults:Job.Fsm_faults ~seed ~lanes:63 ~count:fsm_count ()
  | "fsm-512" -> coverage ~model:"dlx" ~faults:Job.Fsm_faults ~seed ~lanes:512 ~count:fsm_count ()
  | "fsm-63-jobs2" ->
      coverage ~model:"dlx" ~faults:Job.Fsm_faults ~seed ~lanes:63 ~jobs:2 ~count:fsm_count ()
  | "stuckat-test-63" ->
      coverage ~model:"dlx-test" ~faults:Job.Stuckat_faults ~seed ~lanes:63 ~steps:sa_steps
        ~checkpoint:(stuckat_a dir) ~checkpoint_every:final_only ()
  | "stuckat-test-512" ->
      coverage ~model:"dlx-test" ~faults:Job.Stuckat_faults ~seed ~lanes:512 ~steps:sa_steps
        ~checkpoint:(stuckat_b dir) ~checkpoint_every:final_only ()
  | "stuckat-control-63" ->
      coverage ~model:"dlx-control" ~faults:Job.Stuckat_faults ~seed ~lanes:63 ~steps:sa_steps ()
  | "ckpt-63" ->
      coverage ~model:"dlx" ~faults:Job.Fsm_faults ~seed ~lanes:63 ~count:ckpt_count
        ~checkpoint:(snapshot_a dir) ()
  | "ckpt-512" ->
      coverage ~model:"dlx" ~faults:Job.Fsm_faults ~seed ~lanes:512 ~count:ckpt_count
        ~checkpoint:(snapshot_b dir) ()
  | ("merge" | "merge-stuckat") as c ->
      Job.Merge { inputs = merge_inputs ~dir c; output = merge_output ~dir c }
  | "minimize" -> Job.Minimize { inputs = merge_inputs ~dir "minimize" }
  | c -> invalid_arg ("campaign class " ^ c)

let validate_spec ~seed = function
  | "validate-dlx" -> Job.Validate_dlx { Job.default_validate with Job.va_seed = seed }
  | "stats" -> Job.Stats { Job.st_reorder = Job.Reorder_off }
  | "stats-reorder" -> Job.Stats { Job.st_reorder = Job.Reorder_on }
  | c -> invalid_arg ("validate class " ^ c)

(* [n] jobs cycling through [cycle], every seed drawn from the workload
   seed *)
let job_list ~cycle ~spec ~seed ~n =
  let rng = Rng.create seed in
  let cyc = Array.of_list cycle in
  let len = Array.length cyc in
  let group_seed = ref 0 in
  List.init n (fun idx ->
      let group = idx / len in
      if idx mod len = 0 then group_seed := 1 + Rng.int rng 1_000_000;
      let own = 1 + Rng.int rng 1_000_000 in
      let row = cyc.(idx mod len) in
      let shared = String.ends_with ~suffix:"*" row in
      let cls = if shared then String.sub row 0 (String.length row - 1) else row in
      let seed = if shared then !group_seed else own in
      { idx; cls; group; shared; job = Job.make ~id:(Printf.sprintf "j%d" idx) (spec ~seed cls) })

(* one job per class from the first cycle — its shared-seed job where
   it has one, so the checkpointed pair precedes merge and minimize —
   for the untimed warm-up *)
let warmup_list ~cycle ~spec ~seed =
  let first = job_list ~cycle ~spec ~seed ~n:(List.length cycle) in
  let has_shared c = List.exists (fun j -> j.shared && j.cls = c) first in
  let seen = Hashtbl.create 16 in
  List.filter
    (fun j ->
      let keep = (j.shared || not (has_shared j.cls)) && not (Hashtbl.mem seen j.cls) in
      if keep then Hashtbl.add seen j.cls ();
      keep)
    first

(* ---- untraced run ---- *)

let timing_keys = [ "time_s"; "timings"; "elapsed_s"; "wall_clock_s" ]

let rec strip_timing = function
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k timing_keys then None else Some (k, strip_timing v))
           kvs)
  | Json.List l -> Json.List (List.map strip_timing l)
  | v -> v

type result = {
  latency_s : float;
  exit_code : int;
  report : Json.t option;
  metrics : Json.t;  (** the job's simcov-metrics/1 snapshot *)
}

(* One job as a `simcov` process runs it: a fresh model cache and metric
   registry, then the rendered report. The timed interval ends when the
   report is text; the snapshot is taken after it. *)
let run_untraced j =
  let cache = Model_cache.create () in
  Obs.reset ();
  let t0 = Unix.gettimeofday () in
  let o = Service.run ~cache j.job in
  let text = Option.map (fun r -> Json.to_string r) o.Service.report in
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity text);
  {
    latency_s = t1 -. t0;
    exit_code = o.Service.exit_code;
    report = o.Service.report;
    metrics = Obs.snapshot ();
  }

(* ---- oracles (independent of the seed) ---- *)

let reachable_states = 3_374_023.
let stats_transitions = 26_581_111_872.
let stats_iterations = 5

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let num path j =
  match member_path path j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

(* each fault a snapshot records, with the step that detected it *)
let detections path =
  Result.map
    (fun { Covdb.db; _ } ->
      let all = ref [] in
      Covdb.iter db (fun k s ->
          all := (k, match s with Covdb.Detected { detect_step; _ } -> Some detect_step | _ -> None) :: !all);
      List.sort compare !all)
    (Covdb.load path)

(* what a merge of these detections must hold: every fault of every
   input, detected at the earliest step any input detected it *)
let merged_detections inputs =
  let tbl = Hashtbl.create 256 in
  List.iter
    (List.iter (fun (k, d) ->
         let d0 = Option.join (Hashtbl.find_opt tbl k) in
         Hashtbl.replace tbl k
           (match (d0, d) with Some a, Some b -> Some (min a b) | Some a, None | None, Some a -> Some a | _ -> None)))
    inputs;
  List.sort compare (Hashtbl.fold (fun k d acc -> (k, d) :: acc) tbl [])

(* [oracle ~dir ~first_fsm j r] is [None] when the job's outputs are
   correct, [Some why] otherwise. [first_fsm] holds, per cycle, the
   shared-seed lanes-63 report the lanes-512 and jobs-2 runs must equal
   byte for byte. *)
let oracle ~dir ~first_fsm j (r : result) =
  let fail fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "%s #%d: %s" j.cls j.idx s)) fmt in
  match r.report with
  | None -> fail "no report (exit %d)" r.exit_code
  | Some _ when r.exit_code <> 0 -> fail "exit %d" r.exit_code
  | Some rep -> (
      let n path = Option.value ~default:nan (num path rep) in
      match j.cls with
      | "fsm-63" | "fsm-512" | "fsm-63-jobs2" | "ckpt-63" | "ckpt-512" ->
          (* Theorem 1: the padded tour of the certified model detects
             every effective fault *)
          if n [ "detected" ] <> n [ "effective" ] || n [ "effective" ] <= 0. then
            fail "%g of %g effective faults detected" (n [ "detected" ]) (n [ "effective" ])
          else if j.cls = "fsm-63" then (
            if j.shared then Hashtbl.replace first_fsm j.group (Json.to_string rep);
            None)
          else if j.cls = "fsm-512" || j.cls = "fsm-63-jobs2" then
            match Hashtbl.find_opt first_fsm j.group with
            | Some s when s = Json.to_string rep -> None
            | Some _ -> fail "report differs from the lanes-63 run"
            | None -> fail "no lanes-63 run to compare with"
          else None
      | "stuckat-test-63" | "stuckat-test-512" | "stuckat-control-63" ->
          if n [ "effective" ] > 0. then None else fail "no effective faults"
      | ("merge" | "merge-stuckat" | "minimize") as cls -> (
          (* checked against the snapshot files themselves: the merged
             file holds every fault of its inputs at its earliest
             detection; minimize covers the union of their detections *)
          let inputs = List.map detections (merge_inputs ~dir cls) in
          match List.find_map (function Error e -> Some e | Ok _ -> None) inputs with
          | Some e -> fail "input snapshot: %s" e
          | None -> (
              let want = merged_detections (List.filter_map Result.to_option inputs) in
              let nr = float_of_int (List.length want) in
              let nd = float_of_int (List.length (List.filter (fun (_, d) -> d <> None) want)) in
              if cls = "minimize" then
                match member_path [ "selected" ] rep with
                | Some (Json.List [ sel ]) when num [ "new_covered" ] sel = Some nd && nd > 0. ->
                    if n [ "covered" ] = nd && n [ "union_detected" ] = nd then None
                    else fail "covered %g of union %g" (n [ "covered" ]) nd
                | _ -> fail "selection does not reach the union of %g detections in one input" nd
              else
                match detections (merge_output ~dir cls) with
                | Error e -> fail "merged snapshot: %s" e
                | Ok got when got <> want ->
                    let diff = List.length (List.filter (fun r -> not (List.mem r want)) got) in
                    fail "merged snapshot: %d of %d records differ from the inputs' union" diff (List.length got)
                | Ok _ ->
                    if n [ "records" ] = nr && n [ "detected" ] = nd && nd > 0. then None
                    else
                      fail "merged report: %g records, %g detected; union %g, %g" (n [ "records" ])
                        (n [ "detected" ]) nr nd))
      | "stats" | "stats-reorder" ->
          if
            n [ "reachable_states" ] = reachable_states
            && n [ "transitions" ] = stats_transitions
            && n [ "iterations" ] = float_of_int stats_iterations
          then None
          else
            fail "reachable %g transitions %g iterations %g" (n [ "reachable_states" ])
              (n [ "transitions" ]) (n [ "iterations" ])
      | "validate-dlx" ->
          if
            member_path [ "certificate"; "ok" ] rep = Some (Json.Bool true)
            && n [ "bug_coverage_pct" ] = 100.
          then None
          else fail "no certificate or bug coverage %g%%" (n [ "bug_coverage_pct" ])
      | _ -> None)

(* ---- traced re-run: the same work, layer by layer ---- *)

let span = Spans.span
let get = function Ok x -> x | Error e -> failwith e

(* the covdb header fingerprints, as Service computes them *)
let hash_hex parts = Crc32.to_hex (List.fold_left (fun c s -> Crc32.update c (s ^ "\n")) 0l parts)
let config_hash ~backend ~model keys = hash_hex (backend :: model :: keys)
let stim_hash_ints word = hash_hex (List.map string_of_int word)

let stim_hash_bits word =
  hash_hex
    (List.map (fun a -> String.init (Array.length a) (fun i -> if a.(i) then '1' else '0')) word)

let status_of_verdict (v : Campaign.verdict) =
  match (v.Campaign.detect_step, v.Campaign.excite_step) with
  | Some detect_step, excite_step -> Covdb.Detected { excite_step; detect_step }
  | None, Some es -> Covdb.Excited es
  | None, None -> Covdb.Undetected

let file_bytes path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let note_save path = Spans.note "covdb.bytes_written" (float_of_int (file_bytes path))

let save_snapshot ~hdr ~key ~complete path pairs =
  span "covdb.save" (fun () ->
      let db = Covdb.create hdr in
      List.iter (fun (f, v) -> Covdb.set db (key f) (status_of_verdict v)) pairs;
      Covdb.set_complete db complete;
      Covdb.set_truncated db None;
      Covdb.save db path);
  note_save path

(* Gc allocation is per domain: only single-domain calls are sampled *)
let campaign_span tag ~jobs f =
  let a0 = Gc.allocated_bytes () in
  let r = span ("campaign." ^ tag) f in
  if jobs = 1 then Spans.note "campaign.alloc_mb" ((Gc.allocated_bytes () -. a0) /. 1e6);
  r

let persisted ~(p : Job.coverage_params) ~hdr ~key run =
  let checkpoint =
    Option.map
      (fun path ->
        {
          Campaign.every = max 1 p.Job.cov_checkpoint_every;
          flush = (fun pairs -> save_snapshot ~hdr ~key ~complete:false path pairs);
        })
      p.Job.cov_checkpoint
  in
  let outcome = run checkpoint in
  let r = outcome.Campaign.report in
  Option.iter
    (fun path ->
      save_snapshot ~hdr ~key
        ~complete:(r.Campaign.truncated = None && r.Campaign.shard_failures = [] && r.Campaign.skipped = 0)
        path outcome.Campaign.verdicts)
    p.Job.cov_checkpoint;
  r

(* the campaign span of each class, so each knob setting has its own row *)
let campaign_tag = function
  | "fsm-63" -> "fsm_native"
  | "fsm-512" -> "fsm_wide"
  | "fsm-63-jobs2" -> "fsm_sharded"
  | "ckpt-63" -> "fsm_checkpointed_native"
  | "ckpt-512" -> "fsm_checkpointed_wide"
  | "stuckat-test-63" -> "stuckat_native"
  | "stuckat-test-512" -> "stuckat_wide"
  | "stuckat-control-63" -> "stuckat_control_native"
  | c -> c

let traced_fsm ~cache ~tag (p : Job.coverage_params) =
  let rng = Rng.create p.Job.cov_seed in
  let m, _, _ = get (span "model_cache.fsm_of_spec" (fun () -> Model_cache.fsm_of_spec cache "dlx")) in
  let cert =
    match span "tour.certify" (fun () -> Completeness.certify m) with
    | Ok c -> c
    | Error _ -> failwith "dlx: certification failed"
  in
  let word = span "tour.padded" (fun () -> Completeness.padded_tour m cert) in
  let faults =
    span "fault.sample" (fun () ->
        let n_outputs = List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 (Fsm.transitions m) in
        (* one expression, as in Service: OCaml evaluates the right
           operand of [@] first, so the output faults draw first *)
        Fault.sample_transfer_faults rng m ~count:p.Job.cov_count
        @ Fault.sample_output_faults rng m ~n_outputs ~count:p.Job.cov_count)
  in
  let hdr =
    span "service.fingerprint" (fun () ->
        {
          Covdb.backend = "fsm-fault";
          run = Printf.sprintf "dlx:fsm:seed%d" p.Job.cov_seed;
          config_hash = config_hash ~backend:"fsm-fault" ~model:"dlx" (List.map Fault.key faults);
          stim_hash = stim_hash_ints word;
          word_length = List.length word;
          total = List.length faults;
        })
  in
  let r =
    persisted ~p ~hdr ~key:Fault.key (fun checkpoint ->
        campaign_span tag ~jobs:p.Job.cov_jobs (fun () ->
            Detect.campaign_outcome ~budget:Budget.unlimited ~lanes:p.Job.cov_lanes
              ~jobs:p.Job.cov_jobs ?checkpoint ~should_stop:(fun () -> false) m faults word))
  in
  span "service.human" (fun () ->
      ignore
        (Format.asprintf "%s: FSM fault coverage over %d inputs@.  %a@." "dlx" (List.length word)
           Detect.pp_report r));
  Detect.to_json ~extra:[ ("model", Json.String "dlx"); ("word_length", Json.Int (List.length word)) ] r

(* Service's random constraint-respecting stimulus for a netlist *)
let random_circuit_word rng c ~steps =
  let ni = Circuit.n_inputs c in
  let state = ref (Circuit.initial_state c) in
  let acc = ref [] in
  (try
     for _ = 1 to steps do
       let tries = ref 0 and found = ref None in
       while !found = None && !tries < 1000 do
         let iv = Array.init ni (fun _ -> Rng.bool rng) in
         if Circuit.input_valid c !state iv then found := Some iv;
         incr tries
       done;
       match !found with
       | None -> raise Exit
       | Some iv ->
           acc := iv :: !acc;
           state := fst (Circuit.step c !state iv)
     done
   with Exit -> ());
  List.rev !acc

let traced_stuckat ~cache ~tag (p : Job.coverage_params) =
  let rng = Rng.create p.Job.cov_seed in
  let c, name, _ =
    get (span "model_cache.circuit_of_spec" (fun () -> Model_cache.circuit_of_spec cache p.Job.cov_model))
  in
  let word = span "service.stimulus" (fun () -> random_circuit_word rng c ~steps:p.Job.cov_steps) in
  let faults = span "fault.enumerate" (fun () -> Stuckat.all_faults c) in
  let hdr =
    span "service.fingerprint" (fun () ->
        {
          Covdb.backend = "stuck-at";
          run = Printf.sprintf "%s:stuckat:seed%d" name p.Job.cov_seed;
          config_hash = config_hash ~backend:"stuck-at" ~model:name (List.map Stuckat.fault_key faults);
          stim_hash = stim_hash_bits word;
          word_length = List.length word;
          total = List.length faults;
        })
  in
  let r =
    persisted ~p ~hdr ~key:Stuckat.fault_key (fun checkpoint ->
        campaign_span tag ~jobs:p.Job.cov_jobs (fun () ->
            Stuckat.campaign_outcome ~budget:Budget.unlimited ~lanes:p.Job.cov_lanes
              ~jobs:p.Job.cov_jobs ?checkpoint ~should_stop:(fun () -> false) c faults word))
  in
  span "service.human" (fun () ->
      ignore
        (Format.asprintf "%s: stuck-at coverage over %d vectors@.  %a@." name (List.length word)
           Stuckat.pp_report r));
  Stuckat.to_json ~extra:[ ("model", Json.String name); ("word_length", Json.Int (List.length word)) ] r

let load_dbs paths =
  List.map
    (fun p ->
      let db = (get (span "covdb.load" (fun () -> Covdb.load p))).Covdb.db in
      Spans.note "covdb.records_loaded" (float_of_int (Covdb.n_records db));
      (p, db))
    paths

let traced_merge ~inputs ~output =
  let dbs = load_dbs inputs in
  let out = get (span "covdb.merge" (fun () -> Covdb.merge (List.map snd dbs))) in
  span "covdb.save" (fun () -> Covdb.save out output);
  note_save output;
  span "service.report" (fun () ->
      let u, e, d = Covdb.counts out in
      let open Json in
      Obj
        [
          ("schema", String "simcov-merge/1");
          ( "inputs",
            List
              (List.map
                 (fun (p, db) ->
                   let _, _, di = Covdb.counts db in
                   Obj
                     [
                       ("path", String p);
                       ("run", String (Covdb.header db).Covdb.run);
                       ("records", Int (Covdb.n_records db));
                       ("detected", Int di);
                       ("complete", Bool (Covdb.complete db));
                     ])
                 dbs) );
          ("output", String output);
          ("records", Int (Covdb.n_records out));
          ("undetected", Int u);
          ("excited", Int e);
          ("detected", Int d);
          ("complete", Bool (Covdb.complete out));
        ])

let traced_minimize ~inputs =
  let dbs = load_dbs inputs in
  let sel = get (span "covdb.minimize" (fun () -> Covdb.minimize dbs)) in
  span "service.report" (fun () ->
      let open Json in
      Obj
        [
          ("schema", String "simcov-minimize/1");
          ( "selected",
            List
              (List.map
                 (fun (path, gain) -> Obj [ ("path", String path); ("new_covered", Int gain) ])
                 sel.Covdb.chosen) );
          ("covered", Int sel.Covdb.covered);
          ("union_detected", Int sel.Covdb.union_detected);
        ])

let reorder_variant = function
  | Job.Reorder_off -> `Off
  | Job.Reorder_on -> `On
  | Job.Reorder_auto -> `Auto

let traced_stats ~cache (p : Job.stats_params) =
  let final, _, canonical =
    get (span "model_cache.circuit_of_spec" (fun () -> Model_cache.circuit_of_spec cache "dlx-test"))
  in
  let buf = Buffer.create 512 in
  span "service.human" (fun () -> Buffer.add_string buf (Format.asprintf "%a@." Circuit.pp_stats final));
  let se =
    span "model_cache.sym_of_circuit" (fun () ->
        Model_cache.sym_of_circuit cache ~reorder:p.Job.st_reorder ~canonical (fun () ->
            span "symfsm.build" (fun () ->
                Symfsm.of_circuit ~budget:Budget.unlimited ~reorder:(reorder_variant p.Job.st_reorder)
                  final)))
  in
  Mutex.protect se.Model_cache.s_lock @@ fun () ->
  let sym = se.Model_cache.sym in
  Symfsm.attach_budget sym Budget.unlimited;
  let tr = span "symfsm.reach" (fun () -> Symfsm.reachable_stats ~budget:Budget.unlimited sym) in
  if tr.Symfsm.truncated <> None then failwith "stats: traversal truncated";
  (* Service's text and report, with each count in a span: the calls,
     their repeats and their evaluation order are Service's, so the BDD
     caches see the same sequence *)
  let count f = span "symfsm.count" f in
  let states () = count (fun () -> Symfsm.count_states sym tr.Symfsm.reached) in
  let space () = Symfsm.state_space_size sym in
  let valid () = count (fun () -> Symfsm.count_valid_inputs sym) in
  let inputs () = Symfsm.input_space_size sym in
  let transitions () = count (fun () -> Symfsm.count_transitions sym) in
  Buffer.add_string buf
    (Printf.sprintf "reachable states: %.0f of %.0f (in %d iterations, %.2fs)\n" (states ()) (space ())
       tr.Symfsm.iterations tr.Symfsm.total_time_s);
  span "service.human" (fun () ->
      List.iter
        (fun (st : Symfsm.iter_stat) ->
          Buffer.add_string buf
            (Printf.sprintf "  iter %d: frontier %.0f states (%d nodes), reached %d nodes, %d live, %.3fs\n"
               st.Symfsm.iteration st.Symfsm.frontier_states st.Symfsm.frontier_nodes
               st.Symfsm.reached_nodes st.Symfsm.live_nodes st.Symfsm.time_s))
        tr.Symfsm.iter_stats);
  let base =
    [
      ("schema", Json.String "simcov-stats/1");
      ("reachable_states", Json.Float (states ()));
      ("state_space", Json.Float (space ()));
      ("iterations", Json.Int tr.Symfsm.iterations);
      ("time_s", Json.Float tr.Symfsm.total_time_s);
      ("gc_runs", Json.Int tr.Symfsm.gc_runs);
      ("peak_live_nodes", Json.Int tr.Symfsm.peak_live_nodes);
    ]
  in
  Buffer.add_string buf (Printf.sprintf "valid input combinations: %.0f of %.0f\n" (valid ()) (inputs ()));
  Buffer.add_string buf (Printf.sprintf "transitions to cover: %.0f\n" (transitions ()));
  Json.Obj
    (base
    @ [
        ("truncated", Json.Null);
        ("valid_inputs", Json.Float (valid ()));
        ("input_space", Json.Float (inputs ()));
        ("transitions", Json.Float (transitions ()));
      ])

(* the report's own phase timings become the child spans of the call *)
let phase_span = function
  | "lint" -> "lint.netlist"
  | "tabulate" -> "methodology.tabulate"
  | "fsm_lint" -> "fsm_lint.certify"
  | "symbolic" -> "symfsm.methodology"
  | "requirements" -> "methodology.requirements"
  | "certificate" -> "tour.certify"
  | "tour" -> "methodology.tour"
  | "concretize" -> "methodology.concretize"
  | "bug_campaign" -> "campaign.bugs"
  | "fsm_campaign" -> "campaign.methodology_fsm"
  | p -> "methodology." ^ p

(* Service.run itself, under the methodology span: the report's phase
   timings become its children, and its rendering is the span's self
   time *)
let traced_validate ~cache job =
  span "methodology.validate_dlx" (fun () ->
      let t0 = Spans.now () in
      let report = get (Option.to_result ~none:"validate-dlx: no report" (Service.run ~cache job).Service.report) in
      (match Json.member "timings" report with
      | Some (Json.Obj phases) ->
          Spans.children_from ~t0
            (List.filter_map
               (fun (n, v) -> match v with Json.Float s -> Some (phase_span n, s) | _ -> None)
               phases)
      | _ -> ());
      report)

(* Run [j] layer by layer under a root span; returns its report. *)
let run_traced j =
  let cache = Model_cache.create () in
  Spans.root ~job:j.idx ("job." ^ j.cls) (fun () ->
      let report =
        match j.job.Job.spec with
        | Job.Coverage p when p.Job.cov_faults = Job.Fsm_faults ->
            traced_fsm ~cache ~tag:(campaign_tag j.cls) p
        | Job.Coverage p -> traced_stuckat ~cache ~tag:(campaign_tag j.cls) p
        | Job.Merge { inputs; output } -> traced_merge ~inputs ~output
        | Job.Minimize { inputs } -> traced_minimize ~inputs
        | Job.Stats p -> traced_stats ~cache p
        | Job.Validate_dlx _ -> traced_validate ~cache j.job
        | Job.Lint _ -> failwith "lint is not an in-process class"
      in
      let text = span "json.render" (fun () -> Json.to_string report) in
      Spans.note "json.report_bytes" (float_of_int (String.length text));
      report)

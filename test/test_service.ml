(* Service layer: job schema round-trips, the content-hash model
   cache, the shared execution engine, the pool scheduler, and the
   socket daemon. The load-bearing properties: a job that goes over
   the wire produces the same bytes as the one-shot CLI path, a warm
   cache is observably hit without changing any report, and
   cancellation mid-campaign leaves a loadable simcov-covdb/1
   checkpoint a resumed run completes from exactly. *)

open Alcotest
module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Job = Simcov_service.Job
module Model_cache = Simcov_service.Model_cache
module Service = Simcov_service.Service
module Pool = Simcov_service.Pool
module Daemon = Simcov_service.Daemon
module Covdb = Simcov_covdb.Covdb

(* naive substring search: enough for asserting on rendered JSON *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* [f] under a fresh metric registry, where the service.cache.*
   metrics count one cache's traffic *)
let in_registry f =
  let reg = Obs.registry () in
  Fun.protect ~finally:(fun () -> Obs.release reg) (fun () -> Obs.with_registry reg f)

(* poll until [n] jobs have resolved *)
let await_resolved n resolved =
  let deadline = Unix.gettimeofday () +. 120. in
  while resolved () < n do
    if Unix.gettimeofday () > deadline then failf "%d of %d jobs resolved" (resolved ()) n;
    Unix.sleepf 0.002
  done

let coverage_job ?checkpoint ?(count = 40) ?(jobs = 1) () =
  Job.make
    (Job.Coverage
       {
         (Job.default_coverage ~model:"dlx") with
         Job.cov_seed = 7;
         cov_count = count;
         cov_jobs = jobs;
         cov_checkpoint = checkpoint;
       })

(* ---- simcov-job/1 round-trips ---- *)

let test_job_roundtrip () =
  let specs =
    [
      Job.Validate_dlx { Job.default_validate with Job.va_seed = 11; va_jobs = 3 };
      Job.Lint
        {
          (Job.default_lint ~model:"dlx-test") with
          Job.li_fsm = true;
          li_k_bound = 4;
          li_fail_on = Simcov_analysis.Diag.Warning;
        };
      Job.Coverage
        {
          (Job.default_coverage ~model:"dlx") with
          Job.cov_faults = Job.Stuckat_faults;
          cov_checkpoint = Some "cp.covdb";
          cov_resume = Some "old.covdb";
          cov_fail_under = Some 95.5;
        };
      Job.Merge { inputs = [ "a.covdb"; "b.covdb" ]; output = "out.covdb" };
      Job.Minimize { inputs = [ "a.covdb" ] };
      Job.Stats Job.default_stats;
    ]
  in
  List.iter
    (fun spec ->
      let j = Job.make ~id:"t-1" ~timeout_s:30. ~max_nodes:1000 spec in
      match Job.of_json (Job.to_json j) with
      | Ok j' ->
          check string "kind survives" (Job.kind j) (Job.kind j');
          check string "round-trip is exact"
            (Json.to_string (Job.to_json j))
            (Json.to_string (Job.to_json j'))
      | Error e -> failf "round-trip of %s failed: %s" (Job.kind j) e)
    specs

let test_job_defaults_and_errors () =
  (* the minimal request: every param takes its CLI default *)
  (match Job.of_json (Json.Obj [ ("kind", Json.String "coverage") ]) with
  | Ok { Job.spec = Job.Coverage p; _ } ->
      check int "default seed" 2026 p.Job.cov_seed;
      check int "default count" 150 p.Job.cov_count;
      check int "default jobs" 1 p.Job.cov_jobs
  | Ok _ -> fail "parsed to the wrong kind"
  | Error e -> failf "minimal job rejected: %s" e);
  let rejected j =
    match Job.of_json j with Ok _ -> false | Error _ -> true
  in
  check bool "unknown kind rejected" true
    (rejected (Json.Obj [ ("kind", Json.String "frobnicate") ]));
  check bool "missing kind rejected" true (rejected (Json.Obj []));
  check bool "wrong schema rejected" true
    (rejected
       (Json.Obj
          [ ("schema", Json.String "simcov-job/999"); ("kind", Json.String "stats") ]));
  check bool "ill-typed param rejected" true
    (rejected
       (Json.Obj
          [
            ("kind", Json.String "coverage");
            ("params", Json.Obj [ ("seed", Json.String "tuesday") ]);
          ]));
  check bool "lint without model rejected" true
    (rejected (Json.Obj [ ("kind", Json.String "lint") ]));
  (* a coverage or validate-dlx request that still carries a retired
     reorder or lanes member parses, and the member is dropped like any
     unknown one, whatever its value *)
  List.iter
    (fun (kind, spec) ->
      List.iter
        (fun (name, v) ->
          match
            Job.of_json
              (Json.Obj
                 [ ("kind", Json.String kind); ("params", Json.Obj [ (name, v) ]) ])
          with
          | Ok j ->
              check string
                (Printf.sprintf "%s %s ignored on %s" name (Json.to_string v) kind)
                (Json.to_string (Job.to_json (Job.make spec)))
                (Json.to_string (Job.to_json j))
          | Error e -> failf "%s with %s rejected: %s" kind name e)
        [
          ("reorder", Json.String "on");
          ("lanes", Json.Int 512);
          ("lanes", Json.Int 0);
          ("lanes", Json.Int 16_777_216);
        ])
    [
      ("coverage", Job.Coverage (Job.default_coverage ~model:"dlx"));
      ("validate-dlx", Job.Validate_dlx Job.default_validate);
    ];
  (* and the report is the one the request without it gets *)
  (let report params =
     match
       Job.of_json
         (Json.Obj [ ("kind", Json.String "coverage"); ("params", Json.Obj params) ])
     with
     | Ok j -> (
         match (Service.run j).Service.report with
         | Some r -> Json.to_string r
         | None -> fail "coverage job produced no report")
     | Error e -> failf "coverage job rejected: %s" e
   in
   let base = [ ("seed", Json.Int 7); ("count", Json.Int 100) ] in
   check string "lanes leaves the report byte-identical" (report base)
     (report (("lanes", Json.Int 512) :: base)));
  (* jobs, count, steps and k_bound take exactly the CLI's ranges,
     both ends inclusive; every request names a model, which lint
     requires *)
  List.iter
    (fun (kind, name, (lo, hi)) ->
      let job v =
        Json.Obj
          [
            ("kind", Json.String kind);
            ( "params",
              Json.Obj [ ("model", Json.String "dlx-test"); (name, Json.Int v) ] );
          ]
      in
      List.iter
        (fun (v, bad) ->
          check bool
            (Printf.sprintf "%s %s=%d %s" kind name v
               (if bad then "rejected" else "accepted"))
            bad
            (rejected (job v)))
        [ (lo - 1, true); (lo, false); (hi, false); (hi + 1, true) ])
    [
      ("coverage", "jobs", Job.jobs_range);
      ("coverage", "count", Job.count_range);
      ("coverage", "steps", Job.steps_range);
      ("validate-dlx", "jobs", Job.jobs_range);
      ("lint", "k_bound", Job.k_bound_range);
    ];
  (* regs takes the test model's power-of-two sizes, checkpoint_every
     any positive count *)
  List.iter
    (fun (kind, name, v, bad) ->
      check bool
        (Printf.sprintf "%s %s=%d %s" kind name v
           (if bad then "rejected" else "accepted"))
        bad
        (rejected
           (Json.Obj
              [
                ("kind", Json.String kind);
                ("params", Json.Obj [ (name, Json.Int v) ]);
              ])))
    [
      ("validate-dlx", "regs", 0, true);
      ("validate-dlx", "regs", 1, true);
      ("validate-dlx", "regs", 2, false);
      ("validate-dlx", "regs", 3, true);
      ("validate-dlx", "regs", 16, false);
      ("validate-dlx", "regs", 32, true);
      ("coverage", "checkpoint_every", 0, true);
      ("coverage", "checkpoint_every", 1, false);
      ("coverage", "checkpoint_every", max_int, false);
    ];
  (* every job's budget: timeout_s a finite number >= 0, max_nodes a
     positive integer *)
  List.iter
    (fun (name, v, bad) ->
      check bool
        (Printf.sprintf "%s=%s %s" name (Json.to_string v)
           (if bad then "rejected" else "accepted"))
        bad
        (rejected (Json.Obj [ ("kind", Json.String "stats"); (name, v) ])))
    [
      ("timeout_s", Json.Float (-1.), true);
      ("timeout_s", Json.Int (-1), true);
      ("timeout_s", Json.Float Float.nan, true);
      ("timeout_s", Json.Float Float.infinity, true);
      ("timeout_s", Json.Float 0., false);
      ("timeout_s", Json.Int 0, false);
      ("timeout_s", Json.Float 0.5, false);
      ("max_nodes", Json.Int (-5), true);
      ("max_nodes", Json.Int 0, true);
      ("max_nodes", Json.Int 1, false);
      ("max_nodes", Json.Int max_int, false);
    ];
  (* the smallest accepted budgets run and stop on the resource limit
     (exit 3) instead of failing inside Budget.create *)
  List.iter
    (fun (what, job) ->
      let o = Service.run job in
      check int (what ^ ": exit 3") 3 o.Service.exit_code;
      check bool (what ^ ": no Invalid_argument") false
        (contains (Option.value o.Service.error ~default:"") "Invalid_argument"))
    [
      ( "timeout_s 0",
        Job.make ~timeout_s:0. (Job.Coverage (Job.default_coverage ~model:"dlx")) );
      ("max_nodes 1", Job.make ~max_nodes:1 (Job.Stats Job.default_stats));
    ]

let test_envelope_shape () =
  let env =
    Job.envelope ~id:"j1" ~kind:"coverage" ~status:Job.Interrupted ~exit_code:130
      ~error:"stopped" ()
  in
  check bool "has status" true (Json.member "status" env <> None);
  check (option string) "status name" (Some "interrupted")
    (Option.bind (Json.member "status" env) Json.to_string_opt);
  check (option int) "exit code" (Some 130)
    (Option.bind (Json.member "exit_code" env) Json.to_int_opt);
  (* a request never carries status: the stream demultiplexes on it *)
  check bool "request has no status" true
    (Json.member "status" (Job.to_json (coverage_job ())) = None)

(* ---- model cache ---- *)

let test_cache_hits_and_eviction () =
  let c = Model_cache.create () in
  let resolve () =
    match Model_cache.circuit_of_spec c "dlx-control" with
    | Ok (_, name, _) -> name
    | Error e -> failf "resolve failed: %s" e
  in
  in_registry (fun () ->
      ignore (resolve ());
      ignore (resolve ());
      check int "one miss" 1 (Metrics.count "service.cache.misses");
      check int "one hit" 1 (Metrics.count "service.cache.hits");
      check int "one entry" 1 (Metrics.value "service.cache.entries");
      check bool "entry is costed" true (Metrics.value "service.cache.bytes" > 0));
  (* a one-entry cache thrashes: alternating keys always evict *)
  in_registry (fun () ->
      let tiny = Model_cache.create ~max_entries:1 () in
      ignore (Model_cache.circuit_of_spec tiny "dlx-control");
      ignore (Model_cache.circuit_of_spec tiny "dlx-test");
      ignore (Model_cache.circuit_of_spec tiny "dlx-control");
      check int "no hits under thrash" 0 (Metrics.count "service.cache.hits");
      check int "three misses" 3 (Metrics.count "service.cache.misses");
      check bool "evictions counted" true (Metrics.count "service.cache.evictions" >= 2);
      check int "bounded to one entry" 1 (Metrics.value "service.cache.entries"))

(* a tabulated machine is charged its compiled form, and its facts
   join the charge once solved: a cache bounded below one compiled dlx
   machine cannot keep it *)
let test_cache_charges_compiled_form () =
  let module Fsm = Simcov_fsm.Fsm in
  let compiled =
    in_registry (fun () ->
        let c = Model_cache.create () in
        let m =
          match Model_cache.fsm_of_spec c "dlx" with
          | Ok (m, _, _) -> m
          | Error e -> failf "resolve failed: %s" e
        in
        let compiled = Fsm.compiled_bytes m in
        check bool "compiled form holds the three tables" true
          (compiled >= 3 * 8 * m.Fsm.n_states * m.Fsm.n_inputs);
        let bytes = Metrics.value "service.cache.bytes" in
        check bool "entry charged the compiled form" true (bytes >= compiled);
        (match Model_cache.fsm_facts c "dlx" with
        | Ok (m', _, _, _) -> check bool "facts kept with the same machine" true (m' == m)
        | Error e -> failf "facts failed: %s" e);
        check bool "solved tour joins the charge" true
          (Metrics.value "service.cache.bytes" > bytes);
        compiled)
  in
  in_registry (fun () ->
      let tiny = Model_cache.create ~max_bytes:(compiled - 1) () in
      ignore (Model_cache.fsm_of_spec tiny "dlx");
      check int "evicted at once" 1 (Metrics.count "service.cache.evictions");
      check (pair int int) "nothing held" (0, 0)
        (Metrics.value "service.cache.entries", Metrics.value "service.cache.bytes"))

(* ---- the CRC-32-only file keys were forgeable ---- *)

(* reflected CRC-32 table (poly 0xEDB88320), reimplemented here so the
   test can FORGE a collision instead of hoping for one: every table
   entry has a distinct top byte, so walking the register backwards
   forces the 4 table indices, and 4 appended bytes then drive the
   register to any chosen value *)
let crc_table =
  Array.init 256 (fun n ->
      let r = ref n in
      for _ = 0 to 7 do
        r := if !r land 1 = 1 then (!r lsr 1) lxor 0xEDB88320 else !r lsr 1
      done;
      !r)

(* 4 bytes whose appension leaves the CRC-32 of a string with checksum
   [crc_a] unchanged *)
let forge_suffix crc_a =
  let reg = Int32.to_int (Int32.logxor crc_a 0xFFFFFFFFl) land 0xFFFFFFFF in
  let idx = Array.make 4 0 in
  let w = ref reg in
  for i = 3 downto 0 do
    let top = !w lsr 24 in
    let j = ref 0 in
    while crc_table.(!j) lsr 24 <> top do incr j done;
    idx.(i) <- !j;
    w := ((!w lxor crc_table.(!j)) lsl 8) land 0xFFFFFFFF
  done;
  let bytes = Bytes.create 4 in
  let r = ref reg in
  for i = 0 to 3 do
    let b = (!r land 0xff) lxor idx.(i) in
    Bytes.set bytes i (Char.chr b);
    r := (!r lsr 8) lxor crc_table.((!r lxor b) land 0xff)
  done;
  Bytes.to_string bytes

let test_cache_crc_collision () =
  let module Crc32 = Simcov_util.Crc32 in
  let a =
    Simcov_netlist.Serialize.to_string
      (fst (Simcov_dlx.Control.derive_test_model ()))
  in
  let b = a ^ forge_suffix (Crc32.string a) in
  check bool "contents differ" true (a <> b);
  check bool "checksums collide" true (Crc32.string a = Crc32.string b);
  let write s =
    let path = Filename.temp_file "simcov_crc" ".circ" in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
    path
  in
  let pa = write a and pb = write b in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove pa;
      Sys.remove pb)
    (fun () ->
      in_registry (fun () ->
          let c = Model_cache.create () in
          (match Model_cache.circuit_of_spec c pa with
          | Ok _ -> ()
          | Error e -> failf "serialized model failed to parse: %s" e);
          (* under the old [file:<crc>] keys the forged file shared A's
             slot and was silently served A's parsed circuit; the
             (length, crc) key must treat it as a distinct resolution *)
          let hits0 = Metrics.count "service.cache.hits" in
          ignore (Model_cache.circuit_of_spec c pb);
          check int "forged file does not hit the cache" hits0
            (Metrics.count "service.cache.hits");
          check int "two distinct resolutions" 2 (Metrics.count "service.cache.misses")))

let test_cache_observable_in_metrics () =
  let reg = Obs.registry () in
  Obs.with_registry reg (fun () ->
      let c = Model_cache.create () in
      ignore (Model_cache.circuit_of_spec c "dlx-control");
      ignore (Model_cache.circuit_of_spec c "dlx-control");
      let snap = Json.to_string (Obs.snapshot ()) in
      check bool "hit counter exported" true (contains snap "service.cache.hits");
      check bool "entries gauge exported" true
        (contains snap "service.cache.entries"));
  Obs.release reg

(* ---- Service.run ---- *)

let run_report job =
  let o = Service.run ~cache:(Model_cache.create ()) job in
  check int "exit 0" 0 o.Service.exit_code;
  match o.Service.report with
  | Some r -> Json.to_string r
  | None -> fail "no report"

let test_warm_cache_identical_report () =
  let cache = Model_cache.create () in
  let run () =
    let o = Service.run ~cache (coverage_job ()) in
    check int "exit 0" 0 o.Service.exit_code;
    match o.Service.report with
    | Some r -> Json.to_string r
    | None -> fail "no report"
  in
  in_registry (fun () ->
      let cold = run () in
      let warm = run () in
      check string "warm report is byte-identical" cold warm;
      check bool "second run hit the cache" true (Metrics.count "service.cache.hits" > 0))

(* a shard lost in either validate-dlx campaign exits 5, as a lost
   coverage shard does: the report alone would read as a pass with
   fewer faults evaluated *)
let test_validate_lost_shard_exit () =
  let module M = Simcov_core.Methodology in
  let module C = Simcov_campaign.Campaign in
  let r = M.validate_dlx () in
  check int "healthy run exits 0" 0 (Service.validate_exit r);
  let lost (rep : _ C.report) =
    {
      rep with
      C.shard_failures = [ { C.shard = 1; faults = 150; error = "Failure(\"x\")" } ];
      skipped = rep.C.skipped + 150;
    }
  in
  check int "lost FSM shard exits 5" 5
    (Service.validate_exit
       { r with M.fsm_fault_coverage = lost r.M.fsm_fault_coverage });
  check int "lost bug shard exits 5" 5
    (Service.validate_exit { r with M.bug_coverage = lost r.M.bug_coverage })

(* an unwritable covdb path fails the job cleanly (exit 4, the path in
   the error) at every jobs value, whether the first periodic flush or
   the final save hits it, and so does merge -o *)
let test_unwritable_covdb_path () =
  let bad = "/nonexistent/dir/x.covdb" in
  let check_failed what (o : Service.outcome) path =
    check int (what ^ ": exit 4") 4 o.Service.exit_code;
    check bool (what ^ ": failed") true (Service.status_of o = Job.Failed);
    check bool (what ^ ": not interrupted") false o.Service.interrupted;
    match o.Service.error with
    | Some e -> check bool (what ^ ": names the path") true (contains e path)
    | None -> failf "%s: no error" what
  in
  List.iter
    (fun (jobs, every) ->
      let job =
        Job.make
          (Job.Coverage
             {
               (Job.default_coverage ~model:"dlx") with
               Job.cov_checkpoint = Some bad;
               cov_checkpoint_every = every;
               cov_jobs = jobs;
             })
      in
      check_failed
        (Printf.sprintf "coverage jobs=%d every=%d" jobs every)
        (Service.run job) bad)
    [ (1, 1); (2, 1); (1, max_int); (2, max_int) ];
  let dir = Filename.temp_file "simcov-unwritable" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cp = Filename.concat dir "ok.covdb" in
  check int "a snapshot to merge" 0
    (Service.run (coverage_job ~checkpoint:cp ())).Service.exit_code;
  let out = "/nonexistent/out.covdb" in
  check_failed "merge"
    (Service.run (Job.make (Job.Merge { inputs = [ cp ]; output = out })))
    out;
  Sys.remove cp;
  Unix.rmdir dir

let test_cancellation_leaves_loadable_checkpoint () =
  let dir = Filename.temp_file "simcov-svc" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cp = Filename.concat dir "cancel.covdb" in
  (* flip should_stop after the first batch reports: a deterministic
     mid-campaign cancellation (count 40 -> 80 faults -> 2 batches) *)
  let stopped = ref false in
  let o =
    Service.run
      ~cache:(Model_cache.create ())
      ~should_stop:(fun () -> !stopped)
      ~on_progress:(fun _ -> stopped := true)
      (coverage_job ~checkpoint:cp ())
  in
  check int "interrupted exit" 130 o.Service.exit_code;
  check bool "flagged interrupted" true o.Service.interrupted;
  (match Covdb.load cp with
  | Error e -> failf "checkpoint unreadable: %s" e
  | Ok { Covdb.db; salvaged } ->
      check bool "not salvaged" false salvaged;
      check bool "partial progress persisted" true (Covdb.n_records db > 0);
      check bool "marked incomplete" false (Covdb.complete db));
  (* the resumed run finishes the campaign and matches the
     uninterrupted report exactly *)
  let resumed =
    Service.run
      ~cache:(Model_cache.create ())
      (Job.make
         (Job.Coverage
            {
              (Job.default_coverage ~model:"dlx") with
              Job.cov_seed = 7;
              cov_count = 40;
              cov_resume = Some cp;
            }))
  in
  check int "resumed run completes" 0 resumed.Service.exit_code;
  let baseline = run_report (coverage_job ()) in
  (match resumed.Service.report with
  | Some r -> check string "resume equals uninterrupted" baseline (Json.to_string r)
  | None -> fail "resumed run produced no report");
  Sys.remove cp;
  Unix.rmdir dir

(* ---- pool ---- *)

let test_pool_concurrent_same_job () =
  (* one worker serializes the two submissions, so the second must
     resolve its model from the cache; cov_jobs = 2 exercises the
     domain-token path *)
  let cache = Model_cache.create () in
  let pool = Pool.create ~cache ~workers:1 () in
  let lock = Mutex.create () in
  let results = Hashtbl.create 4 in
  let lines = Hashtbl.create 4 in
  let submit n =
    let tag = Printf.sprintf "same-%d" n in
    let on_line l =
      Mutex.protect lock (fun () ->
          Hashtbl.replace lines tag (l :: (Option.value ~default:[] (Hashtbl.find_opt lines tag))))
    in
    let on_done env = Mutex.protect lock (fun () -> Hashtbl.replace results tag env) in
    match Pool.submit pool ~on_line ~on_done (coverage_job ~jobs:2 ()) with
    | Ok id -> id
    | Error e -> failf "submit rejected: %s" e
  in
  let _ = submit 1 and _ = submit 2 in
  await_resolved 2 (fun () -> Mutex.protect lock (fun () -> Hashtbl.length results));
  let report tag =
    match Json.member "report" (Hashtbl.find results tag) with
    | Some r -> Json.to_string r
    | None -> failf "%s resolved without a report" tag
  in
  check string "identical jobs, identical reports" (report "same-1") (report "same-2");
  (* each job streams its own metrics: the later one reads the cache hit *)
  let hits l =
    match Json.parse l with
    | Ok j when Json.member "counters" j <> None ->
        Metrics.int_at j [ "counters"; "service.cache.hits" ]
    | _ -> 0
  in
  check bool "second job hit the model cache" true
    (Hashtbl.fold (fun _ ls acc -> List.fold_left (fun acc l -> max acc (hits l)) acc ls) lines 0
    > 0);
  (* per-job registries: each stream carries exactly its own lifecycle *)
  Hashtbl.iter
    (fun tag ls ->
      let count needle = List.length (List.filter (fun l -> contains l needle) ls) in
      check int (tag ^ " has one job.start") 1 (count "\"ev\":\"job.start\"");
      check int (tag ^ " has one job.done") 1 (count "\"ev\":\"job.done\""))
    lines;
  Pool.drain pool

let test_pool_cancel_and_drain () =
  let pool = Pool.create ~workers:1 ~queue_limit:2 () in
  let lock = Mutex.create () in
  let envs = ref [] in
  let on_done env = Mutex.protect lock (fun () -> envs := env :: !envs) in
  (* job 1 occupies the worker: its first streamed line (sent once it
     runs) blocks until both cancels are issued, so it cannot finish
     before the test sees it running; the queued one is cancelled *)
  let started = Atomic.make false and release = Semaphore.Binary.make false in
  let on_line _ =
    if not (Atomic.exchange started true) then Semaphore.Binary.acquire release
  in
  let id1 =
    match Pool.submit pool ~on_line ~on_done (coverage_job ~count:2000 ()) with
    | Ok id -> id
    | Error e -> failf "submit 1: %s" e
  in
  let id2 =
    match Pool.submit pool ~on_done (coverage_job ()) with
    | Ok id -> id
    | Error e -> failf "submit 2: %s" e
  in
  check bool "distinct ids" true (id1 <> id2);
  (* wait until the worker has actually picked job 1 up, so the two
     cancels deterministically hit one running and one queued job *)
  let state_of id =
    match Json.member "jobs" (Pool.list pool) with
    | Some (Json.List jobs) ->
        List.find_map
          (fun j ->
            match (Json.member "id" j, Json.member "state" j) with
            | Some (Json.String i), Some (Json.String s) when i = id -> Some s
            | _ -> None)
          jobs
    | _ -> None
  in
  let rec await_started n =
    if not (Atomic.get started) then
      if n = 0 then fail "job 1 never started running"
      else begin
        Unix.sleepf 0.01;
        await_started (n - 1)
      end
  in
  Fun.protect
    ~finally:(fun () -> Semaphore.Binary.release release)
    (fun () ->
      await_started 1000;
      check (option string) "job 1 is running" (Some "running") (state_of id1);
      check bool "cancel queued job" true (Pool.cancel pool id2);
      check bool "cancel running job" true (Pool.cancel pool id1));
  await_resolved 2 (fun () -> Mutex.protect lock (fun () -> List.length !envs));
  check bool "unknown id not cancellable" false (Pool.cancel pool "no-such");
  let statuses =
    List.filter_map
      (fun e -> Option.bind (Json.member "status" e) Json.to_string_opt)
      !envs
  in
  check int "both resolved" 2 (List.length statuses);
  check bool "queued one cancelled" true (List.mem "cancelled" statuses);
  check bool "running one stopped" true
    (List.exists (fun s -> s = "interrupted" || s = "done") statuses);
  Pool.drain pool;
  match Pool.submit pool (coverage_job ()) with
  | Ok _ -> fail "drained pool accepted a job"
  | Error _ -> ()

(* ---- daemon ---- *)

type daemon = {
  socket : string;
  result : (unit, string) result option Atomic.t;  (** set when serve returns *)
  server : unit Domain.t;
}

let start_daemon tag =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "simcov-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  let result = Atomic.make None in
  let server =
    Domain.spawn (fun () ->
        Atomic.set result
          (Some
             (try Daemon.serve ~socket ~workers:1 ()
              with e -> Error (Printexc.to_string e))))
  in
  let rec await_socket n =
    if Sys.file_exists socket then ()
    else if n = 0 then fail "daemon socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await_socket (n - 1)
    end
  in
  await_socket 100;
  { socket; result; server }

(* SIGTERM drains the daemon: serve must come back [Ok ()] within
   [within] seconds. [release] runs before the join, so a daemon that
   is stuck on a client can still be joined once the test has failed. *)
let stop_daemon ?(within = 5.) ?(release = ignore) d =
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  let deadline = Unix.gettimeofday () +. within in
  let rec await () =
    match Atomic.get d.result with
    | Some r -> Some r
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
        Unix.sleepf 0.01;
        await ()
  in
  let r = await () in
  release ();
  Domain.join d.server;
  match r with
  | Some (Ok ()) -> ()
  | Some (Error e) -> failf "serve failed: %s" e
  | None -> failf "serve did not return within %.0f s of SIGTERM" within

(* a raw client whose connect, reads and writes each give up after
   10 s, so a test against a stuck daemon fails instead of hanging *)
let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  fd

let close_raw fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* everything the server sends until it closes, or [None] if it is
   still open after the receive timeout *)
let read_to_close fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) ->
        Some (Buffer.contents buf)
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> None
  in
  go ()

let raw_request socket line =
  let fd = connect_raw socket in
  Fun.protect
    ~finally:(fun () -> close_raw fd)
    (fun () ->
      ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1));
      match read_to_close fd with
      | Some reply -> Json.parse (String.trim reply) |> Result.to_option
      | None -> None)

let listed_jobs socket =
  match raw_request socket {|{"op":"jobs"}|} with
  | Some j -> (
      match Json.member "jobs" j with
      | Some (Json.List jobs) ->
          List.map
            (fun j ->
              let field k =
                Option.value ~default:""
                  (Option.bind (Json.member k j) Json.to_string_opt)
              in
              (field "id", field "state"))
            jobs
      | _ -> fail "jobs reply without a job list")
  | None -> fail "no jobs reply"

let check_nothing_live socket =
  List.iter
    (fun (id, state) ->
      if state = "queued" || state = "running" then
        failf "job %s still %s" id state)
    (listed_jobs socket)

let test_daemon_roundtrip () =
  let d = start_daemon "roundtrip" in
  let socket = d.socket in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      (match Daemon.ping ~socket with
      | Ok j -> check bool "ping ok" true (Json.member "ok" j = Some (Json.Bool true))
      | Error e -> failf "ping: %s" e);
      let events = ref 0 in
      let env =
        match
          Daemon.submit ~socket ~on_event:(fun _ -> incr events) (coverage_job ())
        with
        | Ok env -> env
        | Error e -> failf "submit: %s" e
      in
      check (option string) "job done" (Some "done")
        (Option.bind (Json.member "status" env) Json.to_string_opt);
      check bool "progress was streamed" true (!events > 0);
      (* the wire report re-renders to the one-shot engine's bytes *)
      let direct = run_report (coverage_job ()) in
      (match Json.member "report" env with
      | Some r -> check string "wire report byte-identical" direct (Json.to_string r)
      | None -> fail "envelope has no report");
      (match Daemon.list_jobs ~socket with
      | Ok j -> (
          check (option string) "jobs schema" (Some "simcov-jobs/1")
            (Option.bind (Json.member "schema" j) Json.to_string_opt);
          match Json.member "jobs" j with
          | Some (Json.List [ _ ]) -> ()
          | _ -> fail "expected exactly one listed job")
      | Error e -> failf "jobs: %s" e);
      (* out-of-range sizing members or budgets: a rejected envelope
         with exit code 6, not a run of unvetted size or an internal
         error from Budget.create *)
      List.iter
        (fun (what, job) ->
          match Daemon.submit ~socket job with
          | Ok env ->
              check (option string) (what ^ " rejected") (Some "rejected")
                (Option.bind (Json.member "status" env) Json.to_string_opt);
              check (option int) (what ^ " exit code") (Some 6)
                (Option.bind (Json.member "exit_code" env) Json.to_int_opt)
          | Error e -> failf "%s submit: %s" what e)
        [
          ( "jobs 257",
            Job.make
              (Job.Coverage
                 { (Job.default_coverage ~model:"dlx") with Job.cov_jobs = 257 })
          );
          ("timeout_s -1", Job.make ~timeout_s:(-1.) (Job.Stats Job.default_stats));
          ("max_nodes 0", Job.make ~max_nodes:0 (Job.Stats Job.default_stats));
        ];
      (* malformed job: a rejected envelope with exit code 6, not a
         dropped connection *)
      match
        Daemon.submit ~socket
          (match
             Job.of_json (Json.Obj [ ("kind", Json.String "stats") ])
           with
          | Ok j -> j
          | Error e -> failf "stats job: %s" e)
      with
      | Ok env ->
          check (option string) "stats over the wire" (Some "done")
            (Option.bind (Json.member "status" env) Json.to_string_opt)
      | Error e -> failf "stats submit: %s" e)

let test_daemon_idle_connections () =
  (* one domain per connection used to crash the daemon well before
     200 ("failed to allocate domain") *)
  let d = start_daemon "idle" in
  let idle = ref [] in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon d ~release:(fun () -> List.iter close_raw !idle))
    (fun () ->
      for i = 1 to 200 do
        match connect_raw d.socket with
        | fd -> idle := fd :: !idle
        | exception Unix.Unix_error (e, _, _) ->
            failf "connection %d: %s" i (Unix.error_message e)
      done;
      match raw_request d.socket {|{"op":"ping"}|} with
      | Some j -> check bool "ping ok" true (Json.member "ok" j = Some (Json.Bool true))
      | None -> fail "no ping reply with 200 idle connections")

let test_daemon_silent_client () =
  (* a client that connects and never sends must not stall the drain,
     and the drain must not leave its connection open *)
  let d = start_daemon "silent" in
  let fd = connect_raw d.socket in
  Unix.sleepf 0.1;
  let reply = ref None in
  stop_daemon d ~release:(fun () ->
      reply := read_to_close fd;
      close_raw fd);
  check bool "the drain closed the silent connection" true (!reply <> None)

let test_daemon_oversized_request () =
  let d = start_daemon "oversized" in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let fd = connect_raw d.socket in
      Fun.protect
        ~finally:(fun () -> close_raw fd)
        (fun () ->
          (* 2 MB without a newline; the daemon stops reading at 1 MiB,
             so the rest of the write may fail *)
          let big = String.make (2 lsl 20) 'x' in
          (try ignore (Unix.write_substring fd big 0 (String.length big))
           with Unix.Unix_error _ -> ());
          match read_to_close fd with
          | None -> fail "no reply to an oversized request line"
          | Some reply -> (
              match Json.parse (String.trim reply) with
              | Error e -> failf "reply is not one JSON line: %s" e
              | Ok env ->
                  check (option string) "oversized line rejected" (Some "rejected")
                    (Option.bind (Json.member "status" env) Json.to_string_opt);
                  check (option int) "rejection exit code" (Some 6)
                    (Option.bind (Json.member "exit_code" env) Json.to_int_opt);
                  (* refused for its length (1 MiB), not at the
                     request deadline *)
                  check bool "the error names the size limit" true
                    (contains (Json.to_string env) "1048576")));
      check_nothing_live d.socket)

let test_daemon_hangup_stops_job () =
  let dir = Filename.temp_file "simcov-hangup" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let cp = Filename.concat dir "hangup.covdb" in
  let d = start_daemon "hangup" in
  Fun.protect
    ~finally:(fun () ->
      stop_daemon d;
      (try Sys.remove cp with Sys_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      let job =
        Job.make ~id:"hangup"
          (Job.Coverage
             {
               (Job.default_coverage ~model:"dlx") with
               Job.cov_count = 2000;
               cov_checkpoint = Some cp;
             })
      in
      let fd = connect_raw d.socket in
      let line = Json.to_string ~indent:0 (Job.to_json job) ^ "\n" in
      ignore (Unix.write_substring fd line 0 (String.length line));
      (* read one streamed line, then hang up *)
      let chunk = Bytes.create 4096 in
      let rec one_line () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> fail "stream closed before its first line"
        | n -> if not (Bytes.contains (Bytes.sub chunk 0 n) '\n') then one_line ()
      in
      Fun.protect ~finally:(fun () -> close_raw fd) one_line;
      let deadline = Unix.gettimeofday () +. 30. in
      let rec final_state () =
        match List.assoc_opt "hangup" (listed_jobs d.socket) with
        | Some ("queued" | "running") when Unix.gettimeofday () < deadline ->
            Unix.sleepf 0.02;
            final_state ()
        | Some s -> s
        | None -> fail "the job is not listed"
      in
      let state = final_state () in
      check bool
        (Printf.sprintf "abandoned job stopped (state %s)" state)
        true
        (state = "interrupted" || state = "cancelled");
      match Covdb.load cp with
      | Error e -> failf "checkpoint unreadable: %s" e
      | Ok { Covdb.db; _ } ->
          check bool "stopped before the campaign completed" false
            (Covdb.complete db))

let test_daemon_bounded_history () =
  let d = start_daemon "history" in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let n = 300 in
      for i = 1 to n do
        let job =
          Job.make ~id:(Printf.sprintf "h-%03d" i)
            (Job.Lint (Job.default_lint ~model:"dlx-test"))
        in
        match Daemon.submit ~socket:d.socket job with
        | Ok _ -> ()
        | Error e -> failf "submit %d: %s" i e
      done;
      let listed = listed_jobs d.socket in
      let ids = List.map fst listed in
      check int "only the last 256 finished jobs are listed" 256 (List.length ids);
      check bool "in submission order" true (List.sort compare ids = ids);
      check (option string) "the newest job is listed" (Some (Printf.sprintf "h-%03d" n))
        (List.nth_opt ids 255);
      check_nothing_live d.socket)

(* A snapshot header's stimulus fingerprint, against the form a
   snapshot written before the one-buffer writer used: every input
   through [string_of_int], each followed by a newline. Negative and
   out-of-alphabet inputs included. *)
let qcheck_stim_hash_ints =
  QCheck.Test.make ~name:"service: stim_hash_ints = its string_of_int form" ~count:300
    QCheck.(list (oneof [ small_nat; small_signed_int; int ]))
    (fun word ->
      let module Crc32 = Simcov_util.Crc32 in
      let reference =
        Crc32.to_hex
          (List.fold_left
             (fun c i -> Crc32.update (Crc32.update c (string_of_int i)) "\n")
             0l word)
      in
      Service.stim_hash_ints word = reference)

(* a checkpoint path naming a directory: every save fails at its
   rename, the job exits 4 naming the path, and no temp file is left
   beside it *)
let test_checkpoint_onto_directory () =
  let dest = Filename.temp_file "simcov-ckdir" "" in
  Sys.remove dest;
  Unix.mkdir dest 0o755;
  let dir = Filename.dirname dest and base = Filename.basename dest in
  let temps () =
    List.filter
      (String.starts_with ~prefix:(base ^ ".tmp."))
      (Array.to_list (Sys.readdir dir))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (temps ());
      Unix.rmdir dest)
    (fun () ->
      let o = Service.run (coverage_job ~checkpoint:dest ~count:10 ()) in
      check int "exit 4" 4 o.Service.exit_code;
      (match o.Service.error with
      | Some e -> check bool "names the path" true (contains e dest)
      | None -> fail "no error");
      check (list string) "no temp file left" [] (temps ()))

let suite =
  [
    test_case "job JSON round-trips exactly" `Quick test_job_roundtrip;
    test_case "job defaults and rejections" `Quick test_job_defaults_and_errors;
    test_case "result envelope shape" `Quick test_envelope_shape;
    test_case "cache counts hits, misses, evictions" `Quick test_cache_hits_and_eviction;
    test_case "cache metrics exported via obs" `Quick test_cache_observable_in_metrics;
    test_case "forged CRC-32 collision cannot alias a cached file" `Quick
      test_cache_crc_collision;
    test_case "warm cache: identical report, hit counted" `Quick
      test_warm_cache_identical_report;
    test_case "cancellation leaves loadable checkpoint" `Quick
      test_cancellation_leaves_loadable_checkpoint;
    test_case "pool: concurrent identical jobs" `Quick test_pool_concurrent_same_job;
    test_case "pool: cancel and drain" `Quick test_pool_cancel_and_drain;
    test_case "daemon: socket round-trip and drain" `Quick test_daemon_roundtrip;
    test_case "daemon: 200 idle connections, ping, drain" `Quick
      test_daemon_idle_connections;
    test_case "daemon: a silent client cannot stall the drain" `Quick
      test_daemon_silent_client;
    test_case "daemon: oversized request line rejected" `Quick
      test_daemon_oversized_request;
    test_case "daemon: hang-up stops the job at a checkpoint" `Quick
      test_daemon_hangup_stops_job;
    test_case "daemon: job history is bounded" `Quick test_daemon_bounded_history;
    test_case "unwritable covdb path fails with exit 4" `Quick
      test_unwritable_covdb_path;
    test_case "validate-dlx: a lost shard exits 5" `Quick
      test_validate_lost_shard_exit;
    test_case "cache charges the compiled form" `Quick test_cache_charges_compiled_form;
    QCheck_alcotest.to_alcotest qcheck_stim_hash_ints;
    test_case "checkpoint onto a directory exits 4, no temp left" `Quick
      test_checkpoint_onto_directory;
  ]

(* The [service] workload: the real `simcov serve` binary at its default
   two workers, driven by two client threads in a closed loop through
   [Daemon.submit] — the code `simcov submit` runs. *)

module Json = Simcov_util.Json
module Rng = Simcov_util.Rng
module Job = Simcov_service.Job
module Daemon = Simcov_service.Daemon
module Service = Simcov_service.Service
module Model_cache = Simcov_service.Model_cache

type job = { idx : int; cls : string; request : Job.t option  (** [None]: the jobs op *) }

(* One cycle of the mix. Every class is a few ms of work once its model
   is cached, and the daemon's per-request cost dominates, so the cached
   classes' latencies sit within a fraction of a ms of each other. Lint
   of a freshly generated circuit always misses the cache, and 400 new
   files a round overflow its 256 entries, so misses and LRU evictions
   run alongside hits. Sorted by latency: generated-file lint (10 of 20)
   covers half the ranks, with at least the cached lint and stuck-at rows
   (2 of 20) below it, so p50 falls inside it; warm stats (4 of 20), the
   slowest, covers the top 20%, so p90 falls inside it. *)
let cycle =
  [
    "lint-generated"; "lint"; "stats"; "lint-generated"; "fsm-lint"; "lint-generated";
    "coverage-counter"; "stats"; "lint-generated"; "lint-against"; "lint-generated";
    "coverage-dsp"; "stats"; "lint-generated"; "lint-generated"; "jobs"; "lint-generated";
    "stats"; "lint-generated"; "lint-generated";
  ]

(* a clean n-bit enabled counter with seed-chosen width, reset value and
   name: each file has its own canonical key, so its parse and its lint
   verdict both miss *)
let generated_circuit rng ~name =
  let w = 16 + Rng.int rng 4 in
  let buf = Buffer.create 512 in
  let chain i = (* (and (in 0) (and (reg 0) ... (reg i-1))) *)
    let rec go k = if k = i then "(in 0)" else Printf.sprintf "(and (reg %d) %s)" k (go (k + 1)) in
    go 0
  in
  Printf.bprintf buf "# generated %d-bit enabled counter\ncircuit %s\ninput en\n" w name;
  for i = 0 to w - 1 do
    Printf.bprintf buf "reg c%d count %d = (xor (reg %d) %s)\n" i (Rng.int rng 2) i (chain i)
  done;
  for i = 0 to w - 1 do
    Printf.bprintf buf "output b%d = (reg %d)\n" i i
  done;
  Printf.bprintf buf "output carry = %s\n" (chain w);
  Buffer.contents buf

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc text)

let lint ?against model =
  Job.Lint { (Job.default_lint ~model) with Job.li_against = against }

let spec ~seed ~generated = function
  | "lint" -> Some (lint "dlx-test")
  | "lint-against" -> Some (lint ~against:"dlx-control" "dlx-test")
  | "fsm-lint" -> Some (Job.Lint { (Job.default_lint ~model:"dlx-test") with Job.li_fsm = true })
  | "coverage-dsp" ->
      Some
        (Job.Coverage
           { (Job.default_coverage ~model:"dsp") with Job.cov_faults = Job.Fsm_faults; cov_seed = seed })
  | "coverage-counter" ->
      Some
        (Job.Coverage
           {
             (Job.default_coverage ~model:"examples/models/counter.circ") with
             Job.cov_faults = Job.Stuckat_faults;
             cov_seed = seed;
             cov_steps = 64;
           })
  | "stats" -> Some (Job.Stats Job.default_stats)
  | "lint-generated" -> Some (lint (generated ()))
  | "jobs" -> None
  | c -> invalid_arg ("service class " ^ c)

(* [n] jobs cycling through the mix; [prefix] names this list's
   generated circuit files, which are written here *)
let job_list ?(first = 0) ~dir ~prefix ~seed ~n () =
  let rng = Rng.create seed in
  let cyc = Array.of_list cycle in
  let len = Array.length cyc in
  let k = ref 0 in
  let generated () =
    incr k;
    let path = Filename.concat dir (Printf.sprintf "%s-%d.circ" prefix !k) in
    write_file path (generated_circuit rng ~name:(Printf.sprintf "gen_%s_%d_%d" prefix seed !k));
    path
  in
  List.init n (fun i ->
      let idx = first + i in
      let cls = cyc.(i mod len) in
      let seed = 1 + Rng.int rng 1_000_000 in
      let request =
        Option.map (fun s -> Job.make ~id:(Printf.sprintf "%s%d" prefix idx) s) (spec ~seed ~generated cls)
      in
      { idx; cls; request })

let warmup_list ~dir ~seed =
  let seen = Hashtbl.create 16 in
  job_list ~dir ~prefix:"warm" ~seed ~n:(List.length cycle) ()
  |> List.filter (fun j ->
         if Hashtbl.mem seen j.cls then false
         else (
           Hashtbl.add seen j.cls ();
           true))

(* ---- the daemon process ---- *)

type server = { pid : int; socket : string }

(* daemons not yet stopped; killed at exit if the run dies early *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let log = Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close log;
        Unix.close null)
      (fun () -> Unix.create_process exe [| exe; "serve"; "--socket"; socket |] null log log)
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Daemon.ping ~socket with
    | Ok _ -> Ok { pid; socket }
    | Error e ->
        if Unix.gettimeofday () > deadline then Error ("serve did not answer ping: " ^ e)
        else (
          Unix.sleepf 0.005;
          wait ())
  in
  wait ()

(* SIGTERM must drain the daemon and exit 0 within [drain_s] *)
let drain_s = 20.

let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. drain_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid);
        Some (Printf.sprintf "serve did not drain within %.0f s of SIGTERM" drain_s)
    | _, Unix.WEXITED 0 -> None
    | _, Unix.WEXITED c -> Some (Printf.sprintf "serve exited %d after SIGTERM" c)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (Printf.sprintf "serve killed by signal %d" s)
  in
  let r = wait () in
  live := List.filter (( <> ) srv.pid) !live;
  r

(* ---- one request ---- *)

type obs = {
  mutable t_start : float;  (** arrival of the streamed job.start line *)
  mutable t_done : float;  (** arrival of job.done *)
  mutable lines : int;
  mutable last_metrics : Json.t option;
}

type result = {
  latency_s : float;
  ok : (Json.t, string) Stdlib.result;  (** the report (or jobs snapshot) *)
  trace : obs;
  t0 : float;
  t_env : float;  (** envelope returned *)
  t1 : float;  (** report rendered *)
}

let now = Unix.gettimeofday

let run_one srv j =
  let o = { t_start = nan; t_done = nan; lines = 0; last_metrics = None } in
  let on_event ev =
    let t = now () in
    o.lines <- o.lines + 1;
    match Json.member "ev" ev with
    | Some (Json.String "job.start") -> o.t_start <- t
    | Some (Json.String "job.done") -> o.t_done <- t
    | _ -> if Json.member "schema" ev = Some (Json.String "simcov-metrics/1") then o.last_metrics <- Some ev
  in
  let t0 = now () in
  let reply =
    match j.request with
    | None -> Daemon.list_jobs ~socket:srv.socket
    | Some job -> Daemon.submit ~socket:srv.socket ~on_event job
  in
  let t_env = now () in
  o.lines <- o.lines + 1;
  let ok =
    match (j.request, reply) with
    | _, Error e -> Error ("client error: " ^ e)
    | None, Ok snap ->
        if Json.member "schema" snap = Some (Json.String "simcov-jobs/1") then Ok snap
        else Error "jobs op: not a simcov-jobs/1 snapshot"
    | Some _, Ok env -> (
        match (Json.member "status" env, Json.member "exit_code" env, Json.member "report" env) with
        | Some (Json.String "done"), Some (Json.Int 0), Some r -> Ok r
        | _ -> Error ("envelope: " ^ Json.to_string ~indent:0 env))
  in
  let text = Result.map (fun r -> Json.to_string r) ok in
  let t1 = now () in
  ignore (Sys.opaque_identity text);
  { latency_s = t1 -. t0; ok; trace = o; t0; t_env; t1 }

(* [jobs] in a closed loop on [clients] threads; results by index *)
let drive srv ~clients jobs =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) None in
  let next = Atomic.make 0 in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length jobs then begin
      results.(i) <- Some (run_one srv jobs.(i));
      loop ()
    end
  in
  let ths = List.init clients (fun _ -> Thread.create loop ()) in
  List.iter Thread.join ths;
  Array.map Option.get results

(* the in-process report of a job, timing fields aside *)
let inprocess_report j =
  Option.bind j.request (fun job ->
      Option.map
        (fun r -> Json.to_string (Inproc.strip_timing r))
        (Service.run ~cache:(Model_cache.create ()) job).Service.report)

(* the wire report of every class must equal the in-process report of
   the same job *)
let wire_matches ~reference j (r : result) =
  match (j.request, r.ok) with
  | None, _ | _, Error _ -> None
  | Some _, Ok wire ->
      if reference = Some (Json.to_string (Inproc.strip_timing wire)) then None
      else Some (Printf.sprintf "%s: wire report differs from the in-process report" j.cls)

(* Spans of one traced request: the submit split where the streamed
   job.start and job.done lines arrived. *)
let record_spans j (r : result) =
  let root = Spans.record ~job:j.idx ~parent:0 ("job." ^ j.cls) ~t0:r.t0 ~t1:r.t1 in
  let child name t0 t1 = ignore (Spans.record ~job:j.idx ~parent:root name ~t0 ~t1) in
  (match j.request with
  | None -> child "daemon.jobs_op" r.t0 r.t_env
  | Some _ ->
      let o = r.trace in
      if Float.is_nan o.t_start || Float.is_nan o.t_done then child "daemon.submit" r.t0 r.t_env
      else (
        child "daemon.dispatch" r.t0 o.t_start;
        child "service.run" o.t_start o.t_done;
        child "daemon.reply" o.t_done r.t_env));
  child "json.render" r.t_env r.t1

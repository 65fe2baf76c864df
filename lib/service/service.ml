module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Covdb = Simcov_covdb.Covdb
module Campaign = Simcov_campaign.Campaign
module Circuit = Simcov_netlist.Circuit
module Detect = Simcov_coverage.Detect
module Stuckat = Simcov_coverage.Stuckat
module Fault = Simcov_coverage.Fault
module Lint = Simcov_analysis.Lint
module Diag = Simcov_analysis.Diag
module Fsm_lint = Simcov_analysis.Fsm_lint
module Methodology = Simcov_core.Methodology
module Completeness = Simcov_core.Completeness
module Requirements = Simcov_core.Requirements

type outcome = {
  exit_code : int;
  report : Json.t option;
  human : string;
  notes : string list;
  error : string option;
  interrupted : bool;
}

let ok ?report ?(human = "") ?(notes = []) ?(interrupted = false) exit_code =
  { exit_code; report; human; notes; error = None; interrupted }

let fail exit_code msg =
  { exit_code; report = None; human = ""; notes = []; error = Some msg;
    interrupted = false }

let status_of o =
  if o.interrupted then Job.Interrupted
  else if o.error <> None then Job.Failed
  else Job.Done

(* ---- covdb plumbing (moved verbatim from the CLI) ---- *)

(* The campaign verdict <-> covdb status conversion is exact in every
   persisted field: the driver guarantees [detected <=> detect_step]
   and [excited <=> excite_step], so a verdict resumed from a snapshot
   equals the one the interrupted run computed, except [masked_step],
   which is not persisted and reads [None] (no resumable job reads
   it). *)
let status_of_verdict (v : Campaign.verdict) =
  match (v.Campaign.detect_step, v.Campaign.excite_step) with
  | Some detect_step, excite_step -> Covdb.Detected { excite_step; detect_step }
  | None, Some es -> Covdb.Excited es
  | None, None -> Covdb.Undetected

let verdict_of_status = function
  | Covdb.Undetected ->
      { Campaign.detected = false; excited = false; detect_step = None;
        excite_step = None; masked_step = None }
  | Covdb.Excited es ->
      { Campaign.detected = false; excited = true; detect_step = None;
        excite_step = Some es; masked_step = None }
  | Covdb.Detected { excite_step; detect_step } ->
      { Campaign.detected = true; excited = excite_step <> None;
        detect_step = Some detect_step; excite_step; masked_step = None }

(* each part and its newline are fed separately: no joined copy *)
let hash_hex parts =
  let module Crc32 = Simcov_util.Crc32 in
  Crc32.to_hex
    (List.fold_left (fun c s -> Crc32.update (Crc32.update c s) "\n") 0l parts)

(* the snapshot header's two fingerprints: [config_hash] identifies the
   fault population (merge compatibility), [stim_hash] the stimulus
   word (additionally required to resume — recorded step indices only
   make sense against the same word) *)
let config_hash ~backend ~model keys = hash_hex (backend :: model :: keys)

(* must checksum the same bytes as [hash_hex (List.map string_of_int
   word)], so a snapshot an earlier binary wrote still resumes; one
   buffer, checksummed once *)
let stim_hash_ints word =
  let b = Buffer.create 4096 in
  List.iter
    (fun i ->
      Json.add_int b i;
      Buffer.add_char b '\n')
    word;
  Simcov_util.Crc32.(to_hex (string (Buffer.contents b)))

let stim_hash_bits word =
  hash_hex
    (List.map
       (fun a ->
         String.init (Array.length a) (fun i -> if a.(i) then '1' else '0'))
       word)

(* [Covdb.save], with an unwritable path returned as an error naming it
   instead of raised *)
let save_db db path =
  match Covdb.save db path with
  | () -> Ok ()
  | exception Sys_error e -> Error (Printf.sprintf "cannot write %s: %s" path e)
  | exception Unix.Unix_error (err, fn, _) ->
      Error
        (Printf.sprintf "cannot write %s: %s: %s" path fn (Unix.error_message err))

(* Run one campaign crash-safely: validate and inject the resume
   snapshot, periodically flush checkpoint snapshots, stop cleanly at a
   batch boundary when [should_stop] flips, and always leave a final
   snapshot behind (marked complete only when nothing was cut short).
   Returns [Error (exit_code, msg)] on an unusable resume snapshot or
   an unwritable checkpoint path: a failed flush stops the campaign at
   its next batch boundary, and the job fails with exit 4. *)
let run_persisted (type f) ~(p : Job.coverage_params) ~chaos_kill_after
    ~should_stop ~notes ~(hdr : Covdb.header) ~(key : f -> string)
    ~(run :
       ?resume:(f -> Campaign.verdict option) ->
       ?checkpoint:f Campaign.checkpoint ->
       should_stop:(unit -> bool) ->
       unit ->
       f Campaign.outcome) =
  let resume_db =
    match p.Job.cov_resume with
    | None -> Ok None
    | Some path -> (
        match Covdb.load path with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok { Covdb.db; salvaged } ->
            let h = Covdb.header db in
            if
              h.Covdb.backend <> hdr.Covdb.backend
              || h.Covdb.config_hash <> hdr.Covdb.config_hash
            then
              Error
                (Printf.sprintf
                   "%s: snapshot is for a different campaign configuration \
                    (snapshot %s/%s, this run %s/%s)"
                   path h.Covdb.backend h.Covdb.config_hash hdr.Covdb.backend
                   hdr.Covdb.config_hash)
            else if
              h.Covdb.stim_hash <> hdr.Covdb.stim_hash
              || h.Covdb.word_length <> hdr.Covdb.word_length
            then
              Error
                (Printf.sprintf
                   "%s: snapshot was recorded against a different stimulus \
                    word; rerun with the producing run's --seed/--steps"
                   path)
            else begin
              if salvaged then
                notes :=
                  Printf.sprintf
                    "warning: %s: damaged snapshot; salvaged %d valid records"
                    path (Covdb.n_records db)
                  :: !notes;
              Ok (Some db)
            end)
  in
  match resume_db with
  | Error e -> Error (4, e)
  | Ok db_opt ->
      let ck_file =
        match p.Job.cov_checkpoint with
        | Some _ as f -> f
        | None -> p.Job.cov_resume
      in
      let add db pairs =
        List.iter (fun (f, v) -> Covdb.set db (key f) (status_of_verdict v)) pairs
      in
      let flushes = Atomic.make 0 in
      (* the first failed flush; it stops the campaign like [should_stop]
         but fails the job instead of marking it interrupted *)
      let save_failed = Atomic.make None in
      (* one snapshot across the run's flushes: each flush adds the
         verdicts decided since the last one, so a record's line is
         rendered once, by the first save that writes it. The
         checkpoint lock serialises the flushes. *)
      let ck = Option.map (fun path -> (path, Covdb.create hdr)) ck_file in
      let checkpoint =
        match ck with
        | None -> None
        | Some (path, db) ->
            Some
              {
                Campaign.every = p.Job.cov_checkpoint_every;
                flush =
                  (fun pairs ->
                    add db pairs;
                    match save_db db path with
                    | Error e ->
                        ignore (Atomic.compare_and_set save_failed None (Some e))
                    | Ok () -> (
                        let n = 1 + Atomic.fetch_and_add flushes 1 in
                        match chaos_kill_after with
                        | Some k when n >= k ->
                            (* the chaos harness's deterministic crash
                               point: an uncatchable kill right after a
                               flush commits *)
                            Unix.kill (Unix.getpid ()) Sys.sigkill
                        | _ -> ()));
              }
      in
      let resume =
        Option.map
          (fun db f -> Option.map verdict_of_status (Covdb.find db (key f)))
          db_opt
      in
      let interrupted = ref false in
      let should_stop () =
        (* sticky: once the stop is observed the whole run counts as
           interrupted, even if the predicate later flips back *)
        if should_stop () then interrupted := true;
        !interrupted || Atomic.get save_failed <> None
      in
      let outcome = run ?resume ?checkpoint ~should_stop () in
      let r = outcome.Campaign.report in
      let complete =
        (not !interrupted)
        && r.Campaign.truncated = None
        && r.Campaign.shard_failures = []
        && r.Campaign.skipped = 0
      in
      (* the final snapshot holds the outcome's verdicts alone. Every
         flushed verdict is among them, with the same status, so the
         flush database gains only the unflushed ones and keeps its
         rendered lines; a lost shard's flushed verdicts are not among
         them, so that run starts a fresh database *)
      let saved =
        match (Atomic.get save_failed, ck) with
        | Some e, _ -> Error e
        | None, None -> Ok ()
        | None, Some (path, flush_db) ->
            let db =
              if r.Campaign.shard_failures = [] then flush_db else Covdb.create hdr
            in
            add db outcome.Campaign.verdicts;
            Covdb.set_complete db complete;
            Covdb.set_truncated db
              (Option.map Budget.resource_name r.Campaign.truncated);
            save_db db path
      in
      match saved with
      | Error e -> Error (4, e)
      | Ok () -> Ok (outcome, !interrupted)

(* exit-code priority for a campaign run: an interrupt outranks a
   degraded-but-finished run, which outranks truncation, which
   outranks a coverage threshold miss *)
let campaign_exit ~fail_under ~interrupted ~pct (r : _ Campaign.report) =
  if interrupted then 130
  else if r.Campaign.shard_failures <> [] then 5
  else if r.Campaign.truncated <> None then 3
  else match fail_under with Some t when pct < t -> 1 | _ -> 0

let shard_notes (r : _ Campaign.report) =
  List.map
    (fun (sf : Campaign.shard_failure) ->
      Printf.sprintf "warning: shard %d (%d faults) failed: %s"
        sf.Campaign.shard sf.Campaign.faults sf.Campaign.error)
    r.Campaign.shard_failures

(* ---- validate-dlx ---- *)

let requirement_json = function
  | Requirements.Satisfied e ->
      Json.Obj [ ("status", Json.String "satisfied"); ("evidence", Json.String e) ]
  | Requirements.Violated e ->
      Json.Obj [ ("status", Json.String "violated"); ("evidence", Json.String e) ]
  | Requirements.Assumed e ->
      Json.Obj [ ("status", Json.String "assumed"); ("evidence", Json.String e) ]

let validate_json (r : Methodology.run_report) =
  let open Json in
  let cert =
    match r.Methodology.certificate with
    | Ok c ->
        Obj
          [
            ("ok", Bool true);
            ("k", Int c.Completeness.k);
            ("states", Int c.Completeness.n_states);
            ("transitions", Int c.Completeness.n_transitions);
            ("tour_length", Int c.Completeness.tour_length);
          ]
    | Error Completeness.Not_strongly_connected ->
        Obj [ ("ok", Bool false); ("failure", String "not-strongly-connected") ]
    | Error (Completeness.Indistinguishable_pair (a, b)) ->
        Obj
          [
            ("ok", Bool false);
            ("failure", String "indistinguishable-pair");
            ("pair", List [ Int a; Int b ]);
          ]
  in
  let rq = r.Methodology.requirements in
  Obj
    [
      ("schema", String "simcov-validate/1");
      ( "config",
        Obj
          [
            ("regs", Int r.Methodology.config.Simcov_dlx.Testmodel.n_regs);
            ("track_dest", Bool r.Methodology.config.Simcov_dlx.Testmodel.track_dest);
            ( "observable_dest",
              Bool r.Methodology.config.Simcov_dlx.Testmodel.observable_dest );
          ] );
      ("lint_errors", Int (List.length r.Methodology.lint_errors));
      ("fsm_lint", Fsm_lint.to_json r.Methodology.fsm_lint);
      ( "model",
        Obj
          [
            ("states", Int r.Methodology.model_states);
            ("transitions", Int r.Methodology.model_transitions);
          ] );
      ( "symbolic",
        Obj
          [
            ("states", Float r.Methodology.symbolic.Methodology.sym_states);
            ("transitions", Float r.Methodology.symbolic.Methodology.sym_transitions);
            ( "tier",
              String (Methodology.tier_name r.Methodology.symbolic.Methodology.tier) );
            ( "degradations",
              List
                (List.map
                   (fun s -> String s)
                   r.Methodology.symbolic.Methodology.degradations) );
          ] );
      ( "requirements",
        Obj
          [
            ("r1", requirement_json rq.Requirements.r1_uniform_output_errors);
            ("r2", requirement_json rq.Requirements.r2_bounded_processing);
            ("r3", requirement_json rq.Requirements.r3_unique_outputs);
            ("r4", requirement_json rq.Requirements.r4_no_masking);
            ("r5", requirement_json rq.Requirements.r5_observable_interaction);
          ] );
      ("certificate", cert);
      ("tour_length", Int r.Methodology.tour_length);
      ("program_length", Int r.Methodology.program_length);
      ("issued", Int r.Methodology.issued);
      ( "bugs",
        Obj
          [
            ("detected", Int r.Methodology.n_bugs_detected);
            ("total", Int (List.length r.Methodology.bug_results));
            ( "results",
              Obj
                (List.map
                   (fun (n, d) -> (n, Bool d))
                   r.Methodology.bug_results) );
          ] );
      ("bug_coverage_pct", Float (Campaign.coverage_pct r.Methodology.bug_coverage));
      ( "fsm_fault_coverage_pct",
        Float (Detect.coverage_pct r.Methodology.fsm_fault_coverage) );
      ("campaigns_truncated", Bool (Methodology.campaigns_truncated r));
      ( "timings",
        Obj (List.map (fun (n, s) -> (n, Float s)) r.Methodology.timings) );
    ]

(* a shard lost in either campaign outranks truncation, as in
   [campaign_exit] *)
let validate_exit (r : Methodology.run_report) =
  if
    r.Methodology.bug_coverage.Campaign.shard_failures <> []
    || r.Methodology.fsm_fault_coverage.Campaign.shard_failures <> []
  then 5
  else if Methodology.campaigns_truncated r then 3
  else if
    r.Methodology.lint_errors = []
    (* FSM precondition gate: warnings are recorded, errors fail *)
    && not
         (Diag.fails r.Methodology.fsm_lint.Fsm_lint.diags ~threshold:Diag.Error)
    && r.Methodology.n_bugs_detected = List.length r.Methodology.bug_results
    && Result.is_ok r.Methodology.certificate
  then 0
  else 1

(* job-schema reorder enum -> the symbolic layer's policy variant *)
let reorder_variant = function
  | Job.Reorder_off -> `Off
  | Job.Reorder_on -> `On
  | Job.Reorder_auto -> `Auto

let run_validate ~budget (p : Job.validate_params) =
  let config =
    {
      Simcov_dlx.Testmodel.n_regs = p.Job.va_regs;
      track_dest = p.Job.va_track_dest;
      observable_dest = p.Job.va_observable_dest;
    }
  in
  let report =
    Methodology.validate_dlx ~config ~seed:p.Job.va_seed ~budget
      ~jobs:p.Job.va_jobs ()
  in
  let human = Format.asprintf "%a@." Methodology.pp_run_report report in
  ok ~report:(validate_json report) ~human
    ~notes:
      (shard_notes report.Methodology.bug_coverage
      @ shard_notes report.Methodology.fsm_fault_coverage)
    (validate_exit report)

(* ---- stats ---- *)

let run_stats ~cache ~budget (p : Job.stats_params) =
  let buf = Buffer.create 512 in
  match Model_cache.circuit_of_spec cache "dlx-test" with
  | Error e -> fail 2 e
  | Ok (final, _, canonical) ->
  Buffer.add_string buf (Format.asprintf "%a@." Circuit.pp_stats final);
  (* the compiled machine is cached per (circuit, reorder mode): a
     daemon serving repeated stats jobs reuses the live manager *)
  let se =
    Model_cache.sym_of_circuit cache ~reorder:p.Job.st_reorder ~canonical
      (fun () ->
        Simcov_symbolic.Symfsm.of_circuit ~budget
          ~reorder:(reorder_variant p.Job.st_reorder) final)
  in
  Mutex.lock se.Model_cache.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock se.Model_cache.s_lock)
  @@ fun () ->
  let sym = se.Model_cache.sym in
  Simcov_symbolic.Symfsm.attach_budget sym budget;
  let open Simcov_symbolic.Symfsm in
  let tr = reachable_stats ~budget sym in
  Buffer.add_string buf
    (Printf.sprintf "reachable states: %.0f of %.0f (in %d iterations, %.2fs)\n"
       (count_states sym tr.reached) (state_space_size sym) tr.iterations
       tr.total_time_s);
  List.iter
    (fun st ->
      Buffer.add_string buf
        (Printf.sprintf
           "  iter %d: frontier %.0f states (%d nodes), reached %d nodes, %d \
            live, %.3fs\n"
           st.iteration st.frontier_states st.frontier_nodes st.reached_nodes
           st.live_nodes st.time_s))
    tr.iter_stats;
  if tr.gc_runs > 0 then
    Buffer.add_string buf
      (Printf.sprintf "BDD garbage collections: %d (peak %d live nodes)\n"
         tr.gc_runs tr.peak_live_nodes);
  let base =
    [
      ("schema", Json.String "simcov-stats/1");
      ("reachable_states", Json.Float (count_states sym tr.reached));
      ("state_space", Json.Float (state_space_size sym));
      ("iterations", Json.Int tr.iterations);
      ("time_s", Json.Float tr.total_time_s);
      ("gc_runs", Json.Int tr.gc_runs);
      ("peak_live_nodes", Json.Int tr.peak_live_nodes);
    ]
  in
  match tr.truncated with
  | Some r ->
      Buffer.add_string buf
        (Printf.sprintf "traversal truncated: out of %s after %d iterations\n"
           (Budget.resource_name r) tr.iterations);
      ok
        ~report:
          (Json.Obj (base @ [ ("truncated", Json.String (Budget.resource_name r)) ]))
        ~human:(Buffer.contents buf) 3
  | None ->
      Buffer.add_string buf
        (Printf.sprintf "valid input combinations: %.0f of %.0f\n"
           (count_valid_inputs sym) (input_space_size sym));
      Buffer.add_string buf
        (Printf.sprintf "transitions to cover: %.0f\n" (count_transitions sym));
      ok
        ~report:
          (Json.Obj
             (base
             @ [
                 ("truncated", Json.Null);
                 ("valid_inputs", Json.Float (count_valid_inputs sym));
                 ("input_space", Json.Float (input_space_size sym));
                 ("transitions", Json.Float (count_transitions sym));
               ]))
        ~human:(Buffer.contents buf) 0

(* ---- lint ---- *)

(* suite file: one input word per line, symbols as space-separated
   integer indices; '#' starts a comment *)
let load_suite path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let words = ref [] and lno = ref 0 in
        (try
           while true do
             incr lno;
             let line = input_line ic in
             let line =
               match String.index_opt line '#' with
               | Some i -> String.sub line 0 i
               | None -> line
             in
             let toks =
               String.split_on_char ' ' line
               |> List.concat_map (String.split_on_char '\t')
               |> List.filter (fun s -> s <> "")
             in
             if toks <> [] then
               words :=
                 List.map
                   (fun t ->
                     match int_of_string_opt t with
                     | Some i -> i
                     | None ->
                         failwith
                           (Printf.sprintf "line %d: '%s' is not an input index"
                              !lno t))
                   toks
                 :: !words
           done
         with End_of_file -> ());
        Ok (List.rev !words))
  with
  | Sys_error e -> Error e
  | Failure e -> Error e

let run_lint ~cache ~budget (p : Job.lint_params) =
  let finish ~truncated ~fails ~notes report_json human =
    ok ~report:report_json ~human ~notes
      (if truncated then 3 else if fails then 1 else 0)
  in
  if p.Job.li_fsm then
    match Model_cache.fsm_of_spec cache p.Job.li_model with
    | Error e -> fail 4 (Printf.sprintf "%s: %s" p.Job.li_model e)
    | Ok (m, name, key) -> (
        let suite =
          match p.Job.li_suite with
          | None -> Ok None
          | Some path -> (
              match load_suite path with
              | Ok words -> Ok (Some words)
              | Error e -> Error (Printf.sprintf "%s: %s" path e))
        in
        match suite with
        | Error e -> fail 4 e
        | Ok suite ->
            let report =
              Model_cache.fsm_lint cache ~budget ~name ~key
                ~k_bound:p.Job.li_k_bound ?suite m
            in
            finish
              ~truncated:(report.Fsm_lint.truncated <> None)
              ~fails:(Diag.fails report.Fsm_lint.diags ~threshold:p.Job.li_fail_on)
              ~notes:[]
              (Fsm_lint.to_json report)
              (Format.asprintf "%a@." Fsm_lint.pp report))
  else
    let notes =
      if p.Job.li_suite <> None then
        [ "warning: --suite only applies to --fsm; ignored" ]
      else []
    in
    match Model_cache.circuit_of_spec cache p.Job.li_model with
    | Error e -> fail 4 (Printf.sprintf "%s: %s" p.Job.li_model e)
    | Ok (c, name, key) -> (
        let against_c =
          match p.Job.li_against with
          | None -> Ok None
          | Some spec -> (
              match Model_cache.circuit_of_spec cache spec with
              | Ok (conc, _, ckey) -> Ok (Some (conc, ckey))
              | Error e -> Error (Printf.sprintf "%s: %s" spec e))
        in
        match against_c with
        | Error e -> fail 4 e
        | Ok against ->
            let report = Model_cache.lint cache ~budget ~name ~key ?against c in
            finish
              ~truncated:(report.Lint.truncated <> None)
              ~fails:(Diag.fails report.Lint.diags ~threshold:p.Job.li_fail_on)
              ~notes
              (Lint.to_json report)
              (Format.asprintf "%a@." Lint.pp report))

(* ---- coverage ---- *)

let run_coverage ~cache ~budget ~max_workers ~should_stop ~on_progress
    ~chaos_kill_after (p : Job.coverage_params) =
  let notes = ref [] in
  let rng = Simcov_util.Rng.create p.Job.cov_seed in
  let on_batch =
    Some
      (fun (pr : Campaign.progress) ->
        Obs.event "job.progress" ~fields:(fun () ->
            [
              ("batch", Json.Int pr.Campaign.batch);
              ("batches", Json.Int pr.Campaign.batches);
              ("faults_done", Json.Int pr.Campaign.faults_done);
              ("faults_total", Json.Int pr.Campaign.faults_total);
              ("detected", Json.Int pr.Campaign.detected_so_far);
              ("sim_steps", Json.Int pr.Campaign.sim_steps);
              ("elapsed_s", Json.Float pr.Campaign.elapsed_s);
            ]);
        match on_progress with Some f -> f pr | None -> ())
  in
  let finish ~name ~word_length ~human json pct (r : _ Campaign.report)
      interrupted =
    notes := List.rev_append (shard_notes r) !notes;
    if interrupted then
      notes :=
        Printf.sprintf "interrupted: %s"
          (match (p.Job.cov_checkpoint, p.Job.cov_resume) with
          | Some f, _ | None, Some f ->
              Printf.sprintf
                "final checkpoint flushed to %s; rerun with --resume %s" f f
          | None, None -> "partial report (no --checkpoint to resume from)")
        :: !notes;
    ok
      ~report:
        (json
           [
             ("model", Json.String name);
             ("word_length", Json.Int word_length);
           ])
      ~human ~notes:(List.rev !notes) ~interrupted
      (campaign_exit ~fail_under:p.Job.cov_fail_under ~interrupted ~pct r)
  in
  let run_fsm ~name m word =
    let faults = Fault.sample_faults rng m ~count:p.Job.cov_count in
    let hdr =
      {
        Covdb.backend = "fsm-fault";
        run = Printf.sprintf "%s:fsm:seed%d" name p.Job.cov_seed;
        config_hash =
          config_hash ~backend:"fsm-fault" ~model:name
            (List.map Fault.key faults);
        stim_hash = stim_hash_ints word;
        word_length = List.length word;
        total = List.length faults;
      }
    in
    match
      run_persisted ~p ~chaos_kill_after ~should_stop ~notes ~hdr
        ~key:Fault.key ~run:(fun ?resume ?checkpoint ~should_stop () ->
          Detect.campaign_outcome ?on_batch ?resume ?checkpoint ~should_stop
            ~budget ~jobs:p.Job.cov_jobs ?max_workers m faults word)
    with
    | Error (code, msg) -> fail code msg
    | Ok (outcome, interrupted) ->
        let r = outcome.Campaign.report in
        let human =
          Format.asprintf "%s: FSM fault coverage over %d inputs@.  %a@." name
            (List.length word) Detect.pp_report r
        in
        finish ~name ~word_length:(List.length word) ~human
          (fun extra -> Detect.to_json ~extra r)
          (Detect.coverage_pct r) r interrupted
  in
  (* random constraint-respecting stimuli for a netlist: rejection
     sampling per step, giving up on a step (and ending the word) after
     too many invalid draws *)
  let random_circuit_word c ~steps =
    let ni = Circuit.n_inputs c in
    let state = ref (Circuit.initial_state c) in
    let acc = ref [] in
    (try
       for _ = 1 to steps do
         let tries = ref 0 and found = ref None in
         while !found = None && !tries < 1000 do
           let iv = Array.init ni (fun _ -> Simcov_util.Rng.bool rng) in
           if Circuit.input_valid c !state iv then found := Some iv;
           incr tries
         done;
         match !found with
         | None -> raise Exit
         | Some iv ->
             acc := iv :: !acc;
             let s', _ = Circuit.step c !state iv in
             state := s'
       done
     with Exit -> ());
    List.rev !acc
  in
  match p.Job.cov_faults with
  | Job.Fsm_faults -> (
      (* the DLX test model replays its certified transition tour —
         the same campaign validate-dlx embeds, standalone — from the
         facts kept with the cached machine *)
      let resolved =
        if p.Job.cov_model = "dlx" then
          Result.map
            (fun (m, facts, _, _) ->
              ("dlx", m, Result.to_option (Completeness.of_facts m facts)))
            (Model_cache.fsm_facts cache "dlx")
        else
          Result.map
            (fun (m, name, _) -> (name, m, None))
            (Model_cache.fsm_of_spec cache p.Job.cov_model)
      in
      match resolved with
      | Error e -> fail 4 (Printf.sprintf "%s: %s" p.Job.cov_model e)
      | Ok (name, m, cert) -> run_fsm ~name m (Completeness.campaign_word m cert))
  | Job.Stuckat_faults -> (
      let spec = if p.Job.cov_model = "dlx" then "dlx-test" else p.Job.cov_model in
      match Model_cache.circuit_of_spec cache spec with
      | Error e -> fail 4 (Printf.sprintf "%s: %s" spec e)
      | Ok (c, name, _) -> (
          let word = random_circuit_word c ~steps:p.Job.cov_steps in
          let faults = Stuckat.all_faults c in
          let hdr =
            {
              Covdb.backend = "stuck-at";
              run = Printf.sprintf "%s:stuckat:seed%d" name p.Job.cov_seed;
              config_hash =
                config_hash ~backend:"stuck-at" ~model:name
                  (List.map Stuckat.fault_key faults);
              stim_hash = stim_hash_bits word;
              word_length = List.length word;
              total = List.length faults;
            }
          in
          match
            run_persisted ~p ~chaos_kill_after ~should_stop ~notes ~hdr
              ~key:Stuckat.fault_key
              ~run:(fun ?resume ?checkpoint ~should_stop () ->
                Stuckat.campaign_outcome ?on_batch ?resume ?checkpoint
                  ~should_stop ~budget ~jobs:p.Job.cov_jobs ?max_workers c
                  faults word)
          with
          | Error (code, msg) -> fail code msg
          | Ok (outcome, interrupted) ->
              let r = outcome.Campaign.report in
              let human =
                Format.asprintf "%s: stuck-at coverage over %d vectors@.  %a@."
                  name (List.length word) Stuckat.pp_report r
              in
              finish ~name ~word_length:(List.length word) ~human
                (fun extra -> Stuckat.to_json ~extra r)
                (Stuckat.coverage_pct r) r interrupted))

(* ---- merge / minimize ---- *)

(* shared loader: salvage-tolerant (a damaged snapshot contributes its
   valid prefix, with a warning), but an unreadable file or corrupt
   header is exit 4 *)
let load_dbs ~notes paths =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match Covdb.load p with
        | Error e -> Error (Printf.sprintf "%s: %s" p e)
        | Ok { Covdb.db; salvaged } ->
            if salvaged then
              notes :=
                Printf.sprintf
                  "warning: %s: damaged snapshot; salvaged %d valid records" p
                  (Covdb.n_records db)
                :: !notes;
            go ((p, db) :: acc) rest)
  in
  go [] paths

let run_merge ~inputs ~output =
  let notes = ref [] in
  let merged =
    match load_dbs ~notes inputs with
    | Error e -> Error e
    | Ok dbs -> (
        match Covdb.merge (List.map snd dbs) with
        | Error e -> Error e
        | Ok out -> Result.map (fun () -> (dbs, out)) (save_db out output))
  in
  match merged with
  | Error e -> fail 4 e
  | Ok (dbs, out) ->
      let u, e, d = Covdb.counts out in
      let report =
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
          ]
      in
      let human =
        Printf.sprintf
          "merged %d snapshots -> %s: %d records (%d detected, %d \
           excited-only, %d undetected)%s\n"
          (List.length dbs) output (Covdb.n_records out) d e u
          (if Covdb.complete out then "" else " [incomplete]")
      in
      ok ~report ~human ~notes:(List.rev !notes) 0

let run_minimize ~inputs =
  let notes = ref [] in
  match load_dbs ~notes inputs with
  | Error e -> fail 4 e
  | Ok dbs -> (
      match Covdb.minimize dbs with
      | Error e -> fail 4 e
      | Ok sel ->
          let report =
            let open Json in
            Obj
              [
                ("schema", String "simcov-minimize/1");
                ( "selected",
                  List
                    (List.map
                       (fun (path, gain) ->
                         Obj
                           [ ("path", String path); ("new_covered", Int gain) ])
                       sel.Covdb.chosen) );
                ("covered", Int sel.Covdb.covered);
                ("union_detected", Int sel.Covdb.union_detected);
              ]
          in
          let buf = Buffer.create 128 in
          Buffer.add_string buf
            (Printf.sprintf "%d of %d runs cover %d/%d detected faults:\n"
               (List.length sel.Covdb.chosen)
               (List.length dbs) sel.Covdb.covered sel.Covdb.union_detected);
          List.iter
            (fun (path, gain) ->
              Buffer.add_string buf (Printf.sprintf "  %s (+%d)\n" path gain))
            sel.Covdb.chosen;
          ok ~report ~human:(Buffer.contents buf) ~notes:(List.rev !notes) 0)

(* ---- dispatch ---- *)

let run ?(cache = Model_cache.shared) ?max_workers
    ?(should_stop = fun () -> false) ?on_progress ?chaos_kill_after
    (job : Job.t) =
  let budget =
    Job.budget ~timeout_s:job.Job.timeout_s ~max_nodes:job.Job.max_nodes
  in
  Obs.event "job.start" ~fields:(fun () ->
      [
        ("kind", Json.String (Job.kind job));
        ( "id",
          match job.Job.id with Some i -> Json.String i | None -> Json.Null );
      ]);
  let outcome =
    try
      match job.Job.spec with
      | Job.Validate_dlx p -> run_validate ~budget p
      | Job.Stats p -> run_stats ~cache ~budget p
      | Job.Lint p -> run_lint ~cache ~budget p
      | Job.Coverage p ->
          run_coverage ~cache ~budget ~max_workers ~should_stop ~on_progress
            ~chaos_kill_after p
      | Job.Merge { inputs; output } -> run_merge ~inputs ~output
      | Job.Minimize { inputs } -> run_minimize ~inputs
    with
    | Budget.Budget_exceeded r ->
        fail 3
          (Printf.sprintf "resource limit exceeded (out of %s)"
             (Budget.resource_name r))
    | Simcov_bdd.Bdd.Node_limit live ->
        fail 3 (Printf.sprintf "BDD node ceiling reached (%d nodes live)" live)
  in
  Obs.event "job.done" ~fields:(fun () ->
      [
        ("kind", Json.String (Job.kind job));
        ("exit_code", Json.Int outcome.exit_code);
        ("interrupted", Json.Bool outcome.interrupted);
      ]);
  outcome

module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Lanes = Simcov_util.Lanes
module Obs = Simcov_obs.Obs

let c_batches = Obs.counter "campaign.batches"
let c_sim_steps = Obs.counter "campaign.sim_steps"
let c_faults_evaluated = Obs.counter "campaign.faults_evaluated"
let c_shards = Obs.counter "campaign.shards"
let c_checkpoints = Obs.counter "campaign.checkpoints"
let c_resumed = Obs.counter "campaign.resumed_faults"
let c_shard_failures = Obs.counter "campaign.shard_failures"
let tm_batch = Obs.timer "campaign.batch"
let g_throughput = Obs.gauge "campaign.sim_steps_per_s"
let g_jobs = Obs.gauge "campaign.jobs"
let g_workers = Obs.gauge "campaign.workers"
let g_lanes = Obs.gauge "campaign.lanes"

type verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;
  excite_step : int option;
  masked_step : int option;
}

type lane_event = { excited : int; detected : int; rejoined : int; halt : bool }

module type BACKEND = sig
  type ctx
  type fault
  type stim

  val name : string
  val max_lanes : int
  val effective : ctx -> fault -> bool

  type batch

  val start : ctx -> fault array -> batch
  val next : batch -> active:int -> int -> int
  val step : batch -> active:int -> stim -> lane_event
end

type shard_failure = { shard : int; faults : int; error : string }

type 'f report = {
  backend : string;
  total : int;
  effective : int;
  excited : int;
  detected : int;
  missed : 'f list;
  skipped : int;
  truncated : Budget.resource option;
  shard_failures : shard_failure list;
}

let coverage_pct r =
  if r.effective = 0 then 100.0
  else 100.0 *. float_of_int r.detected /. float_of_int r.effective

let pp_report ppf r =
  Format.fprintf ppf
    "faults: %d total, %d effective, %d excited, %d detected (%.1f%%), %d missed"
    r.total r.effective r.excited r.detected (coverage_pct r)
    (List.length r.missed);
  (match r.truncated with
  | None -> ()
  | Some res ->
      Format.fprintf ppf " [truncated: out of %s, %d skipped]"
        (Budget.resource_name res) r.skipped);
  match r.shard_failures with
  | [] -> ()
  | fs ->
      Format.fprintf ppf " [%d failed shard%s: %s]" (List.length fs)
        (if List.length fs = 1 then "" else "s")
        (String.concat "; "
           (List.map
              (fun f -> Printf.sprintf "shard %d (%d faults): %s" f.shard f.faults f.error)
              fs))

let to_json ?fault ?(extra = []) r =
  let base =
    [
      ("schema", Json.String "simcov-campaign/1");
      ("backend", Json.String r.backend);
      ("total", Json.Int r.total);
      ("effective", Json.Int r.effective);
      ("excited", Json.Int r.excited);
      ("detected", Json.Int r.detected);
      ("missed", Json.Int (List.length r.missed));
      ("skipped", Json.Int r.skipped);
      ("coverage_pct", Json.Float (coverage_pct r));
      ( "truncated",
        match r.truncated with
        | None -> Json.Null
        | Some res -> Json.String (Budget.resource_name res) );
      ( "shard_failures",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("shard", Json.Int f.shard);
                   ("faults", Json.Int f.faults);
                   ("error", Json.String f.error);
                 ])
             r.shard_failures) );
    ]
  in
  let missed_faults =
    match fault with
    | None -> []
    | Some f -> [ ("missed_faults", Json.List (List.map f r.missed)) ]
  in
  Json.Obj (base @ missed_faults @ extra)

type progress = {
  batch : int;
  batches : int;
  faults_done : int;
  faults_total : int;
  detected_so_far : int;
  sim_steps : int;
  elapsed_s : float;
}

let pp_progress ppf p =
  Format.fprintf ppf "batch %d/%d: %d/%d faults, %d detected, %d sim steps, %.2fs"
    (p.batch + 1) p.batches p.faults_done p.faults_total p.detected_so_far
    p.sim_steps p.elapsed_s

type 'f outcome = { report : 'f report; verdicts : ('f * verdict) list }

(* Periodic persistence: after each [every] completed batches, [flush]
   receives the verdicts decided since the previous flush (the first
   flush also the resumed ones). The list is unordered. *)
type 'f checkpoint = { every : int; flush : ('f * verdict) list -> unit }

(* Contiguous balanced shard ranges: [shard_ranges ~n ~jobs] covers
   [0..n-1] with [min jobs (max n 1)] ranges of near-equal length (the
   first [n mod jobs] ranges get one extra fault), in fault order. The
   decomposition is a pure function of [n] and [jobs], which is what
   makes sharded reports deterministic and testable. *)
let shard_ranges ~n ~jobs =
  let jobs = max 1 (min jobs (max n 1)) in
  let base = n / jobs and extra = n mod jobs in
  Array.init jobs (fun i ->
      let len = base + if i < extra then 1 else 0 in
      let off = (i * base) + min i extra in
      (off, len))

(* consume one budget step without letting exhaustion escape as an
   exception: a campaign degrades, it does not throw *)
let spend budget =
  match Budget.exceeded budget with
  | Some _ as r -> r
  | None -> ( try Budget.step budget; None with Budget.Budget_exceeded r -> Some r)

module Make (B : BACKEND) = struct
  exception Stop_run

  (* Per-shard accumulator: everything a worker domain mutates is
     confined to its own [shard_acc]; the parent merges after join. *)
  type shard_acc = {
    mutable a_detected : int;
    mutable a_verdicts : (B.fault * verdict) list; (* reversed *)
    mutable a_steps : int;
    mutable a_truncated : Budget.resource option;
  }

  (* The lockstep batch loop over one contiguous slice of the effective
     fault array. [notify] fires after each completed batch with that
     batch's increments (they feed the run's shared progress atomics),
     [sink] receives each completed batch's verdicts (checkpoint
     accumulation) and [stop] is polled at every batch boundary
     (cooperative interruption: the shard winds down exactly like
     budget exhaustion but leaves [a_truncated] unset). *)
  let run_shard ~budget ~notify ~stop ~sink ctx (eff : B.fault array)
      (stims : B.stim array) =
    let n = Array.length eff in
    let n_stims = Array.length stims in
    let width = max 1 (min B.max_lanes Lanes.width) in
    let batches = if n = 0 then 0 else ((n - 1) / width) + 1 in
    let acc =
      {
        a_detected = 0;
        a_verdicts = [];
        a_steps = 0;
        a_truncated = None;
      }
    in
    (try
       for bi = 0 to batches - 1 do
         if stop () then raise Stop_run;
         (match spend budget with
         | Some res ->
             acc.a_truncated <- Some res;
             raise Stop_run
         | None -> ());
         let bverd, batch_det, bw, batch_steps =
           Obs.span tm_batch
             ~fields:(fun () ->
               [
                 ("backend", Json.String B.name);
                 ("batch", Json.Int bi);
                 ("detected", Json.Int acc.a_detected);
                 ("sim_steps", Json.Int acc.a_steps);
               ])
           @@ fun () ->
           Obs.incr c_batches;
           let lo = bi * width in
           let bw = min width (n - lo) in
           let sub = Array.sub eff lo bw in
           let batch = B.start ctx sub in
           let exc_step = Array.make bw (-1) and det_step = Array.make bw (-1) in
           let msk_step = Array.make bw (-1) in
           let active = ref (Lanes.ones bw) in
           let batch_steps = ref 0 in
           (* visit only the steps the backend names; a batch ends when
              every lane is detected, the backend halts, or no step is
              left *)
           let t = ref (B.next batch ~active:!active 0) in
           while !t < n_stims do
             let step = !t in
             let ev = B.step batch ~active:!active stims.(step) in
             incr batch_steps;
             Obs.incr c_sim_steps;
             Lanes.iter (ev.excited land !active) (fun l ->
                 if exc_step.(l) < 0 then exc_step.(l) <- step);
             Lanes.iter (ev.rejoined land !active) (fun l ->
                 if msk_step.(l) < 0 then msk_step.(l) <- step);
             let det = ev.detected land !active in
             Lanes.iter det (fun l -> det_step.(l) <- step);
             active := !active land lnot det;
             t :=
               if ev.halt || !active = 0 then n_stims
               else B.next batch ~active:!active (step + 1)
           done;
           acc.a_steps <- acc.a_steps + !batch_steps;
           let batch_det = ref 0 in
           let bverd = ref [] in
           for l = 0 to bw - 1 do
             let v =
               {
                 detected = det_step.(l) >= 0;
                 excited = exc_step.(l) >= 0;
                 detect_step = (if det_step.(l) >= 0 then Some det_step.(l) else None);
                 excite_step = (if exc_step.(l) >= 0 then Some exc_step.(l) else None);
                 masked_step = (if msk_step.(l) >= 0 then Some msk_step.(l) else None);
               }
             in
             if v.detected then begin
               acc.a_detected <- acc.a_detected + 1;
               Stdlib.incr batch_det
             end;
             acc.a_verdicts <- (sub.(l), v) :: acc.a_verdicts;
             bverd := (sub.(l), v) :: !bverd
           done;
           Obs.add c_faults_evaluated bw;
           (!bverd, !batch_det, bw, !batch_steps)
         in
         (* after the span: a checkpoint save is not batch time *)
         sink bverd;
         notify ~batch_faults:bw ~batch_det ~batch_steps
       done
     with Stop_run -> ());
    acc

  let run ?(budget = Budget.unlimited) ?(jobs = 1) ?(max_workers = max_int)
      ?on_batch ?resume ?checkpoint ?(should_stop = fun () -> false) ctx faults
      word =
    let t0 = Unix.gettimeofday () in
    let total = List.length faults in
    let eff = Array.of_list (List.filter (B.effective ctx) faults) in
    let n_eff = Array.length eff in
    let stims = Array.of_list word in
    (* Resumed faults retire before batching: a verdict recorded by an
       earlier (checkpointed) run is injected as-is and only undecided
       faults are simulated. Verdicts are a pure function of
       (fault, word), independent of batching and sharding, so the
       assembled report matches an uninterrupted run exactly. *)
    let pre =
      match resume with
      | None -> Array.make n_eff None
      | Some f -> Array.map f eff
    in
    let n_pre = Array.fold_left (fun c v -> if v = None then c else c + 1) 0 pre in
    if n_pre > 0 then begin
      Obs.add c_resumed n_pre;
      Obs.event "campaign.resume" ~fields:(fun () ->
          [ ("faults", Json.Int n_pre); ("remaining", Json.Int (n_eff - n_pre)) ])
    end;
    let todo_idx = Array.make (n_eff - n_pre) 0 in
    let ti = ref 0 in
    Array.iteri
      (fun i v ->
        if v = None then begin
          todo_idx.(!ti) <- i;
          Stdlib.incr ti
        end)
      pre;
    let todo = Array.map (fun i -> eff.(i)) todo_idx in
    let n = Array.length todo in
    let jobs = max 1 (min jobs (max n 1)) in
    let width = max 1 (min B.max_lanes Lanes.width) in
    Obs.set g_jobs jobs;
    Obs.set g_lanes width;
    (* checkpoint accumulation, shared by every shard: each completed
       batch appends its verdicts under the lock, and every [every]
       batches the verdicts decided since the previous flush are handed
       to [flush]. The first flush also carries the resumed verdicts,
       so a chain of interrupted runs never loses earlier decisions. *)
    let ck_lock = Mutex.create () in
    let pending =
      ref
        (match checkpoint with
        | None -> []
        | Some _ ->
            let l = ref [] in
            Array.iteri
              (fun i v ->
                match v with Some v -> l := (eff.(i), v) :: !l | None -> ())
              pre;
            !l)
    in
    let n_decided = ref n_pre in
    let ck_batches = ref 0 in
    let sink =
      match checkpoint with
      | None -> fun _ -> ()
      | Some c ->
          fun bvs ->
            Mutex.lock ck_lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock ck_lock)
              (fun () ->
                pending := List.rev_append bvs !pending;
                n_decided := !n_decided + List.length bvs;
                Stdlib.incr ck_batches;
                if !ck_batches mod c.every = 0 then begin
                  Obs.incr c_checkpoints;
                  Obs.event "campaign.checkpoint" ~fields:(fun () ->
                      [ ("decided", Json.Int !n_decided) ]);
                  let batch = !pending in
                  pending := [];
                  c.flush batch
                end)
    in
    let ranges = shard_ranges ~n ~jobs in
    let batches_total =
      Array.fold_left
        (fun s (_, len) -> s + if len = 0 then 0 else ((len - 1) / width) + 1)
        0 ranges
    in
    let sub_budgets = Budget.split budget ~n:jobs in
    (* shared, race-free progress state; the [on_batch] callback
       itself is serialized on a mutex *)
    let batches_done = Atomic.make 0 in
    let faults_done = Atomic.make 0 in
    let det_sum = Atomic.make 0 in
    let steps_sum = Atomic.make 0 in
    let progress_lock = Mutex.create () in
    let notify ~batch_faults ~batch_det ~batch_steps =
      let b = Atomic.fetch_and_add batches_done 1 in
      let fd = batch_faults + Atomic.fetch_and_add faults_done batch_faults in
      let det = batch_det + Atomic.fetch_and_add det_sum batch_det in
      let st = batch_steps + Atomic.fetch_and_add steps_sum batch_steps in
      match on_batch with
      | None -> ()
      | Some f ->
          Mutex.lock progress_lock;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock progress_lock)
            (fun () ->
              f
                {
                  batch = b;
                  batches = batches_total;
                  faults_done = fd;
                  faults_total = n;
                  detected_so_far = det;
                  sim_steps = st;
                  elapsed_s = Unix.gettimeofday () -. t0;
                })
    in
    (* Worker fault isolation: an exception in one shard costs that
       shard only. Its verdicts are a pure function of (fault, word),
       so running it again could only fail again; the shard becomes an
       [Error] slot that the assembly reports as a [shard_failure]
       while the other shards finish. *)
    let run_one i =
      let off, len = ranges.(i) in
      Obs.incr c_shards;
      match
        run_shard ~budget:sub_budgets.(i) ~notify ~stop:should_stop ~sink ctx
          (Array.sub todo off len) stims
      with
      | acc -> Ok acc
      | exception e ->
          let error = Printexc.to_string e in
          Obs.incr c_shard_failures;
          Obs.event "campaign.shard_failure" ~fields:(fun () ->
              [ ("shard", Json.Int i); ("error", Json.String error) ]);
          Error error
    in
    (* [jobs] fixes the shard decomposition (and with it the report),
       while the number of concurrently running domains is capped at
       the hardware parallelism: shards are independent, so a worker
       pool draining them in any interleaving produces the same accs,
       and oversubscribing domains on too few cores only buys
       stop-the-world handshake churn. The caller's domain is one of
       the workers, so a one-shard run spawns none. Each [results]
       slot is written by exactly one claimant, and the joins order
       those writes before the assembly below. *)
    let workers =
      min jobs (max 1 (min max_workers (Domain.recommended_domain_count ())))
    in
    Obs.set g_workers workers;
    let results = Array.make jobs (Error "") in
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < jobs then begin
        results.(i) <- run_one i;
        drain ()
      end
    in
    (* workers inherit the caller's Obs registry: a scoped job's
       shard metrics must land in that job's snapshot, not in the
       default registry a fresh domain starts in *)
    let reg = Obs.current () in
    let domains =
      Array.init (workers - 1) (fun _ ->
          Domain.spawn (fun () -> Obs.with_registry reg drain))
    in
    drain ();
    Array.iter Domain.join domains;
    Array.iter (Budget.reclaim budget) sub_budgets;
    (* Deterministic assembly: verdicts land back at their fault's
       position in the effective-fault order — resumed verdicts at
       theirs, each Ok shard's evaluated prefix at its slice's — and
       every derived count/list is read off that one array. Failed
       shards leave holes, which surface as [skipped] plus a
       [shard_failures] entry. *)
    let final = Array.copy pre in
    Array.iteri
      (fun s res ->
        match res with
        | Error _ -> ()
        | Ok acc ->
            let off, _ = ranges.(s) in
            List.iteri
              (fun j (_, v) -> final.(todo_idx.(off + j)) <- Some v)
              (List.rev acc.a_verdicts))
      results;
    let excited = ref 0 and detected = ref 0 and evaluated = ref 0 in
    let missed = ref [] and verdicts = ref [] in
    for i = n_eff - 1 downto 0 do
      match final.(i) with
      | None -> ()
      | Some v ->
          Stdlib.incr evaluated;
          if v.excited then Stdlib.incr excited;
          if v.detected then Stdlib.incr detected
          else if v.excited then missed := eff.(i) :: !missed;
          verdicts := (eff.(i), v) :: !verdicts
    done;
    let truncated =
      Array.fold_left
        (fun t res ->
          if t <> None then t
          else match res with Ok a -> a.a_truncated | Error _ -> None)
        None results
    in
    let shard_failures =
      List.concat
        (List.mapi
           (fun s res ->
             match res with
             | Ok _ -> []
             | Error error -> [ { shard = s; faults = snd ranges.(s); error } ])
           (Array.to_list results))
    in
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed > 1e-9 then
      Obs.set g_throughput
        (int_of_float (float_of_int (Atomic.get steps_sum) /. elapsed));
    {
      report =
        {
          backend = B.name;
          total;
          effective = !evaluated;
          excited = !excited;
          detected = !detected;
          missed = !missed;
          skipped = n_eff - !evaluated;
          truncated;
          shard_failures;
        };
      verdicts = !verdicts;
    }
end

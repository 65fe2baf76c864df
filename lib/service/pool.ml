module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs

type jstate = Queued | Running | Finished of Job.status

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Finished s -> Job.status_name s

(* what [list] and [cancel] see of a job; it outlives the job's
   closures while the job stays in the finished history *)
type entry = {
  seq : int;  (** submission order *)
  id : string;
  kind : string;
  cancel : bool Atomic.t;
  mutable state : jstate;
}

(* a queued or running job; unreferenced once it resolves *)
type rec_job = {
  entry : entry;
  job : Job.t;
  on_line : string -> unit;
  on_done : Json.t -> unit;
  gone : bool Atomic.t;
}

(* finished jobs kept for [list] *)
let history = 256

type t = {
  cache : Model_cache.t;
  queue_limit : int;
  lock : Mutex.t;
  cond : Condition.t;  (** signaled on enqueue and drain *)
  done_cond : Condition.t;  (** signaled when a job resolves *)
  queue : rec_job Queue.t;
  jobs : (string, entry) Hashtbl.t;  (** live jobs and the [finished] ones *)
  finished : entry Queue.t;  (** at most [history], oldest first *)
  mutable submitted : int;
  mutable next_id : int;
  mutable pending : int;  (** queued + running *)
  mutable draining : bool;
  stop_all : bool Atomic.t;
  tokens : int Atomic.t;
  mutable domains : unit Domain.t list;
}

(* ---- the global domain-token budget ---- *)

(* take up to [want] tokens, never blocking: a campaign that asked for
   more shards than the machine has spare cores still runs with its
   requested decomposition, just narrower (max_workers) *)
let take_tokens t want =
  if want <= 0 then 0
  else
    let rec go () =
      let avail = Atomic.get t.tokens in
      let n = min want avail in
      if n = 0 then 0
      else if Atomic.compare_and_set t.tokens avail (avail - n) then n
      else go ()
    in
    go ()

let return_tokens t n = if n > 0 then ignore (Atomic.fetch_and_add t.tokens n)

(* ---- job execution ---- *)

let declared_jobs (job : Job.t) =
  match job.Job.spec with
  | Job.Coverage p -> p.Job.cov_jobs
  | Job.Validate_dlx p -> p.Job.va_jobs
  | _ -> 1

let envelope_of_outcome rj (o : Service.outcome) =
  Job.envelope ~id:rj.entry.id ~kind:rj.entry.kind
    ~status:(Service.status_of o) ~exit_code:o.Service.exit_code
    ?error:o.Service.error ?report:o.Service.report ()

let resolve t rj status envelope =
  (* the job is listed as finished before its envelope goes out, so a
     submitter holding the envelope never sees it running; the user
     callback runs outside the lock (it may be a slow socket write) but
     before the job counts as resolved, so [wait] implies every
     envelope has been delivered *)
  Mutex.protect t.lock (fun () ->
      rj.entry.state <- Finished status;
      Queue.push rj.entry t.finished;
      if Queue.length t.finished > history then
        Hashtbl.remove t.jobs (Queue.pop t.finished).id);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          t.pending <- t.pending - 1;
          Condition.broadcast t.done_cond))
    (fun () -> rj.on_done envelope)

let cancelled_envelope rj =
  Job.envelope ~id:rj.entry.id ~kind:rj.entry.kind ~status:Job.Cancelled
    ~exit_code:130 ~error:"cancelled before start" ()

let metrics_line () = Json.to_string ~indent:0 (Obs.snapshot ())

let execute t rj =
  let reg = Obs.registry () in
  let should_stop () =
    Atomic.get rj.entry.cancel || Atomic.get rj.gone || Atomic.get t.stop_all
  in
  let extra = take_tokens t (declared_jobs rj.job - 1) in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        return_tokens t extra;
        Obs.release reg)
      (fun () ->
        Obs.with_registry reg (fun () ->
            Obs.set_sink (Some rj.on_line);
            Fun.protect
              ~finally:(fun () -> Obs.set_sink None)
              (fun () ->
                (* stream a metrics snapshot at most twice a second
                   while the campaign reports progress, and always one
                   final snapshot before the envelope *)
                let last = ref (Unix.gettimeofday ()) in
                let on_progress _ =
                  let now = Unix.gettimeofday () in
                  if now -. !last >= 0.5 then begin
                    last := now;
                    rj.on_line (metrics_line ())
                  end
                in
                let o =
                  try
                    Service.run ~cache:t.cache ~max_workers:(1 + extra)
                      ~should_stop ~on_progress rj.job
                  with e ->
                    {
                      Service.exit_code = 4;
                      report = None;
                      human = "";
                      notes = [];
                      error = Some ("internal error: " ^ Printexc.to_string e);
                      interrupted = false;
                    }
                in
                rj.on_line (metrics_line ());
                o)))
  in
  resolve t rj (Service.status_of outcome) (envelope_of_outcome rj outcome)

let worker_loop t =
  let rec next () =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec wait () =
            if not (Queue.is_empty t.queue) then begin
              let rj = Queue.pop t.queue in
              rj.entry.state <- Running;
              Some rj
            end
            else if t.draining then None
            else begin
              Condition.wait t.cond t.lock;
              wait ()
            end
          in
          wait ())
    in
    match job with
    | None -> ()
    | Some rj ->
        if Atomic.get rj.entry.cancel then
          resolve t rj Job.Cancelled (cancelled_envelope rj)
        else execute t rj;
        next ()
  in
  next ()

(* ---- public API ---- *)

let create ?(cache = Model_cache.shared) ?(queue_limit = 64) ?(workers = 2) () =
  let t =
    {
      cache;
      queue_limit;
      lock = Mutex.create ();
      cond = Condition.create ();
      done_cond = Condition.create ();
      queue = Queue.create ();
      jobs = Hashtbl.create 16;
      finished = Queue.create ();
      submitted = 0;
      next_id = 0;
      pending = 0;
      draining = false;
      stop_all = Atomic.make false;
      tokens = Atomic.make (max 1 (Domain.recommended_domain_count () - workers));
      domains = [];
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t ?(on_line = fun _ -> ()) ?(on_done = fun _ -> ())
    ?(gone = Atomic.make false) job =
  Mutex.protect t.lock (fun () ->
      if t.draining then Error "pool is draining"
      else if Queue.length t.queue >= t.queue_limit then Error "queue is full"
      else begin
        let id =
          match job.Job.id with
          | Some id when not (Hashtbl.mem t.jobs id) -> id
          | _ ->
              t.next_id <- t.next_id + 1;
              let rec fresh n =
                let id = Printf.sprintf "job-%d" n in
                if Hashtbl.mem t.jobs id then fresh (n + 1) else id
              in
              fresh t.next_id
        in
        t.submitted <- t.submitted + 1;
        let entry =
          {
            seq = t.submitted;
            id;
            kind = Job.kind job;
            cancel = Atomic.make false;
            state = Queued;
          }
        in
        Hashtbl.replace t.jobs id entry;
        t.pending <- t.pending + 1;
        Queue.push { entry; job; on_line; on_done; gone } t.queue;
        Condition.signal t.cond;
        Ok id
      end)

let cancel t id =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None | Some { state = Finished _; _ } -> false
      | Some e ->
          Atomic.set e.cancel true;
          true)

let list t =
  Mutex.protect t.lock (fun () ->
      let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.jobs [] in
      Json.Obj
        [
          ("schema", Json.String "simcov-jobs/1");
          ( "jobs",
            Json.List
              (List.map
                 (fun e ->
                   Json.Obj
                     [
                       ("id", Json.String e.id);
                       ("kind", Json.String e.kind);
                       ("state", Json.String (state_name e.state));
                     ])
                 (List.sort (fun a b -> compare a.seq b.seq) entries)) );
        ])

let wait t =
  Mutex.protect t.lock (fun () ->
      while t.pending > 0 do
        Condition.wait t.done_cond t.lock
      done)

let drain t =
  let queued =
    Mutex.protect t.lock (fun () ->
        if t.draining then []
        else begin
          t.draining <- true;
          Atomic.set t.stop_all true;
          let qs = Queue.fold (fun acc rj -> rj :: acc) [] t.queue in
          Queue.clear t.queue;
          Condition.broadcast t.cond;
          List.rev qs
        end)
  in
  List.iter
    (fun rj -> resolve t rj Job.Cancelled (cancelled_envelope rj))
    queued;
  let domains = t.domains in
  t.domains <- [];
  List.iter Domain.join domains

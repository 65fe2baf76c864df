module Json = Simcov_util.Json

(* ---- limits ---- *)

(* A request line must fit in [max_request_bytes] and be complete
   [request_timeout_s] after connecting. select(2) takes descriptors
   below 1024, so past [max_connections] open connections a new one is
   refused. A write blocked for [send_timeout_s] (SO_SNDTIMEO) marks the
   client gone, so a client that stops reading holds a worker for about
   that long. The loop wakes every [tick_s] to notice SIGTERM, expired
   requests and ended jobs. *)
let max_request_bytes = 1 lsl 20
let request_timeout_s = 10.
let max_connections = 512
let send_timeout_s = 10.
let tick_s = 0.05

(* ---- lines ---- *)

(* one whole line or [false]: a short write means the send timeout
   expired, and a stalled reader is never retried *)
let write_line fd line =
  let s = line ^ "\n" in
  match Unix.write_substring fd s 0 (String.length s) with
  | n -> n = String.length s
  | exception Unix.Unix_error _ -> false

let recv_line ic = try Some (input_line ic) with End_of_file -> None

(* ---- server ---- *)

let rejected_envelope ~id ~kind msg =
  Job.envelope ~id ~kind ~status:Job.Rejected ~exit_code:6 ~error:msg ()

let str_member name ~default j =
  Option.value ~default (Option.bind (Json.member name j) Json.to_string_opt)

(* the server's side of one connection *)
type peer = {
  fd : Unix.file_descr;
  request : Buffer.t;  (** the request line read so far *)
  deadline : float;  (** when the request line must be complete *)
  wlock : Mutex.t;  (** a job's lines can come from several domains *)
  gone : bool Atomic.t;  (** a write failed: the client went away *)
}

let send p line =
  if not (Atomic.get p.gone) then
    Mutex.protect p.wlock (fun () ->
        if not (write_line p.fd line) then Atomic.set p.gone true)

let serve ~socket ?queue_limit ?workers () =
  let setup () =
    try
      (* a live daemon would fail the bind below anyway; a stale file
         from a killed one must not *)
      if Sys.file_exists socket then Unix.unlink socket;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.listen fd 16;
      Unix.set_nonblock fd;
      Ok fd
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
  in
  match setup () with
  | Error _ as e -> e
  | Ok listen_fd ->
      let pool = Pool.create ?queue_limit ?workers () in
      let stop = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      let prev_term = Sys.signal Sys.sigterm on_signal in
      let prev_int = Sys.signal Sys.sigint on_signal in
      let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      (* The loop owns every accepted descriptor and alone closes it.
         A peer still sending its request sits in [reading]; once its
         job is submitted, the worker writes to it and, after the
         envelope, shuts it down and hands it back through [ended]. So
         a descriptor number is reused only after its job has ended. *)
      let reading = Hashtbl.create 64 in
      let ended = Atomic.make [] in
      let n_open = ref 0 in
      let chunk = Bytes.create 65536 in
      let close fd =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        decr n_open
      in
      let rec hand_back fd =
        let l = Atomic.get ended in
        if not (Atomic.compare_and_set ended l (fd :: l)) then hand_back fd
      in
      let reply p json =
        send p (Json.to_string ~indent:0 json);
        close p.fd
      in
      let refuse p msg = reply p (rejected_envelope ~id:"-" ~kind:"?" msg) in
      let submit p job =
        let on_done env =
          send p (Json.to_string ~indent:0 env);
          (try Unix.shutdown p.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          hand_back p.fd
        in
        match Pool.submit pool ~on_line:(send p) ~on_done ~gone:p.gone job with
        | Ok _ -> ()
        | Error reason ->
            let id = Option.value job.Job.id ~default:"-" in
            reply p (rejected_envelope ~id ~kind:(Job.kind job) reason)
      in
      let dispatch p line =
        match Json.parse line with
        | Error msg -> refuse p (Printf.sprintf "malformed request: %s" msg)
        | Ok j -> (
            match Json.member "op" j with
            | Some (Json.String "jobs") -> reply p (Pool.list pool)
            | Some (Json.String "ping") -> reply p (Json.Obj [ ("ok", Json.Bool true) ])
            | Some (Json.String "cancel") ->
                let id = str_member "id" ~default:"" j in
                let ok = id <> "" && Pool.cancel pool id in
                reply p (Json.Obj [ ("ok", Json.Bool ok); ("id", Json.String id) ])
            | Some (Json.String op) -> refuse p (Printf.sprintf "unknown op '%s'" op)
            | Some _ | None -> (
                (* not an op: a job request *)
                match Job.of_json j with
                | Error msg ->
                    reply p
                      (rejected_envelope ~id:(str_member "id" ~default:"-" j)
                         ~kind:"?" msg)
                | Ok job -> submit p job))
      in
      let on_readable p =
        let n = try Unix.read p.fd chunk 0 (Bytes.length chunk) with Unix.Unix_error _ -> 0 in
        let k = Option.value (Bytes.index_opt (Bytes.sub chunk 0 n) '\n') ~default:n in
        Buffer.add_subbytes p.request chunk 0 k;
        let len = Buffer.length p.request in
        (* a line ends at its newline or, as for [input_line], at the
           end of the stream *)
        if len > max_request_bytes || k < n || n = 0 then begin
          Hashtbl.remove reading p.fd;
          if len > max_request_bytes then
            refuse p (Printf.sprintf "request line longer than %d bytes" max_request_bytes)
          else if len = 0 && n = 0 then close p.fd
          else dispatch p (Buffer.contents p.request)
        end
      in
      let rec accept () =
        match Unix.accept ~cloexec:true listen_fd with
        | exception Unix.Unix_error _ -> () (* none pending *)
        | fd, _ ->
            incr n_open;
            (* BSDs pass the listener's O_NONBLOCK on *)
            Unix.clear_nonblock fd;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s;
            let p =
              { fd; request = Buffer.create 256; wlock = Mutex.create ();
                deadline = Unix.gettimeofday () +. request_timeout_s;
                gone = Atomic.make false }
            in
            if !n_open > max_connections then
              refuse p (Printf.sprintf "too many open connections (limit %d)" max_connections)
            else Hashtbl.replace reading fd p;
            accept ()
      in
      while not (Atomic.get stop) do
        List.iter close (Atomic.exchange ended []);
        let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) reading [ listen_fd ] in
        (match Unix.select fds [] [] tick_s with
        | ready, _, _ ->
            List.iter
              (fun fd ->
                if fd = listen_fd then accept ()
                else Option.iter on_readable (Hashtbl.find_opt reading fd))
              ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        let now = Unix.gettimeofday () in
        Hashtbl.filter_map_inplace
          (fun _ p ->
            if p.deadline > now then Some p
            else (
              refuse p (Printf.sprintf "no request line within %.0f s" request_timeout_s);
              None))
          reading
      done;
      (* drain: refuse unfinished requests, then stop the queue through
         the durable checkpoint path; every submitted job still gets
         its final envelope *)
      Hashtbl.iter (fun _ p -> refuse p "daemon is shutting down") reading;
      Pool.drain pool;
      List.iter close (Atomic.exchange ended []);
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigpipe prev_pipe;
      Ok ()

(* ---- clients ---- *)

let with_conn ~socket f =
  match
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      Ok fd
    with Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" socket (Unix.error_message e))
  with
  | Error _ as e -> e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd (Unix.in_channel_of_descr fd))

let one_shot ~socket request =
  with_conn ~socket (fun fd ic ->
      if not (write_line fd (Json.to_string ~indent:0 request)) then
        Error "connection lost while sending"
      else
        match recv_line ic with
        | None -> Error "connection closed without a reply"
        | Some line -> (
            match Json.parse line with
            | Error msg -> Error (Printf.sprintf "malformed reply: %s" msg)
            | Ok j -> Ok j))

let submit ~socket ?(on_event = fun _ -> ()) job =
  with_conn ~socket (fun fd ic ->
      if not (write_line fd (Json.to_string ~indent:0 (Job.to_json job))) then
        Error "connection lost while sending"
      else
        let rec read_until_envelope () =
          match recv_line ic with
          | None -> Error "connection closed before the final envelope"
          | Some line -> (
              match Json.parse line with
              | Error msg -> Error (Printf.sprintf "malformed stream line: %s" msg)
              | Ok j -> (
                  (* the envelope is the only line with a status *)
                  match Json.member "status" j with
                  | Some _ -> Ok j
                  | None ->
                      on_event j;
                      read_until_envelope ()))
        in
        read_until_envelope ())

let list_jobs ~socket = one_shot ~socket (Json.Obj [ ("op", Json.String "jobs") ])

let cancel_job ~socket ~id =
  one_shot ~socket
    (Json.Obj [ ("op", Json.String "cancel"); ("id", Json.String id) ])

let ping ~socket = one_shot ~socket (Json.Obj [ ("op", Json.String "ping") ])

(** The streaming front-end: a Unix-domain-socket job server and its
    line-protocol clients.

    {b Protocol.} Newline-delimited JSON, one request per connection:
    the client sends a single line and reads lines until the server
    closes. Requests:

    - a [simcov-job/1] job object (see {!Job.of_json}): the server
      enqueues it and streams back, in order, JSONL trace events and
      throttled minified [simcov-metrics/1] snapshots while the job
      runs, then exactly one [simcov-job/1] {e result envelope} — the
      only line carrying a [status] member — and closes. A job the
      queue cannot accept (full, or draining) resolves immediately to
      a [rejected] envelope with exit code 6; a malformed job line
      likewise, carrying the parse error.
    - [{"op":"jobs"}]: one [simcov-jobs/1] queue snapshot line.
    - [{"op":"cancel","id":ID}]: one [{"ok":BOOL,"id":ID}] line.
    - [{"op":"ping"}]: one [{"ok":true}] line.

    {b Connections.} One [select] loop reads request lines and
    answers [jobs], [cancel] and [ping] itself; a {!Pool} worker
    streams each job's lines and envelope straight to its socket, then
    shuts it down. Only the loop closes descriptors. Fixed limits, each
    refused with a [rejected] envelope (exit code 6): a request line
    over 1 MiB or not complete 10 s after connecting, and more than 512
    open connections ([select] takes descriptors below 1024). A write
    blocked for 10 s, or failing, marks the client gone: a client that
    closes its connection mid-stream has its job stopped at the next
    batch boundary through the durable checkpoint ([interrupted]); a
    client that only half-closes after its request gets the whole
    stream. [jobs] lists queued and running jobs and the last 256
    finished ones, in submission order.

    {b Lifecycle.} {!serve} owns the socket path (any stale file is
    replaced) and accepts until SIGTERM or SIGINT, then drains:
    unfinished requests are refused, queued jobs resolve [cancelled],
    running jobs are stopped at the next batch boundary through their
    durable checkpoint ([interrupted], exit 130), every submitted job
    still receives its final envelope, the socket file is removed, and
    {!serve} returns [Ok ()] — the CLI's exit 0. *)

module Json = Simcov_util.Json

val serve :
  socket:string ->
  ?queue_limit:int ->
  ?workers:int ->
  unit ->
  (unit, string) result
(** Run the daemon until SIGTERM/SIGINT, then drain. [queue_limit]
    and [workers] go to {!Pool.create}. [Error msg] only on socket
    setup failure (the CLI's exit 7). *)

(** {1 Clients}

    Each connects to [socket], performs one request, and returns the
    server's reply; [Error msg] on connection or protocol failure (the
    CLI's exit 7). *)

val submit :
  socket:string -> ?on_event:(Json.t -> unit) -> Job.t -> (Json.t, string) result
(** Submit a job and block until its result envelope, feeding each
    streamed trace/metrics line to [on_event] as it arrives. *)

val list_jobs : socket:string -> (Json.t, string) result
val cancel_job : socket:string -> id:string -> (Json.t, string) result
val ping : socket:string -> (Json.t, string) result

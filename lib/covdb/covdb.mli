(** The durable coverage database: crash-safe per-fault campaign
    results.

    A campaign fleet only pays off when coverage survives the run that
    produced it. This module is the persistence layer: one {!t} holds
    the per-fault status of one campaign run (or a merge of many), and
    the on-disk snapshot format is designed so that any crash — torn
    write, [kill -9], bit rot — loses at most the records past the
    corruption point, never the whole file and never silently.

    {b Snapshot format} ([simcov-covdb/1]). A snapshot is a text file
    of one minified JSON object per line, so generic tooling ([jq])
    can read it, yet every line carries its own integrity check:

    - line 1, the {e header}:
      [{"schema":"simcov-covdb/1","backend":…,"run":…,"config_hash":…,
        "stim_hash":…,"word_length":…,"total":…,"crc":…}];
    - then one {e record} per fault:
      [{"k":<key>,"s":"u"|"e"|"d","es":<step>?,"ds":<step>?,"crc":…}]
      — undetected, excited at step [es], or detected at step [ds]
      (with the excitation step when one was seen);
    - last, the {e footer}:
      [{"records":<n>,"complete":<bool>,"truncated":<resource|null>,
        "crc":…}] — the truncation point: how many records the writer
      meant to publish, whether the run finished, and what budget
      resource cut it short if not.

    Each line's ["crc"] field is the CRC-32 ({!Simcov_util.Crc32}) of
    that line's JSON {e without} the crc field, minified. Snapshots are
    published with {!Simcov_util.Durable} (temp file + fsync + rename),
    so the destination path always holds a previously committed
    snapshot; the per-line CRCs additionally catch snapshots damaged
    after commit, and {!load} salvages the longest valid prefix rather
    than erroring out.

    {b Keys.} Records are keyed by an opaque caller-chosen string that
    must identify a fault stably across runs (see [Fault.key] /
    [Stuckat.fault_key]). [config_hash] fingerprints the fault
    population (and model) — {!merge} requires it to match;
    [stim_hash] fingerprints the stimulus word — resuming additionally
    requires it to match, because recorded step indices only make
    sense against the same word. *)

(** Per-fault outcome, mirroring the campaign verdict exactly so a
    resumed run reproduces the uninterrupted report byte for byte. *)
type status =
  | Undetected  (** evaluated to the end of the word; never excited *)
  | Excited of int  (** excited at this step, never detected *)
  | Detected of { excite_step : int option; detect_step : int }

type header = {
  backend : string;  (** campaign backend tag, e.g. ["fsm-fault"] *)
  run : string;  (** caller-chosen run label (deterministic, no clock) *)
  config_hash : string;  (** fingerprint of the fault population/model *)
  stim_hash : string;  (** fingerprint of the stimulus word *)
  word_length : int;
  total : int;  (** faults submitted to the campaign, incl. ineffective *)
}

type t

val create : header -> t
(** An empty database: no records, [complete = false], no truncation. *)

val header : t -> header

val set : t -> string -> status -> unit
(** Insert or replace one fault's record. A record keeps the snapshot
    line a {!save} rendered for it while [set] gives its key an equal
    status; a different status drops the line, and the next save
    renders the new one. *)

val find : t -> string -> status option
val n_records : t -> int

val complete : t -> bool
(** Whether the snapshot was written by a run that finished (all faults
    decided, no truncation, no interruption). *)

val set_complete : t -> bool -> unit

val set_truncated : t -> string option -> unit

val iter : t -> (string -> status -> unit) -> unit
(** In ascending key order — the canonical (and persisted) order, so
    equal databases serialize to equal bytes. *)

val counts : t -> int * int * int
(** [(undetected, excited, detected)] record counts. *)

(** {1 Persistence} *)

val save : t -> string -> unit
(** Publish a snapshot atomically and durably ({!Simcov_util.Durable}).
    Records are written in ascending key order. Each record's line is
    rendered by the first save that writes it and reused by later
    saves of the same database, so saving one database after every
    checkpoint flush renders each record once. Timed by the
    [covdb.save] timer. *)

type loaded = {
  db : t;
  salvaged : bool;
      (** true when corrupt or torn trailing lines were dropped — the
          [db] then holds the longest valid record prefix and is marked
          incomplete *)
}

val load : string -> (loaded, string) result
(** Read a snapshot back. [Error] only when the file cannot be read at
    all or its header line is missing/corrupt (there is nothing to
    trust a salvage against); any damage after the header degrades to
    [Ok] with [salvaged = true]. Never raises on file contents. *)

(** {1 Aggregation} *)

val merge : t list -> (t, string) result
(** Union across runs/shards of the same campaign configuration.
    All inputs must share [backend] and [config_hash] ([Error]
    otherwise — coverage of different fault populations must not be
    conflated); [stim_hash] may differ (different stimulus words are
    the point of a fleet) and is cleared to [""] in the result unless
    all inputs agree. Per key, the strongest status wins
    ([Detected > Excited > Undetected]); between two of the same kind
    the earliest step wins. The result is [complete] iff every input
    was. *)

type selection = {
  chosen : (string * int) list;
      (** selected run labels in greedy pick order, with the number of
          newly covered faults each contributed *)
  covered : int;  (** detected faults covered by the selection *)
  union_detected : int;  (** detected faults in the union of all runs *)
}

val minimize : (string * t) list -> (selection, string) result
(** Greedy set cover: repeatedly pick the run detecting the most
    not-yet-covered faults (ties broken by argument order) until the
    union's detected set is covered — compressing a campaign fleet to
    a minimal regression suite. Runs contributing nothing new are
    dropped. Same compatibility requirements as {!merge}. *)

(** Atomic, durable file writes.

    Every machine-readable artifact the tools produce (JSON reports,
    metrics snapshots, coverage-database snapshots, bench records) is
    written through this module so that a crash — including [kill -9]
    mid-write — can never leave a truncated or interleaved file at the
    destination path: either the complete new contents are there, or
    the previous contents (or nothing) are.

    The recipe is the classic one: write to a unique temporary file in
    the {e same directory} (rename must not cross filesystems), flush
    and [fsync] it, [rename] it over the destination, then best-effort
    [fsync] the directory so the rename itself survives a power cut.

    Two shapes: the one-shot {!write_file} / {!write_string} for
    callers that produce the contents inside one scope, and the
    {!writer} handle for streams that stay open across a command's
    lifetime (trace sinks): the stream accumulates in the temp file and
    only {!commit} publishes it. *)

type writer

val start : string -> writer
(** Open a temporary file next to the destination path (suffix
    [".tmp.<pid>.<n>"], [n] counting the writers this process has
    started, so concurrent writers of one path never share a temp
    file). The destination itself is not touched. *)

val channel : writer -> out_channel
(** The channel to write through. Invalid after {!commit}. *)

val commit : writer -> unit
(** Flush, [fsync], rename over the destination, [fsync] the directory.
    When the flush, close or rename raises, the temporary file is
    removed and the exception re-raised, the destination untouched.
    Idempotent: a second call is a no-op. *)

val write_file : string -> (out_channel -> unit) -> unit
(** [write_file path f] runs [f] on a fresh temp-file channel and
    commits on normal return; if [f] raises, the temp file is removed
    and the exception re-raised — the destination is untouched either
    way until the commit. *)

val write_string : string -> string -> unit
(** [write_string path s] atomically replaces [path]'s contents with
    [s]. *)

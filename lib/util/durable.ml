(* Atomic durable writes: temp file in the destination directory,
   fsync, rename, directory fsync. See the interface for the contract. *)

type writer = {
  dest : string;
  tmp : string;
  oc : out_channel;
  mutable state : [ `Open | `Committed | `Aborted ];
}

(* [fsync] of a directory is how the rename itself is made durable;
   some filesystems refuse it (EINVAL/EBADF on exotic mounts), and a
   snapshot that is atomic but not rename-durable is still correct, so
   failures here are swallowed. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* numbers the temp files of this process: two writers of one
   destination (two domains, or two daemon jobs naming one path) must
   never share a temp file, or one's bytes land in the other's file and
   the second rename finds nothing to rename *)
let tmp_seq = Atomic.make 0

let start dest =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" dest (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  let oc = open_out_bin tmp in
  { dest; tmp; oc; state = `Open }

let channel w = w.oc

(* [close_out_noerr] also closes the descriptor when the final flush
   fails, which [close_out] does not *)
let abort w =
  if w.state = `Open then begin
    close_out_noerr w.oc;
    (try Sys.remove w.tmp with Sys_error _ -> ());
    w.state <- `Aborted
  end

let commit w =
  if w.state = `Open then begin
    (try
       flush w.oc;
       (try Unix.fsync (Unix.descr_of_out_channel w.oc)
        with Unix.Unix_error _ -> ());
       close_out w.oc;
       Sys.rename w.tmp w.dest
     with e ->
       abort w;
       raise e);
    fsync_dir (Filename.dirname w.dest);
    w.state <- `Committed
  end

let write_file path f =
  let w = start path in
  match f w.oc with
  | () -> commit w
  | exception e ->
      abort w;
      raise e

let write_string path s = write_file path (fun oc -> output_string oc s)

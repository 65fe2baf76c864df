(* The host record written beside every run, so that two run sets that
   disagree can be told apart: did the host move or the code? *)

module Json = Simcov_util.Json

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])

(* VmHWM (peak resident set) of a process, in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
          Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
      | _ -> None)
    (read_lines path)
  |> Option.value ~default:0.

let cpu_count () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (read_lines "/proc/cpuinfo"))

(* filesystem type of the mount holding [dir]: the longest mount point
   that prefixes its real path *)
let filesystem dir =
  let real = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let prefixes mp =
    mp = "/"
    || real = mp
    || String.length real > String.length mp
       && String.sub real 0 (String.length mp) = mp
       && real.[String.length mp] = '/'
  in
  List.fold_left
    (fun (best, fs) l ->
      match String.split_on_char ' ' l with
      | _ :: mp :: ty :: _ when prefixes mp && String.length mp >= String.length best ->
          (mp, ty)
      | _ -> (best, fs))
    ("", "unknown") (read_lines "/proc/mounts")
  |> snd

(* Two fixed probes, timed in ms: an ALU-bound xorshift loop and a
   memory-bound pointer chase over 32 MiB. They run in a child process
   ([perfbench --probe]) so that their memory never counts in the
   benchmark's own peak RSS. *)
let alu_probe_ms () =
  let t0 = Unix.gettimeofday () in
  let x = ref 88172645463325252 in
  for _ = 1 to 10_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  (Unix.gettimeofday () -. t0) *. 1000.

let mem_probe_ms () =
  let n = 4 * 1024 * 1024 in
  let next = Array.init n (fun i -> (i * 2654435761 + 12345) land (n - 1)) in
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to 1_000_000 do
    p := next.(!p)
  done;
  ignore (Sys.opaque_identity !p);
  (Unix.gettimeofday () -. t0) *. 1000.

let probe_main () =
  let alu = alu_probe_ms () in
  let mem = mem_probe_ms () in
  print_endline (Json.to_string ~indent:0 (Json.Obj [ ("alu_ms", Json.Float alu); ("mem_ms", Json.Float mem) ]))

let probes () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "--probe" |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, Json.parse line) with
  | Unix.WEXITED 0, Ok j -> j
  | _ -> Json.Null

let record ~workload ~seed ~scratch ~probes_start ~probes_end =
  let g = Gc.get () in
  Json.Obj
    [
      ("schema", Json.String "perfbench-host/1");
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("cpus", Json.Int (cpu_count ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ( "gc",
        Json.Obj
          [
            ("minor_heap_words", Json.Int g.Gc.minor_heap_size);
            ("space_overhead", Json.Int g.Gc.space_overhead);
            ("max_overhead", Json.Int g.Gc.max_overhead);
            ("allocation_policy", Json.Int g.Gc.allocation_policy);
          ] );
      ("scratch_dir", Json.String scratch);
      ("scratch_filesystem", Json.String (filesystem scratch));
      ("probes_start", probes_start);
      ("probes_end", probes_end);
    ]

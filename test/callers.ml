(* The caller check.  Every module under lib/ and every top-level value
   its interface exports must have a caller outside its own module, in
   lib/, bin/, bench/, examples/ or perfbench/; tests do not count, so
   code only tests call lives in test/.

   A module counts as called when another file names it.  A value [v]
   of module [X] counts as called when a file other than [X]'s own
   implementation writes [X.v], writes [A.v] after [module A = ...X], or
   writes the bare name [v] anywhere after [open X], [let open X],
   [X.( ... )] or [include X] (the scan is per file, not per scope).
   Comments and string literals are skipped.

   The allow-list names the values kept exported without such a caller,
   one [Module.value reason] per line, at most [max_allowed] of them.
   An entry whose value gained a caller or is no longer exported fails
   the check too.

   Usage: callers.exe ROOT ALLOW-LIST; exit 0 when everything has a
   caller, 1 with one line per finding otherwise. *)

let caller_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench" ]
let max_allowed = 30

type tok = U of string | L of string | Dot | Sym

(* A token stream of OCaml source with line numbers.  Identifiers and
   operators are [L], capitalised identifiers [U]; a lone [.] is [Dot];
   everything else collapses to [Sym]. *)
let tokens src =
  let n = String.length src in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  let adv () =
    if src.[!i] = '\n' then incr line;
    incr i
  in
  let is_id c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
  in
  let is_op c = String.contains "!$%&*+-./:<=>?@^|~#" c in
  let string () =
    adv ();
    while !i < n && src.[!i] <> '"' do
      if src.[!i] = '\\' then adv ();
      if !i < n then adv ()
    done;
    if !i < n then adv ()
  in
  (* {id| ... |id} *)
  let quoted () =
    let j = ref (!i + 1) in
    while !j < n && (match src.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
      incr j
    done;
    if !j < n && src.[!j] = '|' then begin
      let close = "|" ^ String.sub src (!i + 1) (!j - !i - 1) ^ "}" in
      let m = String.length close in
      while !i < !j do adv () done;
      while !i < n && not (!i + m <= n && String.sub src !i m = close) do adv () done;
      for _ = 1 to m do if !i < n then adv () done;
      true
    end
    else false
  in
  (* A character literal, or the quote of a type variable. *)
  let quote () =
    if peek 1 = '\\' then begin
      adv (); adv ();
      while !i < n && src.[!i] <> '\'' do adv () done;
      if !i < n then adv ()
    end
    else if peek 2 = '\'' then (adv (); adv (); adv ())
    else adv ()
  in
  let rec comment () =
    adv (); adv ();
    let fin = ref false in
    while !i < n && not !fin do
      match src.[!i] with
      | '(' when peek 1 = '*' -> comment ()
      | '*' when peek 1 = ')' -> adv (); adv (); fin := true
      | '"' -> string ()
      | '{' -> if not (quoted ()) then adv ()
      | '\'' -> quote ()
      | _ -> adv ()
    done
  in
  let emit t = toks := (t, !line) :: !toks in
  while !i < n do
    let c = src.[!i] in
    match c with
    | '(' when peek 1 = '*' -> comment ()
    | '"' -> string ()
    | '{' -> if not (quoted ()) then (emit Sym; adv ())
    | '\'' -> quote ()
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let j = !i in
        while !i < n && is_id src.[!i] do adv () done;
        let s = String.sub src j (!i - j) in
        emit (match c with 'A' .. 'Z' -> U s | _ -> L s)
    | '0' .. '9' ->
        while !i < n && (is_id src.[!i] || src.[!i] = '.') do adv () done
    | c when is_op c ->
        let j = !i in
        while !i < n && is_op src.[!i] do adv () done;
        let s = String.sub src j (!i - j) in
        emit (if s = "." then Dot else L s)
    | ' ' | '\t' | '\r' | '\n' -> adv ()
    | _ -> emit Sym; adv ()
  done;
  Array.of_list (List.rev !toks)

let read path = In_channel.with_open_bin path In_channel.input_all

let module_name path = String.capitalize_ascii Filename.(remove_extension (basename path))

(* What one caller file names: modules, qualified values [(X, v)] with
   aliases resolved, modules opened or included, and bare names. *)
type uses = {
  modules : (string, unit) Hashtbl.t;
  qualified : (string * string, unit) Hashtbl.t;
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;
}

let uses_of src =
  let t = tokens src in
  let n = Array.length t in
  let tok k = if k < n then fst t.(k) else Sym in
  (* the last component of the module path starting at [k] *)
  let rec path k =
    match (tok k, tok (k + 1), tok (k + 2)) with
    | U _, Dot, U _ -> path (k + 2)
    | U m, _, _ -> Some m
    | _ -> None
  in
  let aliases = Hashtbl.create 8 in
  for k = 0 to n - 1 do
    match (tok k, tok (k + 1), tok (k + 2)) with
    | L "module", U a, L "=" -> (
        match path (k + 3) with Some x -> Hashtbl.replace aliases a x | None -> ())
    | _ -> ()
  done;
  let rec resolve m depth =
    match Hashtbl.find_opt aliases m with
    | Some x when x <> m && depth < 8 -> resolve x (depth + 1)
    | _ -> m
  in
  let u =
    {
      modules = Hashtbl.create 16;
      qualified = Hashtbl.create 64;
      opened = Hashtbl.create 8;
      bare = Hashtbl.create 256;
    }
  in
  for k = 0 to n - 1 do
    (match tok k with U m -> Hashtbl.replace u.modules m () | _ -> ());
    (match (tok k, tok (k + 1), tok (k + 2)) with
    | U m, Dot, L v -> Hashtbl.replace u.qualified (resolve m 0, v) ()
    | U m, Dot, Sym -> Hashtbl.replace u.opened (resolve m 0) ()
    | (L ("open" | "include"), _, _) -> (
        let k' = if tok (k + 1) = L "!" then k + 2 else k + 1 in
        match path k' with Some x -> Hashtbl.replace u.opened (resolve x 0) () | None -> ())
    | _ -> ());
    match tok k with
    | L v when k = 0 || tok (k - 1) <> Dot -> Hashtbl.replace u.bare v ()
    | _ -> ()
  done;
  u

(* The top-level values an interface exports, with their lines. *)
let exports src =
  let t = tokens src in
  let tok k = if k < Array.length t then fst t.(k) else Sym in
  let depth = ref 0 and vals = ref [] in
  Array.iteri
    (fun k (tk, line) ->
      match tk with
      | L ("sig" | "struct" | "object") -> incr depth
      | L "end" -> decr depth
      | L ("val" | "external") when !depth = 0 -> (
          match (tok (k + 1), tok (k + 2)) with
          | L v, _ | Sym, L v -> vals := (v, line) :: !vals
          | _ -> ())
      | _ -> ())
    t;
  List.rev !vals

(* [(name, reason, line)] of each allow-list entry *)
let allow_list path =
  String.split_on_char '\n' (read path)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (line, l) ->
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some j ->
               let reason = String.sub l j (String.length l - j) in
               Some (String.sub l 0 j, String.trim reason, line)
           | None -> Some (l, "", line))

let () =
  let root = Sys.argv.(1) and allow_path = Sys.argv.(2) in
  let src rel = read (Filename.concat root rel) in
  let under dir =
    let rec go rel =
      Sys.readdir (Filename.concat root rel) |> Array.to_list |> List.sort compare
      |> List.concat_map (fun e ->
             let p = Filename.concat rel e in
             if e.[0] = '.' || e.[0] = '_' then []
             else if Sys.is_directory (Filename.concat root p) then go p
             else [ p ])
    in
    go dir
  in
  let with_suffix s = List.filter (fun p -> Filename.check_suffix p s) in
  let uses =
    List.concat_map under caller_dirs |> with_suffix ".ml" |> List.map (fun p -> (p, uses_of (src p)))
  in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; print_endline s) fmt in
  let called_elsewhere own test = List.exists (fun (p, u) -> p <> own && test u) uses in
  List.iter
    (fun own ->
      let m = module_name own in
      if not (called_elsewhere own (fun u -> Hashtbl.mem u.modules m)) then
        fail "%s:1: module %s is named by no other file under %s/" own m
          (String.concat "/, " caller_dirs))
    (with_suffix ".ml" (under "lib"));
  let allow = allow_list allow_path in
  let exported = Hashtbl.create 512 in
  List.iter
    (fun mli ->
      let m = module_name mli and own = Filename.chop_suffix mli ".mli" ^ ".ml" in
      List.iter
        (fun (v, line) ->
          let name = m ^ "." ^ v in
          Hashtbl.replace exported name ();
          let called =
            called_elsewhere own (fun u ->
                Hashtbl.mem u.qualified (m, v)
                || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare v))
          in
          match List.find_opt (fun (a, _, _) -> a = name) allow with
          | None when not called ->
              fail
                "%s:%d: %s has no caller outside its own module; stop exporting it, move it \
                 to test/ or allow-list it"
                mli line name
          | Some (_, _, aline) when called ->
              fail "%s:%d: %s has a caller now; remove its entry" allow_path aline name
          | _ -> ())
        (exports (src mli)))
    (with_suffix ".mli" (under "lib"));
  List.iter
    (fun (name, reason, line) ->
      if not (Hashtbl.mem exported name) then
        fail "%s:%d: %s is exported by no lib/ interface; remove its entry" allow_path line name
      else if reason = "" then fail "%s:%d: %s has no reason" allow_path line name)
    allow;
  if List.length allow > max_allowed then
    fail "%s: %d entries, at most %d" allow_path (List.length allow) max_allowed;
  exit (if !failures = 0 then 0 else 1)

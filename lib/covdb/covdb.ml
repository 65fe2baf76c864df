module Json = Simcov_util.Json
module Crc32 = Simcov_util.Crc32
module Durable = Simcov_util.Durable
module Obs = Simcov_obs.Obs

let schema = "simcov-covdb/1"

let c_saves = Obs.counter "covdb.saves"
let c_loads = Obs.counter "covdb.loads"
let c_salvaged = Obs.counter "covdb.salvaged_lines"
let tm_save = Obs.timer "covdb.save"

type status =
  | Undetected
  | Excited of int
  | Detected of { excite_step : int option; detect_step : int }

type header = {
  backend : string;
  run : string;
  config_hash : string;
  stim_hash : string;
  word_length : int;
  total : int;
}

module Keys = Map.Make (String)

(* A record keeps its rendered snapshot line once a save has written
   it ([""] until then), so a database saved again and again (one
   checkpointed run) renders each line once, not once per save. *)
type record = { status : status; mutable line : string }

type t = {
  hdr : header;
  mutable recs : record Keys.t;  (* key order is the file order *)
  mutable complete : bool;
  mutable truncated : string option;
}

let create hdr = { hdr; recs = Keys.empty; complete = false; truncated = None }
let header t = t.hdr
let find t k = Option.map (fun r -> r.status) (Keys.find_opt k t.recs)
let n_records t = Keys.cardinal t.recs
let complete t = t.complete
let set_complete t b = t.complete <- b
let truncated t = t.truncated
let set_truncated t r = t.truncated <- r
let iter t f = Keys.iter (fun k r -> f k r.status) t.recs

let detected_keys t =
  Keys.fold
    (fun k r acc -> match r.status with Detected _ -> k :: acc | _ -> acc)
    t.recs []
  |> List.rev

let counts t =
  Keys.fold
    (fun _ r (u, e, d) ->
      match r.status with
      | Undetected -> (u + 1, e, d)
      | Excited _ -> (u, e + 1, d)
      | Detected _ -> (u, e, d + 1))
    t.recs (0, 0, 0)

let status_equal a b =
  match (a, b) with
  | Undetected, Undetected -> true
  | Excited i, Excited j -> i = j
  | Detected a, Detected b ->
      a.detect_step = b.detect_step && a.excite_step = b.excite_step
  | _ -> false

(* an equal status keeps the record, and with it its rendered line *)
let set t k s =
  match Keys.find_opt k t.recs with
  | Some r when status_equal r.status s -> ()
  | _ -> t.recs <- Keys.add k { status = s; line = "" } t.recs

let equal a b =
  a.hdr = b.hdr && a.complete = b.complete && a.truncated = b.truncated
  && Keys.equal (fun r r' -> status_equal r.status r'.status) a.recs b.recs

(* ---- the line format ---- *)

(* a line is the minified JSON of its payload fields plus a trailing
   ["crc"] field holding the CRC-32 of the payload-only rendering: the
   payload is rendered once and the crc member spliced in before its
   closing brace (every line has at least one payload field) *)
let line_of_fields fields =
  let payload = Json.to_string ~indent:0 (Json.Obj fields) in
  String.concat ""
    [
      String.sub payload 0 (String.length payload - 1);
      ",\"crc\":\"";
      Crc32.to_hex (Crc32.string payload);
      "\"}";
    ]

(* Verify and strip a line's crc: parse, split off the ["crc"] member,
   re-render the remaining fields minified (the parser preserves field
   order, and every value type we write round-trips byte-exactly) and
   compare checksums. [None] on any mismatch or malformation. *)
let fields_of_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok (Json.Obj fields) -> (
      match List.partition (fun (k, _) -> k = "crc") fields with
      | [ (_, Json.String crc) ], payload_fields ->
          let payload = Json.to_string ~indent:0 (Json.Obj payload_fields) in
          if Crc32.to_hex (Crc32.string payload) = crc then Some payload_fields
          else None
      | _ -> None)
  | Ok _ -> None

let header_fields h =
  [
    ("schema", Json.String schema);
    ("backend", Json.String h.backend);
    ("run", Json.String h.run);
    ("config_hash", Json.String h.config_hash);
    ("stim_hash", Json.String h.stim_hash);
    ("word_length", Json.Int h.word_length);
    ("total", Json.Int h.total);
  ]

let record_fields k s =
  ("k", Json.String k)
  ::
  (match s with
  | Undetected -> [ ("s", Json.String "u") ]
  | Excited es -> [ ("s", Json.String "e"); ("es", Json.Int es) ]
  | Detected { excite_step; detect_step } ->
      ("s", Json.String "d")
      :: (match excite_step with None -> [] | Some es -> [ ("es", Json.Int es) ])
      @ [ ("ds", Json.Int detect_step) ])

let footer_fields t =
  [
    ("records", Json.Int (n_records t));
    ("complete", Json.Bool t.complete);
    ( "truncated",
      match t.truncated with None -> Json.Null | Some r -> Json.String r );
  ]

let save t path =
  Obs.incr c_saves;
  Obs.span tm_save ~fields:(fun () ->
      [ ("path", Json.String path); ("records", Json.Int (n_records t)) ])
  @@ fun () ->
  Durable.write_file path (fun oc ->
      let put line =
        output_string oc line;
        output_char oc '\n'
      in
      put (line_of_fields (header_fields t.hdr));
      Keys.iter
        (fun k r ->
          if r.line = "" then r.line <- line_of_fields (record_fields k r.status);
          put r.line)
        t.recs;
      put (line_of_fields (footer_fields t)))

type loaded = { db : t; salvaged : bool }

(* ---- reading back ---- *)

let str_field fields k = Option.bind (List.assoc_opt k fields) Json.to_string_opt
let int_field fields k = Option.bind (List.assoc_opt k fields) Json.to_int_opt

let header_of_fields fields =
  match
    ( str_field fields "schema",
      str_field fields "backend",
      str_field fields "run",
      str_field fields "config_hash",
      str_field fields "stim_hash",
      int_field fields "word_length",
      int_field fields "total" )
  with
  | Some s, Some backend, Some run, Some config_hash, Some stim_hash,
    Some word_length, Some total
    when s = schema ->
      Some { backend; run; config_hash; stim_hash; word_length; total }
  | _ -> None

let record_of_fields fields =
  match (str_field fields "k", str_field fields "s") with
  | Some k, Some "u" -> Some (k, Undetected)
  | Some k, Some "e" -> (
      match int_field fields "es" with
      | Some es -> Some (k, Excited es)
      | None -> None)
  | Some k, Some "d" -> (
      match int_field fields "ds" with
      | Some ds -> Some (k, Detected { excite_step = int_field fields "es"; detect_step = ds })
      | None -> None)
  | _ -> None

let footer_of_fields fields =
  match (int_field fields "records", List.assoc_opt "complete" fields) with
  | Some n, Some (Json.Bool c) ->
      let truncated =
        match List.assoc_opt "truncated" fields with
        | Some (Json.String r) -> Some r
        | _ -> None
      in
      Some (n, c, truncated)
  | _ -> None

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
      Obs.incr c_loads;
      let lines = String.split_on_char '\n' text in
      match lines with
      | [] -> Error "empty file"
      | hline :: rest -> (
          match Option.bind (fields_of_line hline) header_of_fields with
          | None -> Error "missing or corrupt simcov-covdb/1 header"
          | Some hdr ->
              let db = create hdr in
              (* Records are trusted up to the first damaged line; a
                 valid footer whose count matches the records read seals
                 the snapshot, anything else salvages the prefix. *)
              let salvaged = ref false in
              let sealed = ref false in
              (try
                 List.iter
                   (fun line ->
                     if line = "" then () (* the trailing newline *)
                     else if !sealed then begin
                       (* bytes after the footer: damage *)
                       salvaged := true;
                       raise Exit
                     end
                     else
                       match fields_of_line line with
                       | None ->
                           salvaged := true;
                           raise Exit
                       | Some fields -> (
                           match record_of_fields fields with
                           | Some (k, s) -> set db k s
                           | None -> (
                               match footer_of_fields fields with
                               | Some (n, c, tr) when n = n_records db ->
                                   db.complete <- c;
                                   db.truncated <- tr;
                                   sealed := true
                               | _ ->
                                   salvaged := true;
                                   raise Exit)))
                   rest
               with Exit -> ());
              if not !sealed then salvaged := true;
              if !salvaged then begin
                db.complete <- false;
                Obs.incr c_salvaged;
                Obs.event "covdb.salvage" ~fields:(fun () ->
                    [
                      ("path", Json.String path);
                      ("records", Json.Int (n_records db));
                    ])
              end;
              Ok { db; salvaged = !salvaged }))

(* ---- aggregation ---- *)

let strongest a b =
  match (a, b) with
  | Detected x, Detected y ->
      if y.detect_step < x.detect_step then b
      else if x.detect_step < y.detect_step then a
      else
        Detected
          {
            detect_step = x.detect_step;
            excite_step =
              (match (x.excite_step, y.excite_step) with
              | Some i, Some j -> Some (min i j)
              | Some i, None | None, Some i -> Some i
              | None, None -> None);
          }
  | Detected _, _ -> a
  | _, Detected _ -> b
  | Excited i, Excited j -> if j < i then b else a
  | Excited _, _ -> a
  | _, Excited _ -> b
  | Undetected, Undetected -> a

let compatible dbs =
  match dbs with
  | [] -> Error "no inputs"
  | first :: rest -> (
      let h0 = header first in
      let clash =
        List.find_opt
          (fun db ->
            (header db).backend <> h0.backend
            || (header db).config_hash <> h0.config_hash)
          rest
      in
      match clash with
      | Some db ->
          Error
            (Printf.sprintf
               "incompatible inputs: run %S has backend/config %s/%s, run %S has %s/%s"
               h0.run h0.backend h0.config_hash (header db).run
               (header db).backend (header db).config_hash)
      | None -> Ok h0)

let merge dbs =
  match compatible dbs with
  | Error _ as e -> e
  | Ok h0 ->
      let same_stim =
        List.for_all (fun db -> (header db).stim_hash = h0.stim_hash) dbs
      in
      let out =
        create
          {
            h0 with
            run = String.concat "+" (List.map (fun db -> (header db).run) dbs);
            stim_hash = (if same_stim then h0.stim_hash else "");
            word_length = (if same_stim then h0.word_length else 0);
          }
      in
      List.iter
        (fun db ->
          iter db (fun k s ->
              match find out k with
              | None -> set out k s
              | Some s0 -> set out k (strongest s0 s)))
        dbs;
      out.complete <- List.for_all complete dbs;
      Ok out

type selection = {
  chosen : (string * int) list;
  covered : int;
  union_detected : int;
}

let minimize runs =
  match compatible (List.map snd runs) with
  | Error e -> Error e
  | Ok _ ->
      let union = Hashtbl.create 256 in
      List.iter
        (fun (_, db) ->
          List.iter (fun k -> Hashtbl.replace union k ()) (detected_keys db))
        runs;
      let union_detected = Hashtbl.length union in
      let covered = Hashtbl.create 256 in
      let remaining = ref runs in
      let chosen = ref [] in
      let continue = ref true in
      while !continue && Hashtbl.length covered < union_detected do
        (* the run covering the most uncovered faults; ties break toward
           the earliest argument, making the selection deterministic *)
        let best = ref None in
        List.iter
          (fun (name, db) ->
            let gain =
              List.fold_left
                (fun n k -> if Hashtbl.mem covered k then n else n + 1)
                0 (detected_keys db)
            in
            match !best with
            | Some (_, _, g) when g >= gain -> ()
            | _ when gain = 0 -> ()
            | _ -> best := Some (name, db, gain))
          !remaining;
        match !best with
        | None -> continue := false
        | Some (name, db, gain) ->
            List.iter (fun k -> Hashtbl.replace covered k ()) (detected_keys db);
            chosen := (name, gain) :: !chosen;
            remaining := List.filter (fun (n, _) -> n != name) !remaining
      done;
      Ok
        {
          chosen = List.rev !chosen;
          covered = Hashtbl.length covered;
          union_detected;
        }

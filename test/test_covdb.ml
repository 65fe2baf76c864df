(* The durable coverage database: CRC-checked snapshot round-trips,
   torn-write and bit-rot salvage (longest valid prefix, never an
   exception), merge join semantics, and greedy set-cover
   minimization. *)

module Covdb = Simcov_covdb.Covdb
module Crc32 = Simcov_util.Crc32
module Rng = Simcov_util.Rng

let hdr ?(backend = "synthetic") ?(run = "t0") ?(config_hash = "cafe0001")
    ?(stim_hash = "beef0002") ?(word_length = 32) ?(total = 10) () =
  { Covdb.backend; run; config_hash; stim_hash; word_length; total }

let tmpfile () = Filename.temp_file "simcov_covdb" ".covdb"

let with_tmp f =
  let path = tmpfile () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let records t =
  let acc = ref [] in
  Covdb.iter t (fun k s -> acc := (k, s) :: !acc);
  List.rev !acc

(* ---- round trips ---- *)

let test_round_trip () =
  with_tmp @@ fun path ->
  let db = Covdb.create (hdr ()) in
  Covdb.set db "a" Covdb.Undetected;
  Covdb.set db "b" (Covdb.Excited 7);
  Covdb.set db "c" (Covdb.Detected { excite_step = Some 3; detect_step = 9 });
  Covdb.set db "d" (Covdb.Detected { excite_step = None; detect_step = 0 });
  Covdb.set_complete db true;
  Covdb.set_truncated db (Some "steps");
  Covdb.save db path;
  match Covdb.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok { Covdb.db = back; salvaged } ->
      Alcotest.(check bool) "not salvaged" false salvaged;
      Alcotest.(check bool) "round-trips exactly" true (Oracles.Covdb.equal db back);
      Alcotest.(check string) "truncation survives"
        (Oracles.Covdb.snapshot (hdr ()) ~complete:true ~truncated:(Some "steps") (records back))
        (Oracles.Covdb.bytes back);
      Alcotest.(check bool) "complete survives" true (Covdb.complete back)

let test_missing_and_corrupt_header () =
  (match Covdb.load "/nonexistent/path.covdb" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file succeeded");
  with_tmp @@ fun path ->
  let db = Covdb.create (hdr ()) in
  Covdb.set db "a" Covdb.Undetected;
  Covdb.save db path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let damaged = Bytes.of_string text in
  Bytes.set damaged 3 'X' (* inside the header line *);
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc damaged);
  match Covdb.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt header must not salvage"

let random_db rng =
  let n = Rng.int rng 40 in
  let db =
    Covdb.create
      (hdr
         ~run:(Printf.sprintf "run%d" (Rng.int rng 1000))
         ~word_length:(Rng.int rng 500) ~total:n ())
  in
  for i = 0 to n - 1 do
    let key = Printf.sprintf "k:%d:%d" (Rng.int rng 5) i in
    let status =
      match Rng.int rng 3 with
      | 0 -> Covdb.Undetected
      | 1 -> Covdb.Excited (Rng.int rng 100)
      | _ ->
          Covdb.Detected
            {
              excite_step = (if Rng.bool rng then Some (Rng.int rng 100) else None);
              detect_step = Rng.int rng 100;
            }
    in
    Covdb.set db key status
  done;
  Covdb.set_complete db (Rng.bool rng);
  if Rng.int rng 4 = 0 then Covdb.set_truncated db (Some "wall_clock");
  db

let qcheck_round_trip =
  QCheck.Test.make ~name:"covdb: save/load round-trips exactly" ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let db = random_db rng in
      with_tmp @@ fun path ->
      Covdb.save db path;
      match Covdb.load path with
      | Error e -> QCheck.Test.fail_reportf "load failed: %s" e
      | Ok { Covdb.db = back; salvaged } ->
          if salvaged then QCheck.Test.fail_reportf "clean snapshot salvaged";
          Oracles.Covdb.equal db back)

(* ---- damage: torn writes and bit rot ---- *)

(* every byte-prefix of a snapshot loads without raising, and what it
   yields is exactly a prefix of the original's sorted records *)
let test_torn_write_salvage () =
  with_tmp @@ fun path ->
  let db = random_db (Rng.create 77) in
  Covdb.save db path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let full = records db in
  let n = String.length text in
  with_tmp @@ fun torn ->
  for k = 0 to n do
    Out_channel.with_open_bin torn (fun oc ->
        Out_channel.output_string oc (String.sub text 0 k));
    match Covdb.load torn with
    | exception e ->
        Alcotest.failf "prefix %d/%d raised %s" k n (Printexc.to_string e)
    | Error _ -> () (* header still incomplete: nothing to salvage *)
    | Ok { Covdb.db = got; salvaged } ->
        let gr = records got in
        let m = List.length gr in
        Alcotest.(check bool)
          (Printf.sprintf "prefix %d: records are a prefix" k)
          true
          (m <= List.length full
          && List.for_all2
               (fun (ka, sa) (kb, sb) -> ka = kb && sa = sb)
               gr
               (List.filteri (fun i _ -> i < m) full));
        if k < n then begin
          (* the sole clean proper prefix is the file minus its
             trailing newline; anything shorter lost the footer or
             worse and the load must say so *)
          if not salvaged then
            Alcotest.(check int)
              (Printf.sprintf "prefix %d: clean only without final newline" k)
              (n - 1) k
          else
            Alcotest.(check bool)
              (Printf.sprintf "prefix %d: marked incomplete" k)
              false (Covdb.complete got)
        end
        else Alcotest.(check bool) "full file: clean" false salvaged
  done

(* single flipped bytes: never an exception; any record the salvage
   keeps carries its original status (the CRC keeps damaged lines from
   being trusted) *)
let test_bit_rot_salvage () =
  with_tmp @@ fun path ->
  let db = random_db (Rng.create 99) in
  Covdb.save db path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let full = records db in
  let rng = Rng.create 1234 in
  with_tmp @@ fun rotten ->
  for _ = 1 to 200 do
    let pos = Rng.int rng (String.length text) in
    let damaged = Bytes.of_string text in
    Bytes.set damaged pos (Char.chr (Char.code (Bytes.get damaged pos) lxor 0x20));
    Out_channel.with_open_bin rotten (fun oc ->
        Out_channel.output_bytes oc damaged);
    match Covdb.load rotten with
    | exception e ->
        Alcotest.failf "flip at %d raised %s" pos (Printexc.to_string e)
    | Error _ -> () (* the flip landed in the header *)
    | Ok { Covdb.db = got; _ } ->
        List.iter
          (fun (k, s) ->
            match List.assoc_opt k full with
            | Some s0 ->
                Alcotest.(check bool)
                  (Printf.sprintf "flip at %d: record %s intact" pos k)
                  true (s = s0)
            | None -> Alcotest.failf "flip at %d invented record %s" pos k)
          (records got)
  done

(* ---- merge ---- *)

let db_of hdr pairs =
  let db = Covdb.create hdr in
  List.iter (fun (k, s) -> Covdb.set db k s) pairs;
  Covdb.set_complete db true;
  db

let test_merge_join () =
  let h1 = hdr ~run:"r1" () in
  let h2 = hdr ~run:"r2" ~stim_hash:"feed0003" () in
  let a =
    db_of h1
      [
        ("f1", Covdb.Excited 5);
        ("f2", Covdb.Detected { excite_step = Some 4; detect_step = 9 });
        ("f3", Covdb.Undetected);
      ]
  in
  let b =
    db_of h2
      [
        ("f1", Covdb.Detected { excite_step = None; detect_step = 2 });
        ("f2", Covdb.Detected { excite_step = Some 1; detect_step = 9 });
        ("f4", Covdb.Excited 3);
      ]
  in
  match Covdb.merge [ a; b ] with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok m ->
      Alcotest.(check int) "union of keys" 4 (Covdb.n_records m);
      Alcotest.(check bool) "detected beats excited" true
        (Covdb.find m "f1" = Some (Covdb.Detected { excite_step = None; detect_step = 2 }));
      Alcotest.(check bool) "earliest excite step wins on a tie" true
        (Covdb.find m "f2" = Some (Covdb.Detected { excite_step = Some 1; detect_step = 9 }));
      Alcotest.(check string) "runs are joined" "r1+r2" (Covdb.header m).Covdb.run;
      Alcotest.(check string) "differing stim hashes clear" ""
        (Covdb.header m).Covdb.stim_hash;
      Alcotest.(check bool) "all complete -> complete" true (Covdb.complete m)

let test_merge_incompatible () =
  let a = db_of (hdr ()) [ ("f1", Covdb.Undetected) ] in
  let b = db_of (hdr ~config_hash:"deadbeef" ()) [ ("f1", Covdb.Undetected) ] in
  (match Covdb.merge [ a; b ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merge across configs must refuse");
  match Covdb.merge [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty merge must refuse"

(* ---- minimize ---- *)

let test_minimize_greedy () =
  let det ks =
    List.map
      (fun k -> (k, Covdb.Detected { excite_step = None; detect_step = 1 }))
      ks
  in
  let runs =
    [
      ("A", db_of (hdr ~run:"A" ()) (det [ "1"; "2"; "3" ]));
      ("B", db_of (hdr ~run:"B" ()) (det [ "3"; "4" ]));
      ("C", db_of (hdr ~run:"C" ()) (det [ "4"; "5"; "6" ]));
      ("D", db_of (hdr ~run:"D" ()) (det [ "2" ]));
    ]
  in
  match Covdb.minimize runs with
  | Error e -> Alcotest.failf "minimize failed: %s" e
  | Ok sel ->
      Alcotest.(check (list (pair string int)))
        "greedy picks A then C"
        [ ("A", 3); ("C", 3) ]
        sel.Covdb.chosen;
      Alcotest.(check int) "covers the union" 6 sel.Covdb.covered;
      Alcotest.(check int) "union size" 6 sel.Covdb.union_detected

let test_minimize_nothing_detected () =
  let runs = [ ("A", db_of (hdr ~run:"A" ()) [ ("1", Covdb.Undetected) ]) ] in
  match Covdb.minimize runs with
  | Error e -> Alcotest.failf "minimize failed: %s" e
  | Ok sel ->
      Alcotest.(check (list (pair string int))) "nothing chosen" [] sel.Covdb.chosen;
      Alcotest.(check int) "nothing to cover" 0 sel.Covdb.union_detected

(* ---- atomicity plumbing ---- *)

let test_save_leaves_no_temp () =
  let dir = Filename.temp_file "simcov_covdbdir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "db.covdb" in
      let db = random_db (Rng.create 5) in
      Covdb.save db path;
      Covdb.save db path;
      Alcotest.(check (list string)) "only the committed snapshot remains"
        [ "db.covdb" ]
        (Array.to_list (Sys.readdir dir)))

(* ---- the rendered-line cache ---- *)

let random_status rng =
  match Rng.int rng 3 with
  | 0 -> Covdb.Undetected
  | 1 -> Covdb.Excited (Rng.int rng 100)
  | _ ->
      Covdb.Detected
        {
          excite_step = (if Rng.bool rng then Some (Rng.int rng 100) else None);
          detect_step = Rng.int rng 100;
        }

let read path = In_channel.with_open_bin path In_channel.input_all

(* One database changes through a random sequence of sets (new keys,
   re-sets with an equal status, changed statuses) and is saved between
   them, as a checkpointed run saves its snapshot after every flush.
   Every save must write the bytes of a fresh database holding the same
   records, and of the reference renderer: a line kept from an earlier
   save must never outlive its record's status. *)
let qcheck_resave_equals_fresh =
  QCheck.Test.make ~name:"covdb: a re-saved database writes a fresh one's bytes"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let h = hdr ~run:(Printf.sprintf "run%d" seed) ~total:60 () in
      let db = Covdb.create h in
      let model = Hashtbl.create 64 in
      with_tmp @@ fun path ->
      with_tmp @@ fun fresh_path ->
      for _ = 1 to 1 + Rng.int rng 8 do
        for _ = 1 to Rng.int rng 20 do
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
          let k, s =
            match (Rng.int rng 3, keys) with
            | 0, _ | _, [] ->
                (Printf.sprintf "f:%d" (Rng.int rng 60), random_status rng)
            | 1, _ ->
                let k = List.nth keys (Rng.int rng (List.length keys)) in
                (* an equal status, but not the same value *)
                let s =
                  match Hashtbl.find model k with
                  | Covdb.Undetected -> Covdb.Undetected
                  | Covdb.Excited e -> Covdb.Excited e
                  | Covdb.Detected { excite_step; detect_step } ->
                      Covdb.Detected { excite_step; detect_step }
                in
                (k, s)
            | _ ->
                let k = List.nth keys (Rng.int rng (List.length keys)) in
                let s0 = Hashtbl.find model k in
                let rec changed () =
                  let s = random_status rng in
                  if s = s0 then changed () else s
                in
                (k, changed ())
          in
          Covdb.set db k s;
          Hashtbl.replace model k s
        done;
        let complete = Rng.bool rng in
        let truncated = if Rng.int rng 4 = 0 then Some "steps" else None in
        Covdb.set_complete db complete;
        Covdb.set_truncated db truncated;
        Covdb.save db path;
        let fresh = Covdb.create h in
        Hashtbl.iter (Covdb.set fresh) model;
        Covdb.set_complete fresh complete;
        Covdb.set_truncated fresh truncated;
        Covdb.save fresh fresh_path;
        let got = read path in
        if got <> read fresh_path then
          QCheck.Test.fail_reportf "re-saved snapshot differs from a fresh one:\n%s\nvs\n%s"
            got (read fresh_path);
        let reference =
          Oracles.Covdb.snapshot h ~complete ~truncated
            (Hashtbl.fold (fun k s acc -> (k, s) :: acc) model [])
        in
        if got <> reference then
          QCheck.Test.fail_reportf "snapshot differs from the reference:\n%s\nvs\n%s"
            got reference
      done;
      true)

let suite =
  [
    Alcotest.test_case "snapshot round-trip" `Quick test_round_trip;
    Alcotest.test_case "missing file / corrupt header" `Quick
      test_missing_and_corrupt_header;
    QCheck_alcotest.to_alcotest qcheck_round_trip;
    Alcotest.test_case "torn-write salvage at every prefix" `Quick
      test_torn_write_salvage;
    Alcotest.test_case "bit-rot salvage never lies" `Quick test_bit_rot_salvage;
    Alcotest.test_case "merge joins statuses" `Quick test_merge_join;
    Alcotest.test_case "merge refuses incompatible inputs" `Quick
      test_merge_incompatible;
    Alcotest.test_case "minimize is greedy set cover" `Quick test_minimize_greedy;
    Alcotest.test_case "minimize with nothing detected" `Quick
      test_minimize_nothing_detected;
    Alcotest.test_case "atomic save leaves no temp files" `Quick
      test_save_leaves_no_temp;
    QCheck_alcotest.to_alcotest qcheck_resave_equals_fresh;
  ]

open Simcov_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a max_int) (Rng.int b max_int)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a max_int = Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done

let test_rng_int_covers () =
  let rng = Rng.create 3 in
  let hit = Array.make 8 false in
  for _ = 1 to 500 do
    hit.(Rng.int rng 8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id hit)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 5 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let equal_count = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a max_int = Rng.int b max_int then incr equal_count
  done;
  Alcotest.(check int) "independent streams" 0 !equal_count

(* ---- JSON rendering: every float must produce parseable output ---- *)

let json_roundtrip v =
  match Json.parse (Json.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "JSON round-trip failed: %s" e

let test_json_nonfinite_renders_null () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h renders null" f)
        "null"
        (Json.to_string (Json.Float f));
      (* and the whole document stays parseable, coming back as Null *)
      Alcotest.(check bool)
        "round-trips as Null" true
        (json_roundtrip (Json.Obj [ ("x", Json.Float f) ])
        = Json.Obj [ ("x", Json.Null) ]))
    [ Float.nan; infinity; neg_infinity ]

let test_json_finite_float_roundtrip () =
  List.iter
    (fun f ->
      match json_roundtrip (Json.Float f) with
      | Json.Float f' ->
          Alcotest.(check bool)
            (Printf.sprintf "%h survives exactly" f)
            true
            (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float f'))
      | other ->
          Alcotest.failf "expected a Float back, got %s" (Json.to_string other))
    [ 0.; -0.; 1.5; -3.25; 0.1; 1e-300; 1.7976931348623157e308; 4.0 ]

let test_json_minified_nonfinite_in_list () =
  (* a metrics snapshot full of nan timers must still be valid JSON *)
  let doc = Json.List [ Json.Float Float.nan; Json.Int 3; Json.Float infinity ] in
  Alcotest.(check string)
    "minified" "[null,3,null]"
    (Json.to_string ~indent:0 doc);
  Alcotest.(check bool)
    "parses" true
    (json_roundtrip doc = Json.List [ Json.Null; Json.Int 3; Json.Null ])

(* what [f ()] writes to stdout *)
let capture_stdout f =
  let path = Filename.temp_file "simcov_stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

let test_tabulate_render () =
  let t = Tabulate.create [ "a"; "bb" ] in
  Tabulate.add_row t [ "xxx"; "y" ];
  let s = capture_stdout (fun () -> Tabulate.print t) in
  Alcotest.(check string) "aligned columns" "a   | bb\n----+---\nxxx | y \n" s

(* ---- Budget.split / reclaim: sub-budget carving ---- *)

(* [Budget.step] charges first and raises when the counter reaches the
   cap, so after exhaustion [steps_used] reads the full allowance (and a
   zero-allowance child completes no work at all). *)
let spend_until_exceeded b =
  let completed = ref 0 in
  (try
     while true do
       Budget.step b;
       incr completed
     done
   with Budget.Budget_exceeded Budget.Steps -> ());
  !completed

let test_budget_split_partitions () =
  let parent = Budget.create ~max_steps:10 () in
  Budget.step parent;
  (* 9 steps remain; three children must share exactly those 9 *)
  let kids = Budget.split parent ~n:3 in
  Alcotest.(check int) "three children" 3 (Array.length kids);
  Array.iter (fun k -> ignore (spend_until_exceeded k)) kids;
  let allowances = Array.map Budget.steps_used kids in
  Alcotest.(check int) "children share the parent's remainder" 9
    (Array.fold_left ( + ) 0 allowances);
  (* near-equal slices: max - min <= 1 *)
  let mn = Array.fold_left min max_int allowances
  and mx = Array.fold_left max 0 allowances in
  Alcotest.(check bool) "slices near-equal" true (mx - mn <= 1);
  (* the parent was charged up front: no steps left for it either *)
  Alcotest.(check bool) "parent exhausted after split" true
    (match Budget.exceeded parent with Some Budget.Steps -> true | _ -> false)

let test_budget_split_exhausted_parent () =
  let parent = Budget.create ~max_steps:4 () in
  ignore (spend_until_exceeded parent);
  let kids = Budget.split parent ~n:4 in
  Array.iter
    (fun k ->
      Alcotest.(check int) "zero-allowance child completes no work" 0
        (spend_until_exceeded k))
    kids

let test_budget_split_reclaim () =
  let parent = Budget.create ~max_steps:12 () in
  let kids = Budget.split parent ~n:3 in
  (* each child got 4; spend 1 in the first, everything in the second,
     nothing in the third *)
  Budget.step kids.(0);
  ignore (spend_until_exceeded kids.(1));
  Array.iter (fun k -> Budget.reclaim parent k) kids;
  (* unspent = 3 + 0 + 4 = 7 reclaimed, so the parent stands at 12 - 7 *)
  Alcotest.(check int) "reclaim restores unspent steps" 5
    (Budget.steps_used parent);
  Alcotest.(check (option reject)) "parent usable again" None
    (Budget.exceeded parent)

let test_budget_split_unlimited () =
  let kids = Budget.split Budget.unlimited ~n:2 in
  Array.iter
    (fun k ->
      for _ = 1 to 1_000 do
        Budget.step k
      done;
      Alcotest.(check (option reject)) "unlimited child never exceeds" None
        (Budget.exceeded k))
    kids;
  (* spending in a child of [unlimited] must not mutate the shared
     sentinel *)
  Alcotest.(check int) "unlimited sentinel untouched" 0
    (Budget.steps_used Budget.unlimited)

(* ---- lane sets against a plain reference ---- *)

(* [ones] and [iter] on random native-int lane sets, against
   predicates over [0 .. width-1]: membership, ascending iteration
   order, and bit 62 (the sign bit) as an ordinary lane *)
let qcheck_lanes_reference =
  QCheck.Test.make ~name:"lanes: ones and iter = reference" ~count:200
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let lanes_of p = List.filter p (List.init Lanes.width Fun.id) in
      let elems s =
        let l = ref [] in
        Lanes.iter s (fun x -> l := x :: !l);
        List.rev !l
      in
      let density = match Rng.int rng 4 with 0 -> 0 | 1 -> 100 | _ -> Rng.int rng 100 in
      let p = Array.get (Array.init Lanes.width (fun _ -> Rng.int rng 100 < density)) in
      let s = List.fold_left (fun s l -> s lor (1 lsl l)) 0 (lanes_of p) in
      let k = Rng.int rng (Lanes.width + 2) in
      Lanes.width = Sys.int_size
      && elems s = lanes_of p
      && elems (Lanes.ones k) = lanes_of (fun l -> l < k))

(* ---- crc32 ---- *)

let test_crc32_known_answer () =
  (* the standard check value for the IEEE polynomial *)
  Alcotest.(check string) "crc32(\"123456789\")" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "crc32(\"\")" "00000000"
    (Crc32.to_hex (Crc32.string ""))

let test_crc32_incremental () =
  let whole = "the quick brown fox jumps over the lazy dog" in
  Alcotest.(check int32) "update 0l s = string s" (Crc32.string whole)
    (Crc32.update 0l whole);
  let a = String.sub whole 0 17 and b = String.sub whole 17 (String.length whole - 17) in
  Alcotest.(check int32) "incremental = whole" (Crc32.string whole)
    (Crc32.update (Crc32.update 0l a) b)

(* the polynomial applied one bit at a time over Int32: the table-driven
   native-int register must agree with it on every string, whole and
   split *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done)
    s;
  Int32.lognot !c

let qcheck_crc32_bitwise =
  QCheck.Test.make ~name:"crc32: table-driven = bitwise reference, whole and split"
    ~count:500
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if s = "" then 0 else cut mod (String.length s + 1) in
      let a = String.sub s 0 cut and b = String.sub s cut (String.length s - cut) in
      Crc32.string s = crc32_bitwise s && Crc32.update (Crc32.update 0l a) b = crc32_bitwise s)

let qcheck_json_add_int =
  QCheck.Test.make ~name:"json: add_int writes string_of_int (any int)" ~count:1000
    QCheck.(oneof [ int; small_signed_int; oneofl [ 0; -1; 9; 10; -10; min_int; max_int ] ])
    (fun n ->
      let b = Buffer.create 8 in
      Buffer.add_char b '<';
      Json.add_int b n;
      Buffer.contents b = "<" ^ string_of_int n)

(* ---- durable writes ---- *)

let test_durable_write_is_atomic_on_raise () =
  let path = Filename.temp_file "simcov_durable" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Durable.write_string path "original";
      (match
         Durable.write_file path (fun oc ->
             output_string oc "partial garbage";
             failwith "writer blew up")
       with
      | () -> Alcotest.fail "write_file swallowed the exception"
      | exception Failure _ -> ());
      Alcotest.(check string) "destination untouched" "original"
        (In_channel.with_open_bin path In_channel.input_all);
      let dir = Filename.dirname path and base = Filename.basename path in
      Array.iter
        (fun f ->
          if String.length f > String.length base
             && String.sub f 0 (String.length base) = base then
            Alcotest.failf "leftover temp file %s" f)
        (Sys.readdir dir))

(* the temp files a write to [dir]/[base] left behind *)
let leftover_temps dir base =
  List.filter
    (String.starts_with ~prefix:(base ^ ".tmp."))
    (Array.to_list (Sys.readdir dir))

(* two domains write one path at once, 200 times: each must publish
   its own bytes whole, so a read after both commits sees one of the two
   contents, neither writer raises, and no temp file is left *)
let test_durable_concurrent_writers () =
  let path = Filename.temp_file "simcov_durable" ".txt" in
  let dir = Filename.dirname path and base = Filename.basename path in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (base :: leftover_temps dir base))
    (fun () ->
      let a = String.make 65536 'a' and b = String.make 32768 'b' in
      let write s () =
        match Durable.write_string path s with
        | () -> None
        | exception e -> Some (Printexc.to_string e)
      in
      for round = 1 to 200 do
        let other = Domain.spawn (write b) in
        let mine = write a () in
        (match (mine, Domain.join other) with
        | None, None -> ()
        | Some e, _ | _, Some e -> Alcotest.failf "round %d: a writer raised %s" round e);
        let got = In_channel.with_open_bin path In_channel.input_all in
        if got <> a && got <> b then
          Alcotest.failf "round %d: read back %d torn bytes" round (String.length got)
      done;
      Alcotest.(check (list string)) "no temp file left" [] (leftover_temps dir base))

(* a commit that cannot rename (the destination is a directory) raises
   and removes its temp file *)
let test_durable_failed_commit_leaves_no_temp () =
  let dest = Filename.temp_file "simcov_durable" ".dir" in
  Sys.remove dest;
  Unix.mkdir dest 0o755;
  let dir = Filename.dirname dest and base = Filename.basename dest in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (leftover_temps dir base);
      Unix.rmdir dest)
    (fun () ->
      (match Durable.write_string dest "snapshot" with
      | () -> Alcotest.fail "a write over a directory succeeded"
      | exception Sys_error _ -> ());
      Alcotest.(check bool) "the directory is still there" true
        (Sys.is_directory dest);
      Alcotest.(check (list string)) "no temp file left" [] (leftover_temps dir base))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int covers" `Quick test_rng_int_covers;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "json non-finite floats render null" `Quick
      test_json_nonfinite_renders_null;
    Alcotest.test_case "json finite floats round-trip" `Quick
      test_json_finite_float_roundtrip;
    Alcotest.test_case "json minified non-finite" `Quick
      test_json_minified_nonfinite_in_list;
    Alcotest.test_case "tabulate render" `Quick test_tabulate_render;
    Alcotest.test_case "budget split partitions remainder" `Quick
      test_budget_split_partitions;
    Alcotest.test_case "budget split of exhausted parent" `Quick
      test_budget_split_exhausted_parent;
    Alcotest.test_case "budget reclaim restores unspent" `Quick
      test_budget_split_reclaim;
    Alcotest.test_case "budget split of unlimited" `Quick
      test_budget_split_unlimited;
    QCheck_alcotest.to_alcotest qcheck_lanes_reference;
    Alcotest.test_case "crc32 known answer" `Quick test_crc32_known_answer;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    Alcotest.test_case "durable write atomic on raise" `Quick
      test_durable_write_is_atomic_on_raise;
    QCheck_alcotest.to_alcotest qcheck_crc32_bitwise;
    QCheck_alcotest.to_alcotest qcheck_json_add_int;
    Alcotest.test_case "durable: concurrent writers of one path" `Quick
      test_durable_concurrent_writers;
    Alcotest.test_case "durable: a failed commit removes its temp file" `Quick
      test_durable_failed_commit_leaves_no_temp;
  ]

open Simcov_dlx

let prog lines =
  match Isa.parse_program (String.concat "\n" lines) with
  | Ok p -> p
  | Error e -> failwith e

let check_pass name program =
  match Dual.validate program with
  | Validate.Pass _ -> ()
  | Validate.Fail _ as f ->
      Alcotest.failf "%s: %s" name (Format.asprintf "%a" Validate.pp_outcome f)

(* the bug campaign's verdict for one catalogued bug *)
let check_detected bug program =
  Alcotest.(check bool) (bug ^ " detected") true (List.assoc bug (Dual.bug_campaign program))

let test_dual_independent_pair () =
  let p = prog [ "addi r1, r0, 5"; "addi r2, r0, 7"; "add r3, r1, r2"; "sw r3, 0(r0)" ] in
  check_pass "independent pairs" p;
  let d = Dual.create p in
  let _ = Dual.run d in
  let _, duals, singles = Dual.stats d in
  (* (addi, addi) pairs; (add, sw) is RAW through r3 and splits *)
  Alcotest.(check int) "one dual issue" 1 duals;
  Alcotest.(check int) "two single issues" 2 singles

let test_dual_raw_splits () =
  let p = prog [ "addi r1, r0, 5"; "add r2, r1, r1" ] in
  check_pass "raw pair splits" p;
  let d = Dual.create p in
  let _ = Dual.run d in
  let _, duals, singles = Dual.stats d in
  Alcotest.(check int) "no dual issue" 0 duals;
  Alcotest.(check int) "two singles" 2 singles

let test_dual_branch_ends_group () =
  let p = prog [ "addi r1, r0, 1"; "bnez r1, 1"; "addi r2, r0, 99"; "sw r2, 0(r0)" ] in
  check_pass "branch ends group" p

let test_dual_mem_port_conflict () =
  let p =
    prog [ "addi r1, r0, 7"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "sw r2, 1(r0)"; "lw r3, 1(r0)" ]
  in
  check_pass "one memory port" p;
  let d = Dual.create p in
  let _ = Dual.run d in
  let _, duals, _ = Dual.stats d in
  (* sw/lw to the same cell are RAW-through-memory: never paired *)
  Alcotest.(check bool) "memory ops mostly split" true (duals <= 1)

let test_dual_loop () =
  let p =
    prog
      [
        "addi r1, r0, 4";
        "addi r2, r0, 0";
        "add r2, r2, r1";
        "addi r1, r1, -1";
        "bnez r1, -3";
        "sw r2, 0(r0)";
      ]
  in
  check_pass "countdown loop" p

let test_bug_raw () =
  let p = prog [ "addi r1, r0, 5"; "add r2, r1, r1"; "sw r2, 0(r0)" ] in
  check_detected "pair_despite_raw" p

let test_bug_waw () =
  (* both write r1; a later reader exposes the wrong survivor *)
  let p = prog [ "addi r1, r0, 5"; "addi r1, r0, 9"; "sw r1, 0(r0)" ] in
  check_detected "pair_despite_waw" p

let test_bug_branch () =
  let p = prog [ "addi r1, r0, 1"; "bnez r1, 2"; "addi r2, r0, 99"; "nop"; "sw r2, 0(r0)" ] in
  check_detected "pair_after_branch" p

let test_bug_two_mem () =
  let p = prog [ "addi r1, r0, 7"; "nop"; "sw r1, 3(r0)"; "lw r2, 3(r0)"; "sw r2, 4(r0)" ] in
  check_detected "pair_two_mem" p

let test_pair_classes_feasible () =
  let pcs = Dual.pair_classes () in
  Alcotest.(check bool) "substantial class count" true (List.length pcs > 60);
  List.iter
    (fun (pc : Dual.pair_class) ->
      Alcotest.(check bool) "raw and waw exclusive" false (pc.Dual.raw && pc.Dual.waw))
    pcs

let test_pair_program_clean () =
  let program = Dual.concretize_pairs (Dual.pair_classes ()) in
  check_pass "pair-coverage program on the correct machine" program

let test_pair_program_catches_all_bugs () =
  let program = Dual.concretize_pairs (Dual.pair_classes ()) in
  List.iter
    (fun (name, detected) ->
      Alcotest.(check bool) ("pair coverage detects " ^ name) true detected)
    (Dual.bug_campaign program)

let qcheck_dual_equals_spec =
  (* dual-issue must match the architectural model on random programs *)
  QCheck.Test.make ~name:"dual: 2-wide machine == spec on random programs" ~count:200
    QCheck.(pair (int_range 5 40) (int_range 1 100000))
    (fun (len, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let r () = Simcov_util.Rng.int rng 8 in
      let program =
        Array.init len (fun k ->
            match Simcov_util.Rng.int rng 10 with
            | 0 | 1 | 2 ->
                let ops = [| Isa.Add; Isa.Sub; Isa.Xor; Isa.Slt; Isa.Seq |] in
                Isa.make ~rd:(r ()) ~rs1:(r ()) ~rs2:(r ()) (Simcov_util.Rng.pick rng ops)
            | 3 | 4 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~imm:(Simcov_util.Rng.int rng 16) Isa.Addi
            | 5 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~imm:(Simcov_util.Rng.int rng 8) Isa.Lw
            | 6 -> Isa.make ~rs1:(r ()) ~rs2:(r ()) ~imm:(Simcov_util.Rng.int rng 8) Isa.Sw
            | 7 ->
                let max_off = max 1 (min 3 (len - k - 1)) in
                Isa.make ~rs1:(r ())
                  ~imm:(1 + Simcov_util.Rng.int rng max_off)
                  (if Simcov_util.Rng.bool rng then Isa.Beqz else Isa.Bnez)
            | _ -> Isa.nop)
      in
      match Dual.validate program with Validate.Pass _ -> true | Validate.Fail _ -> false)

let suite =
  [
    Alcotest.test_case "independent pair" `Quick test_dual_independent_pair;
    Alcotest.test_case "raw splits" `Quick test_dual_raw_splits;
    Alcotest.test_case "branch ends group" `Quick test_dual_branch_ends_group;
    Alcotest.test_case "mem port conflict" `Quick test_dual_mem_port_conflict;
    Alcotest.test_case "loop" `Quick test_dual_loop;
    Alcotest.test_case "bug raw" `Quick test_bug_raw;
    Alcotest.test_case "bug waw" `Quick test_bug_waw;
    Alcotest.test_case "bug branch" `Quick test_bug_branch;
    Alcotest.test_case "bug two mem" `Quick test_bug_two_mem;
    Alcotest.test_case "pair classes" `Quick test_pair_classes_feasible;
    Alcotest.test_case "pair program clean" `Quick test_pair_program_clean;
    Alcotest.test_case "pair program catches bugs" `Quick test_pair_program_catches_all_bugs;
    QCheck_alcotest.to_alcotest qcheck_dual_equals_spec;
  ]

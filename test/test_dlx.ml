open Simcov_dlx

(* ---------- ISA ---------- *)

let test_isa_classes () =
  Alcotest.(check bool) "add is RR" true (Isa.class_of Isa.Add = Isa.Alu_rr);
  Alcotest.(check bool) "addi is RI" true (Isa.class_of Isa.Addi = Isa.Alu_ri);
  Alcotest.(check bool) "lw is load" true (Isa.class_of Isa.Lw = Isa.Load);
  Alcotest.(check bool) "beqz is branch" true (Isa.class_of Isa.Beqz = Isa.Branch);
  Alcotest.(check int) "7 distinct classes" 7
    (List.length (List.sort_uniq compare (List.init 7 Isa.class_of_index)))

let test_isa_reads_writes () =
  let add = Isa.make ~rd:3 ~rs1:1 ~rs2:2 Isa.Add in
  Alcotest.(check (option int)) "add writes rd" (Some 3) (Isa.writes_reg add);
  Alcotest.(check (list int)) "add reads rs1 rs2" [ 1; 2 ] (Isa.reads_regs add);
  let sw = Isa.make ~rs1:1 ~rs2:2 ~imm:4 Isa.Sw in
  Alcotest.(check (option int)) "sw writes nothing" None (Isa.writes_reg sw);
  let jal = Isa.make ~imm:10 Isa.Jal in
  Alcotest.(check (option int)) "jal writes r31" (Some 31) (Isa.writes_reg jal);
  let r0dest = Isa.make ~rd:0 ~rs1:1 ~rs2:2 Isa.Add in
  Alcotest.(check (option int)) "r0 never written" None (Isa.writes_reg r0dest);
  Alcotest.(check (list int)) "r0 never read" []
    (Isa.reads_regs (Isa.make ~rs1:0 ~imm:1 Isa.Beqz))

(* one instruction, parsed as a one-line program *)
let of_string s =
  match Isa.parse_program s with
  | Ok [| i |] -> Ok i
  | Ok p -> Error (Printf.sprintf "%d instructions" (Array.length p))
  | Error e -> Error e

let test_isa_parse () =
  let check_parse s =
    match of_string s with
    | Ok i -> Alcotest.(check string) ("roundtrip " ^ s) s (Isa.to_string i)
    | Error e -> Alcotest.fail e
  in
  List.iter check_parse
    [
      "add r3, r1, r2";
      "addi r4, r1, -5";
      "lw r2, 4(r1)";
      "sw r2, -8(r3)";
      "beqz r1, 3";
      "bnez r2, -2";
      "j 12";
      "jal 7";
      "jr r5";
      "jalr r6";
      "lhi r6, 255";
      "seq r1, r2, r3";
      "sgt r4, r5, r6";
      "sra r7, r1, r2";
      "seqi r1, r2, 4";
      "slli r3, r4, 2";
      "srai r5, r6, 1";
      "nop";
    ]

let test_isa_parse_program () =
  let text = "# demo\naddi r1, r0, 5\n\nadd r2, r1, r1 # double\n" in
  match Isa.parse_program text with
  | Ok prog -> Alcotest.(check int) "two instructions" 2 (Array.length prog)
  | Error e -> Alcotest.fail e

let test_isa_parse_errors () =
  Alcotest.(check bool) "bad mnemonic" true (Result.is_error (of_string "frob r1, r2"));
  Alcotest.(check bool) "bad register" true (Result.is_error (of_string "add r1, r2, r99"));
  Alcotest.(check bool) "wrong arity" true (Result.is_error (of_string "add r1, r2"))

(* ---------- Spec ---------- *)

let prog lines =
  match Isa.parse_program (String.concat "\n" lines) with
  | Ok p -> p
  | Error e -> failwith e

let test_spec_arithmetic () =
  let p = prog [ "addi r1, r0, 5"; "addi r2, r0, 7"; "add r3, r1, r2"; "sub r4, r2, r1" ] in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int) "4 commits" 4 (List.length commits);
  Alcotest.(check int32) "r3 = 12" 12l (Programs.reg commits 3);
  Alcotest.(check int32) "r4 = 2" 2l (Programs.reg commits 4)

let test_spec_memory () =
  let p = prog [ "addi r1, r0, 3"; "addi r2, r0, 42"; "sw r2, 5(r1)"; "lw r3, 5(r1)" ] in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "loaded back" 42l (Programs.reg commits 3);
  Alcotest.(check bool) "memory written" true
    (List.exists (fun c -> c.Spec.mem_write = Some (8, 42l)) commits)

let test_spec_branch_loop () =
  (* r1 counts down from 3; r2 accumulates *)
  let p =
    prog
      [
        "addi r1, r0, 3";
        "addi r2, r0, 0";
        "add r2, r2, r1" (* loop body at pc 2 *);
        "addi r1, r1, -1";
        "bnez r1, -3" (* back to pc 2 *);
      ]
  in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "sum 3+2+1" 6l (Programs.reg commits 2);
  Alcotest.(check bool) "halted" true (Spec.step s = None)

let test_spec_jal_jr () =
  let p =
    prog
      [
        "jal 3" (* call, link r31 = 1 *);
        "addi r1, r0, 99" (* return target *);
        "j 5" (* skip over the callee to the end *);
        "addi r2, r0, 7" (* callee *);
        "jr r31";
      ]
  in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "callee ran" 7l (Programs.reg commits 2);
  Alcotest.(check int32) "returned" 99l (Programs.reg commits 1)

let test_spec_r0_immutable () =
  let p = prog [ "addi r0, r0, 5"; "add r1, r0, r0" ] in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "r0 stays 0" 0l (Programs.reg commits 0);
  Alcotest.(check int32) "r1 = 0" 0l (Programs.reg commits 1)

let test_spec_lhi_slt () =
  let p = prog [ "lhi r1, 1"; "addi r2, r0, -1"; "slt r3, r2, r1"; "slt r4, r1, r2" ] in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "lhi" 65536l (Programs.reg commits 1);
  Alcotest.(check int32) "-1 < 65536" 1l (Programs.reg commits 3);
  Alcotest.(check int32) "not (65536 < -1)" 0l (Programs.reg commits 4)


let test_spec_new_comparisons () =
  let p =
    prog
      [
        "addi r1, r0, 5";
        "addi r2, r0, 5";
        "seq r3, r1, r2";
        "sne r4, r1, r2";
        "sge r5, r1, r2";
        "sgt r6, r1, r2";
        "sle r7, r1, r2";
      ]
  in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "seq" 1l (Programs.reg commits 3);
  Alcotest.(check int32) "sne" 0l (Programs.reg commits 4);
  Alcotest.(check int32) "sge" 1l (Programs.reg commits 5);
  Alcotest.(check int32) "sgt" 0l (Programs.reg commits 6);
  Alcotest.(check int32) "sle" 1l (Programs.reg commits 7)

let test_spec_shifts () =
  let p =
    prog
      [
        "addi r1, r0, -8";
        "srai r2, r1, 1";
        "srli r3, r1, 1";
        "slli r4, r1, 1";
      ]
  in
  let s = Spec.create p in
  let commits = Spec.run s in
  Alcotest.(check int32) "sra sign-extends" (-4l) (Programs.reg commits 2);
  Alcotest.(check int32) "srl zero-fills" 2147483644l (Programs.reg commits 3);
  Alcotest.(check int32) "sll" (-16l) (Programs.reg commits 4)

(* ---------- Pipeline vs Spec ---------- *)

let check_equiv ?preload_regs name program =
  match Validate.run_program ?preload_regs program with
  | Validate.Pass _ -> ()
  | Validate.Fail _ as f ->
      Alcotest.failf "%s: %s" name (Format.asprintf "%a" Validate.pp_outcome f)

let test_pipe_jalr () =
  check_equiv "jalr call through register"
    (prog [ "addi r1, r0, 4"; "jalr r1"; "addi r2, r0, 99"; "j 6"; "addi r3, r0, 7"; "jr r31" ])

let test_pipe_new_ops_hazards () =
  check_equiv "comparison results forwarded"
    (prog [ "addi r1, r0, 3"; "seq r2, r1, r1"; "sgt r3, r2, r0"; "sw r3, 0(r0)" ])

let test_pipe_raw_hazard_chain () =
  check_equiv "back-to-back dependent ALU ops"
    (prog [ "addi r1, r0, 1"; "add r2, r1, r1"; "add r3, r2, r2"; "add r4, r3, r2" ])

let test_pipe_load_use () =
  check_equiv "load-use hazard"
    (prog
       [
         "addi r1, r0, 9";
         "sw r1, 0(r0)";
         "lw r2, 0(r0)";
         "add r3, r2, r2" (* needs the interlock *);
       ])

let test_pipe_store_data_forward () =
  check_equiv "store data forwarded"
    (prog [ "addi r1, r0, 5"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "sw r2, 1(r0)"; "lw r3, 1(r0)" ])

let test_pipe_branch_taken () =
  check_equiv "taken branch squashes wrong-path work"
    (prog
       [
         "addi r1, r0, 1";
         "bnez r1, 2" (* skip the two poison instructions *);
         "addi r2, r0, 99" (* wrong path *);
         "addi r3, r0, 99" (* wrong path *);
         "add r4, r1, r1";
       ])

let test_pipe_branch_not_taken () =
  check_equiv "not-taken branch"
    (prog [ "addi r1, r0, 0"; "bnez r1, 2"; "addi r2, r0, 1"; "add r3, r2, r2" ])

let test_pipe_branch_depends_on_forwarded () =
  check_equiv "branch condition needs bypass"
    (prog [ "addi r1, r0, 1"; "addi r1, r1, -1"; "beqz r1, 1"; "addi r2, r0, 9"; "nop" ])

let test_pipe_loop () =
  check_equiv "countdown loop"
    (prog
       [
         "addi r1, r0, 4";
         "addi r2, r0, 0";
         "add r2, r2, r1";
         "addi r1, r1, -1";
         "bnez r1, -3";
         "add r3, r2, r2";
       ])

let test_pipe_jal_jr () =
  check_equiv "call and return"
    (prog [ "jal 3"; "addi r1, r0, 99"; "j 5"; "addi r2, r0, 7"; "jr r31" ])


let test_pipeline_trace () =
  let p = prog [ "lw r1, 0(r0)"; "add r2, r1, r1" ] in
  let t = Pipeline.trace (Pipeline.create p) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "shows the stall" true (contains "[stall]" t);
  Alcotest.(check bool) "shows the load" true (contains "lw r1, 0(r0)" t);
  Alcotest.(check bool) "header" true (contains "MEM/WB" t)

let test_pipe_stats_stall () =
  let p = prog [ "lw r1, 0(r0)"; "add r2, r1, r1" ] in
  let pipe = Pipeline.create p in
  let _ = Pipeline.run pipe in
  let _, stalls, _ = Pipeline.stats pipe in
  Alcotest.(check int) "one load-use stall" 1 stalls

let test_pipe_stats_squash () =
  let p = prog [ "addi r1, r0, 1"; "bnez r1, 2"; "nop"; "nop"; "nop" ] in
  let pipe = Pipeline.create p in
  let _ = Pipeline.run pipe in
  let _, _, squashes = Pipeline.stats pipe in
  Alcotest.(check int) "two slots squashed" 2 squashes

(* each catalog bug must be exposed by some directed program *)
let directed_tests =
  [
    prog [ "addi r1, r0, 1"; "add r2, r1, r1"; "sw r2, 0(r0)" ] (* exmem forward *);
    prog [ "addi r1, r0, 1"; "nop"; "add r2, r1, r1"; "sw r2, 0(r0)" ] (* memwb forward *);
    prog [ "addi r1, r0, 9"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "add r3, r2, r2"; "sw r3, 1(r0)" ]
    (* load interlock *);
    prog [ "addi r1, r0, 1"; "bnez r1, 2"; "addi r2, r0, 99"; "nop"; "sw r2, 0(r0)" ]
    (* branch squash *);
    prog [ "addi r1, r0, 3"; "addi r2, r0, 5"; "add r3, r1, r2"; "add r4, r3, r1"; "sw r4, 0(r0)" ]
    (* rs2-as-rs1 forwarding *);
    prog [ "addi r1, r0, 2"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "add r3, r1, r2"; "sw r3, 1(r0)" ]
    (* interlock must look at rs2 *);
    prog [ "addi r1, r0, 0"; "beqz r1, 1"; "addi r2, r0, 5"; "sw r2, 0(r0)" ]
    (* branch polarity *);
    prog [ "addi r1, r0, 3"; "nop"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "sw r2, 1(r0)" ]
    (* store-data forward via memwb *);
    prog [ "jal 2"; "nop"; "sw r31, 0(r0)" ] (* jal link *);
    prog [ "addi r3, r0, 5"; "add r2, r3, r1"; "sw r2, 0(r0)" ] (* bypass fails rd3 *);
    prog [ "addi r1, r0, 9"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "add r3, r2, r2"; "sw r3, 1(r0)" ]
    (* interlock fails rd2 *);
    prog [ "addi r1, r0, 7"; "sw r1, 0(r0)"; "lw r2, 0(r0)"; "sw r2, 1(r0)" ]
    (* store data EX/MEM bypass *);
  ]

let test_bug_catalog_all_detectable () =
  let result = Validate.bug_campaign_multi directed_tests in
  List.iter
    (fun (name, detected) ->
      Alcotest.(check bool) (name ^ " detectable") true detected)
    result.Validate.bug_results;
  Alcotest.(check int) "all 12 bugs" 12 result.Validate.n_bugs

let test_bugfree_pipeline_passes_directed () =
  List.iteri
    (fun k p -> check_equiv (Printf.sprintf "directed %d" k) p)
    directed_tests

(* random straight-line programs with forward branches terminate *)
let random_program rng len =
  let n_regs = 8 in
  let r () = Simcov_util.Rng.int rng n_regs in
  let instrs =
    List.init len (fun k ->
        match Simcov_util.Rng.int rng 10 with
        | 0 | 1 | 2 ->
            let ops =
              [|
                Isa.Add; Isa.Sub; Isa.And; Isa.Or; Isa.Xor; Isa.Slt; Isa.Seq; Isa.Sne;
                Isa.Sge; Isa.Sgt; Isa.Sle; Isa.Sll; Isa.Srl; Isa.Sra;
              |]
            in
            Isa.make ~rd:(r ()) ~rs1:(r ()) ~rs2:(r ()) (Simcov_util.Rng.pick rng ops)
        | 3 | 4 ->
            let ops =
              [| Isa.Addi; Isa.Andi; Isa.Ori; Isa.Xori; Isa.Seqi; Isa.Snei; Isa.Slli |]
            in
            Isa.make ~rd:(r ()) ~rs1:(r ())
              ~imm:(Simcov_util.Rng.int rng 16)
              (Simcov_util.Rng.pick rng ops)
        | 5 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~imm:(Simcov_util.Rng.int rng 8) Isa.Lw
        | 6 -> Isa.make ~rs1:(r ()) ~rs2:(r ()) ~imm:(Simcov_util.Rng.int rng 8) Isa.Sw
        | 7 ->
            (* forward branch only: offset within the remaining program *)
            let max_off = max 1 (min 3 (len - k - 1)) in
            let op = if Simcov_util.Rng.bool rng then Isa.Beqz else Isa.Bnez in
            Isa.make ~rs1:(r ()) ~imm:(1 + Simcov_util.Rng.int rng max_off) op
        | _ -> Isa.nop)
  in
  Array.of_list instrs

let qcheck_pipeline_equals_spec =
  QCheck.Test.make ~name:"dlx: pipeline == spec on random programs" ~count:200
    QCheck.(pair (int_range 5 40) (int_range 1 100000))
    (fun (len, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let program = random_program rng len in
      let preload_regs = List.init 7 (fun r -> (r + 1, Int32.of_int ((r * 13) + 1))) in
      match Validate.run_program ~preload_regs program with
      | Validate.Pass _ -> true
      | Validate.Fail _ -> false)


(* The lockstep comparator against the full-list reference, with no bug
   and with every catalog bug, at the default step bound and at a small
   one: the same first mismatch (index, expected, actual) or the same
   pass. The one allowed difference is a cut: where the reference's
   only mismatch is the pipeline's first commit past the bound (it
   expects nothing there), the lockstep comparison stops at the bound
   and passes, marked as cut. A bound of 1 is left out: the reference
   runs the pipeline for four cycles per step, fewer than its first
   commit takes. *)
let qcheck_lockstep_matches_full_lists =
  QCheck.Test.make ~name:"dlx: lockstep comparison = full-list reference" ~count:100
    QCheck.(triple (int_range 5 40) (int_range 1 100000) (int_range 2 12))
    (fun (len, seed, small) ->
      let rng = Simcov_util.Rng.create seed in
      let program = random_program rng len in
      let preload_regs = List.init 7 (fun r -> (r + 1, Int32.of_int ((r * 13) + 1))) in
      let agree bugs max_steps =
        match
          ( Validate.run_program ~bugs ?max_steps ~preload_regs program,
            Oracles.Validate.run_program ~bugs ?max_steps ~preload_regs program )
        with
        | Validate.Pass { compared; cut = false }, Ok n -> compared = n
        | Validate.Pass { compared; cut = true }, reference ->
            Some compared = max_steps
            && (match reference with
               | Ok n -> n = compared
               | Error m -> m.Validate.index = compared && m.Validate.expected = None)
        | Validate.Fail m, Error m' -> m = m'
        | _ -> false
      in
      List.for_all
        (fun bugs -> agree bugs None && agree bugs (Some small))
        (Pipeline.no_bugs :: List.map snd Pipeline.bug_catalog))


let test_hazardgen_templates_pass_bugfree () =
  (* every template runs clean on the correct pipeline *)
  List.iteri
    (fun n program ->
      match Validate.run_program program with
      | Validate.Pass _ -> ()
      | Validate.Fail _ as f ->
          Alcotest.failf "template %d: %s" n (Format.asprintf "%a" Validate.pp_outcome f))
    (Hazardgen.suite ())

let test_hazardgen_catches_all_bugs () =
  let r = Hazardgen.bug_campaign () in
  List.iter
    (fun (name, detected) ->
      Alcotest.(check bool) ("hazard suite detects " ^ name) true detected)
    r.Validate.bug_results

let test_hazardgen_compact () =
  let programs = Hazardgen.suite () in
  Alcotest.(check bool) "many templates" true (List.length programs > 80);
  Alcotest.(check bool) "compact total" true
    (Hazardgen.total_instructions programs < 1200)

let suite =
  [
    Alcotest.test_case "isa classes" `Quick test_isa_classes;
    Alcotest.test_case "isa reads/writes" `Quick test_isa_reads_writes;
    Alcotest.test_case "isa parse" `Quick test_isa_parse;
    Alcotest.test_case "isa parse program" `Quick test_isa_parse_program;
    Alcotest.test_case "isa parse errors" `Quick test_isa_parse_errors;
    Alcotest.test_case "spec arithmetic" `Quick test_spec_arithmetic;
    Alcotest.test_case "spec memory" `Quick test_spec_memory;
    Alcotest.test_case "spec branch loop" `Quick test_spec_branch_loop;
    Alcotest.test_case "spec jal/jr" `Quick test_spec_jal_jr;
    Alcotest.test_case "spec r0" `Quick test_spec_r0_immutable;
    Alcotest.test_case "spec lhi/slt" `Quick test_spec_lhi_slt;
    Alcotest.test_case "spec new comparisons" `Quick test_spec_new_comparisons;
    Alcotest.test_case "spec shifts" `Quick test_spec_shifts;
    Alcotest.test_case "pipe jalr" `Quick test_pipe_jalr;
    Alcotest.test_case "pipe new ops hazards" `Quick test_pipe_new_ops_hazards;
    Alcotest.test_case "pipe raw chain" `Quick test_pipe_raw_hazard_chain;
    Alcotest.test_case "pipe load-use" `Quick test_pipe_load_use;
    Alcotest.test_case "pipe store forward" `Quick test_pipe_store_data_forward;
    Alcotest.test_case "pipe branch taken" `Quick test_pipe_branch_taken;
    Alcotest.test_case "pipe branch not taken" `Quick test_pipe_branch_not_taken;
    Alcotest.test_case "pipe branch forwarded cond" `Quick test_pipe_branch_depends_on_forwarded;
    Alcotest.test_case "pipe loop" `Quick test_pipe_loop;
    Alcotest.test_case "pipe jal/jr" `Quick test_pipe_jal_jr;
    Alcotest.test_case "pipe stall stats" `Quick test_pipe_stats_stall;
    Alcotest.test_case "pipeline trace" `Quick test_pipeline_trace;
    Alcotest.test_case "pipe squash stats" `Quick test_pipe_stats_squash;
    Alcotest.test_case "bug catalog detectable" `Quick test_bug_catalog_all_detectable;
    Alcotest.test_case "bug-free passes directed" `Quick test_bugfree_pipeline_passes_directed;
    Alcotest.test_case "hazardgen bug-free" `Quick test_hazardgen_templates_pass_bugfree;
    Alcotest.test_case "hazardgen catches all" `Quick test_hazardgen_catches_all_bugs;
    Alcotest.test_case "hazardgen compact" `Quick test_hazardgen_compact;
    QCheck_alcotest.to_alcotest qcheck_pipeline_equals_spec;
    QCheck_alcotest.to_alcotest qcheck_lockstep_matches_full_lists;
  ]

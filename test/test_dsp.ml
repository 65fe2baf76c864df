open Simcov_dsp.Mac

let i32 = Int32.of_int

let test_saturating_arith () =
  Alcotest.(check int32) "plain add" 7l (saturating_add 3l 4l);
  Alcotest.(check int32) "clamps high" Int32.max_int
    (saturating_add Int32.max_int 1l);
  Alcotest.(check int32) "clamps low" Int32.min_int
    (saturating_add Int32.min_int (-1l));
  Alcotest.(check int32) "mul clamps" Int32.max_int
    (saturating_mul 65536l 65536l);
  Alcotest.(check int32) "mul plain" (-12l) (saturating_mul 3l (-4l))

let test_spec_basic () =
  let s = Spec.create () in
  let r = Spec.run s [ Setc 3l; Mac 4l; Mac 5l; Read ] in
  Alcotest.(check bool) "responses" true (r = [ Ack; Ack; Ack; Value 27l ])

let test_spec_clear () =
  let s = Spec.create () in
  let r = Spec.run s [ Setc 2l; Mac 10l; Clear; Mac 3l; Read ] in
  Alcotest.(check bool) "clear wipes" true
    (List.nth r 4 = Value 6l)

let run_both ?bugs cmds = Validate.run ?bugs cmds

let check_pass name cmds =
  match run_both cmds with
  | Validate.Pass _ -> ()
  | Validate.Fail _ as f ->
      Alcotest.failf "%s: %s" name (Format.asprintf "%a" Validate.pp_outcome f)

let test_pipe_matches_spec_simple () =
  check_pass "simple" [ Setc 3l; Mac 4l; Mac 5l; Read ]

let test_pipe_read_after_mac () =
  (* read immediately after a mac: the stall path *)
  check_pass "read-after-mac" [ Setc 2l; Mac 7l; Read ]

let test_pipe_read_two_after_mac () =
  (* read two cycles after a mac: the forward path *)
  check_pass "read-2-after-mac" [ Setc 2l; Mac 7l; Setc 5l; Read ]

let test_pipe_clear_squash () =
  check_pass "clear with in-flight macs" [ Setc 2l; Mac 7l; Clear; Read ];
  check_pass "clear deep" [ Setc 2l; Mac 7l; Mac 8l; Clear; Read ]

let test_pipe_back_to_back_reads () =
  check_pass "reads back to back" [ Setc 1l; Mac 1l; Read; Read; Mac 2l; Read ]

let test_pipe_setc_between () =
  check_pass "setc between macs" [ Setc 2l; Mac 3l; Setc 10l; Mac 1l; Read ]

let test_pipe_saturation () =
  check_pass "saturation"
    [ Setc Int32.max_int; Mac 2l; Mac 2l; Read; Clear; Setc Int32.min_int; Mac 2l; Read ]

let test_pipe_stall_counted () =
  let p = Pipe.create () in
  let _ = Pipe.run p [ Setc 2l; Mac 7l; Read ] in
  let _, stalls, _ = Pipe.stats p in
  Alcotest.(check int) "one stall" 1 stalls

let test_pipe_squash_counted () =
  let p = Pipe.create () in
  let _ = Pipe.run p [ Setc 2l; Mac 7l; Mac 8l; Clear ] in
  let _, _, squashed = Pipe.stats p in
  Alcotest.(check int) "two squashed" 2 squashed

let test_bug_catalog_detectable () =
  let streams =
    [
      [ Setc 2l; Mac 7l; Read ];
      [ Setc 2l; Mac 7l; Setc 5l; Read ];
      [ Setc 2l; Mac 7l; Clear; Read ];
      [ Setc 2l; Mac 3l; Setc 10l; Read; Read ];
      [ Setc Int32.max_int; Mac 2l; Mac 2l; Setc 0l; Read ];
    ]
  in
  List.iter
    (fun (name, bugs) ->
      let detected =
        List.exists
          (fun cmds -> match Validate.run ~bugs cmds with Validate.Fail _ -> true | _ -> false)
          streams
      in
      Alcotest.(check bool) (name ^ " detectable") true detected)
    Pipe.bug_catalog

let test_testmodel_structure () =
  let m = Testmodel.build () in
  Alcotest.(check int) "4 states" 4 m.Simcov_fsm.Fsm.n_states;
  Alcotest.(check bool) "strongly connected" true
    (Oracles.Scc.is_strongly_connected (Simcov_fsm.Fsm.transition_graph m));
  Alcotest.(check (option int)) "forall-1" (Some 1)
    (Result.to_option (Simcov_fsm.Fsm.min_forall_k m))

let test_testmodel_stall_output () =
  let m = Testmodel.build () in
  let outs =
    Simcov_fsm.Fsm.output_word m [ Testmodel.input_mac; Testmodel.input_read ]
  in
  let o = List.nth outs 1 in
  Alcotest.(check int) "stall bit" 1 (o land 1);
  Alcotest.(check int) "forward bit" 2 (o land 2)

let test_testmodel_squash_output () =
  let m = Testmodel.build () in
  let outs =
    Simcov_fsm.Fsm.output_word m
      [ Testmodel.input_mac; Testmodel.input_mac; Testmodel.input_clear ]
  in
  let o = List.nth outs 2 in
  Alcotest.(check int) "squash count 2" 2 ((o lsr 2) land 3)

let test_tour_catches_all_dsp_bugs () =
  let m = Testmodel.build () in
  match Simcov_testgen.Tour.transition_tour m with
  | None -> Alcotest.fail "tour must exist"
  | Some t ->
      Alcotest.(check bool) "is tour" true
        (Simcov_testgen.Tour.word_is_tour m t.Simcov_testgen.Tour.word);
      let cmds = Testmodel.concretize t.Simcov_testgen.Tour.word in
      (* the bug-free pipeline passes the tour stream *)
      (match Validate.run cmds with
      | Validate.Pass _ -> ()
      | Validate.Fail _ as f ->
          Alcotest.failf "bug-free must pass: %a" Validate.pp_outcome f);
      (* and every seeded bug is exposed *)
      List.iter
        (fun (name, detected) ->
          Alcotest.(check bool) ("tour detects " ^ name) true detected)
        (Validate.bug_campaign cmds)

let test_certificate_on_dsp_model () =
  let m = Testmodel.build () in
  match Simcov_core.Completeness.certify m with
  | Ok cert ->
      Alcotest.(check int) "k = 1" 1 cert.Simcov_core.Completeness.k;
      let rng = Simcov_util.Rng.create 5 in
      let report = Simcov_core.Completeness.check_empirically rng m cert in
      Alcotest.(check (float 0.001)) "100%" 100.0
        (Simcov_coverage.Detect.coverage_pct report)
  | Error _ -> Alcotest.fail "certificate must hold"

let qcheck_pipe_equals_spec_random =
  QCheck.Test.make ~name:"dsp: pipeline == spec on random command streams" ~count:300
    QCheck.(pair (int_range 1 40) (int_range 1 100000))
    (fun (len, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let cmds =
        List.init len (fun _ ->
            match Simcov_util.Rng.int rng 5 with
            | 0 -> Setc (Int32.of_int (Simcov_util.Rng.int rng 1000 - 500))
            | 1 | 2 -> Mac (Int32.of_int (Simcov_util.Rng.int rng 1000 - 500))
            | 3 -> Clear
            | _ -> Read)
      in
      match Validate.run cmds with Validate.Pass _ -> true | Validate.Fail _ -> false)

let qcheck_pipe_equals_spec_extreme =
  QCheck.Test.make ~name:"dsp: pipeline == spec near saturation" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 1 100000))
    (fun (len, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let big () =
        if Simcov_util.Rng.bool rng then Int32.max_int
        else if Simcov_util.Rng.bool rng then Int32.min_int
        else Int32.of_int (Simcov_util.Rng.int rng 65536 * 65536 / 65536)
      in
      let cmds =
        List.init len (fun _ ->
            match Simcov_util.Rng.int rng 4 with
            | 0 -> Setc (big ())
            | 1 | 2 -> Mac (big ())
            | _ -> Read)
      in
      match Validate.run cmds with Validate.Pass _ -> true | Validate.Fail _ -> false)

let suite =
  [
    Alcotest.test_case "saturating arith" `Quick test_saturating_arith;
    Alcotest.test_case "spec basic" `Quick test_spec_basic;
    Alcotest.test_case "spec clear" `Quick test_spec_clear;
    Alcotest.test_case "pipe simple" `Quick test_pipe_matches_spec_simple;
    Alcotest.test_case "pipe read after mac" `Quick test_pipe_read_after_mac;
    Alcotest.test_case "pipe read 2 after mac" `Quick test_pipe_read_two_after_mac;
    Alcotest.test_case "pipe clear squash" `Quick test_pipe_clear_squash;
    Alcotest.test_case "pipe reads back to back" `Quick test_pipe_back_to_back_reads;
    Alcotest.test_case "pipe setc between" `Quick test_pipe_setc_between;
    Alcotest.test_case "pipe saturation" `Quick test_pipe_saturation;
    Alcotest.test_case "pipe stall counted" `Quick test_pipe_stall_counted;
    Alcotest.test_case "pipe squash counted" `Quick test_pipe_squash_counted;
    Alcotest.test_case "bug catalog detectable" `Quick test_bug_catalog_detectable;
    Alcotest.test_case "testmodel structure" `Quick test_testmodel_structure;
    Alcotest.test_case "testmodel stall output" `Quick test_testmodel_stall_output;
    Alcotest.test_case "testmodel squash output" `Quick test_testmodel_squash_output;
    Alcotest.test_case "tour catches all dsp bugs" `Quick test_tour_catches_all_dsp_bugs;
    Alcotest.test_case "certificate on dsp model" `Quick test_certificate_on_dsp_model;
    QCheck_alcotest.to_alcotest qcheck_pipe_equals_spec_random;
    QCheck_alcotest.to_alcotest qcheck_pipe_equals_spec_extreme;
  ]

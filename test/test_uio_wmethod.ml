open Simcov_fsm
open Simcov_testgen

(* identity-output machine: every state revealed by any input *)
let ident =
  Fsm.make ~n_states:4 ~n_inputs:2
    ~next:(fun s i -> (s + i + 1) mod 4)
    ~output:(fun s i -> (s * 2) + i)
    ()

(* machine where state identification needs two steps: outputs equal on
   the first step from 0/1; successors answer differently *)
let two_step =
  Oracles.Fsm.of_table
    [
      (0, 0, 2, 0);
      (1, 0, 3, 0);
      (2, 0, 0, 1);
      (3, 0, 1, 2);
    ]

let run_from (m : Fsm.t) s word =
  List.fold_left
    (fun (s, acc) i ->
      if m.Fsm.valid s i then
        let s', o = Oracles.Fsm.step m s i in
        (s', `O o :: acc)
      else (s, `Invalid :: acc))
    (s, []) word
  |> snd

(* does the campaign engine detect the one fault on any of the words? *)
let detects m fault words =
  (Wmethod.campaign m [ fault ] words).Simcov_coverage.Detect.detected = 1

let check_is_uio m s word =
  let mine = run_from m s word in
  for q = 0 to m.Fsm.n_states - 1 do
    if q <> s then
      Alcotest.(check bool)
        (Printf.sprintf "uio separates %d from %d" s q)
        true
        (run_from m q word <> mine)
  done

let test_uio_ident () =
  for s = 0 to 3 do
    match Uio.uio ident s with
    | Some w ->
        Alcotest.(check int) "length 1" 1 (List.length w);
        check_is_uio ident s w
    | None -> Alcotest.fail "uio must exist"
  done

let test_uio_two_step () =
  (* states 1 and 3 are unreachable from reset, so identification
     against them needs scope `All *)
  match Uio.uio ~scope:`All two_step 0 with
  | Some w ->
      Alcotest.(check int) "needs 2 inputs" 2 (List.length w);
      check_is_uio two_step 0 w
  | None -> Alcotest.fail "uio must exist"

let test_uio_none_for_equivalent () =
  let m =
    Fsm.make ~n_states:2 ~n_inputs:1 ~next:(fun s _ -> 1 - s) ~output:(fun _ _ -> 0) ()
  in
  Alcotest.(check bool) "no uio between equivalent states" true (Uio.uio m 0 = None)

let test_uio_scope_all () =
  (* Figure 2: UIO of state 3 within reachable scope may pick [c]
     (3' unreachable); within All scope it must pick [b] *)
  let m = Simcov_core.Fig2.original in
  (match Uio.uio ~scope:`All m 2 with
  | Some w ->
      (* must separate 3 from 3' as well *)
      Alcotest.(check bool) "separates from 3'" true
        (run_from m 2 w <> run_from m 3 w)
  | None -> Alcotest.fail "uio must exist");
  match Uio.uio ~scope:`Reachable m 2 with
  | Some w -> Alcotest.(check int) "short in reachable scope" 1 (List.length w)
  | None -> Alcotest.fail "uio must exist"

let test_all_uios () =
  for s = 0 to 3 do
    Alcotest.(check bool) "present" true (Uio.uio ident s <> None)
  done

let test_checking_sequence_valid () =
  match Uio.checking_sequence ident with
  | Some cs ->
      ignore (Oracles.Fsm.run ident cs);
      Alcotest.(check bool) "covers all transitions" true (Tour.word_is_tour ident cs)
  | None -> Alcotest.fail "checking sequence must exist"

let test_checking_sequence_catches_fig2_error () =
  (* the crown jewel: the plain tour via <a,c> misses the Figure 2
     transfer error; the checking sequence (UIOs over All states)
     cannot miss it *)
  let m = Simcov_core.Fig2.original in
  Alcotest.(check bool) "plain tour misses" false
    (detects m Oracles.Fig2.transfer_error [ Oracles.Fig2.tour_via_c ]);
  match Uio.checking_sequence ~scope:`All m with
  | Some cs ->
      Alcotest.(check bool) "checking sequence detects" true
        (detects m Oracles.Fig2.transfer_error [ cs ])
  | None -> Alcotest.fail "checking sequence must exist"

let test_checking_sequence_all_transfer_faults () =
  let m = ident in
  match Uio.checking_sequence ~scope:`All m with
  | None -> Alcotest.fail "must exist"
  | Some cs ->
      let faults = Simcov_coverage.Fault.all_transfer_faults m in
      let report = Simcov_coverage.Detect.campaign m faults cs in
      Alcotest.(check (float 0.001)) "100%" 100.0
        (Simcov_coverage.Detect.coverage_pct report)

(* ---- W-method ---- *)

let test_characterization_set () =
  let w = Wmethod.characterization_set ident in
  Alcotest.(check bool) "nonempty" true (w <> []);
  (* every pair separated by some word *)
  for p = 0 to 3 do
    for q = p + 1 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "pair %d,%d separated" p q)
        true
        (List.exists (fun word -> run_from ident p word <> run_from ident q word) w)
    done
  done

let test_characterization_ignores_equivalent () =
  let m =
    Fsm.make ~n_states:2 ~n_inputs:1 ~next:(fun s _ -> 1 - s) ~output:(fun _ _ -> 0) ()
  in
  Alcotest.(check (list (list int))) "empty W" [] (Wmethod.characterization_set m)

let test_transition_cover () =
  let p = Wmethod.transition_cover ident in
  (* empty word + one word per transition *)
  Alcotest.(check int) "size" (1 + Fsm.n_transitions ident) (List.length p);
  Alcotest.(check bool) "contains empty word" true (List.mem [] p);
  (* every word executes from reset *)
  List.iter (fun w -> ignore (Oracles.Fsm.run ident w)) p

let test_wmethod_suite_complete () =
  let words = Wmethod.suite ident in
  let faults =
    Simcov_coverage.Fault.all_transfer_faults ident
    @ Simcov_coverage.Fault.all_output_faults ident
  in
  let report = Wmethod.campaign ident faults words in
  Alcotest.(check (float 0.001)) "100% fault coverage" 100.0
    (Simcov_coverage.Detect.coverage_pct report)

let test_wmethod_catches_fig2_error () =
  let m = Simcov_core.Fig2.original in
  let words = Wmethod.suite ~scope:`All m in
  Alcotest.(check bool) "W-method detects the Figure 2 error" true
    (detects m Oracles.Fig2.transfer_error words)

let test_wmethod_cost () =
  let words = Wmethod.suite ident in
  let tour =
    match Tour.transition_tour ident with Some t -> t.Tour.length | None -> 0
  in
  Alcotest.(check bool) "W-method costs more input symbols" true
    (Wmethod.total_length words > tour)

let test_wmethod_extra_states () =
  (* a mutant with MORE states than the spec: a conditional output
     fault doubles the state space; the plain P.W suite can miss it,
     the m-extra suite with matching slack cannot (Chow) *)
  let diamond =
    Oracles.Fsm.of_table
      [
        (0, 0, 1, 0);
        (0, 1, 2, 0);
        (1, 0, 3, 1);
        (2, 0, 3, 2);
        (3, 2, 0, 3);
      ]
  in
  let fault =
    Simcov_coverage.Fault.Conditional_output
      { state = 3; input = 2; wrong_output = 9; prev = (1, 0) }
  in
  let extra_suite = Oracles.Wmethod.suite_extra ~scope:`All ~extra:1 diamond in
  Alcotest.(check bool) "extra suite detects the history-dependent fault" true
    (detects diamond fault extra_suite);
  Alcotest.(check bool) "extra suite costs more" true
    (Wmethod.total_length extra_suite > Wmethod.total_length (Wmethod.suite ~scope:`All diamond))

let qcheck_uio_really_unique =
  QCheck.Test.make ~name:"uio: returned words are unique identifiers" ~count:40
    QCheck.(pair (int_range 3 7) (int_range 1 500))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:3 ~n_outputs:4 in
      let ok = ref true in
      for s = 0 to n - 1 do
        match Uio.uio m s with
        | None -> ()
        | Some w ->
            let mine = run_from m s w in
            for q = 0 to n - 1 do
              if q <> s && run_from m q w = mine then ok := false
            done
      done;
      !ok)

let qcheck_checking_sequence_complete =
  QCheck.Test.make
    ~name:"uio: checking sequences catch every transfer fault (scope=All)" ~count:25
    QCheck.(pair (int_range 3 6) (int_range 1 500))
    (fun (n, seed) ->
      (* input 0 chains the states (strongly connected), the seed draws
         input 1's transitions, and output = 2s + i names the state, so
         every state has a UIO *)
      let rng = Simcov_util.Rng.create seed in
      let jump = Array.init n (fun _ -> Simcov_util.Rng.int rng n) in
      let m =
        Fsm.make ~n_states:n ~n_inputs:2
          ~next:(fun s i -> if i = 0 then (s + 1) mod n else jump.(s))
          ~output:(fun s i -> (s * 2) + i)
          ()
      in
      match Uio.checking_sequence ~scope:`All m with
      | None -> QCheck.assume_fail ()
      | Some cs ->
          let faults = Simcov_coverage.Fault.all_transfer_faults m in
          let report = Simcov_coverage.Detect.campaign m faults cs in
          Simcov_coverage.Detect.coverage_pct report = 100.0)

let qcheck_wmethod_complete_on_random =
  QCheck.Test.make ~name:"wmethod: P.W suites catch all single faults" ~count:25
    QCheck.(pair (int_range 3 6) (int_range 1 500))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:3 ~n_outputs:6 in
      (* require pairwise inequivalent states (minimize to be sure) *)
      let q, _ = Fsm.minimize m in
      let words = Wmethod.suite q in
      let faults =
        Simcov_coverage.Fault.all_transfer_faults q
        @ Simcov_coverage.Fault.all_output_faults q
      in
      let report = Wmethod.campaign q faults words in
      Simcov_coverage.Detect.coverage_pct report = 100.0)

(* The engine's per-word campaigns against the scalar per-word
   reference, on random partial machines (input 0 chains every state
   from reset, other inputs are dropped freely) with transfer, output
   and conditional-output faults: same counts, same missed faults in
   the same order. *)
let qcheck_wmethod_campaign_eq_reference =
  QCheck.Test.make ~name:"wmethod: engine campaign = per-word scalar reference"
    ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let module Rng = Simcov_util.Rng in
      let module Fault = Simcov_coverage.Fault in
      let rng = Rng.create seed in
      let n_states = 3 + Rng.int rng 4 and n_inputs = 2 + Rng.int rng 2 in
      let rows = ref [] in
      for s = 0 to n_states - 1 do
        for i = 0 to n_inputs - 1 do
          if i = 0 then rows := (s, 0, (s + 1) mod n_states, Rng.int rng 3) :: !rows
          else if Rng.int rng 10 < 7 then
            rows := (s, i, Rng.int rng n_states, Rng.int rng 3) :: !rows
        done
      done;
      let m = Oracles.Fsm.of_table (List.rev !rows) in
      let trans = Fsm.transitions m in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let conditional () =
        let ps, pi, s, _ = pick trans in
        let _, i, _, o = pick (List.filter (fun (s', _, _, _) -> s' = s) trans) in
        Fault.Conditional_output
          { state = s; input = i; wrong_output = (o + 1) mod 3; prev = (ps, pi) }
      in
      let faults =
        Fault.sample_transfer_faults rng m ~count:12
        @ Fault.sample_output_faults rng m ~n_outputs:3 ~count:12
        @ List.init 8 (fun _ -> conditional ())
      in
      let words = Wmethod.suite m in
      Wmethod.campaign m faults words = Oracles.Wmethod.campaign m faults words)

let suite =
  [
    Alcotest.test_case "uio ident" `Quick test_uio_ident;
    Alcotest.test_case "uio two-step" `Quick test_uio_two_step;
    Alcotest.test_case "uio none equivalent" `Quick test_uio_none_for_equivalent;
    Alcotest.test_case "uio scope all" `Quick test_uio_scope_all;
    Alcotest.test_case "all uios" `Quick test_all_uios;
    Alcotest.test_case "checking sequence valid" `Quick test_checking_sequence_valid;
    Alcotest.test_case "checking catches fig2" `Quick test_checking_sequence_catches_fig2_error;
    Alcotest.test_case "checking all transfers" `Quick test_checking_sequence_all_transfer_faults;
    Alcotest.test_case "characterization set" `Quick test_characterization_set;
    Alcotest.test_case "characterization equivalent" `Quick test_characterization_ignores_equivalent;
    Alcotest.test_case "transition cover" `Quick test_transition_cover;
    Alcotest.test_case "wmethod complete" `Quick test_wmethod_suite_complete;
    Alcotest.test_case "wmethod catches fig2" `Quick test_wmethod_catches_fig2_error;
    Alcotest.test_case "wmethod cost" `Quick test_wmethod_cost;
    Alcotest.test_case "wmethod extra states" `Quick test_wmethod_extra_states;
    QCheck_alcotest.to_alcotest qcheck_uio_really_unique;
    QCheck_alcotest.to_alcotest qcheck_checking_sequence_complete;
    QCheck_alcotest.to_alcotest qcheck_wmethod_complete_on_random;
    QCheck_alcotest.to_alcotest qcheck_wmethod_campaign_eq_reference;
  ]

open Simcov_core
open Simcov_fsm

(* an identity-output machine: forall-1-distinguishable, strongly
   connected *)
let ident =
  Fsm.make ~n_states:4 ~n_inputs:2
    ~next:(fun s i -> (s + i + 1) mod 4)
    ~output:(fun s i -> (s * 2) + i)
    ()

let test_certify_ok () =
  match Completeness.certify ident with
  | Ok c ->
      Alcotest.(check int) "k = 1" 1 c.Completeness.k;
      Alcotest.(check int) "4 states" 4 c.Completeness.n_states;
      Alcotest.(check int) "8 transitions" 8 c.Completeness.n_transitions;
      Alcotest.(check bool) "tour at least 8" true (c.Completeness.tour_length >= 8)
  | Error _ -> Alcotest.fail "expected certificate"

let test_certify_not_sc () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 0, 1, 1) ] in
  Alcotest.(check bool) "not SC" true
    (Completeness.certify m = Error Completeness.Not_strongly_connected)

let test_certify_indistinguishable () =
  (* output constant: no k distinguishes anything *)
  let m =
    Fsm.make ~n_states:2 ~n_inputs:1 ~next:(fun s _ -> 1 - s) ~output:(fun _ _ -> 0) ()
  in
  match Completeness.certify ~k_bound:4 m with
  | Error (Completeness.Indistinguishable_pair _) -> ()
  | _ -> Alcotest.fail "expected indistinguishable pair"

let test_certify_bound_zero () =
  Alcotest.check_raises "k_bound 0" (Invalid_argument "Fsm.min_forall_k: bound < 1")
    (fun () -> ignore (Completeness.certify ~k_bound:0 ident))

(* the certificate's word is the optimal tour followed by k steps from
   reset along each state's first valid input: rebuilt here from the
   tour solver and the machine alone *)
let check_padded_tour name m (c : Completeness.certificate) =
  let word = Completeness.padded_tour m c in
  let rec pad s n =
    if n = 0 then []
    else
      match Fsm.valid_inputs m s with
      | [] -> []
      | i :: _ -> i :: pad (m.Fsm.next s i) (n - 1)
  in
  (match Simcov_testgen.Tour.transition_tour m with
  | None -> Alcotest.failf "%s: certified machine without a tour" name
  | Some t ->
      Alcotest.(check (list int))
        (name ^ ": tour + pad from reset")
        (t.Simcov_testgen.Tour.word @ pad m.Fsm.reset c.Completeness.k)
        word);
  Alcotest.(check int) (name ^ ": tour + k")
    (c.Completeness.tour_length + c.Completeness.k)
    (List.length word);
  Alcotest.(check bool) (name ^ ": still a tour") true
    (Simcov_testgen.Tour.word_is_tour m word)

let test_padded_tour () =
  (match Completeness.certify ident with
  | Ok c -> check_padded_tour "ident" ident c
  | Error _ -> Alcotest.fail "expected certificate");
  let rng = Simcov_util.Rng.create 31 in
  let certified = ref 0 in
  for _ = 1 to 40 do
    let m =
      Fsm.random_connected rng ~n_states:(2 + Simcov_util.Rng.int rng 8)
        ~n_inputs:(1 + Simcov_util.Rng.int rng 3) ~n_outputs:3
    in
    match Completeness.certify m with
    | Error _ -> ()
    | Ok c ->
        incr certified;
        check_padded_tour "random" m c
  done;
  Alcotest.(check bool) "some random machines certified" true (!certified > 5);
  let dlx = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
  match Completeness.certify dlx with
  | Error _ -> Alcotest.fail "DLX test model lost its certificate"
  | Ok c ->
      check_padded_tour "DLX" dlx c;
      Alcotest.(check int) "DLX padded tour length" 5175
        (List.length (Completeness.padded_tour dlx c))

let test_empirical_check_100pct () =
  match Completeness.certify ident with
  | Ok c ->
      let rng = Simcov_util.Rng.create 12 in
      let report = Completeness.check_empirically rng ident c in
      Alcotest.(check (float 0.001)) "100% coverage" 100.0
        (Simcov_coverage.Detect.coverage_pct report);
      Alcotest.(check bool) "found some faults" true (report.Simcov_coverage.Detect.effective > 10)
  | Error _ -> Alcotest.fail "expected certificate"

let test_requirements_on_good_model () =
  let model = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
  let rng = Simcov_util.Rng.create 3 in
  let r = Requirements.check ~rng model in
  Alcotest.(check bool) "r2 ok" true (Oracles.Requirements.is_ok r.Requirements.r2_bounded_processing);
  Alcotest.(check bool) "r4 ok" true (Oracles.Requirements.is_ok r.Requirements.r4_no_masking);
  Alcotest.(check bool) "r5 ok" true
    (Oracles.Requirements.is_ok r.Requirements.r5_observable_interaction);
  Alcotest.(check bool) "all ok" true (Oracles.Requirements.all_ok r)

let test_requirements_r5_violated () =
  let model =
    Simcov_dlx.Testmodel.build
      { Simcov_dlx.Testmodel.default with Simcov_dlx.Testmodel.observable_dest = false }
  in
  let r = Requirements.check model in
  match r.Requirements.r5_observable_interaction with
  | Requirements.Violated _ -> ()
  | _ -> Alcotest.fail "hiding interaction state must violate R5"

let test_requirements_r1_via_uniformity () =
  (* concrete machine: fig2-style; fault only on one member of a merged
     pair -> R1 violated; on both -> satisfied *)
  let machine =
    Oracles.Fsm.of_table
      [
        (0, 0, 1, 0);
        (1, 0, 2, 0);
        (1, 1, 3, 0);
        (2, 1, 4, 1);
        (3, 1, 4, 1);
        (4, 3, 0, 4);
      ]
  in
  let mapping =
    {
      Simcov_abstraction.Homomorphism.n_abs_states = 4;
      n_abs_inputs = 4;
      state_map = (fun s -> if s = 3 then 2 else if s = 4 then 3 else s);
      input_map = Fun.id;
      output_map = Fun.id;
    }
  in
  let model = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
  let r_bad =
    Requirements.check ~concrete:(machine, mapping, fun (s, i) -> s = 3 && i = 1) model
  in
  (match r_bad.Requirements.r1_uniform_output_errors with
  | Requirements.Violated _ -> ()
  | _ -> Alcotest.fail "expected R1 violation");
  let r_good =
    Requirements.check
      ~concrete:(machine, mapping, fun (s, i) -> (s = 3 || s = 2) && i = 1)
      model
  in
  match r_good.Requirements.r1_uniform_output_errors with
  | Requirements.Satisfied _ -> ()
  | _ -> Alcotest.fail "expected R1 satisfied"

(* Requirement 4 as the closure-mutant reference checks it: each
   sampled fault replayed through the reference window scan on the
   unpadded tour, in sample order *)
let reference_r4 model (facts : Simcov_testgen.Tour.facts) rng =
  let module Fault = Simcov_coverage.Fault in
  match facts.Simcov_testgen.Tour.tour with
  | None -> Requirements.Assumed "no tour available for the masking scan"
  | Some tour -> (
      let word = tour.Simcov_testgen.Tour.word in
      let faults = Fault.sample_transfer_faults rng model ~count:100 in
      match
        List.find_opt (fun f -> Oracles.Detect.has_masked_transfer model [ f ] word) faults
      with
      | None ->
          Requirements.Satisfied
            (Printf.sprintf "no masked window under %d sampled transfer faults"
               (List.length faults))
      | Some f ->
          Requirements.Violated
            (Format.asprintf "masked transfer error found: %a" Fault.pp f))

(* a random strongly connected machine; with few outputs, sampled
   transfer faults are often masked *)
let r4_instance seed =
  let rng = Simcov_util.Rng.create seed in
  let n_states = 3 + Simcov_util.Rng.int rng 8 in
  let n_inputs = 2 + Simcov_util.Rng.int rng 2 in
  let n_outputs = 1 + Simcov_util.Rng.int rng 3 in
  let m = Fsm.random_connected rng ~n_states ~n_inputs ~n_outputs in
  let facts = Simcov_testgen.Tour.facts m in
  let r4 = (Requirements.check ~facts ~rng:(Simcov_util.Rng.create seed) m).r4_no_masking in
  (r4, reference_r4 m facts (Simcov_util.Rng.create seed))

let qcheck_r4_eq_reference =
  QCheck.Test.make ~name:"requirements: R4 status = the reference masking scan's"
    ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let r4, reference = r4_instance seed in
      r4 = reference)

(* the random population spans both verdicts, so the property above
   compares masked machines as well as clean ones *)
let test_r4_population () =
  let r4s = List.init 30 (fun seed -> fst (r4_instance (seed + 1))) in
  let count p = List.length (List.filter p r4s) in
  Alcotest.(check bool) "some machine violates R4" true
    (count (function Requirements.Violated _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "some machine satisfies R4" true
    (count (function Requirements.Satisfied _ -> true | _ -> false) > 0)

let test_validate_dlx_default () =
  let r = Methodology.validate_dlx () in
  Alcotest.(check int) "28 model states" 28 r.Methodology.model_states;
  Alcotest.(check bool) "certificate holds" true (Result.is_ok r.Methodology.certificate);
  Alcotest.(check bool) "requirements ok" true
    (Oracles.Requirements.all_ok r.Methodology.requirements);
  Alcotest.(check int) "all 12 bugs detected" 12 r.Methodology.n_bugs_detected;
  Alcotest.(check (float 0.001)) "FSM coverage 100%" 100.0
    (Simcov_coverage.Detect.coverage_pct r.Methodology.fsm_fault_coverage)

(* validate-dlx solves the tour and the ∀k verdict once and shares
   them: each section must equal the standalone run that solves its
   own, in every configuration the paper's ablation uses *)
let test_validate_dlx_shares_facts () =
  let module Testmodel = Simcov_dlx.Testmodel in
  let module Fsm_lint = Simcov_analysis.Fsm_lint in
  let json r = Simcov_util.Json.to_string (Fsm_lint.to_json r) in
  List.iter
    (fun (n_regs, track_dest, observable_dest) ->
      let config = { Testmodel.n_regs; track_dest; observable_dest } in
      let what =
        Printf.sprintf "regs %d, track_dest %b, observable_dest %b" n_regs
          track_dest observable_dest
      in
      let r = Methodology.validate_dlx ~config () in
      let model = Testmodel.build config in
      Alcotest.(check string)
        (what ^ ": fsm_lint section = standalone Fsm_lint.run")
        (json (Fsm_lint.run ~name:"dlx-test" ~seed:2026 model))
        (json r.Methodology.fsm_lint);
      Alcotest.(check bool)
        (what ^ ": certificate = standalone Completeness.certify")
        true
        (r.Methodology.certificate = Completeness.certify model);
      Alcotest.(check bool)
        (what ^ ": requirements = standalone Requirements.check")
        true
        (r.Methodology.requirements
        = Requirements.check
            ~rng:(Simcov_util.Rng.split (Simcov_util.Rng.create 2026))
            model))
    [
      (2, true, true); (2, false, true); (2, true, false);
      (4, true, true); (4, false, true); (4, true, false);
    ]

let test_ablation_dest_tracking () =
  let r = Methodology.ablation_dest_tracking () in
  Alcotest.(check bool) "quotient conflict witnessed" true r.Methodology.quotient_conflict;
  Alcotest.(check bool) "abstract tour under-covers refined transitions" true
    (r.Methodology.refined_covered_by_abstract_tour < r.Methodology.refined_transitions);
  let pct_abs =
    Simcov_coverage.Detect.coverage_pct r.Methodology.fault_coverage_abstract_tour
  in
  let pct_ref =
    Simcov_coverage.Detect.coverage_pct r.Methodology.fault_coverage_refined_tour
  in
  Alcotest.(check (float 0.001)) "refined tour: 100%" 100.0 pct_ref;
  Alcotest.(check bool) "abstract tour misses faults" true (pct_abs < 100.0)

let suite =
  [
    Alcotest.test_case "certify ok" `Quick test_certify_ok;
    Alcotest.test_case "certify not SC" `Quick test_certify_not_sc;
    Alcotest.test_case "certify indistinguishable" `Quick test_certify_indistinguishable;
    Alcotest.test_case "padded tour" `Quick test_padded_tour;
    Alcotest.test_case "certify k_bound 0" `Quick test_certify_bound_zero;
    Alcotest.test_case "empirical check 100%" `Quick test_empirical_check_100pct;
    Alcotest.test_case "requirements good model" `Quick test_requirements_on_good_model;
    Alcotest.test_case "requirements r5 violated" `Quick test_requirements_r5_violated;
    Alcotest.test_case "requirements r1 uniformity" `Quick test_requirements_r1_via_uniformity;
    Alcotest.test_case "validate dlx default" `Slow test_validate_dlx_default;
    Alcotest.test_case "validate dlx shares facts" `Slow
      test_validate_dlx_shares_facts;
    Alcotest.test_case "ablation dest tracking" `Slow test_ablation_dest_tracking;
    QCheck_alcotest.to_alcotest qcheck_r4_eq_reference;
    Alcotest.test_case "requirements r4 population" `Quick test_r4_population;
  ]

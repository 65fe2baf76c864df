open Simcov_fsm
open Simcov_coverage

(* The Figure 2 machine: the correct implementation goes 2 -a-> 3; the
   transfer error goes to 3' instead. Transitions on b from 3/3' give
   different outputs; transitions on c give the same output. Input r
   closes the loop back to state 1. Indices:
   0="1" 1="2" 2="3" 3="3'" 4="4" 5="4'" 6="5"; inputs 0=a 1=b 2=c 3=r. *)
let fig2_golden =
  Oracles.Fsm.of_table
    [
      (0, 0, 1, 0);
      (1, 0, 2, 0);
      (2, 1, 4, 1);
      (3, 1, 5, 2);
      (2, 2, 6, 3);
      (3, 2, 6, 3);
      (4, 3, 0, 4);
      (5, 3, 0, 4);
      (6, 3, 0, 4);
    ]

let fig2_transfer = Fault.Transfer { state = 1; input = 0; wrong_next = 3 }

(* the golden machine as the closures its mutants wrap *)
let golden = Oracles.Machine.of_fsm fig2_golden

(* one effective fault's verdict from the campaign engine, checked
   against the closure-mutant reference *)
let verdict m f word =
  match (Detect.campaign_outcome m [ f ] word).Detect.Campaign.verdicts with
  | [ (_, v) ] ->
      Alcotest.(check bool) "engine verdict = reference verdict" true
        (v = Oracles.Detect.run_verdict m f word);
      v
  | _ -> Alcotest.fail "the fault is not effective"

let test_apply_transfer () =
  let mutant = Oracles.Fault.apply golden fig2_transfer in
  Alcotest.(check int) "redirected" 3 (mutant.Oracles.Machine.next 1 0);
  Alcotest.(check int) "other transitions intact" 1 (mutant.Oracles.Machine.next 0 0);
  Alcotest.(check int) "golden unchanged" 2 (fig2_golden.Fsm.next 1 0)

let test_apply_output () =
  let f = Fault.Output { state = 2; input = 1; wrong_output = 9 } in
  let mutant = Oracles.Fault.apply golden f in
  Alcotest.(check int) "faulty output" 9 (mutant.Oracles.Machine.output 2 1);
  Alcotest.(check int) "others intact" 3 (mutant.Oracles.Machine.output 2 2)

let test_is_effective () =
  Alcotest.(check bool) "real transfer" true (Fault.is_effective fig2_golden fig2_transfer);
  Alcotest.(check bool) "no-op transfer" false
    (Fault.is_effective fig2_golden (Fault.Transfer { state = 1; input = 0; wrong_next = 2 }));
  Alcotest.(check bool) "fault on invalid transition" false
    (Fault.is_effective fig2_golden (Fault.Transfer { state = 0; input = 1; wrong_next = 2 }))

(* Section 4.2's point: the tour segment <a, a, b> exposes the
   transfer error, <a, a, c> does not. *)
let test_fig2_path_b_detects () =
  Alcotest.(check bool) "a,a,b detects" true
    (verdict fig2_golden fig2_transfer [ 0; 0; 1; 3 ]).Detect.detected

let test_fig2_path_c_misses () =
  let v = verdict fig2_golden fig2_transfer [ 0; 0; 2; 3 ] in
  Alcotest.(check bool) "a,a,c excites" true v.Detect.excited;
  Alcotest.(check bool) "a,a,c misses" false v.Detect.detected

let test_verdict_steps () =
  let v = verdict fig2_golden fig2_transfer [ 0; 0; 1; 3 ] in
  Alcotest.(check (option int)) "excited at step 1" (Some 1) v.Detect.excite_step;
  Alcotest.(check (option int)) "detected at step 2" (Some 2) v.Detect.detect_step

let test_verdict_validity_mismatch () =
  (* After the transfer error the mutant sits in 3' where input b is
     valid but leads elsewhere; craft a fault sending state 1 to state
     4 where only r is valid: then input b is valid in golden's state 3
     but invalid in mutant's state 4 — observable difference. *)
  let f = Fault.Transfer { state = 1; input = 0; wrong_next = 4 } in
  let v = verdict fig2_golden f [ 0; 0; 1 ] in
  Alcotest.(check bool) "validity mismatch detected" true v.Detect.detected

let test_output_fault_detected_at_site () =
  let f = Fault.Output { state = 2; input = 2; wrong_output = 7 } in
  let v = verdict fig2_golden f [ 0; 0; 2 ] in
  Alcotest.(check bool) "detected" true v.Detect.detected;
  Alcotest.(check (option int)) "at the site" (Some 2) v.Detect.detect_step;
  Alcotest.(check (option int)) "excite = detect for output faults" (Some 2)
    v.Detect.excite_step

let test_campaign () =
  let faults =
    [
      fig2_transfer;
      Fault.Output { state = 2; input = 1; wrong_output = 9 };
      Fault.Transfer { state = 1; input = 0; wrong_next = 2 } (* ineffective *);
    ]
  in
  let word = [ 0; 0; 1; 3; 0; 0; 2; 3 ] in
  let r = Detect.campaign fig2_golden faults word in
  Alcotest.(check int) "total" 3 r.Detect.total;
  Alcotest.(check int) "effective" 2 r.Detect.effective;
  Alcotest.(check int) "detected" 2 r.Detect.detected;
  Alcotest.(check (float 0.01)) "coverage 100" 100.0 (Detect.coverage_pct r)

let test_campaign_missed () =
  let word = [ 0; 0; 2; 3 ] in
  let r = Detect.campaign fig2_golden [ fig2_transfer ] word in
  Alcotest.(check int) "excited" 1 r.Detect.excited;
  Alcotest.(check int) "not detected" 0 r.Detect.detected;
  Alcotest.(check int) "missed recorded" 1 (List.length r.Detect.missed)

let test_masked_windows () =
  (* The diverted 1 -a-> 3' path rejoins the golden one at 3' -c-> 5
     with the same output. With word a,a,c the trajectories diverge
     at step 1 and re-converge at step 2 with no output difference:
     masked, in the engine and in the reference alike. *)
  let word = [ 0; 0; 2; 3 ] in
  let v = verdict fig2_golden fig2_transfer word in
  Alcotest.(check (pair (option int) (option int)))
    "the engine's window" (Some 1, Some 2) (v.Detect.excite_step, v.Detect.masked_step);
  let mutant = Oracles.Fault.apply golden fig2_transfer in
  Alcotest.(check (list (pair int int))) "the reference's window" [ (1, 2) ]
    (Oracles.Detect.masked_windows golden mutant word);
  Alcotest.(check bool) "has_masked_transfer" true
    (Oracles.Detect.has_masked_transfer fig2_golden [ fig2_transfer ] word)

let test_masked_windows_exposed_path () =
  (* on the b path the outputs differ inside the window: not masked *)
  let word = [ 0; 0; 1; 3 ] in
  Alcotest.(check (option int)) "no engine window" None
    (verdict fig2_golden fig2_transfer word).Detect.masked_step;
  let mutant = Oracles.Fault.apply golden fig2_transfer in
  Alcotest.(check (list (pair int int))) "no reference window" []
    (Oracles.Detect.masked_windows golden mutant word)

let test_transition_coverage_metrics () =
  let word = [ 0; 0; 1; 3 ] in
  Alcotest.(check int) "4 transitions covered" 4
    (Detect.transition_coverage fig2_golden word);
  Alcotest.(check int) "4 states visited" 4 (Detect.state_coverage fig2_golden word);
  Alcotest.(check bool) "not a tour" false
    (Simcov_testgen.Tour.word_is_tour fig2_golden word);
  let tour_word = [ 0; 0; 1; 3; 0; 0; 2; 3 ] in
  Alcotest.(check bool) "full tour" true
    (Simcov_testgen.Tour.word_is_tour fig2_golden tour_word)

let test_all_output_faults () =
  let faults = Fault.all_output_faults fig2_golden in
  Alcotest.(check int) "one per reachable transition" 6 (List.length faults);
  Alcotest.(check bool) "all effective" true
    (List.for_all (Fault.is_effective fig2_golden) faults)

let test_all_transfer_faults () =
  let faults = Fault.all_transfer_faults fig2_golden in
  (* 6 reachable transitions x (5 reachable states - 1 correct) = 24 *)
  Alcotest.(check int) "count" 24 (List.length faults);
  Alcotest.(check bool) "all effective" true
    (List.for_all (Fault.is_effective fig2_golden) faults)

let test_sampled_faults_effective () =
  let rng = Simcov_util.Rng.create 4 in
  let m = Fsm.random_connected rng ~n_states:10 ~n_inputs:3 ~n_outputs:4 in
  let tf = Fault.sample_transfer_faults rng m ~count:20 in
  let out = Fault.sample_output_faults rng m ~n_outputs:4 ~count:20 in
  Alcotest.(check bool) "transfer effective" true
    (List.for_all (Fault.is_effective m) tf);
  Alcotest.(check bool) "output effective" true (List.for_all (Fault.is_effective m) out);
  Alcotest.(check bool) "got a good number" true
    (List.length tf >= 15 && List.length out >= 15)

(* Uniformity through abstraction: merge states 2 ("3") and 3 ("3'")
   of the fig2 machine. A fault on the concrete transition (3', b)
   alone is non-uniform at the abstract level (the (3/3', b) abstract
   transition has a clean member), while faulting both members is
   uniform. *)
let abs_23 =
  {
    Simcov_abstraction.Homomorphism.n_abs_states = 6;
    n_abs_inputs = 4;
    state_map = (fun s -> if s = 3 then 2 else if s > 3 then s - 1 else s);
    input_map = Fun.id;
    output_map = Fun.id;
  }

(* use a machine where 3' is reachable so it has concrete transitions:
   make reset cover both branches via an extra input from 1 *)
let fig2_both =
  Oracles.Fsm.of_table
    [
      (0, 0, 1, 0);
      (1, 0, 2, 0) (* a: to 3 *);
      (1, 1, 3, 0) (* b from "2": to 3' — makes 3' reachable *);
      (2, 1, 4, 1);
      (3, 1, 5, 1);
      (2, 2, 6, 3);
      (3, 2, 6, 3);
      (4, 3, 0, 4);
      (5, 3, 0, 4);
      (6, 3, 0, 4);
    ]

let test_uniformity_nonuniform () =
  let faulty (s, i) = s = 3 && i = 1 in
  let cls = Uniformity.classify fig2_both abs_23 ~faulty in
  Alcotest.(check int) "one classified error" 1 (List.length cls);
  let c = List.hd cls in
  Alcotest.(check bool) "non-uniform" false (Uniformity.is_uniform c);
  Alcotest.(check int) "one faulty member" 1 c.Uniformity.faulty_members;
  Alcotest.(check int) "one clean member" 1 c.Uniformity.clean_members;
  Alcotest.(check bool) "requirement 1 fails" false
    (List.for_all Uniformity.is_uniform (Uniformity.classify fig2_both abs_23 ~faulty))

let test_uniformity_uniform () =
  let faulty (s, i) = (s = 3 || s = 2) && i = 1 in
  Alcotest.(check bool) "requirement 1 holds" true
    (List.for_all Uniformity.is_uniform (Uniformity.classify fig2_both abs_23 ~faulty))


(* --- Conditional (non-uniform) output errors: Definition 2 --- *)

(* a diamond: two ways into state 3; the error at (3, c) shows only
   when state 3 was entered through (1, a) *)
let diamond =
  Oracles.Fsm.of_table
    [
      (0, 0, 1, 0) (* r -a-> 1 *);
      (0, 1, 2, 0) (* r -b-> 2 *);
      (1, 0, 3, 1) (* 1 -a-> 3 *);
      (2, 0, 3, 2) (* 2 -a-> 3 *);
      (3, 2, 0, 3) (* 3 -c-> r *);
    ]

let cond_fault =
  Fault.Conditional_output { state = 3; input = 2; wrong_output = 9; prev = (1, 0) }

let test_conditional_fault_history_dependent () =
  (* via (1, a): exposed *)
  Alcotest.(check bool) "path through (1,a) detects" true
    (verdict diamond cond_fault [ 0; 0; 2 ]).Detect.detected;
  (* via (2, a): hidden *)
  Alcotest.(check bool) "path through (2,a) does not" false
    (verdict diamond cond_fault [ 1; 0; 2 ]).Detect.detected

let test_conditional_fault_effective () =
  Alcotest.(check bool) "effective" true (Fault.is_effective diamond cond_fault);
  (* prev that does not lead into the site is vacuous *)
  Alcotest.(check bool) "vacuous prev" false
    (Fault.is_effective diamond
       (Fault.Conditional_output { state = 3; input = 2; wrong_output = 9; prev = (3, 2) }))

let test_certified_tour_can_miss_conditional_fault () =
  (* Requirement 1 in action: the diamond model certifies (every pair
     forall-1-distinguishable: outputs reveal states), yet a transition
     tour that happens to cover (3, c) after entering via (2, a) misses
     the non-uniform error. The specific tour below covers all 5
     transitions with (3, c) exercised only on the b-side. *)
  let word = [ 1; 0; 2; 0; 0; 2 ] in
  (* b a c a a c: transitions (0,b),(2,a),(3,c),(0,a),(1,a),(3,c) *)
  Alcotest.(check bool) "word is a tour" true
    (Simcov_testgen.Tour.word_is_tour diamond [ 1; 0; 2; 0; 0; 2 ]);
  Alcotest.(check bool) "first (3,c) via b-side misses" true
    (not (verdict diamond cond_fault [ 1; 0; 2 ]).Detect.detected);
  (* the full word's second (3,c) comes after (1,a): detected. Flip the
     two halves and the tour misses the fault entirely. *)
  Alcotest.(check bool) "this tour detects (second visit via a-side)" true
    (verdict diamond cond_fault word).Detect.detected;
  let word' = [ 0; 0; 2; 1; 0; 2 ] in
  Alcotest.(check bool) "the flipped word is also a tour" true
    (Simcov_testgen.Tour.word_is_tour diamond word');
  Alcotest.(check bool) "and it detects (a-side first)" true
    (verdict diamond cond_fault word').Detect.detected

let test_conditional_fault_uniformity_classification () =
  (* the identity abstraction classifies the conditional fault's site
     as mixed only when history is folded in; Uniformity.classify works
     over abstractions, so here we just confirm the coarse signal:
     under the identity mapping, the site is a single concrete
     transition and the history-dependence is invisible to structural
     classification — which is exactly why the paper needs Requirement
     1 as a semantic condition. *)
  let mapping = Oracles.Homomorphism.identity_mapping diamond in
  let faulty (s, i) = (s, i) = Fault.site cond_fault in
  let classes = Uniformity.classify diamond mapping ~faulty in
  Alcotest.(check int) "one class" 1 (List.length classes);
  Alcotest.(check bool) "structurally uniform (history hidden)" true
    (Uniformity.is_uniform (List.hd classes))

let qcheck_output_fault_always_detected_at_site =
  QCheck.Test.make ~name:"coverage: tour detects every single output fault" ~count:30
    QCheck.(pair (int_range 3 8) (int_range 1 400))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:2 ~n_outputs:3 in
      match Simcov_testgen.Tour.transition_tour m with
      | None -> QCheck.assume_fail ()
      | Some tour ->
          let r =
            Detect.campaign m (Fault.all_output_faults m) tour.Simcov_testgen.Tour.word
          in
          r.Detect.detected = r.Detect.effective)

(* the coverage-database record key, against the format it has always
   had: every field in decimal, negative ones included *)
let qcheck_fault_key_format =
  QCheck.Test.make ~name:"fault: key = its printf format (any int fields)" ~count:500
    QCheck.(pair (int_range 0 2) (list_of_size (Gen.return 5) int))
    (fun (kind, fields) ->
      match fields with
      | [ a; b; c; d; e ] ->
          let f, want =
            match kind with
            | 0 ->
                ( Fault.Transfer { state = a; input = b; wrong_next = c },
                  Printf.sprintf "t:%d:%d:%d" a b c )
            | 1 ->
                ( Fault.Output { state = a; input = b; wrong_output = c },
                  Printf.sprintf "o:%d:%d:%d" a b c )
            | _ ->
                ( Fault.Conditional_output
                    { state = a; input = b; wrong_output = c; prev = (d, e) },
                  Printf.sprintf "c:%d:%d:%d:%d:%d" a b c d e )
          in
          Fault.key f = want
      | _ -> true)

let suite =
  [
    Alcotest.test_case "apply transfer" `Quick test_apply_transfer;
    Alcotest.test_case "apply output" `Quick test_apply_output;
    Alcotest.test_case "is_effective" `Quick test_is_effective;
    Alcotest.test_case "fig2: path b detects" `Quick test_fig2_path_b_detects;
    Alcotest.test_case "fig2: path c misses" `Quick test_fig2_path_c_misses;
    Alcotest.test_case "verdict steps" `Quick test_verdict_steps;
    Alcotest.test_case "verdict validity mismatch" `Quick test_verdict_validity_mismatch;
    Alcotest.test_case "output fault at site" `Quick test_output_fault_detected_at_site;
    Alcotest.test_case "campaign" `Quick test_campaign;
    Alcotest.test_case "campaign missed" `Quick test_campaign_missed;
    Alcotest.test_case "masked windows" `Quick test_masked_windows;
    Alcotest.test_case "masked windows exposed" `Quick test_masked_windows_exposed_path;
    Alcotest.test_case "coverage metrics" `Quick test_transition_coverage_metrics;
    Alcotest.test_case "all output faults" `Quick test_all_output_faults;
    Alcotest.test_case "all transfer faults" `Quick test_all_transfer_faults;
    Alcotest.test_case "sampled faults" `Quick test_sampled_faults_effective;
    Alcotest.test_case "uniformity non-uniform" `Quick test_uniformity_nonuniform;
    Alcotest.test_case "uniformity uniform" `Quick test_uniformity_uniform;
    Alcotest.test_case "conditional history" `Quick test_conditional_fault_history_dependent;
    Alcotest.test_case "conditional effective" `Quick test_conditional_fault_effective;
    Alcotest.test_case "certified tour vs conditional" `Quick
      test_certified_tour_can_miss_conditional_fault;
    Alcotest.test_case "conditional uniformity class" `Quick
      test_conditional_fault_uniformity_classification;
    QCheck_alcotest.to_alcotest qcheck_output_fault_always_detected_at_site;
    QCheck_alcotest.to_alcotest qcheck_fault_key_format;
  ]

open Simcov_netlist
open Simcov_coverage

module Campaign = Simcov_campaign.Campaign

let campaign c faults word = (Stuckat.campaign_outcome c faults word).Campaign.report

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ^^^ ) = Expr.( ^^^ )

let counter () =
  let open Circuit.Build in
  let ctx = create "counter" in
  let en = input ctx "en" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  finish ctx

let enabled n = List.init n (fun _ -> [| true |])

let test_all_faults_enumerated () =
  let c = counter () in
  (* 2 regs + 1 input, both polarities *)
  Alcotest.(check int) "6 faults" 6 (List.length (Stuckat.all_faults c))

let test_full_word_covers_all () =
  let c = counter () in
  (* the stimulus must exercise both en polarities: an always-enabled
     word can never expose en-stuck-at-1 *)
  let word = enabled 4 @ [ [| false |] ] @ enabled 6 in
  let r = campaign c (Stuckat.all_faults c) word in
  Alcotest.(check int) "all detected" r.Campaign.total r.Campaign.detected;
  Alcotest.(check (float 0.01)) "100%" 100.0 (Stuckat.coverage_pct r)

let test_idle_word_misses () =
  let c = counter () in
  (* with en = 0 forever, the output is stuck false anyway: only the
     en-stuck-at-1 fault changes anything *)
  let r = campaign c (Stuckat.all_faults c) (List.init 8 (fun _ -> [| false |])) in
  Alcotest.(check bool) "some missed" true (List.length r.Campaign.missed > 0)

let test_specific_fault () =
  let c = counter () in
  (* b0 stuck at 0: the counter can never leave even states; wrap never
     fires *)
  let f = { Stuckat.site = Stuckat.Reg_output 0; stuck = false } in
  Alcotest.(check bool) "detected by full count" true (Oracles.Stuckat.detects c f (enabled 4));
  Alcotest.(check bool) "not detected by 1 step" false (Oracles.Stuckat.detects c f (enabled 1))

let test_input_stuck () =
  let c = counter () in
  let f = { Stuckat.site = Stuckat.Primary_input 0; stuck = true } in
  (* driving en=0 while it is stuck at 1 diverges once the count wraps *)
  Alcotest.(check bool) "detected" true
    (Oracles.Stuckat.detects c f (List.init 8 (fun _ -> [| false |])))

let test_tour_stuckat_coverage () =
  (* the transition tour exercises every (state, input) pair, which on
     this circuit includes both en polarities in distinguishing
     positions: full stuck-at coverage *)
  let c = counter () in
  let m = Circuit.to_fsm c in
  match Simcov_testgen.Tour.transition_tour m with
  | None -> Alcotest.fail "tour"
  | Some t ->
      let word = List.map (fun i -> [| i = 1 |]) t.Simcov_testgen.Tour.word in
      let r = campaign c (Stuckat.all_faults c) word in
      Alcotest.(check (float 0.01)) "tour: 100% stuck-at" 100.0 (Stuckat.coverage_pct r)

let suite =
  [
    Alcotest.test_case "all faults enumerated" `Quick test_all_faults_enumerated;
    Alcotest.test_case "full word covers" `Quick test_full_word_covers_all;
    Alcotest.test_case "idle word misses" `Quick test_idle_word_misses;
    Alcotest.test_case "specific fault" `Quick test_specific_fault;
    Alcotest.test_case "input stuck" `Quick test_input_stuck;
    Alcotest.test_case "tour stuck-at coverage" `Quick test_tour_stuckat_coverage;
  ]

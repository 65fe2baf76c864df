open Simcov_netlist
open Simcov_symbolic

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

let test_symtour_counter_complete () =
  let c = counter () in
  let r = Symtour.generate c in
  Alcotest.(check bool) "complete" true r.Symtour.complete;
  Alcotest.(check (float 0.001)) "8 transitions" 8.0 r.Symtour.progress.Symtour.total;
  Alcotest.(check (float 0.001)) "all covered" 8.0 r.Symtour.progress.Symtour.covered;
  (* the word replays cleanly *)
  ignore (Oracles.Circuit.simulate c r.Symtour.word);
  (* replayed on the explicit machine, the word covers every transition *)
  let m = Circuit.to_fsm c in
  let code iv = Array.fold_right (fun b acc -> (2 * acc) + Bool.to_int b) iv 0 in
  let steps = Oracles.Fsm.run m (List.map code r.Symtour.word) in
  let covered = List.sort_uniq compare (List.map (fun (s, i, _, _) -> (s, i)) steps) in
  Alcotest.(check int) "replay covered" 8 (List.length covered);
  Alcotest.(check int) "replay total" 8 (Simcov_fsm.Fsm.n_transitions m)

let test_symtour_agrees_with_explicit () =
  let c = counter () in
  let m = Circuit.to_fsm c in
  let explicit =
    match Simcov_testgen.Tour.transition_tour m with
    | Some t -> t.Simcov_testgen.Tour.n_transitions
    | None -> -1
  in
  let r = Symtour.generate c in
  Alcotest.(check (float 0.001)) "same transition count" (float_of_int explicit)
    r.Symtour.progress.Symtour.total;
  (* symbolic greedy is within a small factor of the optimum *)
  Alcotest.(check bool) "reasonable length" true
    (List.length r.Symtour.word <= 4 * explicit)

let test_symtour_respects_constraint () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ^^^ b);
  output ctx "o" r;
  constrain ctx (!!(a &&& b));
  let c = finish ctx in
  let res = Symtour.generate c in
  Alcotest.(check bool) "complete" true res.Symtour.complete;
  (* 2 states x 3 valid inputs *)
  Alcotest.(check (float 0.001)) "6 transitions" 6.0 res.Symtour.progress.Symtour.total;
  (* no step uses the forbidden combination *)
  Alcotest.(check bool) "all inputs valid" true
    (List.for_all (fun iv -> not (iv.(0) && iv.(1))) res.Symtour.word)

let test_symtour_max_steps () =
  let c = counter () in
  let r = Symtour.generate ~max_steps:3 c in
  Alcotest.(check bool) "incomplete" false r.Symtour.complete;
  Alcotest.(check int) "exactly 3 steps" 3 (List.length r.Symtour.word)

let test_symtour_partial_reachability () =
  (* register b1 can never rise: symbolic tour must cover exactly the
     reachable transitions and report completeness *)
  let open Circuit.Build in
  let ctx = create "stuck" in
  let i = input ctx "i" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (i &&& !!b1);
  assign ctx b1 (b1 &&& b0);
  output ctx "o" b0;
  let c = finish ctx in
  let r = Symtour.generate c in
  Alcotest.(check bool) "complete" true r.Symtour.complete;
  Alcotest.(check (float 0.001)) "2 states x 2 inputs" 4.0 r.Symtour.progress.Symtour.total

let test_symtour_medium_circuit () =
  (* a 6-bit circuit: 64-state space, constraint-free; the tour must
     cover all reachable transitions *)
  let open Circuit.Build in
  let ctx = create "lfsr" in
  let en = input ctx "en" in
  let bits = reg_vec ctx ~init:1 "s" 6 in
  let feedback = bits.(5) ^^^ bits.(4) in
  assign ctx bits.(0) (Expr.mux en feedback bits.(0));
  for k = 1 to 5 do
    assign ctx bits.(k) (Expr.mux en bits.(k - 1) bits.(k))
  done;
  output ctx "msb" bits.(5);
  let c = finish ctx in
  let r = Symtour.generate c in
  Alcotest.(check bool) "complete" true r.Symtour.complete;
  let m = Circuit.to_fsm c in
  Alcotest.(check (float 0.001)) "matches explicit count"
    (float_of_int (Simcov_fsm.Fsm.n_transitions m))
    r.Symtour.progress.Symtour.total

let suite =
  [
    Alcotest.test_case "symtour counter" `Quick test_symtour_counter_complete;
    Alcotest.test_case "symtour vs explicit" `Quick test_symtour_agrees_with_explicit;
    Alcotest.test_case "symtour constraint" `Quick test_symtour_respects_constraint;
    Alcotest.test_case "symtour max steps" `Quick test_symtour_max_steps;
    Alcotest.test_case "symtour partial reach" `Quick test_symtour_partial_reachability;
    Alcotest.test_case "symtour lfsr" `Quick test_symtour_medium_circuit;
  ]

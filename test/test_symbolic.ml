open Simcov_netlist
open Simcov_symbolic.Symfsm

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ^^^ ) = Expr.( ^^^ )
let of_fsm = Fsm_netlist.of_fsm

(* 2-bit counter with enable; state 00 -> 01 -> 10 -> 11 -> 00 *)
let counter_circuit () =
  let open Circuit.Build in
  let ctx = create "counter2" in
  let en = input ctx "en" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  finish ctx

(* A circuit whose reachable set is a strict subset: b1 can never
   become true because its next is b1 && b0 starting from 00. *)
let stuck_circuit () =
  let open Circuit.Build in
  let ctx = create "stuck" in
  let i = input ctx "i" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (i &&& !!b1);
  assign ctx b1 (b1 &&& b0);
  output ctx "o" b0;
  finish ctx

let test_of_circuit_shapes () =
  let t = of_circuit (counter_circuit ()) in
  Alcotest.(check int) "state vars" 2 t.n_state_vars;
  Alcotest.(check int) "input vars" 1 t.n_input_vars

let test_reachable_full () =
  let t = of_circuit (counter_circuit ()) in
  let _, iters = reachable t in
  Alcotest.(check (float 0.001)) "all 4 states" 4.0 (count_reachable t);
  Alcotest.(check bool) "few iterations" true (iters <= 5)

let test_reachable_strict_subset () =
  let t = of_circuit (stuck_circuit ()) in
  (* states: 00 and 10 only (b1 stays 0; b0 toggles with i) *)
  Alcotest.(check (float 0.001)) "2 of 4 states" 2.0 (count_reachable t)

let test_count_transitions () =
  let t = of_circuit (counter_circuit ()) in
  (* 4 reachable states x 2 inputs, no constraint *)
  Alcotest.(check (float 0.001)) "8 transitions" 8.0 (count_transitions t)

let test_counts_match_explicit () =
  let c = counter_circuit () in
  let t = of_circuit c in
  let m = Circuit.to_fsm c in
  Alcotest.(check (float 0.001)) "reachable matches"
    (float_of_int (Simcov_fsm.Fsm.n_reachable m))
    (count_reachable t);
  Alcotest.(check (float 0.001)) "transitions match"
    (float_of_int (Simcov_fsm.Fsm.n_transitions m))
    (count_transitions t)

let test_constraint_counts () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ^^^ b);
  output ctx "o" r;
  constrain ctx (Expr.( !! ) (a &&& b));
  let c = finish ctx in
  let t = of_circuit c in
  Alcotest.(check (float 0.001)) "3 of 4 input combos valid" 3.0 (count_valid_inputs t);
  Alcotest.(check (float 0.001)) "input space" 4.0 (input_space_size t);
  (* 2 reachable states x 3 valid inputs *)
  Alcotest.(check (float 0.001)) "6 transitions" 6.0 (count_transitions t)

let test_image_preimage () =
  let t = of_circuit (counter_circuit ()) in
  (* image of {00} under both inputs: {00 (en=0), 01 (en=1)} *)
  let s00 = state_cube t [| false; false |] in
  let img = image t s00 in
  Alcotest.(check (float 0.001)) "two successors" 2.0 (count_states t img);
  (* preimage of {01}: states that can reach 01 = {00 (en), 01 (hold)} *)
  let s01 = state_cube t [| true; false |] in
  let pre = preimage t s01 in
  Alcotest.(check (float 0.001)) "two predecessors" 2.0 (count_states t pre)

let test_of_fsm_counts () =
  let counter3 =
    Simcov_fsm.Fsm.make ~n_states:3 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
      ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else s)
      ()
  in
  let t = of_fsm counter3 in
  Alcotest.(check (float 0.001)) "3 reachable" 3.0 (count_reachable t);
  Alcotest.(check (float 0.001)) "6 transitions" 6.0 (count_transitions t)

let test_of_fsm_respects_validity () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 1, 0, 1) ] in
  let t = of_fsm m in
  Alcotest.(check (float 0.001)) "2 transitions" 2.0 (count_transitions t);
  Alcotest.(check (float 0.001)) "2 valid input combos" 2.0 (count_valid_inputs t)

let test_symbolic_vs_explicit_random () =
  let rng = Simcov_util.Rng.create 77 in
  for _ = 1 to 10 do
    let m = Simcov_fsm.Fsm.random_connected rng ~n_states:6 ~n_inputs:2 ~n_outputs:2 in
    let t = of_fsm m in
    Alcotest.(check (float 0.001)) "reachable agrees"
      (float_of_int (Simcov_fsm.Fsm.n_reachable m))
      (count_reachable t);
    Alcotest.(check (float 0.001)) "transitions agree"
      (float_of_int (Simcov_fsm.Fsm.n_transitions m))
      (count_transitions t)
  done

(* ------------------------------------------------------------------ *)
(* Partitioned transition relation vs the monolithic oracle            *)
(* ------------------------------------------------------------------ *)

let check_partitioned_against_oracle t =
  let open Simcov_bdd in
  let eq = Bdd.equal in
  (* traversals: all four strategies produce the same fixpoint in the
     same number of iterations *)
  let base = traverse ~partitioned:false ~frontier:false t in
  let ok = ref true in
  List.iter
    (fun (p, f) ->
      let tr = traverse ~partitioned:p ~frontier:f t in
      if (not (eq tr.reached base.reached)) || tr.iterations <> base.iterations then
        ok := false)
    [ (false, true); (true, false); (true, true) ];
  (* image/preimage agree on assorted sets over the cur vars *)
  let sets = [ t.init; Oracles.Symfsm.image_mono t t.init; base.reached ] in
  List.iter
    (fun s ->
      if not (eq (image t s) (Oracles.Symfsm.image_mono t s)) then ok := false;
      if not (eq (preimage t s) (Oracles.Symfsm.preimage_mono t s)) then ok := false)
    sets;
  !ok

let qcheck_partitioned_fsm =
  QCheck.Test.make
    ~name:"symfsm: partitioned image/preimage/reachable = monolithic (random FSMs)"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      let n_states = 2 + Simcov_util.Rng.int rng 9 in
      let n_inputs = 1 + Simcov_util.Rng.int rng 3 in
      let m =
        Simcov_fsm.Fsm.random_connected rng ~n_states ~n_inputs ~n_outputs:2
      in
      check_partitioned_against_oracle (of_fsm m))

let qcheck_partitioned_circuit =
  QCheck.Test.make
    ~name:"symfsm: partitioned image/preimage/reachable = monolithic (random circuits)"
    ~count:100
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      check_partitioned_against_oracle
        (of_circuit (Gen_circuit.random_circuit ~constrained:true rng)))

(* regression on the DLX test model's netlist: frontier-based and
   full-set traversal must produce the identical fixpoint in the
   identical number of iterations, partitioned and monolithic alike *)
let test_dlx_frontier_regression () =
  let config = Simcov_dlx.Testmodel.default in
  let model = Simcov_dlx.Testmodel.build config in
  let t = of_circuit (Simcov_dlx.Testmodel.netlist config) in
  let base = traverse ~partitioned:false ~frontier:false t in
  List.iter
    (fun (p, f) ->
      let tr = traverse ~partitioned:p ~frontier:f t in
      Alcotest.(check bool)
        (Printf.sprintf "fixpoint agrees (partitioned=%b frontier=%b)" p f)
        true
        (Simcov_bdd.Bdd.equal tr.reached base.reached);
      Alcotest.(check int)
        (Printf.sprintf "iteration count agrees (partitioned=%b frontier=%b)" p f)
        base.iterations tr.iterations)
    [ (false, true); (true, false); (true, true) ];
  Alcotest.(check (float 0.001))
    "reachable count matches the explicit model"
    (float_of_int (Simcov_fsm.Fsm.n_reachable model))
    (count_states t base.reached);
  Alcotest.(check bool) "partitioned image = oracle on the DLX model" true
    (check_partitioned_against_oracle t)

let test_traversal_stats () =
  let t = of_circuit (counter_circuit ()) in
  let tr = reachable_stats t in
  Alcotest.(check int) "one stat per iteration" tr.iterations
    (List.length tr.iter_stats);
  Alcotest.(check int) "images counted" tr.iterations tr.images;
  (* frontier sizes: 1 new state per layer on the counter, and the
     first frontier is the initial state *)
  (match tr.iter_stats with
  | first :: _ ->
      Alcotest.(check (float 0.001)) "first frontier is init" 1.0 first.frontier_states
  | [] -> Alcotest.fail "no stats");
  Alcotest.(check bool) "memoized traversal is reused" true
    (reachable_stats t == tr)

let suite =
  [
    Alcotest.test_case "of_circuit shapes" `Quick test_of_circuit_shapes;
    Alcotest.test_case "reachable full" `Quick test_reachable_full;
    Alcotest.test_case "reachable strict subset" `Quick test_reachable_strict_subset;
    Alcotest.test_case "count transitions" `Quick test_count_transitions;
    Alcotest.test_case "counts match explicit" `Quick test_counts_match_explicit;
    Alcotest.test_case "constraint counts" `Quick test_constraint_counts;
    Alcotest.test_case "image/preimage" `Quick test_image_preimage;
    Alcotest.test_case "of_fsm counts" `Quick test_of_fsm_counts;
    Alcotest.test_case "of_fsm validity" `Quick test_of_fsm_respects_validity;
    Alcotest.test_case "symbolic vs explicit" `Quick test_symbolic_vs_explicit_random;
    Alcotest.test_case "DLX frontier regression" `Quick test_dlx_frontier_regression;
    Alcotest.test_case "traversal stats" `Quick test_traversal_stats;
    QCheck_alcotest.to_alcotest qcheck_partitioned_fsm;
    QCheck_alcotest.to_alcotest qcheck_partitioned_circuit;
  ]

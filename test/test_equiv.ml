open Simcov_netlist

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

let broken_counter () =
  let open Circuit.Build in
  let ctx = create "broken" in
  let en = input ctx "en" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  (* wrap fires one count early *)
  output ctx "wrap" (en &&& !!b0 &&& b1);
  finish ctx

let test_self_equivalent () =
  let c = counter () in
  match Equiv.check c c with
  | Equiv.Equivalent { reachable_pairs } ->
      (* lockstep: only the diagonal is reachable *)
      Alcotest.(check (float 0.001)) "diagonal pairs" 4.0 reachable_pairs
  | Equiv.Different _ -> Alcotest.fail "self-equivalence"

let test_detects_difference () =
  match Equiv.check (counter ()) (broken_counter ()) with
  | Equiv.Equivalent _ -> Alcotest.fail "must differ"
  | Equiv.Different ce ->
      Alcotest.(check string) "differing output" "wrap" ce.Equiv.output;
      (* the counterexample must be a genuinely differing configuration *)
      let eval (c : Circuit.t) state =
        let st = Array.of_list (List.map snd state) in
        let inputs = Array.of_list (List.map snd ce.Equiv.inputs) in
        let _, outs = Circuit.step c st inputs in
        outs.(0)
      in
      Alcotest.(check bool) "outputs differ on ce" true
        (eval (counter ()) ce.Equiv.state_a <> eval (broken_counter ()) ce.Equiv.state_b)

let onehot_ring width =
  let open Circuit.Build in
  let ctx = create "ring" in
  let adv = input ctx "adv" in
  let regs =
    Array.init width (fun k ->
        reg ctx ~group:"phase" ~init:(k = 0) (Printf.sprintf "ph%d" k))
  in
  Array.iteri
    (fun k r ->
      let prev = regs.((k + width - 1) mod width) in
      assign ctx r (Expr.mux adv prev r))
    regs;
  output ctx "at_last" regs.(width - 1);
  finish ctx

let test_onehot_to_binary_formally_equivalent () =
  let c = onehot_ring 4 in
  let c' = Simcov_abstraction.Netabs.onehot_to_binary c ~group:"phase" in
  match Equiv.check c c' with
  | Equiv.Equivalent { reachable_pairs } ->
      (* 4 phases, deterministic pairing *)
      Alcotest.(check (float 0.001)) "4 lockstep pairs" 4.0 reachable_pairs
  | Equiv.Different _ -> Alcotest.fail "one-hot re-encoding must be behavior-preserving"

let test_onehot_odd_formally_equivalent () =
  let c = onehot_ring 5 in
  let c' = Simcov_abstraction.Netabs.onehot_to_binary c ~group:"phase" in
  Alcotest.(check bool) "equivalent" true (Equiv.equivalent c c')

let test_constraint_limits_comparison () =
  (* two circuits that differ only on an input combination excluded by
     the constraint are equivalent under it *)
  let build flip =
    let open Circuit.Build in
    let ctx = create "constrained" in
    let x = input ctx "x" in
    let y = input ctx "y" in
    let r = reg ctx "r" in
    assign ctx r (x ^^^ y);
    output ctx "o" (if flip then r ^^^ (x &&& y) else r);
    constrain ctx (!!(x &&& y));
    finish ctx
  in
  Alcotest.(check bool) "equivalent under the constraint" true
    (Equiv.equivalent (build false) (build true))

let test_interface_mismatch () =
  let c = counter () in
  let tiny =
    let open Circuit.Build in
    let ctx = create "tiny" in
    let x = input ctx "x" in
    let y = input ctx "y" in
    let r = reg ctx "r" in
    assign ctx r (x &&& y);
    output ctx "o" r;
    finish ctx
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Equiv.check c tiny);
       false
     with Invalid_argument _ -> true)

let test_retimed_not_equivalent () =
  (* remove_output_buffers retimes outputs by one cycle: the checker
     must flag the difference (it is NOT sequential-equivalence
     preserving, by design) *)
  let open Circuit.Build in
  let build () =
    let ctx = create "buffered" in
    let i = input ctx "i" in
    let core = reg ctx "core" in
    let buf = reg ctx "buf" in
    assign ctx core (core ^^^ i);
    assign ctx buf core;
    output ctx "o" buf;
    finish ctx
  in
  let c = build () in
  let c' = Simcov_abstraction.Netabs.remove_output_buffers c in
  Alcotest.(check bool) "retiming changes timing" false (Equiv.equivalent c c')

(* random small circuits, cross-validated against explicit product
   equivalence *)
let qcheck_equiv_vs_explicit =
  QCheck.Test.make ~name:"equiv: symbolic checker agrees with explicit product machine"
    ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      let a = Gen_circuit.random_circuit ~n_inputs:2 ~n_regs:3 rng in
      (* b: either a copy of a (equivalent) or a mutated output *)
      let mutate = Simcov_util.Rng.bool rng in
      let b =
        if not mutate then { a with Circuit.name = "copy" }
        else
          {
            a with
            Circuit.name = "mut";
            outputs =
              [|
                {
                  Circuit.port_name = "o";
                  expr = Expr.( ^^^ ) a.Circuit.outputs.(0).Circuit.expr (Expr.reg 0);
                };
              |];
          }
      in
      let sym = Equiv.equivalent a b in
      (* explicit: product-machine over packed outputs *)
      let ma = Circuit.to_fsm a and mb = Circuit.to_fsm b in
      let explicit = match Simcov_fsm.Fsm.equivalent ma mb with Ok [] -> true | _ -> false in
      sym = explicit)

let suite =
  [
    Alcotest.test_case "self equivalent" `Quick test_self_equivalent;
    Alcotest.test_case "detects difference" `Quick test_detects_difference;
    Alcotest.test_case "onehot formally equivalent" `Quick test_onehot_to_binary_formally_equivalent;
    Alcotest.test_case "onehot odd equivalent" `Quick test_onehot_odd_formally_equivalent;
    Alcotest.test_case "constraint limits comparison" `Quick test_constraint_limits_comparison;
    Alcotest.test_case "interface mismatch" `Quick test_interface_mismatch;
    Alcotest.test_case "retimed not equivalent" `Quick test_retimed_not_equivalent;
    QCheck_alcotest.to_alcotest qcheck_equiv_vs_explicit;
  ]

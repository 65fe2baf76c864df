open Simcov_netlist

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ||| ) = Expr.( ||| )
let ( ^^^ ) = Expr.( ^^^ )

let test_expr_folding () =
  Alcotest.(check bool) "and false" true (Expr.fls &&& Expr.input 0 = Expr.fls);
  Alcotest.(check bool) "and true" true (Expr.tru &&& Expr.input 0 = Expr.input 0);
  Alcotest.(check bool) "or true" true (Expr.tru ||| Expr.input 0 = Expr.tru);
  Alcotest.(check bool) "xor self" true (Expr.input 1 ^^^ Expr.input 1 = Expr.fls);
  Alcotest.(check bool) "double negation" true (!!(!!(Expr.input 2)) = Expr.input 2);
  Alcotest.(check bool) "mux const sel" true
    (Expr.mux Expr.tru (Expr.input 0) (Expr.input 1) = Expr.input 0);
  Alcotest.(check bool) "mux same branches" true
    (Expr.mux (Expr.input 2) (Expr.input 0) (Expr.input 0) = Expr.input 0)

let test_expr_eval () =
  let e = Expr.mux (Expr.input 0) (Expr.reg 0 &&& Expr.input 1) (!!(Expr.reg 1)) in
  let eval i0 i1 r0 r1 =
    Expr.eval
      ~inputs:(fun i -> if i = 0 then i0 else i1)
      ~regs:(fun r -> if r = 0 then r0 else r1)
      e
  in
  Alcotest.(check bool) "sel=1 path" true (eval true true true false);
  Alcotest.(check bool) "sel=1 path false" false (eval true false true false);
  Alcotest.(check bool) "sel=0 path" true (eval false false false false);
  Alcotest.(check bool) "sel=0 path false" false (eval false false false true)

let test_expr_support () =
  let e = Expr.input 3 &&& (Expr.reg 1 ||| Expr.reg 4) in
  let ins, regs = Expr.support e in
  Alcotest.(check (list int)) "inputs" [ 3 ] ins;
  Alcotest.(check (list int)) "regs" [ 1; 4 ] regs

let test_expr_map_leaves () =
  let e = Expr.input 0 &&& Expr.reg 0 in
  let e' = Expr.map_leaves ~input:(fun _ -> Expr.tru) ~reg:(fun r -> Expr.reg (r + 1)) e in
  Alcotest.(check bool) "substituted and folded" true (e' = Expr.reg 1)

let test_vec_ops () =
  let v = Expr.Vec.const ~width:4 0b1010 in
  let ev = Expr.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) in
  Alcotest.(check bool) "eq_const matches" true (ev (Expr.Vec.eq_const v 0b1010));
  Alcotest.(check bool) "eq_const mismatch" false (ev (Expr.Vec.eq_const v 0b1011));
  Alcotest.(check int) "vec eval" 0b1010
    (Expr.Vec.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) v)

let test_vec_onehot () =
  let ev = Expr.eval ~inputs:(fun _ -> false) ~regs:(fun _ -> false) in
  Alcotest.(check bool) "one bit set" true
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0b0100)));
  Alcotest.(check bool) "two bits set" false
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0b0101)));
  Alcotest.(check bool) "zero bits set" false
    (ev (Expr.Vec.onehot (Expr.Vec.const ~width:4 0)))

(* A 2-bit counter with enable input and a wrap output. *)
let counter_circuit () =
  let open Circuit.Build in
  let ctx = create "counter2" in
  let en = input ctx "en" in
  let b0 = reg ctx ~group:"count" "b0" in
  let b1 = reg ctx ~group:"count" "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  finish ctx

let test_build_and_simulate () =
  let c = counter_circuit () in
  Alcotest.(check int) "inputs" 1 (Circuit.n_inputs c);
  Alcotest.(check int) "regs" 2 (Circuit.n_regs c);
  (* count 0,1,2,3 -> wrap on the step leaving 3 *)
  let outs = Oracles.Circuit.simulate c [ [| true |]; [| true |]; [| true |]; [| true |] ] in
  let wraps = List.map (fun o -> o.(0)) outs in
  Alcotest.(check (list bool)) "wrap on last" [ false; false; false; true ] wraps

let test_simulate_disabled () =
  let c = counter_circuit () in
  let outs = Oracles.Circuit.simulate c [ [| false |]; [| false |] ] in
  Alcotest.(check bool) "never wraps" true (List.for_all (fun o -> not o.(0)) outs)

let test_reg_index_groups () =
  let c = counter_circuit () in
  Alcotest.(check (list int)) "group" [ 0; 1 ] (Circuit.regs_in_group c "count")

let test_constraint_blocks_input () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ^^^ b);
  output ctx "o" r;
  constrain ctx (!!(a &&& b));
  let c = finish ctx in
  Alcotest.(check bool) "valid input" true
    (Circuit.input_valid c (Circuit.initial_state c) [| true; false |]);
  Alcotest.(check bool) "invalid input" false
    (Circuit.input_valid c (Circuit.initial_state c) [| true; true |]);
  Alcotest.(check bool) "step rejects invalid" true
    (try
       ignore (Circuit.step c (Circuit.initial_state c) [| true; true |]);
       false
     with Invalid_argument _ -> true)

let test_unassigned_register_fails () =
  let open Circuit.Build in
  let ctx = create "bad" in
  let _ = reg ctx "r" in
  match finish ctx with
  | _ -> Alcotest.fail "finish should fail"
  | exception Build_error e ->
      Alcotest.(check (list string)) "never assigned" [ "r" ] e.never_assigned;
      Alcotest.(check (list string)) "no dups" [] e.doubly_assigned

let test_build_errors_collected () =
  (* every offender reported in one error, not just the first *)
  let open Circuit.Build in
  let ctx = create "bad" in
  let a = reg ctx "a" in
  let _ = reg ctx "b" in
  let c = reg ctx "c" in
  let _ = reg ctx "d" in
  assign ctx a Expr.tru;
  assign ctx a Expr.fls;
  assign ctx c Expr.tru;
  assign ctx c Expr.fls;
  assign ctx c Expr.tru;
  match finish ctx with
  | _ -> Alcotest.fail "finish should fail"
  | exception Build_error e ->
      Alcotest.(check string) "circuit" "bad" e.circuit;
      Alcotest.(check (list string)) "dups" [ "a"; "c"; "c" ] e.doubly_assigned;
      Alcotest.(check (list string)) "missing" [ "b"; "d" ] e.never_assigned;
      Alcotest.(check bool) "message mentions both" true
        (let s = build_error_to_string e in
         let has sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has "assigned twice" && has "never assigned")

let test_cone_analysis () =
  let open Circuit.Build in
  let ctx = create "cone" in
  let i = input ctx "i" in
  let a = reg ctx "a" in
  let b = reg ctx "b" in
  let dead = reg ctx "dead" in
  assign ctx a i;
  assign ctx b a;
  assign ctx dead (Expr.( !! ) dead);
  output ctx "o" b;
  let c = finish ctx in
  Alcotest.(check (list int)) "output cone excludes dead" [ 0; 1 ] (Circuit.output_cone c);
  Alcotest.(check (list int)) "closure of b pulls a" [ 0; 1 ]
    (Circuit.reg_support_closure c [ 1 ])

let test_to_fsm_matches_simulation () =
  let c = counter_circuit () in
  let m = Circuit.to_fsm c in
  Alcotest.(check int) "4 states" 4 m.Simcov_fsm.Fsm.n_states;
  Alcotest.(check int) "2 inputs" 2 m.Simcov_fsm.Fsm.n_inputs;
  (* run the same random words through circuit and fsm *)
  let rng = Simcov_util.Rng.create 21 in
  for _ = 1 to 20 do
    let word = List.init 8 (fun _ -> Simcov_util.Rng.int rng 2) in
    let fsm_outs = Simcov_fsm.Fsm.output_word m word in
    let circ_outs =
      Oracles.Circuit.simulate c (List.map (fun v -> [| v = 1 |]) word)
      |> List.map (fun o -> if o.(0) then 1 else 0)
    in
    Alcotest.(check (list int)) "outputs agree" circ_outs fsm_outs
  done

let test_to_fsm_respects_constraint () =
  let open Circuit.Build in
  let ctx = create "constrained" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r = reg ctx "r" in
  assign ctx r (a ||| b);
  output ctx "o" r;
  constrain ctx (!!(a &&& b));
  let c = finish ctx in
  let m = Circuit.to_fsm c in
  Alcotest.(check bool) "11 invalid" false (m.Simcov_fsm.Fsm.valid 0 3);
  Alcotest.(check bool) "01 valid" true (m.Simcov_fsm.Fsm.valid 0 1)

let test_to_fsm_size_guard () =
  let open Circuit.Build in
  let ctx = create "big" in
  let i = input ctx "i" in
  let v = reg_vec ctx "v" 25 in
  Array.iter (fun r -> assign ctx r (i &&& r)) v;
  output ctx "o" v.(0);
  let c = finish ctx in
  Alcotest.(check bool) "guard trips" true
    (try
       ignore (Circuit.to_fsm c);
       false
     with Invalid_argument _ -> true)

let qcheck_expr_eval_vs_bdd_semantics =
  (* map_leaves with identity must preserve evaluation *)
  QCheck.Test.make ~name:"netlist: identity map_leaves preserves eval" ~count:100
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (iv, rv) ->
      let e =
        Expr.mux (Expr.input 0)
          (Expr.input 1 &&& Expr.reg 0)
          (Expr.reg 1 ^^^ (Expr.input 2 ||| Expr.reg 2))
      in
      let e' = Expr.map_leaves ~input:Expr.input ~reg:Expr.reg e in
      let inputs i = (iv lsr i) land 1 = 1 and regs r = (rv lsr r) land 1 = 1 in
      Expr.eval ~inputs ~regs e = Expr.eval ~inputs ~regs e')

let suite =
  [
    Alcotest.test_case "expr folding" `Quick test_expr_folding;
    Alcotest.test_case "expr eval" `Quick test_expr_eval;
    Alcotest.test_case "expr support" `Quick test_expr_support;
    Alcotest.test_case "expr map_leaves" `Quick test_expr_map_leaves;
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec onehot" `Quick test_vec_onehot;
    Alcotest.test_case "build and simulate" `Quick test_build_and_simulate;
    Alcotest.test_case "simulate disabled" `Quick test_simulate_disabled;
    Alcotest.test_case "reg index/groups" `Quick test_reg_index_groups;
    Alcotest.test_case "constraint blocks input" `Quick test_constraint_blocks_input;
    Alcotest.test_case "unassigned register" `Quick test_unassigned_register_fails;
    Alcotest.test_case "build errors collected" `Quick test_build_errors_collected;
    Alcotest.test_case "cone analysis" `Quick test_cone_analysis;
    Alcotest.test_case "to_fsm matches simulation" `Quick test_to_fsm_matches_simulation;
    Alcotest.test_case "to_fsm respects constraint" `Quick test_to_fsm_respects_constraint;
    Alcotest.test_case "to_fsm size guard" `Quick test_to_fsm_size_guard;
    QCheck_alcotest.to_alcotest qcheck_expr_eval_vs_bdd_semantics;
  ]

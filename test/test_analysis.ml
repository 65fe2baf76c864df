open Simcov_analysis
module Expr = Simcov_netlist.Expr
module Circuit = Simcov_netlist.Circuit
module Serialize = Simcov_netlist.Serialize
module Netabs = Simcov_abstraction.Netabs
module Homomorphism = Simcov_abstraction.Homomorphism
module Fsm = Simcov_fsm.Fsm
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Rng = Simcov_util.Rng
open Expr

(* the name inside a diagnostic's location *)
let loc_name = function
  | Diag.Register n | Net n | Primary_input n | Output_port n | State n | Input_symbol n | Word n -> n
  | Whole_circuit -> ""

(* the graph-level passes over a lowered circuit, as [Lint.run] calls them *)
let lowered c = fst (Netgraph.of_circuit c)
let dead_analysis c = Deadlogic.analyze_graph (Netgraph.of_circuit c)
let hints c = Deadlogic.hints_of c (dead_analysis c)

let codes diags = List.map (fun d -> d.Diag.code) diags
let has code diags = List.mem code (codes diags)

let count_code code diags =
  List.length (List.filter (fun d -> d.Diag.code = code) diags)

let at code diags =
  match List.find_opt (fun d -> d.Diag.code = code) diags with
  | Some d -> d
  | None -> Alcotest.failf "expected a %s diagnostic, got [%s]" code
              (String.concat "; " (codes diags))

let load_fixture name =
  (* cwd is test/ under `dune runtest` but the workspace root under
     `dune exec test/test_main.exe` *)
  let candidates =
    [
      Filename.concat "fixtures" name;
      Filename.concat (Filename.concat "test" "fixtures") name;
      Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "fixtures") name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.failf "fixture %s not found" name
  | Some path -> (
      match Serialize.load path with
      | Ok c -> c
      | Error e -> Alcotest.failf "fixture %s: %s" name (Serialize.error_to_string e))

(* ---- comb-cycle ---- *)

let test_comb_cycle_hand_graph () =
  let g = Netgraph.create () in
  let a = Netgraph.find_or_add_net g "a" in
  let b = Netgraph.find_or_add_net g "b" in
  Netgraph.add_driver g ~net:a ~kind:(Netgraph.Gate "not") ~fanin:[ b ];
  Netgraph.add_driver g ~net:b ~kind:(Netgraph.Gate "not") ~fanin:[ a ];
  let diags = Comb_cycle.check_graph g in
  Alcotest.(check int) "one cycle" 1 (count_code "SA101" diags);
  let d = at "SA101" diags in
  Alcotest.(check bool) "cycle path reported" true (List.length d.Diag.related >= 2)

let test_comb_self_loop () =
  let g = Netgraph.create () in
  let x = Netgraph.find_or_add_net g "x" in
  Netgraph.add_driver g ~net:x ~kind:(Netgraph.Gate "buf") ~fanin:[ x ];
  Alcotest.(check int) "self-loop is a cycle" 1
    (count_code "SA101" (Comb_cycle.check_graph g))

let test_lowered_circuits_are_acyclic () =
  let impl = Simcov_dlx.Control.build () in
  Alcotest.(check (list string)) "no cycles from lowering" []
    (codes (Comb_cycle.check_graph (lowered impl)))

(* ---- ternary-const ---- *)

let test_stuck_register_fixture () =
  let c = load_fixture "stuck.circ" in
  let diags = Ternary.check c in
  let d = at "SA201" diags in
  Alcotest.(check string) "stuck reg named" "stuck" (loc_name d.Diag.loc);
  Alcotest.(check int) "live reg not flagged" 1 (count_code "SA201" diags);
  let o = at "SA202" diags in
  Alcotest.(check string) "constant output named" "dead_o" (loc_name o.Diag.loc)

let test_stuck_crosschecks_stuckat () =
  (* soundness against the fault model: the same-polarity stuck-at
     fault on a ternary-stuck register is undetectable by any stimulus *)
  let c = load_fixture "stuck.circ" in
  let idx = Oracles.Circuit.reg_index c "stuck" in
  let fault =
    { Simcov_coverage.Stuckat.site = Simcov_coverage.Stuckat.Reg_output idx;
      stuck = false }
  in
  let rng = Rng.create 7 in
  for _ = 1 to 20 do
    let word = List.init 32 (fun _ -> [| Rng.bool rng |]) in
    Alcotest.(check bool) "stuck-at-0 on a stuck-at-0 reg undetectable" false
      (Oracles.Stuckat.detects c fault word)
  done

let test_hold_enables () =
  let open Circuit.Build in
  let ctx = create "holds" in
  let i = input ctx "i" in
  let upd = input ctx "upd" in
  let zero = reg ctx "zero" in
  assign ctx zero (zero &&& i);
  let one = reg ctx ~init:true "one" in
  assign ctx one (one ||| i);
  let never = reg ctx "never" in
  assign ctx never (Expr.mux (zero &&& i) upd never);
  let always = reg ctx "always" in
  assign ctx always (Expr.mux (one ||| i) upd always);
  output ctx "o" (never ^^^ always);
  output ctx "keep" (zero ^^^ one);
  let diags = Ternary.check (finish ctx) in
  let d203 = at "SA203" diags in
  Alcotest.(check string) "never-enabled reg" "never" (loc_name d203.Diag.loc);
  let d204 = at "SA204" diags in
  Alcotest.(check string) "always-enabled reg" "always" (loc_name d204.Diag.loc);
  (* 'never' is also stuck, but the specific SA203 suppresses its SA201 *)
  Alcotest.(check bool) "SA201 suppressed for never" true
    (List.for_all
       (fun d -> d.Diag.code <> "SA201" || loc_name d.Diag.loc <> "never")
       diags)

let test_constant_false_constraint () =
  let open Circuit.Build in
  let ctx = create "blocked" in
  let i = input ctx "i" in
  let zero = reg ctx "zero" in
  assign ctx zero (zero &&& i);
  output ctx "o" zero;
  constrain ctx (zero &&& i);
  let diags = Ternary.check (finish ctx) in
  let d = at "SA205" diags in
  Alcotest.(check bool) "constraint-false is an error" true
    (d.Diag.severity = Diag.Error)

(* soundness: any behavior 2-valued simulation exhibits must be inside
   the ternary abstraction — a register reported stuck (SA201, SA203)
   holds its reset value and an output reported constant (SA202) never
   changes, whatever the inputs *)
let qcheck_ternary_sound =
  QCheck.Test.make ~name:"analysis: ternary verdicts contain simulation" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = Gen_circuit.random_circuit rng in
      let diags = Ternary.check c in
      let named codes name =
        List.exists (fun d -> List.mem d.Diag.code codes && loc_name d.Diag.loc = name) diags
      in
      let stuck =
        List.filter
          (fun r -> named [ "SA201"; "SA203" ] c.Circuit.regs.(r).Circuit.name)
          (List.init (Circuit.n_regs c) Fun.id)
      and constant =
        List.filter
          (fun o -> named [ "SA202" ] c.Circuit.outputs.(o).Circuit.port_name)
          (List.init (Circuit.n_outputs c) Fun.id)
      in
      let state = ref (Circuit.initial_state c) and first = ref None in
      let holds () = List.for_all (fun r -> !state.(r) = c.Circuit.regs.(r).Circuit.init) stuck in
      let ok = ref (holds ()) in
      for _ = 1 to 48 do
        let inputs = Array.init (Circuit.n_inputs c) (fun _ -> Rng.bool rng) in
        let next, outs = Circuit.step c !state inputs in
        state := next;
        if not (holds ()) then ok := false;
        let values = List.map (fun o -> outs.(o)) constant in
        match !first with
        | None -> first := Some values
        | Some v -> if v <> values then ok := false
      done;
      !ok)

(* ---- dead-logic ---- *)

let test_dead_latch_fixture () =
  let c = load_fixture "dead_latch.circ" in
  let diags = Deadlogic.check_of c (dead_analysis c) in
  let d = at "SA301" diags in
  Alcotest.(check string) "dead latch named" "dead" (loc_name d.Diag.loc);
  let hs = hints c in
  Alcotest.(check (list int)) "free list" [ Oracles.Circuit.reg_index c "dead" ]
    (List.map (fun h -> h.Deadlogic.reg_index) hs);
  (* the hint is exactly what cone_reduce deletes *)
  let reduced = Netabs.cone_reduce c in
  Alcotest.(check int) "cone_reduce removes the hinted latch" 1
    (Circuit.n_regs reduced);
  Alcotest.(check (list string)) "reduced model is hint-free" []
    (List.map (fun h -> h.Deadlogic.reg_name) (hints reduced))

let test_constraint_only_latch_hint () =
  let open Circuit.Build in
  let ctx = create "constraint-fed" in
  let i = input ctx "i" in
  let seen = reg ctx "seen" in
  assign ctx seen (seen ||| i);
  let out = reg ctx "out" in
  assign ctx out i;
  output ctx "o" out;
  constrain ctx (!!seen ||| i);
  let c = finish ctx in
  match hints c with
  | [ h ] ->
      Alcotest.(check string) "hint is the constraint-only latch" "seen"
        h.Deadlogic.reg_name;
      Alcotest.(check bool) "feeds_constraint recorded" true
        h.Deadlogic.feeds_constraint
  | hs -> Alcotest.failf "expected one hint, got %d" (List.length hs)

(* the Netgraph cone analysis and the Expr-level Circuit.output_cone
   must agree on which latches are dead, for any circuit *)
let qcheck_hints_match_output_cone =
  QCheck.Test.make ~name:"analysis: dead-latch hints = output-cone complement"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = Gen_circuit.random_circuit rng in
      let cone = Circuit.output_cone c in
      let dead_expected =
        List.filter
          (fun r -> not (List.mem r cone))
          (List.init (Circuit.n_regs c) Fun.id)
      in
      List.map (fun h -> h.Deadlogic.reg_index) (hints c) = dead_expected)

(* ---- structural ---- *)

let test_floating_net () =
  let g = Netgraph.create () in
  let f = Netgraph.find_or_add_net g "f" in
  let y = Netgraph.find_or_add_net g "y" in
  Netgraph.add_driver g ~net:y ~kind:(Netgraph.Gate "buf") ~fanin:[ f ];
  let diags = Structural.check_graph g in
  let d = at "SA401" diags in
  Alcotest.(check string) "floating net named" "f" (loc_name d.Diag.loc)

let test_multi_driven_fixture () =
  let c = load_fixture "multi_driven.circ" in
  let diags = Structural.check_graph (lowered c) in
  let d = at "SA402" diags in
  Alcotest.(check string) "contended net named" "o" (loc_name d.Diag.loc);
  Alcotest.(check int) "both drivers listed" 2 (List.length d.Diag.related)

let test_unused_input_and_families () =
  let open Circuit.Build in
  let ctx = create "sloppy" in
  let u0 = input ctx "v[0]" in
  let _gap = input ctx "v[2]" in
  let unused = input ctx "spare" in
  ignore unused;
  let r = reg ctx "r" in
  assign ctx r (u0 ^^^ r);
  output ctx "o" r;
  let diags = Structural.check_circuit (finish ctx) in
  Alcotest.(check bool) "unused input flagged" true
    (List.exists
       (fun d -> d.Diag.code = "SA403" && loc_name d.Diag.loc = "spare")
       diags);
  (* v[2] is also unused, but the family check reports the gap once *)
  let fam = at "SA406" diags in
  Alcotest.(check string) "family base" "v[]" (loc_name fam.Diag.loc)

let test_duplicate_names_and_range () =
  let c =
    {
      Circuit.name = "dup";
      input_names = [| "x" |];
      regs =
        [|
          { Circuit.name = "x"; group = "g"; init = false; next = Expr.input 0 };
          { Circuit.name = "y"; group = "g"; init = false; next = Expr.input 5 };
        |];
      outputs = [| { Circuit.port_name = "o"; expr = Expr.reg 0 } |];
      input_constraint = Expr.tru;
    }
  in
  let diags = Structural.check_circuit c in
  Alcotest.(check int) "duplicate name" 1 (count_code "SA404" diags);
  Alcotest.(check int) "out-of-range leaf" 1 (count_code "SA405" diags);
  (* the orchestrator must survive this circuit: lowering would crash,
     so the lowering-dependent passes are skipped *)
  let r = Lint.run ~name:"dup" c in
  Alcotest.(check bool) "still reports SA405" true (has "SA405" r.Lint.diags);
  Alcotest.(check int) "lowering skipped" 0 r.Lint.n_nets;
  Alcotest.(check bool) "ternary not attempted" false
    (List.mem "ternary-const" r.Lint.passes)

(* ---- homo-precheck ---- *)

let test_mapping_output_conflict () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 0, 0, 1) ] in
  let map =
    {
      Homomorphism.n_abs_states = 1;
      n_abs_inputs = 1;
      state_map = (fun _ -> 0);
      input_map = Fun.id;
      output_map = Fun.id;
    }
  in
  let diags = Homo_precheck.check_mapping m map in
  Alcotest.(check bool) "merged-output conflict found" true (has "SA504" diags);
  (* cross-check: the full quotient construction rejects it too *)
  Alcotest.(check bool) "quotient agrees" true
    (Result.is_error (Homomorphism.quotient m map))

let test_mapping_surjectivity_and_range () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 0, 0, 0) ] in
  let wide =
    {
      Homomorphism.n_abs_states = 3;
      n_abs_inputs = 2;
      state_map = Fun.id;
      input_map = Fun.id;
      output_map = Fun.id;
    }
  in
  let diags = Homo_precheck.check_mapping m wide in
  Alcotest.(check bool) "unused abstract state" true (has "SA502" diags);
  Alcotest.(check bool) "unused abstract input" true (has "SA503" diags);
  let broken = { wide with Homomorphism.state_map = (fun _ -> 7) } in
  Alcotest.(check bool) "image out of range" true
    (has "SA501" (Homo_precheck.check_mapping m broken))

let test_cone_compatibility () =
  let open Circuit.Build in
  let mk deps =
    let ctx = create "cones" in
    let i = input ctx "i" in
    let a = reg ctx "a" in
    let b = reg ctx "b" in
    assign ctx a (if deps then a ^^^ b else a ^^^ i);
    assign ctx b (b ^^^ i);
    output ctx "o" a;
    finish ctx
  in
  let concrete = mk false and abstract = mk true in
  let diags = Homo_precheck.check_circuits ~concrete ~abstract in
  let d = at "SA505" diags in
  Alcotest.(check string) "offending register" "a" (loc_name d.Diag.loc);
  Alcotest.(check (list string)) "introduced dependency" [ "b" ] d.Diag.related;
  Alcotest.(check (list string)) "identity is compatible" []
    (codes (Homo_precheck.check_circuits ~concrete ~abstract:concrete))

(* ---- DLX regressions ---- *)

let test_dlx_models_lint_clean () =
  let impl = Simcov_dlx.Control.build () in
  let r = Lint.run ~name:"dlx-control" impl in
  Alcotest.(check bool) "control model fully clean" true (r.Lint.diags = []);
  let test_model, _ = Simcov_dlx.Control.derive_test_model () in
  let rt = Lint.run ~name:"dlx-test" ~against:impl test_model in
  Alcotest.(check int) "derived model has no errors" 0 (Diag.count rt.Lint.diags Diag.Error);
  Alcotest.(check bool) "homo precheck ran" true
    (List.mem "homo-precheck" rt.Lint.passes)

let test_dlx_hints_match_abstraction_chain () =
  (* mid-chain, after the dbg_* outputs are dropped but before
     cone_reduce: the latches the analyzer hints are exactly the ones
     the chain's cone_reduce step then removes *)
  let impl = Simcov_dlx.Control.build () in
  let prefix = List.filteri (fun i _ -> i < 3) Simcov_dlx.Control.abstraction_sequence in
  let c3, _ = Netabs.run_sequence impl prefix in
  let mid =
    Netabs.drop_outputs c3 ~keep:(fun n ->
        not (String.length n >= 4 && String.sub n 0 4 = "dbg_"))
  in
  let hs = hints mid in
  Alcotest.(check bool) "dropping dbg outputs exposes dead latches" true
    (List.length hs > 0);
  let reduced = Netabs.cone_reduce mid in
  let hinted = List.map (fun h -> h.Deadlogic.reg_name) hs in
  let survives n =
    Array.exists (fun (r : Circuit.reg) -> r.Circuit.name = n) reduced.Circuit.regs
  in
  Alcotest.(check (list string)) "every hinted latch is removed by the chain" []
    (List.filter survives hinted);
  Alcotest.(check int) "and nothing else is removed"
    (Circuit.n_regs mid - List.length hs)
    (Circuit.n_regs reduced)

(* ---- report plumbing ---- *)

let test_diag_codes_in_catalog () =
  let catalog_codes =
    List.map (fun e -> e.Diag.entry_code) Diag.catalog
  in
  Alcotest.(check int) "33 stable codes" 33 (List.length catalog_codes);
  Alcotest.(check int) "codes are unique" 33
    (List.length (List.sort_uniq String.compare catalog_codes));
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a title" e.Diag.entry_code)
        true
        (String.length e.Diag.title > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s has a fix" e.Diag.entry_code)
        true
        (String.length e.Diag.fix > 0))
    Diag.catalog;
  (* explain is the single source of truth the CLI prints from *)
  (match Diag.explain "SA610" with
  | None -> Alcotest.fail "SA610 missing from catalog"
  | Some e -> Alcotest.(check bool) "SA610 is an error" true (e.Diag.default_severity = Diag.Error));
  Alcotest.(check bool) "unknown code not explained" true
    (Diag.explain "SA999" = None);
  List.iter
    (fun fixture ->
      let r = Lint.run (load_fixture fixture) in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is catalogued" d.Diag.code)
            true
            (List.mem d.Diag.code catalog_codes))
        r.Lint.diags)
    [ "stuck.circ"; "dead_latch.circ"; "multi_driven.circ" ]

let test_budget_truncation () =
  let c = load_fixture "stuck.circ" in
  let budget = Budget.create ~max_steps:1 () in
  let r = Lint.run ~budget ~name:"tight" c in
  Alcotest.(check bool) "truncation reported, not raised" true
    (r.Lint.truncated = Some Budget.Steps);
  (* truncation must name what was NOT checked, and the skipped list must
     not claim passes that did complete *)
  Alcotest.(check bool) "skipped passes recorded" true (r.Lint.skipped <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not both completed and skipped" p)
        false
        (List.mem p r.Lint.passes))
    r.Lint.skipped;
  (* the rendered report lists the same skipped and completed passes *)
  let rendered field =
    match Json.member field (Lint.to_json r) with
    | Some (Json.List l) -> List.filter_map Json.to_string_opt l
    | _ -> Alcotest.failf "'%s' is not a list" field
  in
  Alcotest.(check (list string)) "rendered skipped" r.Lint.skipped
    (rendered "skipped");
  Alcotest.(check (list string)) "rendered passes" r.Lint.passes
    (rendered "passes");
  let full = Lint.run ~name:"untight" c in
  Alcotest.(check (list string)) "nothing skipped without budget" [] full.Lint.skipped

let test_fail_on_thresholds () =
  let clean = Lint.run (load_fixture "dead_latch.circ") in
  Alcotest.(check bool) "warnings fail --fail-on warning" true
    (Diag.fails clean.Lint.diags ~threshold:Diag.Warning);
  Alcotest.(check bool) "warnings pass --fail-on error" false
    (Diag.fails clean.Lint.diags ~threshold:Diag.Error);
  Alcotest.(check bool) "warnings fail --fail-on info" true
    (Diag.fails clean.Lint.diags ~threshold:Diag.Info);
  let bad = Lint.run (load_fixture "multi_driven.circ") in
  Alcotest.(check bool) "errors fail --fail-on error" true
    (Diag.fails bad.Lint.diags ~threshold:Diag.Error);
  let empty = { clean with Lint.diags = [] } in
  Alcotest.(check bool) "no diags never fails, even on info" false
    (Diag.fails empty.Lint.diags ~threshold:Diag.Info)

let suite =
  [
    Alcotest.test_case "comb cycle in hand graph" `Quick test_comb_cycle_hand_graph;
    Alcotest.test_case "comb self loop" `Quick test_comb_self_loop;
    Alcotest.test_case "lowered circuits acyclic" `Quick test_lowered_circuits_are_acyclic;
    Alcotest.test_case "stuck register fixture" `Quick test_stuck_register_fixture;
    Alcotest.test_case "stuck vs stuck-at faults" `Quick test_stuck_crosschecks_stuckat;
    Alcotest.test_case "hold enables" `Quick test_hold_enables;
    Alcotest.test_case "constant-false constraint" `Quick test_constant_false_constraint;
    Alcotest.test_case "dead latch fixture" `Quick test_dead_latch_fixture;
    Alcotest.test_case "constraint-only latch hint" `Quick test_constraint_only_latch_hint;
    Alcotest.test_case "floating net" `Quick test_floating_net;
    Alcotest.test_case "multi-driven fixture" `Quick test_multi_driven_fixture;
    Alcotest.test_case "unused input, vector families" `Quick test_unused_input_and_families;
    Alcotest.test_case "duplicate names, range guard" `Quick test_duplicate_names_and_range;
    Alcotest.test_case "mapping output conflict" `Quick test_mapping_output_conflict;
    Alcotest.test_case "mapping surjectivity/range" `Quick test_mapping_surjectivity_and_range;
    Alcotest.test_case "cone compatibility" `Quick test_cone_compatibility;
    Alcotest.test_case "dlx models lint clean" `Quick test_dlx_models_lint_clean;
    Alcotest.test_case "dlx hints match chain" `Quick test_dlx_hints_match_abstraction_chain;
    Alcotest.test_case "diag codes catalogued" `Quick test_diag_codes_in_catalog;
    Alcotest.test_case "budget truncation" `Quick test_budget_truncation;
    Alcotest.test_case "fail-on thresholds" `Quick test_fail_on_thresholds;
    QCheck_alcotest.to_alcotest qcheck_ternary_sound;
    QCheck_alcotest.to_alcotest qcheck_hints_match_output_cone;
  ]

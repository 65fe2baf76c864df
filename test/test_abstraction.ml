open Simcov_netlist
open Simcov_abstraction

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ^^^ ) = Expr.( ^^^ )

(* Circuit with a control register and a "datapath" register feeding
   back into control — the shape the paper's free-input promotion
   handles. *)
let mixed_circuit () =
  let open Circuit.Build in
  let ctx = create "mixed" in
  let i = input ctx "i" in
  let ctrl = reg ctx ~group:"control" "ctrl" in
  let data = reg ctx ~group:"datapath" "data" in
  assign ctx ctrl (i ^^^ data);
  assign ctx data (data ^^^ i);
  output ctx "o" ctrl;
  finish ctx

let test_free_regs_promotes_input () =
  let c = mixed_circuit () in
  let a = Netabs.free_regs c [ Circuit.reg_index c "data" ] in
  Alcotest.(check int) "one register left" 1 (Circuit.n_regs a);
  Alcotest.(check int) "one extra input" 2 (Circuit.n_inputs a);
  Alcotest.(check string) "named after the register" "free_data"
    a.Circuit.input_names.(1);
  (* ctrl's next now reads the free input where it read data *)
  let ins, regs = Expr.support a.Circuit.regs.(0).Circuit.next in
  Alcotest.(check (list int)) "reads both inputs" [ 0; 1 ] ins;
  Alcotest.(check (list int)) "no register deps" [] regs

let test_free_group () =
  let c = mixed_circuit () in
  let a = Netabs.free_group c "datapath" in
  Alcotest.(check int) "control only" 1 (Circuit.n_regs a);
  Alcotest.(check string) "kept reg" "ctrl" a.Circuit.regs.(0).Circuit.name

let test_free_regs_behavior () =
  (* Driving the freed input with the sequence the removed register
     would have produced must reproduce the original outputs. *)
  let c = mixed_circuit () in
  let a = Netabs.free_regs c [ Circuit.reg_index c "data" ] in
  let word = [ true; true; false; true; false ] in
  (* compute data's trajectory in the original *)
  let rec data_traj st acc = function
    | [] -> List.rev acc
    | i :: rest ->
        let st', _ = Circuit.step c st [| i |] in
        data_traj st' (st.(1) :: acc) rest
  in
  let datas = data_traj (Circuit.initial_state c) [] word in
  let abs_inputs = List.map2 (fun i d -> [| i; d |]) word datas in
  let orig_outs = Circuit.simulate c (List.map (fun i -> [| i |]) word) in
  let abs_outs = Circuit.simulate a abs_inputs in
  List.iter2
    (fun o1 o2 -> Alcotest.(check bool) "same output" o1.(0) o2.(0))
    orig_outs abs_outs

let test_drop_outputs () =
  let open Circuit.Build in
  let ctx = create "two_outs" in
  let i = input ctx "i" in
  let r = reg ctx "r" in
  assign ctx r i;
  output ctx "keep_me" r;
  output ctx "drop_me" (!!r);
  let c = finish ctx in
  let a = Netabs.drop_outputs c ~keep:(fun n -> n = "keep_me") in
  Alcotest.(check int) "one output left" 1 (Circuit.n_outputs a);
  Alcotest.(check string) "right one" "keep_me" a.Circuit.outputs.(0).Circuit.port_name

let test_cone_reduce_removes_dead () =
  let open Circuit.Build in
  let ctx = create "dead_state" in
  let i = input ctx "i" in
  let live = reg ctx "live" in
  let dead = reg ctx "dead" in
  assign ctx live i;
  assign ctx dead (dead ^^^ i);
  output ctx "o" live;
  let c = finish ctx in
  let a = Netabs.cone_reduce c in
  Alcotest.(check int) "dead register removed" 1 (Circuit.n_regs a);
  Alcotest.(check string) "live kept" "live" a.Circuit.regs.(0).Circuit.name

let test_remove_output_buffers () =
  let open Circuit.Build in
  let ctx = create "buffered" in
  let i = input ctx "i" in
  let core = reg ctx "core" in
  let buf = reg ctx "buf" in
  assign ctx core (core ^^^ i);
  assign ctx buf core;
  output ctx "o" buf;
  let c = finish ctx in
  let a = Netabs.remove_output_buffers c in
  Alcotest.(check int) "buffer removed" 1 (Circuit.n_regs a);
  (* output now observes core directly: one cycle earlier *)
  let word = [ [| true |]; [| false |]; [| true |]; [| true |] ] in
  let orig = Circuit.simulate c word |> List.map (fun o -> o.(0)) in
  let abs = Circuit.simulate a word |> List.map (fun o -> o.(0)) in
  (* retimed: abs output at step t equals orig output at step t+1 *)
  let rec shifted = function
    | a :: (b :: _ as rest) -> (a, b) :: shifted rest
    | _ -> []
  in
  ignore shifted;
  Alcotest.(check (list bool)) "retimed by one cycle"
    (List.tl orig)
    (List.filteri (fun idx _ -> idx < List.length orig - 1) abs)

let test_remove_output_buffers_keeps_feedback () =
  (* a register that feeds itself must not be removed *)
  let open Circuit.Build in
  let ctx = create "feedback" in
  let i = input ctx "i" in
  let r = reg ctx "toggle" in
  assign ctx r (r ^^^ i);
  output ctx "o" r;
  let c = finish ctx in
  let a = Netabs.remove_output_buffers c in
  Alcotest.(check int) "kept" 1 (Circuit.n_regs a)

let onehot_ring width =
  let open Circuit.Build in
  let ctx = create "ring" in
  let adv = input ctx "adv" in
  let regs =
    Array.init width (fun k -> reg ctx ~group:"phase" ~init:(k = 0) (Printf.sprintf "ph%d" k))
  in
  Array.iteri
    (fun k r ->
      let prev = regs.((k + width - 1) mod width) in
      assign ctx r (Expr.mux adv prev r))
    regs;
  output ctx "at_last" regs.(width - 1);
  finish ctx

let test_onehot_to_binary_counts () =
  let c = onehot_ring 4 in
  let a = Netabs.onehot_to_binary c ~group:"phase" in
  Alcotest.(check int) "4 one-hot -> 2 binary" 2 (Circuit.n_regs a);
  Alcotest.(check bool) "names tagged" true
    (a.Circuit.regs.(0).Circuit.name = "phase_bin[0]")

let test_onehot_to_binary_behavior () =
  let c = onehot_ring 4 in
  let a = Netabs.onehot_to_binary c ~group:"phase" in
  let rng = Simcov_util.Rng.create 5 in
  for _ = 1 to 20 do
    let word = List.init 10 (fun _ -> [| Simcov_util.Rng.bool rng |]) in
    let orig = Circuit.simulate c word |> List.map (fun o -> o.(0)) in
    let abs = Circuit.simulate a word |> List.map (fun o -> o.(0)) in
    Alcotest.(check (list bool)) "same observable behavior" orig abs
  done

let test_onehot_odd_size () =
  let c = onehot_ring 5 in
  let a = Netabs.onehot_to_binary c ~group:"phase" in
  Alcotest.(check int) "5 one-hot -> 3 binary" 3 (Circuit.n_regs a);
  let word = List.init 12 (fun k -> [| k mod 3 <> 0 |]) in
  let orig = Circuit.simulate c word |> List.map (fun o -> o.(0)) in
  let abs = Circuit.simulate a word |> List.map (fun o -> o.(0)) in
  Alcotest.(check (list bool)) "same behavior" orig abs

let test_run_sequence_trace () =
  let c = mixed_circuit () in
  let steps =
    [
      { Netabs.label = "free datapath"; pass = (fun c -> Netabs.free_group c "datapath") };
      { Netabs.label = "cone reduce"; pass = Netabs.cone_reduce };
    ]
  in
  let final, trace = Netabs.run_sequence c steps in
  Alcotest.(check int) "two entries" 2 (List.length trace);
  let first = List.hd trace in
  Alcotest.(check string) "label" "free datapath" first.Netabs.step_label;
  Alcotest.(check int) "before" 2 first.Netabs.regs_before;
  Alcotest.(check int) "after" 1 first.Netabs.regs_after;
  Alcotest.(check int) "final regs" 1 (Circuit.n_regs final)

(* --- Homomorphism --- *)

open Simcov_fsm

let parity_machine =
  (* 4 states = (bit0, bit1); output = bit0 xor bit1 on every step.
     Merging states by parity is an exact abstraction. *)
  Fsm.make ~n_states:4 ~n_inputs:2
    ~next:(fun s i -> s lxor (1 lsl i))
    ~output:(fun s i -> (s lxor (1 lsl i)) land 1 lxor (((s lxor (1 lsl i)) lsr 1) land 1))
    ()

let test_quotient_exact () =
  let mapping =
    {
      Homomorphism.n_abs_states = 2;
      n_abs_inputs = 2;
      state_map = (fun s -> (s land 1) lxor ((s lsr 1) land 1));
      input_map = Fun.id;
      output_map = Fun.id;
    }
  in
  match Homomorphism.quotient parity_machine mapping with
  | Error _ -> Alcotest.fail "expected exact quotient"
  | Ok abs ->
      Alcotest.(check int) "2 states" 2 abs.Fsm.n_states;
      Alcotest.(check bool) "transition preserving" true
        (Homomorphism.is_transition_preserving parity_machine abs mapping)

let test_quotient_conflict () =
  (* merging states 0 and 1 of counter3 is not exact: outputs differ *)
  let counter3 =
    Fsm.make ~n_states:3 ~n_inputs:1 ~next:(fun s _ -> (s + 1) mod 3)
      ~output:(fun s _ -> (s + 1) mod 3)
      ()
  in
  let mapping =
    {
      Homomorphism.n_abs_states = 2;
      n_abs_inputs = 1;
      state_map = (fun s -> if s = 2 then 1 else 0);
      input_map = Fun.id;
      output_map = Fun.id;
    }
  in
  match Homomorphism.quotient counter3 mapping with
  | Error c ->
      Alcotest.(check int) "conflict on merged state" 0 c.Homomorphism.abs_state
  | Ok _ -> Alcotest.fail "expected conflict"

let test_identity_mapping () =
  let m = parity_machine in
  let mapping = Homomorphism.identity_mapping m in
  match Homomorphism.quotient m mapping with
  | Ok abs -> (
      match Fsm.equivalent m abs with
      | Ok [] -> ()
      | _ -> Alcotest.fail "identity quotient differs")
  | Error _ -> Alcotest.fail "identity quotient must be exact"

let test_partition_by () =
  let m = parity_machine in
  let mapping = Homomorphism.state_partition_by m (fun s -> (s land 1) lxor (s lsr 1)) in
  Alcotest.(check int) "two classes" 2 mapping.Homomorphism.n_abs_states;
  match Homomorphism.quotient m mapping with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "parity partition is exact"

let test_forall_k_inherited () =
  (* Section 6.2: the quotient of a forall-k-distinguishable machine
     inherits the property. Verify on the parity example. *)
  let m = parity_machine in
  let mapping = Homomorphism.state_partition_by m (fun s -> (s land 1) lxor (s lsr 1)) in
  match Homomorphism.quotient m mapping with
  | Error _ -> Alcotest.fail "exact"
  | Ok abs -> (
      match (Fsm.min_forall_k m, Fsm.min_forall_k abs) with
      | Ok kc, Ok ka ->
          Alcotest.(check bool) "abstract k no worse" true (ka <= kc)
      | Error _, _ ->
          (* concrete machine has equivalent states (parity pairs!) so
             no k exists there; the abstract one must then be checked
             separately *)
          Alcotest.(check bool) "abstract has some k" true
            (Result.is_ok (Fsm.min_forall_k abs))
      | _ -> Alcotest.fail "unexpected")


(* ---- fuzzing the behavior-preserving passes ---- *)

let same_behavior rng c c' runs =
  let ok = ref true in
  for _ = 1 to runs do
    let word =
      List.init 10 (fun _ ->
          Array.init (Circuit.n_inputs c) (fun _ -> Simcov_util.Rng.bool rng))
    in
    if Circuit.simulate c word <> Circuit.simulate c' word then ok := false
  done;
  !ok

let qcheck_cone_reduce_preserves =
  QCheck.Test.make ~name:"abstraction: cone_reduce preserves observable behavior"
    ~count:80
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      let c = Gen_circuit.random_circuit ~n_inputs:2 ~n_regs:4 rng in
      same_behavior rng c (Netabs.cone_reduce c) 20)

let qcheck_constant_elim_preserves =
  QCheck.Test.make ~name:"abstraction: constant_reg_elim preserves observable behavior"
    ~count:80
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      let c = Gen_circuit.random_circuit ~n_inputs:2 ~n_regs:4 rng in
      same_behavior rng c (Netabs.constant_reg_elim c) 20)

let qcheck_tie_inputs_consistent =
  QCheck.Test.make
    ~name:"abstraction: tie_inputs equals driving the tied input constantly" ~count:80
    QCheck.(pair (int_range 1 100_000) bool)
    (fun (seed, tied_value) ->
      let rng = Simcov_util.Rng.create seed in
      let c = Gen_circuit.random_circuit ~n_inputs:3 ~n_regs:3 rng in
      let c' = Netabs.tie_inputs c [ ("i1", tied_value) ] in
      let ok = ref true in
      for _ = 1 to 20 do
        let word3 =
          List.init 10 (fun _ ->
              [| Simcov_util.Rng.bool rng; tied_value; Simcov_util.Rng.bool rng |])
        in
        let word2 = List.map (fun v -> [| v.(0); v.(2) |]) word3 in
        if Circuit.simulate c word3 <> Circuit.simulate c' word2 then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "free_regs promotes input" `Quick test_free_regs_promotes_input;
    Alcotest.test_case "free_group" `Quick test_free_group;
    Alcotest.test_case "free_regs behavior" `Quick test_free_regs_behavior;
    Alcotest.test_case "drop_outputs" `Quick test_drop_outputs;
    Alcotest.test_case "cone_reduce" `Quick test_cone_reduce_removes_dead;
    Alcotest.test_case "remove_output_buffers" `Quick test_remove_output_buffers;
    Alcotest.test_case "buffers keep feedback" `Quick test_remove_output_buffers_keeps_feedback;
    Alcotest.test_case "onehot->binary counts" `Quick test_onehot_to_binary_counts;
    Alcotest.test_case "onehot->binary behavior" `Quick test_onehot_to_binary_behavior;
    Alcotest.test_case "onehot odd size" `Quick test_onehot_odd_size;
    Alcotest.test_case "run_sequence trace" `Quick test_run_sequence_trace;
    Alcotest.test_case "quotient exact" `Quick test_quotient_exact;
    Alcotest.test_case "quotient conflict" `Quick test_quotient_conflict;
    Alcotest.test_case "identity mapping" `Quick test_identity_mapping;
    Alcotest.test_case "partition by" `Quick test_partition_by;
    Alcotest.test_case "forall-k inherited" `Quick test_forall_k_inherited;
    QCheck_alcotest.to_alcotest qcheck_cone_reduce_preserves;
    QCheck_alcotest.to_alcotest qcheck_constant_elim_preserves;
    QCheck_alcotest.to_alcotest qcheck_tie_inputs_consistent;
  ]

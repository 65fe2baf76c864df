open Simcov_dlx
open Simcov_netlist
open Simcov_abstraction

let test_initial_model_shape () =
  let c = Control.build () in
  Alcotest.(check int) "101 state elements" 101 (Circuit.n_regs c);
  Alcotest.(check int) "20 primary inputs" 20 (Circuit.n_inputs c);
  Alcotest.(check bool) "has the documented groups" true
    (List.for_all
       (fun g -> Circuit.regs_in_group c g <> [])
       [ "fetch"; "id_class"; "ex_class"; "mem_class"; "wb_class"; "interlock"; "outsync" ])

let test_abstraction_sequence_counts () =
  let _, trace = Control.derive_test_model () in
  let counts = List.map (fun (t : Netabs.trace_entry) -> t.Netabs.regs_after) trace in
  (* the Figure 3(b) analogue: a strictly decreasing chain, six steps *)
  Alcotest.(check int) "six steps" 6 (List.length counts);
  Alcotest.(check (list int)) "documented sequence" [ 88; 58; 54; 50; 34; 32 ] counts;
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly decreasing" true (decreasing (101 :: counts))

let test_each_step_removes_its_group () =
  let c = Control.build () in
  let step n = List.nth Control.abstraction_sequence n in
  let after1 = (step 0).Netabs.pass c in
  Alcotest.(check (list int)) "outsync gone" [] (Circuit.regs_in_group after1 "outsync");
  let after2 = (step 1).Netabs.pass after1 in
  Alcotest.(check int) "2-bit id_rd left" 2 (List.length (Circuit.regs_in_group after2 "id_rd"));
  let after3 = (step 2).Netabs.pass after2 in
  Alcotest.(check (list int)) "fetch gone" [] (Circuit.regs_in_group after3 "fetch");
  Alcotest.(check bool) "fetch promoted to inputs" true
    (Array.exists (fun n -> n = "free_fetch_valid") after3.Circuit.input_names);
  let after4 = (step 3).Netabs.pass after3 in
  Alcotest.(check (list int)) "debug shadow gone" [] (Circuit.regs_in_group after4 "mem_dbg");
  let after5 = (step 4).Netabs.pass after4 in
  Alcotest.(check int) "id class binary" 3 (List.length (Circuit.regs_in_group after5 "id_class"));
  let after6 = (step 5).Netabs.pass after5 in
  Alcotest.(check (list int)) "interlock gone" [] (Circuit.regs_in_group after6 "interlock")

(* random VALID input vectors for the control circuit *)
let random_valid_inputs rng (c : Circuit.t) state =
  let n = Circuit.n_inputs c in
  let rec try_once attempts =
    if attempts = 0 then None
    else begin
      let v = Array.init n (fun _ -> Simcov_util.Rng.bool rng) in
      if Circuit.input_valid c state v then Some v else try_once (attempts - 1)
    end
  in
  try_once 500

let simulate_randomly rng c steps =
  let rec go state n acc =
    if n = 0 then List.rev acc
    else
      match random_valid_inputs rng c state with
      | None -> List.rev acc
      | Some v ->
          let state', outs = Circuit.step c state v in
          go state' (n - 1) ((v, outs) :: acc)
  in
  go (Circuit.initial_state c) steps []

let test_onehot_step_preserves_behavior () =
  (* apply steps 1..4 then compare outputs before/after the one-hot
     re-encoding on shared random valid stimulus *)
  let c =
    List.fold_left
      (fun c k -> (List.nth Control.abstraction_sequence k).Netabs.pass c)
      (Control.build ()) [ 0; 1; 2; 3 ]
  in
  let c' = (List.nth Control.abstraction_sequence 4).Netabs.pass c in
  Alcotest.(check int) "same inputs" (Circuit.n_inputs c) (Circuit.n_inputs c');
  let rng = Simcov_util.Rng.create 41 in
  let trace = simulate_randomly rng c 60 in
  let rec replay state' = function
    | [] -> ()
    | (v, outs) :: rest ->
        Alcotest.(check bool) "input valid in re-encoded model" true
          (Circuit.input_valid c' state' v);
        let state'', outs' = Circuit.step c' state' v in
        Alcotest.(check (array bool)) "outputs agree" outs outs';
        replay state'' rest
  in
  replay (Circuit.initial_state c') trace

let test_stall_signal_behavior () =
  (* directed check on the initial model: a load followed by a
     dependent instruction raises the (synchronized) stall output *)
  let c = Control.build () in
  let zeros = Array.make (Circuit.n_inputs c) false in
  let instr ~cls ~rd ~rs1 =
    let v = Array.copy zeros in
    v.(0) <- true (* instr_valid *);
    (* class_in bits 1..3; rd bits 4..8; rs1 bits 9..13 *)
    for b = 0 to 2 do
      v.(1 + b) <- (cls lsr b) land 1 = 1
    done;
    for b = 0 to 4 do
      v.(4 + b) <- (rd lsr b) land 1 = 1;
      v.(9 + b) <- (rs1 lsr b) land 1 = 1
    done;
    v
  in
  let nopv =
    let v = Array.copy zeros in
    v.(0) <- true;
    for b = 0 to 2 do
      v.(1 + b) <- (6 lsr b) land 1 = 1
    done;
    v
  in
  let stall_idx =
    let found = ref (-1) in
    Array.iteri
      (fun k (o : Circuit.port) -> if o.Circuit.port_name = "stall" then found := k)
      c.Circuit.outputs;
    !found
  in
  (* cycle 1: load r1 enters ID; cycle 2: dependent ALU enters ID while
     the load is in EX -> stall computed, visible on the synchronized
     output one cycle later *)
  let inputs = [ instr ~cls:2 ~rd:1 ~rs1:2; instr ~cls:0 ~rd:3 ~rs1:1; nopv; nopv ] in
  (* the stall computes in cycle 3 (dependent in ID, load in EX) and the
     synchronized output shows it in cycle 4 *)
  let outs = Oracles.Circuit.simulate c inputs in
  let stalls = List.map (fun o -> o.(stall_idx)) outs in
  Alcotest.(check (list bool)) "stall pulse" [ false; false; false; true ] stalls

let test_final_model_simulates () =
  let final, _ = Control.derive_test_model () in
  let rng = Simcov_util.Rng.create 17 in
  let trace = simulate_randomly rng final 100 in
  Alcotest.(check int) "100 random valid steps" 100 (List.length trace)

let suite =
  [
    Alcotest.test_case "initial model shape" `Quick test_initial_model_shape;
    Alcotest.test_case "sequence counts" `Quick test_abstraction_sequence_counts;
    Alcotest.test_case "steps remove groups" `Quick test_each_step_removes_its_group;
    Alcotest.test_case "onehot preserves behavior" `Quick test_onehot_step_preserves_behavior;
    Alcotest.test_case "stall signal" `Quick test_stall_signal_behavior;
    Alcotest.test_case "final model simulates" `Quick test_final_model_simulates;
  ]

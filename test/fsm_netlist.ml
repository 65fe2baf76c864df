(* An explicit machine as a netlist, for the symbolic tests: states and
   inputs packed little-endian into latches and primary inputs, each
   next-state and output bit the sum of the minterms of the (state,
   input) pairs that set it, and validity the sum over every listed
   transition (so unused encodings are invalid). *)

open Simcov_fsm
open Simcov_netlist

let bits_needed n =
  let rec go k acc = if k <= 1 then max acc 1 else go ((k + 1) / 2) (acc + 1) in
  go n 0

let circuit (m : Fsm.t) =
  let open Circuit.Build in
  let ctx = create "fsm" in
  let inp = input_vec ctx "x" (bits_needed m.Fsm.n_inputs) in
  let st = reg_vec ctx ~init:m.Fsm.reset "s" (bits_needed m.Fsm.n_states) in
  let transitions = Fsm.transitions m in
  let where p =
    Expr.disj
      (List.filter_map
         (fun ((s, i, _, _) as t) ->
           if p t then Some Expr.(Vec.eq_const st s &&& Vec.eq_const inp i) else None)
         transitions)
  in
  let bit v b = (v lsr b) land 1 = 1 in
  Array.iteri (fun b r -> assign ctx r (where (fun (_, _, s', _) -> bit s' b))) st;
  let n_outputs = List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 transitions in
  output_vec ctx "o"
    (Array.init (bits_needed n_outputs) (fun b -> where (fun (_, _, _, o) -> bit o b)));
  constrain ctx (where (fun _ -> true));
  finish ctx

let of_fsm m = Simcov_symbolic.Symfsm.of_circuit (circuit m)

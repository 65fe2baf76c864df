(* The one random-netlist generator of the property tests: [n_inputs]
   inputs (default 1–3), [n_regs] registers (default 1–4), depth-3
   next-state and output functions over inputs, registers and
   constants, and — with [constrained] — an input constraint on about
   a third of the draws. *)

module Rng = Simcov_util.Rng
module Expr = Simcov_netlist.Expr
module Circuit = Simcov_netlist.Circuit

let random_circuit ?n_inputs ?n_regs ?(constrained = false) rng =
  let size given k = match given with Some n -> n | None -> 1 + Rng.int rng k in
  let n_inputs = size n_inputs 3 in
  let n_regs = size n_regs 4 in
  let rec gen depth =
    if depth = 0 then
      match Rng.int rng 4 with
      | 0 -> Expr.input (Rng.int rng n_inputs)
      | 1 | 2 -> Expr.reg (Rng.int rng n_regs)
      | _ -> Expr.const (Rng.bool rng)
    else
      match Rng.int rng 6 with
      | 0 -> Expr.( !! ) (gen (depth - 1))
      | 1 -> Expr.( &&& ) (gen (depth - 1)) (gen (depth - 1))
      | 2 -> Expr.( ||| ) (gen (depth - 1)) (gen (depth - 1))
      | 3 -> Expr.( ^^^ ) (gen (depth - 1)) (gen (depth - 1))
      | 4 -> Expr.mux (gen (depth - 1)) (gen (depth - 1)) (gen (depth - 1))
      | _ -> gen (depth - 1)
  in
  let regs =
    Array.init n_regs (fun r ->
        {
          Circuit.name = Printf.sprintf "r%d" r;
          group = "g";
          init = Rng.bool rng;
          next = gen 3;
        })
  in
  let outputs = [| { Circuit.port_name = "o"; expr = gen 3 } |] in
  {
    Circuit.name = "rand";
    input_names = Array.init n_inputs (Printf.sprintf "i%d");
    regs;
    outputs;
    input_constraint =
      (if constrained && Rng.int rng 3 = 0 then
         Expr.( ||| ) (Expr.input 0) (gen 1)
       else Expr.tru);
  }

open Simcov_netlist
module Budget = Simcov_util.Budget

type value = Zero | One | Both

let of_bool b = if b then One else Zero
let join a b = if a = b then a else Both
let to_string = function Zero -> "0" | One -> "1" | Both -> "X"

let v_not = function Zero -> One | One -> Zero | Both -> Both

let v_and a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | _ -> Both

let v_or a b =
  match (a, b) with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | _ -> Both

let v_xor a b =
  match (a, b) with
  | Both, _ | _, Both -> Both
  | a, b -> if a = b then Zero else One

(* Ternary evaluation with the usual short-circuits ([Zero] absorbs
   [and], [One] absorbs [or], a known select picks its mux branch, and
   [x xor x] over an unknown stays unknown). *)
let rec eval ~inputs ~regs = function
  | Expr.Const b -> of_bool b
  | Expr.Input i -> inputs i
  | Expr.Reg r -> regs r
  | Expr.Not e -> v_not (eval ~inputs ~regs e)
  | Expr.And (a, b) -> v_and (eval ~inputs ~regs a) (eval ~inputs ~regs b)
  | Expr.Or (a, b) -> v_or (eval ~inputs ~regs a) (eval ~inputs ~regs b)
  | Expr.Xor (a, b) -> v_xor (eval ~inputs ~regs a) (eval ~inputs ~regs b)
  | Expr.Mux (s, h, l) -> (
      match eval ~inputs ~regs s with
      | One -> eval ~inputs ~regs h
      | Zero -> eval ~inputs ~regs l
      | Both -> join (eval ~inputs ~regs h) (eval ~inputs ~regs l))

type result = {
  reg_values : value array;
  output_values : value array;
  constraint_value : value;
  sweeps : int;
}

let analyze ?(budget = Budget.unlimited) (c : Circuit.t) =
  let nr = Circuit.n_regs c in
  let reg_values = Array.map (fun (r : Circuit.reg) -> of_bool r.Circuit.init) c.Circuit.regs in
  let inputs _ = Both in
  let regs r = reg_values.(r) in
  let sweeps = ref 0 in
  let changed = ref true in
  while !changed do
    Budget.step budget;
    incr sweeps;
    changed := false;
    for r = 0 to nr - 1 do
      let next = eval ~inputs ~regs c.Circuit.regs.(r).Circuit.next in
      let joined = join reg_values.(r) next in
      if joined <> reg_values.(r) then begin
        reg_values.(r) <- joined;
        changed := true
      end
    done
  done;
  {
    reg_values;
    output_values =
      Array.map (fun (o : Circuit.port) -> eval ~inputs ~regs o.Circuit.expr) c.Circuit.outputs;
    constraint_value = eval ~inputs ~regs c.Circuit.input_constraint;
    sweeps = !sweeps;
  }

(* [mux sel update self] / [mux sel self update] hold patterns: the
   enable expression that must pulse for the register to take a new
   value. *)
let hold_enable r next =
  match next with
  | Expr.Mux (sel, _, Expr.Reg r') when r' = r -> Some sel
  | Expr.Mux (sel, Expr.Reg r', _) when r' = r -> Some (Expr.( !! ) sel)
  | _ -> None

let check ?(budget = Budget.unlimited) (c : Circuit.t) =
  let res = analyze ~budget c in
  let inputs _ = Both in
  let regs r = res.reg_values.(r) in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* SA203/SA204: hold-pattern enables, evaluated at the fixpoint *)
  let has_sa203 = Array.make (Circuit.n_regs c) false in
  Array.iteri
    (fun r (rg : Circuit.reg) ->
      match hold_enable r rg.Circuit.next with
      | None -> ()
      | Some en -> (
          match eval ~inputs ~regs en with
          | Zero ->
              has_sa203.(r) <- true;
              add
                (Diag.make ~code:"SA203" ~severity:Diag.Warning ~pass:"ternary-const"
                   ~loc:(Diag.Register rg.Circuit.name)
                   (Printf.sprintf
                      "update never enabled: the hold-mux select is constant 0, so \
                       '%s' keeps its reset value %s forever"
                      rg.Circuit.name
                      (to_string (of_bool rg.Circuit.init))))
          | One ->
              add
                (Diag.make ~code:"SA204" ~severity:Diag.Info ~pass:"ternary-const"
                   ~loc:(Diag.Register rg.Circuit.name)
                   "hold mux is degenerate: the update is always enabled, the hold \
                    arm is dead logic")
          | Both -> ()))
    c.Circuit.regs;
  (* SA201: stuck registers (unless the more specific SA203 already
     explains why) *)
  Array.iteri
    (fun r (rg : Circuit.reg) ->
      match res.reg_values.(r) with
      | Both -> ()
      | (Zero | One) as v ->
          if not has_sa203.(r) then
            add
              (Diag.make ~code:"SA201" ~severity:Diag.Warning ~pass:"ternary-const"
                 ~loc:(Diag.Register rg.Circuit.name)
                 (Printf.sprintf
                    "stuck at %s: no input sequence ever moves '%s' off its reset \
                     value (the stuck-at-%s fault here is untestable)"
                    (to_string v) rg.Circuit.name (to_string v))))
    c.Circuit.regs;
  (* SA202: constant outputs *)
  Array.iteri
    (fun o (p : Circuit.port) ->
      match res.output_values.(o) with
      | Both -> ()
      | (Zero | One) as v ->
          add
            (Diag.make ~code:"SA202" ~severity:Diag.Warning ~pass:"ternary-const"
               ~loc:(Diag.Output_port p.Circuit.port_name)
               (Printf.sprintf "output is constant %s under 0/1/X propagation"
                  (to_string v))))
    c.Circuit.outputs;
  (* SA205: unsatisfiable input constraint *)
  (match res.constraint_value with
  | Zero ->
      add
        (Diag.make ~code:"SA205" ~severity:Diag.Error ~pass:"ternary-const"
           ~loc:Diag.Whole_circuit
           "input constraint is constant false: no input combination is ever \
            valid, every simulation step is rejected")
  | One | Both -> ());
  List.rev !diags

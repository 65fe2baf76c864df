type reg = { name : string; group : string; init : bool; next : Expr.t }
type port = { port_name : string; expr : Expr.t }

type t = {
  name : string;
  input_names : string array;
  regs : reg array;
  outputs : port array;
  input_constraint : Expr.t;
}

let n_inputs c = Array.length c.input_names
let n_regs c = Array.length c.regs
let n_outputs c = Array.length c.outputs

let gate_count c =
  let total = ref (Expr.size c.input_constraint) in
  Array.iter (fun r -> total := !total + Expr.size r.next) c.regs;
  Array.iter (fun o -> total := !total + Expr.size o.expr) c.outputs;
  !total

let reg_index c name =
  let found = ref (-1) in
  Array.iteri (fun i (r : reg) -> if r.name = name then found := i) c.regs;
  if !found < 0 then raise Not_found else !found

let regs_in_group c group =
  let acc = ref [] in
  Array.iteri (fun i r -> if r.group = group then acc := i :: !acc) c.regs;
  List.rev !acc

let groups c =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem seen r.group) then begin
        Hashtbl.add seen r.group ();
        acc := r.group :: !acc
      end)
    c.regs;
  List.rev !acc

type state = bool array

let initial_state c = Array.map (fun r -> r.init) c.regs

let input_valid c state inputs =
  Expr.eval ~inputs:(fun i -> inputs.(i)) ~regs:(fun r -> state.(r)) c.input_constraint

let step c state inputs =
  assert (Array.length state = n_regs c);
  if Array.length inputs <> n_inputs c then
    invalid_arg "Circuit.step: input vector width mismatch";
  if not (input_valid c state inputs) then
    invalid_arg "Circuit.step: input combination violates the constraint";
  let inputs_f i = inputs.(i) and regs_f r = state.(r) in
  let next = Array.map (fun r -> Expr.eval ~inputs:inputs_f ~regs:regs_f r.next) c.regs in
  let outs =
    Array.map (fun o -> Expr.eval ~inputs:inputs_f ~regs:regs_f o.expr) c.outputs
  in
  (next, outs)

let simulate c input_seq =
  let rec go state acc = function
    | [] -> List.rev acc
    | inputs :: rest ->
        let state', outs = step c state inputs in
        go state' (outs :: acc) rest
  in
  go (initial_state c) [] input_seq

let reg_support_closure c seeds =
  let n = n_regs c in
  let in_set = Array.make n false in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if not in_set.(r) then begin
        in_set.(r) <- true;
        Queue.add r queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let r = Queue.pop queue in
    let _, dep_regs = Expr.support c.regs.(r).next in
    List.iter
      (fun d ->
        if not in_set.(d) then begin
          in_set.(d) <- true;
          Queue.add d queue
        end)
      dep_regs
  done;
  let acc = ref [] in
  for r = n - 1 downto 0 do
    if in_set.(r) then acc := r :: !acc
  done;
  !acc

let output_cone c =
  let seeds =
    Array.fold_left
      (fun acc o ->
        let _, rs = Expr.support o.expr in
        List.rev_append rs acc)
      [] c.outputs
  in
  reg_support_closure c seeds

let to_fsm ?(max_state_bits = 20) c =
  let nr = n_regs c and ni = n_inputs c in
  if nr > max_state_bits then
    invalid_arg
      (Printf.sprintf "Circuit.to_fsm: %d registers exceed the explicit limit %d" nr
         max_state_bits);
  if ni > 20 then invalid_arg "Circuit.to_fsm: too many inputs to enumerate";
  let n_states = 1 lsl nr and n_inputs = 1 lsl ni in
  let unpack_state s r = (s lsr r) land 1 = 1 in
  let unpack_input v i = (v lsr i) land 1 = 1 in
  let reset =
    Array.to_list (initial_state c)
    |> List.mapi (fun i b -> if b then 1 lsl i else 0)
    |> List.fold_left ( lor ) 0
  in
  let eval_next s v =
    let inputs = unpack_input v and regs = unpack_state s in
    let acc = ref 0 in
    Array.iteri
      (fun r (rg : reg) -> if Expr.eval ~inputs ~regs rg.next then acc := !acc lor (1 lsl r))
      c.regs;
    !acc
  in
  let eval_output s v =
    let inputs = unpack_input v and regs = unpack_state s in
    let acc = ref 0 in
    Array.iteri
      (fun i o -> if Expr.eval ~inputs ~regs o.expr then acc := !acc lor (1 lsl i))
      c.outputs;
    !acc
  in
  let valid s v =
    Expr.eval ~inputs:(unpack_input v) ~regs:(unpack_state s) c.input_constraint
  in
  Simcov_fsm.Fsm.make ~reset ~valid ~n_states ~n_inputs ~next:eval_next
    ~output:eval_output
    ~state_name:(fun s -> Printf.sprintf "%s[%0*x]" c.name ((nr + 3) / 4) s)
    ~input_name:(fun v -> Printf.sprintf "%0*x" ((ni + 3) / 4) v)
    ()

module Build = struct
  type build_error = {
    circuit : string;
    doubly_assigned : string list;
    never_assigned : string list;
  }

  exception Build_error of build_error

  let build_error_to_string e =
    let clause label = function
      | [] -> []
      | names -> [ Printf.sprintf "%s: %s" label (String.concat ", " names) ]
    in
    Printf.sprintf "Circuit.Build \"%s\": %s" e.circuit
      (String.concat "; "
         (clause "assigned twice" e.doubly_assigned
         @ clause "never assigned" e.never_assigned))

  type pending_reg = {
    p_name : string;
    p_group : string;
    p_init : bool;
    mutable p_next : Expr.t option;
  }

  type ctx = {
    c_name : string;
    mutable inputs : string list; (* reversed *)
    mutable n_in : int;
    mutable pregs : pending_reg list; (* reversed *)
    mutable n_reg : int;
    mutable outs : port list; (* reversed *)
    mutable constr : Expr.t;
    mutable dups : string list; (* doubly-assigned register names, reversed *)
  }

  let create c_name =
    {
      c_name;
      inputs = [];
      n_in = 0;
      pregs = [];
      n_reg = 0;
      outs = [];
      constr = Expr.tru;
      dups = [];
    }

  let input ctx name =
    let i = ctx.n_in in
    ctx.inputs <- name :: ctx.inputs;
    ctx.n_in <- i + 1;
    Expr.input i

  let input_vec ctx name width =
    Array.init width (fun b -> input ctx (Printf.sprintf "%s[%d]" name b))

  let reg ctx ?(group = "main") ?(init = false) name =
    let r = ctx.n_reg in
    ctx.pregs <- { p_name = name; p_group = group; p_init = init; p_next = None } :: ctx.pregs;
    ctx.n_reg <- r + 1;
    Expr.reg r

  let reg_vec ctx ?(group = "main") ?(init = 0) name width =
    Array.init width (fun b ->
        reg ctx ~group ~init:((init lsr b) land 1 = 1) (Printf.sprintf "%s[%d]" name b))

  let find_pending ctx idx =
    (* pregs is reversed: register k lives at position n_reg - 1 - k *)
    List.nth ctx.pregs (ctx.n_reg - 1 - idx)

  (* a double assignment is recorded (keeping the first) rather than
     raised, so finish can report every offender at once *)
  let assign ctx r next =
    match r with
    | Expr.Reg idx ->
        let p = find_pending ctx idx in
        (match p.p_next with
        | Some _ -> ctx.dups <- p.p_name :: ctx.dups
        | None -> p.p_next <- Some next)
    | _ -> invalid_arg "Circuit.Build.assign: not a register expression"

  let output ctx port_name expr = ctx.outs <- { port_name; expr } :: ctx.outs

  let output_vec ctx name v =
    Array.iteri (fun i e -> output ctx (Printf.sprintf "%s[%d]" name i) e) v

  let constrain ctx e = ctx.constr <- Expr.( &&& ) ctx.constr e

  let finish ctx =
    let missing =
      List.rev
        (List.filter_map
           (fun p -> if p.p_next = None then Some p.p_name else None)
           ctx.pregs)
    in
    if missing <> [] || ctx.dups <> [] then
      raise
        (Build_error
           {
             circuit = ctx.c_name;
             doubly_assigned = List.rev ctx.dups;
             never_assigned = missing;
           });
    let regs =
      List.rev_map
        (fun p ->
          match p.p_next with
          | None -> assert false
          | Some next -> { name = p.p_name; group = p.p_group; init = p.p_init; next })
        ctx.pregs
      |> Array.of_list
    in
    {
      name = ctx.c_name;
      input_names = Array.of_list (List.rev ctx.inputs);
      regs;
      outputs = Array.of_list (List.rev ctx.outs);
      input_constraint = ctx.constr;
    }
end

let pp_stats ppf c =
  Format.fprintf ppf "%s: %d inputs, %d regs, %d outputs, %d gates" c.name (n_inputs c)
    (n_regs c) (n_outputs c) (gate_count c)

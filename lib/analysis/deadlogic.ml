open Simcov_netlist
module Json = Simcov_util.Json

type hint = {
  reg_name : string;
  reg_index : int;
  group : string;
  feeds_constraint : bool;
  next_gates : int;
}

type analysis = {
  graph : Netgraph.t;
  map : Netgraph.circuit_map;
  observable : bool array;
  feeds_constraint : bool array;
}

let analyze_graph (g, m) =
  let observable = Netgraph.observable g in
  let feeds_constraint =
    match m.Netgraph.constraint_net with
    | None -> Array.make (Netgraph.n_nets g) false
    | Some root -> Netgraph.reaches g root
  in
  { graph = g; map = m; observable; feeds_constraint }

let hints_of (c : Circuit.t) { map = m; observable = obs; feeds_constraint = feeds; _ } =
  let acc = ref [] in
  Array.iteri
    (fun r (rg : Circuit.reg) ->
      let net = m.Netgraph.reg_net.(r) in
      if not obs.(net) then
        acc :=
          {
            reg_name = rg.Circuit.name;
            reg_index = r;
            group = rg.Circuit.group;
            feeds_constraint = feeds.(net);
            next_gates = Expr.size rg.Circuit.next;
          }
          :: !acc)
    c.Circuit.regs;
  List.rev !acc

let hint_to_json h =
  Json.Obj
    [
      ("register", Json.String h.reg_name);
      ("index", Json.Int h.reg_index);
      ("group", Json.String h.group);
      ("feeds_constraint", Json.Bool h.feeds_constraint);
      ("next_gates", Json.Int h.next_gates);
    ]

(* a gate net is dead when it can reach neither an output nor the
   input constraint (constraint logic shapes the valid input space, so
   it is not junk even though it is unobservable) *)
let count_dead_gates g obs feeds =
  let count = ref 0 in
  for net = 0 to Netgraph.n_nets g - 1 do
    if (not obs.(net)) && not feeds.(net) then
      if
        List.exists
          (fun (kind, _) ->
            match kind with Netgraph.Gate _ -> true | _ -> false)
          (Netgraph.drivers g net)
      then incr count
  done;
  !count

let check_of (c : Circuit.t)
    { graph = g; map = m; observable = obs; feeds_constraint = feeds } =
  let diags = ref [] in
  Array.iteri
    (fun r (rg : Circuit.reg) ->
      let net = m.Netgraph.reg_net.(r) in
      if not obs.(net) then
        diags :=
          Diag.make ~code:"SA301" ~severity:Diag.Warning ~pass:"dead-logic"
            ~loc:(Diag.Register rg.Circuit.name)
            (Printf.sprintf
               "latch '%s' (group '%s') lies outside every primary-output cone%s \
                — a state element that cannot affect outputs; abstraction \
                candidate for Netabs.cone_reduce"
               rg.Circuit.name rg.Circuit.group
               (if feeds.(net) then
                  " (it does feed the input constraint, so removing it also \
                   relaxes input validity)"
                else ""))
          :: !diags)
    c.Circuit.regs;
  let dead_gates = count_dead_gates g obs feeds in
  if dead_gates > 0 then
    diags :=
      Diag.make ~code:"SA302" ~severity:Diag.Info ~pass:"dead-logic"
        ~loc:Diag.Whole_circuit
        (Printf.sprintf
           "%d distinct gate net%s lie%s outside every primary-output cone"
           dead_gates
           (if dead_gates = 1 then "" else "s")
           (if dead_gates = 1 then "s" else ""))
      :: !diags;
  List.rev !diags

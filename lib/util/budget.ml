type resource = Time | Steps | Nodes

exception Budget_exceeded of resource

type t = {
  deadline : float option;  (* absolute, Unix.gettimeofday timebase *)
  max_steps : int option;
  max_nodes : int option;
  mutable steps : int;
  mutable node_probe : (unit -> int) option;
      (* live-node reading registered by the engine that owns the
         node-bearing resource (a BDD manager); see budget.mli for the
         enforcement split *)
}

let unlimited =
  { deadline = None; max_steps = None; max_nodes = None; steps = 0; node_probe = None }

let create ?timeout_s ?max_steps ?max_nodes () =
  let deadline =
    match timeout_s with
    | None -> None
    | Some s ->
        if s < 0.0 then invalid_arg "Budget.create: negative timeout";
        Some (Unix.gettimeofday () +. s)
  in
  (match max_steps with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative step budget"
  | _ -> ());
  (match max_nodes with
  | Some n when n <= 0 -> invalid_arg "Budget.create: non-positive node budget"
  | _ -> ());
  { deadline; max_steps; max_nodes; steps = 0; node_probe = None }

let max_nodes t = t.max_nodes
let steps_used t = t.steps

let set_node_probe t probe =
  (* the shared [unlimited] singleton must stay stateless (cf. [step]) *)
  if t != unlimited then t.node_probe <- probe

let exceeded t =
  match t.deadline with
  | Some d when Unix.gettimeofday () >= d -> Some Time
  | _ -> (
      match t.max_steps with
      | Some m when t.steps >= m -> Some Steps
      | _ -> (
          match (t.max_nodes, t.node_probe) with
          | Some m, Some probe when probe () > m -> Some Nodes
          | _ -> None))

let check t =
  match exceeded t with None -> () | Some r -> raise (Budget_exceeded r)

let step t =
  (* the shared [unlimited] value must stay inert: counting steps on it
     would leak accumulated state across unrelated computations *)
  if t != unlimited then begin
    t.steps <- t.steps + 1;
    check t
  end

let split t ~n =
  if n < 1 then invalid_arg "Budget.split: need at least one child";
  if t == unlimited then Array.init n (fun _ -> create ())
  else
    let child allowance =
      {
        deadline = t.deadline;
        max_steps = allowance;
        max_nodes = t.max_nodes;
        steps = 0;
        node_probe = None;
      }
    in
    match t.max_steps with
    | None -> Array.init n (fun _ -> child None)
    | Some m ->
        (* Carve the parent's *remaining* allowance into disjoint child
           slices and charge the parent for all of it up front — the
           children now own those steps; [reclaim] hands back whatever a
           finished child did not spend. *)
        let remaining = max 0 (m - t.steps) in
        t.steps <- m;
        let base = remaining / n and extra = remaining mod n in
        Array.init n (fun i ->
            child (Some (base + if i < extra then 1 else 0)))

let reclaim t child =
  if t != unlimited then
    match (t.max_steps, child.max_steps) with
    | Some _, Some m ->
        let unspent = max 0 (m - child.steps) in
        t.steps <- max 0 (t.steps - unspent)
    | _ -> ()

let resource_name = function
  | Time -> "time"
  | Steps -> "steps"
  | Nodes -> "nodes"


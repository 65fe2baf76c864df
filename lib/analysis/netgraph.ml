open Simcov_netlist
module Digraph = Simcov_graph.Digraph

type cell_kind = Pi | Cst of bool | Gate of string | Latch of bool

type net = {
  net_name : string;
  mutable net_drivers : (cell_kind * int list) list;  (* reversed *)
}

type t = {
  mutable nets : net array;  (* grow-on-demand *)
  mutable count : int;
  by_name : (string, int) Hashtbl.t;
  mutable po_rev : int list;
  po_set : (int, unit) Hashtbl.t;
}

let create () =
  {
    nets = Array.make 64 { net_name = ""; net_drivers = [] };
    count = 0;
    by_name = Hashtbl.create 64;
    po_rev = [];
    po_set = Hashtbl.create 16;
  }

let n_nets g = g.count

let add_net g ?name () =
  let id = g.count in
  let net_name = match name with Some n -> n | None -> Printf.sprintf "$n%d" id in
  if id = Array.length g.nets then begin
    let bigger = Array.make (2 * id) g.nets.(0) in
    Array.blit g.nets 0 bigger 0 id;
    g.nets <- bigger
  end;
  g.nets.(id) <- { net_name; net_drivers = [] };
  g.count <- id + 1;
  if not (Hashtbl.mem g.by_name net_name) then Hashtbl.add g.by_name net_name id;
  id

let find_or_add_net g name =
  match Hashtbl.find_opt g.by_name name with
  | Some id -> id
  | None -> add_net g ~name ()

let add_driver g ~net ~kind ~fanin =
  let n = g.nets.(net) in
  n.net_drivers <- (kind, fanin) :: n.net_drivers

let mark_po g id =
  if not (Hashtbl.mem g.po_set id) then begin
    Hashtbl.add g.po_set id ();
    g.po_rev <- id :: g.po_rev
  end

let name g id = g.nets.(id).net_name
let drivers g id = List.rev g.nets.(id).net_drivers
let pos g = List.rev g.po_rev

let fanout_count g =
  let counts = Array.make g.count 0 in
  for id = 0 to g.count - 1 do
    List.iter
      (fun (_, fanin) -> List.iter (fun f -> counts.(f) <- counts.(f) + 1) fanin)
      g.nets.(id).net_drivers
  done;
  counts

let comb_digraph g =
  let dg = Digraph.create g.count in
  for id = 0 to g.count - 1 do
    List.iter
      (fun (kind, fanin) ->
        match kind with
        | Latch _ -> ()
        | _ ->
            List.iter
              (fun f -> ignore (Digraph.add_edge dg ~src:f ~dst:id ~label:0 ~cost:0))
              fanin)
      g.nets.(id).net_drivers
  done;
  dg

(* reverse reachability from [seeds] over the full graph *)
let reverse_reach g seeds =
  let seen = Array.make g.count false in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if not seen.(s) then begin
        seen.(s) <- true;
        Queue.add s queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    List.iter
      (fun (_, fanin) ->
        List.iter
          (fun f ->
            if not seen.(f) then begin
              seen.(f) <- true;
              Queue.add f queue
            end)
          fanin)
      g.nets.(id).net_drivers
  done;
  seen

let observable g = reverse_reach g (pos g)
let reaches g target = reverse_reach g [ target ]

type circuit_map = {
  input_net : int array;
  reg_net : int array;
  output_net : int array;
  constraint_net : int option;
}

let of_circuit (c : Circuit.t) =
  let g = create () in
  let input_net =
    Array.map (fun n ->
        let id = add_net g ~name:n () in
        add_driver g ~net:id ~kind:Pi ~fanin:[];
        id)
      c.Circuit.input_names
  in
  (* latch output nets first, so next-state expressions can refer to
     them before their drivers are attached *)
  let reg_net =
    Array.map (fun (r : Circuit.reg) -> add_net g ~name:r.Circuit.name ()) c.Circuit.regs
  in
  (* hash-consed lowering of expression nodes: one net per distinct
     (op, fanin) shape, so shared logic is shared in the graph *)
  let cache : (string * int list, int) Hashtbl.t = Hashtbl.create 256 in
  let cell op fanin =
    match Hashtbl.find_opt cache (op, fanin) with
    | Some id -> id
    | None ->
        let id = add_net g () in
        (match op with
        | "const0" -> add_driver g ~net:id ~kind:(Cst false) ~fanin:[]
        | "const1" -> add_driver g ~net:id ~kind:(Cst true) ~fanin:[]
        | _ -> add_driver g ~net:id ~kind:(Gate op) ~fanin);
        Hashtbl.add cache (op, fanin) id;
        id
  in
  let rec lower e =
    match e with
    | Expr.Const b -> cell (if b then "const1" else "const0") []
    | Expr.Input i -> input_net.(i)
    | Expr.Reg r -> reg_net.(r)
    | Expr.Not a -> cell "not" [ lower a ]
    | Expr.And (a, b) -> cell "and" [ lower a; lower b ]
    | Expr.Or (a, b) -> cell "or" [ lower a; lower b ]
    | Expr.Xor (a, b) -> cell "xor" [ lower a; lower b ]
    | Expr.Mux (s, h, l) -> cell "mux" [ lower s; lower h; lower l ]
  in
  Array.iteri
    (fun i (r : Circuit.reg) ->
      add_driver g ~net:reg_net.(i) ~kind:(Latch r.Circuit.init)
        ~fanin:[ lower r.Circuit.next ])
    c.Circuit.regs;
  (* output nets are keyed by port name (in a namespace of their own,
     so a port legitimately named like an input or register does not
     collide): a duplicated port name becomes one net with two
     drivers, i.e. a multiply-driven net *)
  let out_by_name = Hashtbl.create 16 in
  let output_net =
    Array.map
      (fun (o : Circuit.port) ->
        let id =
          match Hashtbl.find_opt out_by_name o.Circuit.port_name with
          | Some id -> id
          | None ->
              let id = add_net g ~name:o.Circuit.port_name () in
              Hashtbl.add out_by_name o.Circuit.port_name id;
              id
        in
        add_driver g ~net:id ~kind:(Gate "buf") ~fanin:[ lower o.Circuit.expr ];
        mark_po g id;
        id)
      c.Circuit.outputs
  in
  let constraint_net =
    if c.Circuit.input_constraint = Expr.tru then None
    else begin
      let id = add_net g ~name:"$constraint" () in
      add_driver g ~net:id ~kind:(Gate "buf") ~fanin:[ lower c.Circuit.input_constraint ];
      Some id
    end
  in
  (g, { input_net; reg_net; output_net; constraint_net })

module Digraph = Simcov_graph.Digraph
module Scc = Simcov_graph.Scc

(* A concrete cycle through [start], walking out-edges restricted to
   the SCC [comp_id]. Any walk that never leaves an SCC must revisit a
   net; the loop from the first revisit is the reported path. *)
let cycle_path dg comp comp_id start =
  let order = Hashtbl.create 8 in
  let path = ref [] in
  (* explicit loop (not recursion): SCCs of lowered netlists can span
     the whole design, and the walk is as long as the component *)
  let v = ref start and len = ref 0 and result = ref None in
  while !result = None do
    match Hashtbl.find_opt order !v with
    | Some first ->
        (* drop the lead-in before the first revisited net *)
        let cyc = List.filteri (fun i _ -> i >= first) (List.rev !path) in
        result := Some (cyc @ [ !v ])
    | None -> (
        Hashtbl.add order !v !len;
        path := !v :: !path;
        let next =
          List.find_map
            (fun (e : Digraph.edge) ->
              if comp.(e.Digraph.dst) = comp_id then Some e.Digraph.dst else None)
            (Digraph.out_edges dg !v)
        in
        match next with
        | Some w ->
            v := w;
            incr len
        | None -> result := Some [ !v ] (* unreachable for a true SCC; defensive *))
  done;
  Option.get !result

let check_graph g =
  let dg = Netgraph.comb_digraph g in
  let comp, k = Scc.components dg in
  let size = Array.make k 0 in
  let first_member = Array.make k (-1) in
  for v = Netgraph.n_nets g - 1 downto 0 do
    size.(comp.(v)) <- size.(comp.(v)) + 1;
    first_member.(comp.(v)) <- v
  done;
  let self_loop = Array.make (Netgraph.n_nets g) false in
  Digraph.iter_edges
    (fun e -> if e.Digraph.src = e.Digraph.dst then self_loop.(e.Digraph.src) <- true)
    dg;
  let diags = ref [] in
  for c = 0 to k - 1 do
    let v = first_member.(c) in
    if v >= 0 && (size.(c) > 1 || self_loop.(v)) then begin
      let path = cycle_path dg comp c v in
      let names = List.map (Netgraph.name g) path in
      diags :=
        Diag.make ~code:"SA101" ~severity:Diag.Error ~pass:"comb-cycle"
          ~loc:(Diag.Net (Netgraph.name g v))
          ~related:names
          (Printf.sprintf
             "combinational cycle through %d net%s: unclocked feedback has no \
              fixed-point semantics here"
             (List.length path - 1)
             (if List.length path - 1 = 1 then "" else "s"))
        :: !diags
    end
  done;
  List.rev !diags

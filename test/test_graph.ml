open Simcov_graph

let build_graph n edges =
  let g = Digraph.create n in
  List.iter
    (fun (src, dst) -> ignore (Digraph.add_edge g ~src ~dst ~label:0 ~cost:1))
    edges;
  g

let build_weighted n edges =
  let g = Digraph.create n in
  List.iter
    (fun (src, dst, cost) -> ignore (Digraph.add_edge g ~src ~dst ~label:0 ~cost))
    edges;
  g

let test_digraph_basics () =
  let g = Digraph.create 3 in
  let e0 = Digraph.add_edge g ~src:0 ~dst:1 ~label:5 ~cost:2 in
  let _ = Digraph.add_edge g ~src:1 ~dst:2 ~label:7 ~cost:3 in
  Alcotest.(check int) "n_vertices" 3 (Digraph.n_vertices g);
  Alcotest.(check int) "n_edges" 2 (Digraph.n_edges g);
  let e = Digraph.edge g e0 in
  Alcotest.(check int) "src" 0 e.Digraph.src;
  Alcotest.(check int) "dst" 1 e.Digraph.dst;
  Alcotest.(check int) "label" 5 e.Digraph.label;
  Alcotest.(check int) "out_degree" 1 (Digraph.out_degree g 0);
  Alcotest.(check int) "in_degree" 1 (Digraph.in_degree g 2)

let test_digraph_parallel_edges () =
  let g = Digraph.create 2 in
  let _ = Digraph.add_edge g ~src:0 ~dst:1 ~label:0 ~cost:1 in
  let _ = Digraph.add_edge g ~src:0 ~dst:1 ~label:1 ~cost:1 in
  Alcotest.(check int) "two parallel edges" 2 (List.length (Digraph.out_edges g 0))

let test_digraph_reverse () =
  let g = build_graph 3 [ (0, 1); (1, 2) ] in
  let r = Digraph.reverse g in
  Alcotest.(check int) "reversed out-degree of 2" 1 (Digraph.out_degree r 2);
  Alcotest.(check int) "reversed out-degree of 0" 0 (Digraph.out_degree r 0)

let test_scc_single_cycle () =
  let g = build_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "cycle is SC" true (Oracles.Scc.is_strongly_connected g)

let test_scc_two_components () =
  let g = build_graph 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let _, k = Scc.components g in
  Alcotest.(check int) "two components" 2 k;
  Alcotest.(check bool) "not SC" false (Oracles.Scc.is_strongly_connected g)

let test_scc_topological_order () =
  (* edge 1 -> 2 crosses components {0,1} -> {2,3}; Tarjan numbers the
     sink component first, so comp(src) > comp(dst). *)
  let g = build_graph 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let comp, _ = Scc.components g in
  Alcotest.(check bool) "cross edge order" true (comp.(1) > comp.(2))

let test_scc_dag () =
  let g = build_graph 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let _, k = Scc.components g in
  Alcotest.(check int) "all singleton" 4 k

let test_scc_restrict_ok () =
  let g = build_graph 4 [ (0, 1); (1, 0); (2, 3) ] in
  match Scc.restrict_strongly_connected g ~root:0 with
  | Some members -> Alcotest.(check (array int)) "component 0" [| 0; 1 |] members
  | None -> Alcotest.fail "expected Some"

let test_scc_restrict_escapes () =
  let g = build_graph 3 [ (0, 1); (1, 0); (1, 2) ] in
  Alcotest.(check bool) "reachable escapes component" true
    (Scc.restrict_strongly_connected g ~root:0 = None)

let test_scc_condensation () =
  (* two 2-cycles bridged by 1 -> 2, plus a parallel bridge 0 -> 3:
     the condensation has one deduplicated cross edge *)
  let g =
    build_graph 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2); (0, 3) ]
  in
  let comp, k, edges = Scc.condensation g in
  Alcotest.(check int) "two components" 2 k;
  Alcotest.(check (list (pair int int)))
    "single deduplicated cut edge"
    [ (comp.(1), comp.(2)) ]
    edges;
  (* strongly connected graph: no cross edges at all *)
  let g = build_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  let _, k, edges = Scc.condensation g in
  Alcotest.(check int) "one component" 1 k;
  Alcotest.(check (list (pair int int))) "no cut edges" [] edges

let test_scc_large_no_overflow () =
  (* a million-vertex cycle would blow the OCaml stack if Tarjan (or
     the condensation walk) recursed per vertex; the iterative
     implementation must survive it *)
  let n = 1_000_000 in
  let g = Digraph.create n in
  for v = 0 to n - 1 do
    ignore (Digraph.add_edge g ~src:v ~dst:((v + 1) mod n) ~label:0 ~cost:1)
  done;
  let _, k, edges = Scc.condensation g in
  Alcotest.(check int) "one giant component" 1 k;
  Alcotest.(check (list (pair int int))) "no cut edges" [] edges;
  (* same size as a path: n singleton components, n-1 cut edges *)
  let p = Digraph.create n in
  for v = 0 to n - 2 do
    ignore (Digraph.add_edge p ~src:v ~dst:(v + 1) ~label:0 ~cost:1)
  done;
  let _, k, edges = Scc.condensation p in
  Alcotest.(check int) "all singleton" n k;
  Alcotest.(check int) "n-1 cut edges" (n - 1) (List.length edges)

let test_bfs () =
  let g = build_graph 4 [ (0, 1); (1, 2); (0, 2) ] in
  let d = Shortest.bfs g ~source:0 in
  Alcotest.(check int) "d0" 0 d.(0);
  Alcotest.(check int) "d1" 1 d.(1);
  Alcotest.(check int) "d2 via direct edge" 1 d.(2);
  Alcotest.(check bool) "unreachable" true (d.(3) = max_int)

let test_dijkstra () =
  let g = build_weighted 4 [ (0, 1, 1); (1, 2, 1); (0, 2, 5); (2, 3, 1) ] in
  let d, pred = Shortest.dijkstra g ~source:0 in
  Alcotest.(check int) "shortest to 2" 2 d.(2);
  Alcotest.(check int) "shortest to 3" 3 d.(3);
  let path = Shortest.path_to ~pred_edge:pred g 3 in
  Alcotest.(check int) "path length" 3 (List.length path);
  (* verify the path is connected and starts at the source *)
  let first = Digraph.edge g (List.hd path) in
  Alcotest.(check int) "starts at source" 0 first.Digraph.src

let test_dijkstra_prefers_cheap () =
  let g = build_weighted 3 [ (0, 1, 10); (0, 2, 1); (2, 1, 2) ] in
  let d, _ = Shortest.dijkstra g ~source:0 in
  Alcotest.(check int) "indirect cheaper" 3 d.(1)

let test_mcmf_simple () =
  (* two disjoint unit paths 0->1->3 and 0->2->3 *)
  let net = Mcmf.create 4 in
  let _ = Mcmf.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:1 in
  let _ = Mcmf.add_arc net ~src:0 ~dst:2 ~cap:1 ~cost:2 in
  let _ = Mcmf.add_arc net ~src:1 ~dst:3 ~cap:1 ~cost:1 in
  let _ = Mcmf.add_arc net ~src:2 ~dst:3 ~cap:1 ~cost:1 in
  let flow, cost = Mcmf.solve net ~source:0 ~sink:3 in
  Alcotest.(check int) "max flow" 2 flow;
  Alcotest.(check int) "min cost" 5 cost

let test_mcmf_prefers_cheap_path () =
  let net = Mcmf.create 3 in
  let cheap = Mcmf.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:1 in
  let expensive = Mcmf.add_arc net ~src:0 ~dst:1 ~cap:1 ~cost:10 in
  let _ = Mcmf.add_arc net ~src:1 ~dst:2 ~cap:1 ~cost:0 in
  let flow, cost = Mcmf.solve net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow 1" 1 flow;
  Alcotest.(check int) "cost 1" 1 cost;
  Alcotest.(check int) "cheap arc used" 1 (Mcmf.flow_on net cheap);
  Alcotest.(check int) "expensive arc unused" 0 (Mcmf.flow_on net expensive)

let test_mcmf_residual_rerouting () =
  (* classic rerouting: direct path must be partially undone. *)
  let net = Mcmf.create 4 in
  let _ = Mcmf.add_arc net ~src:0 ~dst:1 ~cap:2 ~cost:1 in
  let _ = Mcmf.add_arc net ~src:1 ~dst:3 ~cap:1 ~cost:1 in
  let _ = Mcmf.add_arc net ~src:1 ~dst:2 ~cap:1 ~cost:1 in
  let _ = Mcmf.add_arc net ~src:2 ~dst:3 ~cap:1 ~cost:1 in
  let flow, _ = Mcmf.solve net ~source:0 ~sink:3 in
  Alcotest.(check int) "flow 2" 2 flow

let check_walk g start edges =
  (* the edge list must form a connected closed walk from start *)
  let current = ref start in
  List.iter
    (fun id ->
      let e = Digraph.edge g id in
      Alcotest.(check int) "walk connected" !current e.Digraph.src;
      current := e.Digraph.dst)
    edges;
  Alcotest.(check int) "walk closed" start !current

let test_euler_cycle () =
  let g = build_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  let mult = Array.make 3 1 in
  match Euler.circuit g ~start:0 ~mult with
  | Some edges ->
      Alcotest.(check int) "three edges" 3 (List.length edges);
      check_walk g 0 edges
  | None -> Alcotest.fail "expected circuit"

let test_euler_multiplicities () =
  let g = build_graph 2 [ (0, 1); (1, 0) ] in
  let mult = [| 2; 2 |] in
  match Euler.circuit g ~start:0 ~mult with
  | Some edges ->
      Alcotest.(check int) "four traversals" 4 (List.length edges);
      check_walk g 0 edges
  | None -> Alcotest.fail "expected circuit"

let test_euler_unbalanced () =
  let g = build_graph 2 [ (0, 1) ] in
  Alcotest.(check bool) "no circuit" true (Euler.circuit g ~start:0 ~mult:[| 1 |] = None)

let test_euler_disconnected () =
  let g = build_graph 4 [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  Alcotest.(check bool) "not connected to start" true
    (Euler.circuit g ~start:0 ~mult:[| 1; 1; 1; 1 |] = None)

let test_euler_self_loop () =
  let g = build_graph 2 [ (0, 0); (0, 1); (1, 0) ] in
  match Euler.circuit g ~start:0 ~mult:[| 1; 1; 1 |] with
  | Some edges ->
      Alcotest.(check int) "three traversals" 3 (List.length edges);
      check_walk g 0 edges
  | None -> Alcotest.fail "expected circuit"

let check_tour_covers g (tour : Cpp.tour) =
  let m = Digraph.n_edges g in
  let hit = Array.make m false in
  List.iter (fun id -> hit.(id) <- true) tour.Cpp.edges;
  Alcotest.(check bool) "covers all edges" true (Array.for_all Fun.id hit)

let test_cpp_balanced_graph () =
  let g = build_graph 3 [ (0, 1); (1, 2); (2, 0) ] in
  match Cpp.solve g ~start:0 with
  | Some tour ->
      Alcotest.(check int) "tour length equals |E|" 3 tour.Cpp.length;
      Alcotest.(check int) "no extra cost" 0 tour.Cpp.extra_cost;
      check_tour_covers g tour;
      check_walk g 0 tour.Cpp.edges
  | None -> Alcotest.fail "expected tour"

let test_cpp_unbalanced_graph () =
  (* 0->1 twice requires revisiting: edges (0,1),(1,0),(0,2),(2,0) are
     balanced, but adding another (0,1) forces one duplicated return. *)
  let g = build_graph 3 [ (0, 1); (1, 0); (0, 2); (2, 0); (0, 1) ] in
  match Cpp.solve g ~start:0 with
  | Some tour ->
      check_tour_covers g tour;
      check_walk g 0 tour.Cpp.edges;
      Alcotest.(check int) "one extra traversal" 6 tour.Cpp.length;
      Alcotest.(check int) "extra cost 1" 1 tour.Cpp.extra_cost
  | None -> Alcotest.fail "expected tour"

let test_cpp_not_strongly_connected () =
  let g = build_graph 2 [ (0, 1) ] in
  Alcotest.(check bool) "no tour" true (Cpp.solve g ~start:0 = None)

let test_cpp_self_loops () =
  let g = build_graph 2 [ (0, 0); (0, 1); (1, 1); (1, 0) ] in
  match Cpp.solve g ~start:0 with
  | Some tour ->
      check_tour_covers g tour;
      check_walk g 0 tour.Cpp.edges;
      Alcotest.(check int) "length 4" 4 tour.Cpp.length
  | None -> Alcotest.fail "expected tour"

let test_greedy_covers () =
  let g = build_graph 3 [ (0, 1); (1, 2); (2, 0); (0, 2); (2, 1); (1, 0) ] in
  match Cpp.greedy g ~start:0 with
  | Some tour ->
      check_tour_covers g tour;
      check_walk g 0 tour.Cpp.edges
  | None -> Alcotest.fail "expected greedy tour"

let test_greedy_never_shorter_than_cpp () =
  let rng = Simcov_util.Rng.create 123 in
  for _ = 1 to 20 do
    let n = 3 + Simcov_util.Rng.int rng 5 in
    let g = Digraph.create n in
    (* random cycle ensures strong connectivity *)
    for v = 0 to n - 1 do
      ignore (Digraph.add_edge g ~src:v ~dst:((v + 1) mod n) ~label:0 ~cost:1)
    done;
    for _ = 1 to n * 2 do
      let s = Simcov_util.Rng.int rng n and d = Simcov_util.Rng.int rng n in
      ignore (Digraph.add_edge g ~src:s ~dst:d ~label:0 ~cost:1)
    done;
    match (Cpp.solve g ~start:0, Cpp.greedy g ~start:0) with
    | Some opt, Some gr ->
        Alcotest.(check bool) "optimal <= greedy" true (opt.Cpp.cost <= gr.Cpp.cost);
        Alcotest.(check bool) "optimal >= lower bound" true
          (opt.Cpp.cost >= Cpp.lower_bound g);
        check_tour_covers g opt;
        check_tour_covers g gr
    | _ -> Alcotest.fail "tours must exist on SC graphs"
  done

let qcheck_cpp_random =
  QCheck.Test.make ~name:"cpp: random SC graphs yield covering closed walks" ~count:40
    QCheck.(pair (int_range 2 8) (int_range 1 42))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let g = Digraph.create n in
      for v = 0 to n - 1 do
        ignore (Digraph.add_edge g ~src:v ~dst:((v + 1) mod n) ~label:0 ~cost:1)
      done;
      for _ = 1 to n do
        let s = Simcov_util.Rng.int rng n and d = Simcov_util.Rng.int rng n in
        ignore (Digraph.add_edge g ~src:s ~dst:d ~label:0 ~cost:1)
      done;
      match Cpp.solve g ~start:0 with
      | None -> false
      | Some tour ->
          let m = Digraph.n_edges g in
          let hit = Array.make m false in
          let ok = ref true in
          let current = ref 0 in
          List.iter
            (fun id ->
              let e = Digraph.edge g id in
              if e.Digraph.src <> !current then ok := false;
              current := e.Digraph.dst;
              hit.(id) <- true)
            tour.Cpp.edges;
          !ok && !current = 0 && Array.for_all Fun.id hit
          && tour.Cpp.length = List.length tour.Cpp.edges)

let qcheck_cpp_cost_identity =
  QCheck.Test.make ~name:"cpp: tour cost = lower bound + extra cost" ~count:50
    QCheck.(pair (int_range 2 10) (int_range 1 999))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let g = Digraph.create n in
      for v = 0 to n - 1 do
        ignore
          (Digraph.add_edge g ~src:v ~dst:((v + 1) mod n) ~label:0
             ~cost:(1 + Simcov_util.Rng.int rng 4))
      done;
      for _ = 1 to n do
        let s = Simcov_util.Rng.int rng n and d = Simcov_util.Rng.int rng n in
        ignore (Digraph.add_edge g ~src:s ~dst:d ~label:0 ~cost:(1 + Simcov_util.Rng.int rng 4))
      done;
      match Cpp.solve g ~start:0 with
      | None -> false
      | Some tour ->
          tour.Cpp.cost = Cpp.lower_bound g + tour.Cpp.extra_cost
          &&
          (* walking the tour and summing edge costs gives tour.cost *)
          let total = List.fold_left (fun acc id -> acc + (Digraph.edge g id).Digraph.cost) 0 tour.Cpp.edges in
          total = tour.Cpp.cost)

let qcheck_scc_mutual_reachability =
  QCheck.Test.make ~name:"scc: same component iff mutually reachable" ~count:50
    QCheck.(pair (int_range 2 8) (int_range 1 999))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let g = Digraph.create n in
      for _ = 1 to 2 * n do
        let s = Simcov_util.Rng.int rng n and d = Simcov_util.Rng.int rng n in
        ignore (Digraph.add_edge g ~src:s ~dst:d ~label:0 ~cost:1)
      done;
      let comp, _ = Scc.components g in
      let reach = Array.init n (fun v -> Shortest.bfs g ~source:v) in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let mutual = reach.(u).(v) <> max_int && reach.(v).(u) <> max_int in
          if (comp.(u) = comp.(v)) <> mutual then ok := false
        done
      done;
      !ok)

(* ---- one min-cost-flow arc per parallel-edge bundle ---- *)

(* random multigraphs: usually a spanning cycle (so a tour exists),
   then random edges, same-cost parallel copies of existing edges and
   self-loops, with costs 1..3 *)
let qcheck_cpp_collapsed_arcs =
  QCheck.Test.make
    ~name:"cpp: one arc per parallel bundle = one arc per edge (edges, cost, length)"
    ~count:500
    QCheck.(pair (int_range 1 7) (int_range 1 1_000_000))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let g = Digraph.create n in
      let add src dst =
        ignore
          (Digraph.add_edge g ~src ~dst ~label:(Simcov_util.Rng.int rng 4)
             ~cost:(1 + Simcov_util.Rng.int rng 3))
      in
      if Simcov_util.Rng.int rng 4 > 0 then
        for v = 0 to n - 1 do
          add v ((v + 1) mod n)
        done;
      for _ = 1 to Simcov_util.Rng.int rng ((4 * n) + 1) do
        match Simcov_util.Rng.int rng 3 with
        | 0 when Digraph.n_edges g > 0 ->
            let e = Digraph.edge g (Simcov_util.Rng.int rng (Digraph.n_edges g)) in
            ignore
              (Digraph.add_edge g ~src:e.Digraph.src ~dst:e.Digraph.dst
                 ~label:(e.Digraph.label + 1) ~cost:e.Digraph.cost)
        | 1 ->
            let v = Simcov_util.Rng.int rng n in
            add v v
        | _ -> add (Simcov_util.Rng.int rng n) (Simcov_util.Rng.int rng n)
      done;
      let start = Simcov_util.Rng.int rng n in
      let got = Cpp.solve g ~start and want = Oracles.Cpp.solve g ~start in
      got = want
      || QCheck.Test.fail_reportf "%d vertices, %d edges, start %d: tours differ" n
           (Digraph.n_edges g) start)

(* the DLX test model's transition graph: 3,416 edges over 292
   distinct state pairs *)
let test_cpp_dlx_collapsed () =
  let m = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
  let g = Simcov_fsm.Fsm.transition_graph m in
  let start = m.Simcov_fsm.Fsm.reset in
  Alcotest.(check bool) "same tour as one arc per edge" true
    (Cpp.solve g ~start = Oracles.Cpp.solve g ~start)

let suite =
  [
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "digraph parallel edges" `Quick test_digraph_parallel_edges;
    Alcotest.test_case "digraph reverse" `Quick test_digraph_reverse;
    Alcotest.test_case "scc single cycle" `Quick test_scc_single_cycle;
    Alcotest.test_case "scc two components" `Quick test_scc_two_components;
    Alcotest.test_case "scc topological order" `Quick test_scc_topological_order;
    Alcotest.test_case "scc dag" `Quick test_scc_dag;
    Alcotest.test_case "scc restrict ok" `Quick test_scc_restrict_ok;
    Alcotest.test_case "scc restrict escapes" `Quick test_scc_restrict_escapes;
    Alcotest.test_case "scc condensation" `Quick test_scc_condensation;
    Alcotest.test_case "scc 1M vertices, no overflow" `Quick test_scc_large_no_overflow;
    Alcotest.test_case "bfs" `Quick test_bfs;
    Alcotest.test_case "dijkstra" `Quick test_dijkstra;
    Alcotest.test_case "dijkstra prefers cheap" `Quick test_dijkstra_prefers_cheap;
    Alcotest.test_case "mcmf simple" `Quick test_mcmf_simple;
    Alcotest.test_case "mcmf prefers cheap" `Quick test_mcmf_prefers_cheap_path;
    Alcotest.test_case "mcmf rerouting" `Quick test_mcmf_residual_rerouting;
    Alcotest.test_case "euler cycle" `Quick test_euler_cycle;
    Alcotest.test_case "euler multiplicities" `Quick test_euler_multiplicities;
    Alcotest.test_case "euler unbalanced" `Quick test_euler_unbalanced;
    Alcotest.test_case "euler disconnected" `Quick test_euler_disconnected;
    Alcotest.test_case "euler self loop" `Quick test_euler_self_loop;
    Alcotest.test_case "cpp balanced" `Quick test_cpp_balanced_graph;
    Alcotest.test_case "cpp unbalanced" `Quick test_cpp_unbalanced_graph;
    Alcotest.test_case "cpp not SC" `Quick test_cpp_not_strongly_connected;
    Alcotest.test_case "cpp self loops" `Quick test_cpp_self_loops;
    Alcotest.test_case "greedy covers" `Quick test_greedy_covers;
    Alcotest.test_case "greedy vs cpp" `Quick test_greedy_never_shorter_than_cpp;
    QCheck_alcotest.to_alcotest qcheck_cpp_random;
    QCheck_alcotest.to_alcotest qcheck_cpp_cost_identity;
    QCheck_alcotest.to_alcotest qcheck_scc_mutual_reachability;
    QCheck_alcotest.to_alcotest qcheck_cpp_collapsed_arcs;
    Alcotest.test_case "cpp collapsed arcs on the DLX graph" `Quick test_cpp_dlx_collapsed;
  ]

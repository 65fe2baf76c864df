type tour = { edges : int list; length : int; cost : int; extra_cost : int }

let lower_bound g = Digraph.fold_edges (fun e acc -> acc + e.Digraph.cost) g 0

(* Balance in-/out-degrees by routing flow along original edges: a
   vertex with surplus incoming degree must start d extra edge copies,
   one with surplus outgoing degree must absorb them. The min-cost flow
   on the network (S -> surplus-in vertices, original edges with
   infinite capacity, deficit vertices -> T) gives the cheapest
   multiplicity augmentation; Hierholzer then produces the tour.

   Parallel edges of equal cost are one arc: the arc for each distinct
   (src, dst, cost) is added where that triple's first edge is, and
   its flow becomes that edge's extra copies. An arc per edge would
   give the same tour. Its capacity is never exhausted, so SPFA always
   relaxes through the first of a bundle (the later ones, same cost
   and same endpoints, never improve on it): no flow ever reaches
   them, and dropping them changes no relaxation. *)
let solve g ~start =
  match Scc.restrict_strongly_connected g ~root:start with
  | None -> None
  | Some _members ->
      let n = Digraph.n_vertices g in
      let m = Digraph.n_edges g in
      if m = 0 then Some { edges = []; length = 0; cost = 0; extra_cost = 0 }
      else begin
        let indeg = Array.make n 0 and outdeg = Array.make n 0 in
        Digraph.iter_edges
          (fun e ->
            outdeg.(e.Digraph.src) <- outdeg.(e.Digraph.src) + 1;
            indeg.(e.Digraph.dst) <- indeg.(e.Digraph.dst) + 1)
          g;
        let net = Mcmf.create (n + 2) in
        let source = n and sink = n + 1 in
        let inf = m + 1 in
        (* Edge arcs: extra copies of the first edge of each bundle.
           Self-loops never need extra copies (they do not change the
           degree balance). [bundles] maps src * n + dst to the bundle
           costs seen so far. *)
        let edge_handles = Array.make m (-1) in
        let bundles = Hashtbl.create 64 in
        Digraph.iter_edges
          (fun e ->
            let { Digraph.src; dst; cost; id; _ } = e in
            if src <> dst then begin
              let pair = (src * n) + dst in
              let costs = Option.value ~default:[] (Hashtbl.find_opt bundles pair) in
              if not (List.mem cost costs) then begin
                Hashtbl.replace bundles pair (cost :: costs);
                edge_handles.(id) <- Mcmf.add_arc net ~src ~dst ~cap:inf ~cost
              end
            end)
          g;
        for v = 0 to n - 1 do
          let d = indeg.(v) - outdeg.(v) in
          if d > 0 then ignore (Mcmf.add_arc net ~src:source ~dst:v ~cap:d ~cost:0)
          else if d < 0 then
            ignore (Mcmf.add_arc net ~src:v ~dst:sink ~cap:(-d) ~cost:0)
        done;
        let _flow, extra_cost = Mcmf.solve net ~source ~sink in
        let mult = Array.make m 1 in
        let extra_len = ref 0 in
        Array.iteri
          (fun id h ->
            if h >= 0 then begin
              let f = Mcmf.flow_on net h in
              mult.(id) <- 1 + f;
              extra_len := !extra_len + f
            end)
          edge_handles;
        match Euler.circuit g ~start ~mult with
        | None -> None
        | Some edges ->
            Some
              {
                edges;
                length = m + !extra_len;
                cost = lower_bound g + extra_cost;
                extra_cost;
              }
      end

let greedy g ~start =
  match Scc.restrict_strongly_connected g ~root:start with
  | None -> None
  | Some _ ->
      let n = Digraph.n_vertices g in
      let m = Digraph.n_edges g in
      if m = 0 then Some { edges = []; length = 0; cost = 0; extra_cost = 0 }
      else begin
        let covered = Array.make m false in
        let n_covered = ref 0 in
        let walk = ref [] in
        let cost = ref 0 in
        let len = ref 0 in
        let current = ref start in
        (* Per-vertex stack of not-yet-taken out-edge ids; covered
           entries are lazily discarded, keeping the local lookup
           amortized O(1). *)
        let pending = Array.make n [] in
        Digraph.iter_edges
          (fun e -> pending.(e.Digraph.src) <- e.Digraph.id :: pending.(e.Digraph.src))
          g;
        let rec pop_uncovered v =
          match pending.(v) with
          | [] -> None
          | id :: rest ->
              pending.(v) <- rest;
              if covered.(id) then pop_uncovered v else Some id
        in
        let rec has_uncovered v =
          match pending.(v) with
          | [] -> false
          | id :: rest ->
              if covered.(id) then begin
                pending.(v) <- rest;
                has_uncovered v
              end
              else true
        in
        let take e =
          let id = e.Digraph.id in
          if not covered.(id) then begin
            covered.(id) <- true;
            incr n_covered
          end;
          walk := id :: !walk;
          cost := !cost + e.Digraph.cost;
          incr len;
          current := e.Digraph.dst
        in
        while !n_covered < m do
          match pop_uncovered !current with
          | Some id -> take (Digraph.edge g id)
          | None ->
              (* Dijkstra to the nearest vertex owning an uncovered
                 out-edge, then walk there. *)
              let dist, pred = Shortest.dijkstra g ~source:!current in
              let best = ref (-1) in
              for v = 0 to n - 1 do
                if
                  dist.(v) <> max_int
                  && (!best = -1 || dist.(v) < dist.(!best))
                  && has_uncovered v
                then best := v
              done;
              if !best = -1 then raise Exit (* unreachable: graph is SC *)
              else begin
                let path = Shortest.path_to ~pred_edge:pred g !best in
                List.iter (fun id -> take (Digraph.edge g id)) path
              end
        done;
        (* Return to start to make a closed walk, mirroring the CPP
           tour's circuit property. *)
        if !current <> start then begin
          let _, pred = Shortest.dijkstra g ~source:!current in
          let path = Shortest.path_to ~pred_edge:pred g start in
          List.iter (fun id -> take (Digraph.edge g id)) path
        end;
        Some
          {
            edges = List.rev !walk;
            length = !len;
            cost = !cost;
            extra_cost = !cost - lower_bound g;
          }
      end

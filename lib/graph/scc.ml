(* Iterative Tarjan: an explicit stack of (vertex, remaining out-edges)
   frames avoids stack overflow on the million-edge transition graphs
   produced by processor test models. *)

let components g =
  let n = Digraph.n_vertices g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let visit root =
    let frames = ref [ (root, ref (Digraph.out_edges g root)) ] in
    index.(root) <- !next_index;
    lowlink.(root) <- !next_index;
    incr next_index;
    stack := root :: !stack;
    on_stack.(root) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, rest) :: tl -> (
          match !rest with
          | e :: es ->
              rest := es;
              let w = e.Digraph.dst in
              if index.(w) = -1 then begin
                index.(w) <- !next_index;
                lowlink.(w) <- !next_index;
                incr next_index;
                stack := w :: !stack;
                on_stack.(w) <- true;
                frames := (w, ref (Digraph.out_edges g w)) :: !frames
              end
              else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
              frames := tl;
              (match tl with
              | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
              | [] -> ());
              if lowlink.(v) = index.(v) then begin
                let continue = ref true in
                while !continue do
                  match !stack with
                  | [] -> continue := false
                  | w :: ws ->
                      stack := ws;
                      on_stack.(w) <- false;
                      comp.(w) <- !next_comp;
                      if w = v then continue := false
                done;
                incr next_comp
              end)
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  (comp, !next_comp)

let condensation g =
  let comp, k = components g in
  let edges = Hashtbl.create 16 in
  Digraph.iter_edges
    (fun e ->
      let a = comp.(e.Digraph.src) and b = comp.(e.Digraph.dst) in
      if a <> b then Hashtbl.replace edges (a, b) ())
    g;
  let cross = Hashtbl.fold (fun ab () acc -> ab :: acc) edges [] in
  (comp, k, List.sort compare cross)

let restrict_strongly_connected g ~root =
  let comp, _ = components g in
  let c = comp.(root) in
  (* BFS from root; fail if we reach a vertex outside component c. *)
  let n = Digraph.n_vertices g in
  let seen = Array.make n false in
  let queue = Queue.create () in
  Queue.add root queue;
  seen.(root) <- true;
  let ok = ref true in
  while !ok && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun e ->
        let w = e.Digraph.dst in
        if comp.(w) <> c then ok := false
        else if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w queue
        end)
      (Digraph.out_edges g v)
  done;
  if not !ok then None
  else begin
    let members = ref [] in
    for v = n - 1 downto 0 do
      if seen.(v) then members := v :: !members
    done;
    Some (Array.of_list !members)
  end

let bfs g ~source =
  let n = Digraph.n_vertices g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun e ->
        let w = e.Digraph.dst in
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Digraph.out_edges g v)
  done;
  dist

(* Binary-heap Dijkstra over (dist, vertex) pairs encoded as a single
   int: dist * n + vertex. Costs are small, so no overflow concern. *)
module Heap = struct
  type t = { mutable a : int array; mutable size : int }

  let create () = { a = Array.make 16 0; size = 0 }
  let is_empty h = h.size = 0

  let push h x =
    if h.size >= Array.length h.a then begin
      let a = Array.make (2 * Array.length h.a) 0 in
      Array.blit h.a 0 a 0 h.size;
      h.a <- a
    end;
    let i = ref h.size in
    h.a.(!i) <- x;
    h.size <- h.size + 1;
    while !i > 0 && h.a.((!i - 1) / 2) > h.a.(!i) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    let top = h.a.(0) in
    h.size <- h.size - 1;
    h.a.(0) <- h.a.(h.size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.a.(l) < h.a.(!smallest) then smallest := l;
      if r < h.size && h.a.(r) < h.a.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = h.a.(!smallest) in
        h.a.(!smallest) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
end

let dijkstra g ~source =
  let n = Digraph.n_vertices g in
  let dist = Array.make n max_int in
  let pred = Array.make n (-1) in
  let heap = Heap.create () in
  dist.(source) <- 0;
  Heap.push heap source;
  (* encoding: key = dist * n + vertex *)
  while not (Heap.is_empty heap) do
    let key = Heap.pop heap in
    let v = key mod n and d = key / n in
    if d = dist.(v) then
      List.iter
        (fun e ->
          let w = e.Digraph.dst in
          let nd = d + e.Digraph.cost in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            pred.(w) <- e.Digraph.id;
            Heap.push heap ((nd * n) + w)
          end)
        (Digraph.out_edges g v)
  done;
  (dist, pred)

let path_to ~pred_edge g v =
  let rec go v acc =
    match pred_edge.(v) with
    | -1 -> acc
    | id ->
        let e = Digraph.edge g id in
        go e.Digraph.src (id :: acc)
  in
  go v []

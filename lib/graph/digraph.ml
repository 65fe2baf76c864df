type edge = { id : int; src : int; dst : int; label : int; cost : int }

type t = {
  n : int;
  mutable edges : edge array; (* dense prefix of length m *)
  mutable m : int;
  out : int list array; (* edge ids, most recent first *)
}

let create n = { n; edges = [||]; m = 0; out = Array.make n [] }

let n_vertices t = t.n
let n_edges t = t.m

let grow t =
  let cap = Array.length t.edges in
  if t.m >= cap then begin
    let dummy = { id = -1; src = 0; dst = 0; label = 0; cost = 0 } in
    let edges = Array.make (max 8 (2 * cap)) dummy in
    Array.blit t.edges 0 edges 0 t.m;
    t.edges <- edges
  end

let add_edge t ~src ~dst ~label ~cost =
  assert (src >= 0 && src < t.n && dst >= 0 && dst < t.n && cost >= 0);
  grow t;
  let id = t.m in
  t.edges.(id) <- { id; src; dst; label; cost };
  t.m <- id + 1;
  t.out.(src) <- id :: t.out.(src);
  id

let edge t id =
  assert (id >= 0 && id < t.m);
  t.edges.(id)

let out_edges t v = List.rev_map (fun id -> t.edges.(id)) t.out.(v)

let iter_edges f t =
  for i = 0 to t.m - 1 do
    f t.edges.(i)
  done

let fold_edges f t init =
  let acc = ref init in
  iter_edges (fun e -> acc := f e !acc) t;
  !acc

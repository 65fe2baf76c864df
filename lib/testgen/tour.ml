open Simcov_fsm
open Simcov_graph
module Obs = Simcov_obs.Obs

let c_solves = Obs.counter "tour.solves"

type result = { word : int list; length : int; n_transitions : int; extra : int }

let of_cpp_tour g (t : Cpp.tour) =
  let word = List.map (fun id -> (Digraph.edge g id).Digraph.label) t.Cpp.edges in
  {
    word;
    length = t.Cpp.length;
    n_transitions = Digraph.n_edges g;
    extra = t.Cpp.length - Digraph.n_edges g;
  }

let transition_tour m =
  Obs.incr c_solves;
  let g = Fsm.transition_graph m in
  Option.map (of_cpp_tour g) (Cpp.solve g ~start:m.Fsm.reset)

type facts = {
  k_bound : int;
  forall_k : (int, int * int) Stdlib.result;
  tour : result option;
}

(* a bound below 1 is refused before any tour is solved *)
let facts ?scope ?(k_bound = 8) m =
  let forall_k = Fsm.min_forall_k ?scope ~bound:k_bound m in
  { k_bound; forall_k; tour = transition_tour m }

let forall_1 m f =
  match f.forall_k with Ok 1 -> Ok 1 | _ -> Fsm.min_forall_k ~bound:1 m

(* [k] steps along the first valid input of each state, from where
   [word] ends; stops early at a state with no valid input *)
let pad m ~k word =
  let rec go s n acc =
    if n = 0 then List.rev acc
    else
      match Fsm.valid_inputs m s with
      | [] -> List.rev acc
      | i :: _ -> go (m.Fsm.next s i) (n - 1) (i :: acc)
  in
  word @ go (Fsm.final_state m word) k []

let greedy_transition_tour m =
  let g = Fsm.transition_graph m in
  Option.map (of_cpp_tour g) (Cpp.greedy g ~start:m.Fsm.reset)

(* BFS over states (not transitions) from [from]; returns the input
   word to the nearest state satisfying [target]. *)
let bfs_to (m : Fsm.t) ~from ~target =
  let visited = Array.make m.Fsm.n_states false in
  let parent = Array.make m.Fsm.n_states (-1, -1) in
  let queue = Queue.create () in
  visited.(from) <- true;
  Queue.add from queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    if target s then found := Some s
    else
      List.iter
        (fun i ->
          let s' = m.Fsm.next s i in
          if not visited.(s') then begin
            visited.(s') <- true;
            parent.(s') <- (s, i);
            Queue.add s' queue
          end)
        (Fsm.valid_inputs m s)
  done;
  match !found with
  | None -> None
  | Some s ->
      let rec unwind s acc =
        if s = from then acc
        else
          let p, i = parent.(s) in
          unwind p (i :: acc)
      in
      Some (s, unwind s [])

let state_tour m =
  let seen = Fsm.reachable m in
  let n_states = Fsm.n_reachable m in
  let visited = Array.make m.Fsm.n_states false in
  visited.(m.Fsm.reset) <- true;
  let n_visited = ref 1 in
  let word = ref [] in
  let current = ref m.Fsm.reset in
  let ok = ref true in
  while !ok && !n_visited < n_states do
    match bfs_to m ~from:!current ~target:(fun s -> seen.(s) && not visited.(s)) with
    | None -> ok := false
    | Some (s, path) ->
        List.iter
          (fun i ->
            word := i :: !word;
            current := m.Fsm.next !current i;
            if not visited.(!current) then begin
              visited.(!current) <- true;
              incr n_visited
            end)
          path;
        ignore s
  done;
  if not !ok then None
  else
    let word = List.rev !word in
    Some { word; length = List.length word; n_transitions = n_states; extra = 0 }

let transition_cover_segments m =
  let covered = Hashtbl.create 1024 in
  let total = Fsm.n_transitions m in
  let segments = ref [] in
  let segment = ref [] in
  let current = ref m.Fsm.reset in
  let flush () =
    if !segment <> [] then begin
      segments := List.rev !segment :: !segments;
      segment := [];
      current := m.Fsm.reset
    end
  in
  while Hashtbl.length covered < total do
    (* prefer an uncovered transition out of the current state *)
    let local =
      List.find_opt (fun i -> not (Hashtbl.mem covered (!current, i))) (Fsm.valid_inputs m !current)
    in
    match local with
    | Some i ->
        Hashtbl.replace covered (!current, i) ();
        segment := i :: !segment;
        current := m.Fsm.next !current i
    | None -> (
        match
          bfs_to m ~from:!current ~target:(fun s ->
              List.exists (fun i -> not (Hashtbl.mem covered (s, i))) (Fsm.valid_inputs m s))
        with
        | Some (_, path) ->
            List.iter
              (fun i ->
                Hashtbl.replace covered (!current, i) ();
                segment := i :: !segment;
                current := m.Fsm.next !current i)
              path
        | None -> flush () (* restart from reset *))
  done;
  flush ();
  List.rev !segments

let transition_cover m =
  let segments = transition_cover_segments m in
  let word = List.concat segments in
  {
    word;
    length = List.length word;
    n_transitions = Fsm.n_transitions m;
    extra = List.length word - Fsm.n_transitions m;
  }

let shortest_input_path m ~src ~dst =
  if src = dst then Some []
  else Option.map snd (bfs_to m ~from:src ~target:(fun s -> s = dst))

let random_word rng m ~length =
  let rec go s n acc =
    if n = 0 then List.rev acc
    else
      match Fsm.valid_inputs m s with
      | [] -> List.rev acc
      | inputs ->
          let arr = Array.of_list inputs in
          let i = Simcov_util.Rng.pick rng arr in
          go (m.Fsm.next s i) (n - 1) (i :: acc)
  in
  go m.Fsm.reset length []

(* a rejected input anywhere rejects the whole word: a covering prefix
   followed by an input the implementation cannot take is no tour *)
let word_is_tour m word =
  let r = Fsm.replay m word in
  let covered = Hashtbl.create 1024 in
  Array.iter (fun c -> Hashtbl.replace covered c ()) r.Fsm.codes;
  r.Fsm.rejected = None && Hashtbl.length covered = Fsm.n_transitions m

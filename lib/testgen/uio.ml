open Simcov_fsm

(* BFS over (position of s, surviving other-state positions): an input
   extends the word if valid from s's position; other states survive
   only while they remain valid and output-identical. Exponential in
   the worst case, bounded by [max_len] and a visited set. *)
let uio ?(scope = `Reachable) ?(max_len = 8) m s =
  let seen = Fsm.reachable m in
  if not seen.(s) then None
  else begin
    let in_scope q = match scope with `Reachable -> seen.(q) | `All -> true in
    let others = ref [] in
    for q = m.Fsm.n_states - 1 downto 0 do
      if in_scope q && q <> s then others := q :: !others
    done;
    if !others = [] then Some []
    else begin
      let visited = Hashtbl.create 1024 in
      let queue = Queue.create () in
      (* (depth, pos of s, sorted surviving positions, reversed word) *)
      Queue.add (0, s, !others, []) queue;
      Hashtbl.add visited (s, !others) ();
      let result = ref None in
      while !result = None && not (Queue.is_empty queue) do
        let depth, pos, survivors, word = Queue.pop queue in
        if depth < max_len then
          List.iter
            (fun i ->
              if !result = None && m.Fsm.valid pos i then begin
                let o = m.Fsm.output pos i in
                let pos' = m.Fsm.next pos i in
                let survivors' =
                  List.filter_map
                    (fun q ->
                      if m.Fsm.valid q i && m.Fsm.output q i = o then
                        Some (m.Fsm.next q i)
                      else None (* separated by output or validity *))
                    survivors
                  |> List.sort_uniq Int.compare
                in
                (* a survivor landing on s's own position can never be
                   separated afterwards; keep it (it will block) *)
                let word' = i :: word in
                if survivors' = [] then result := Some (List.rev word')
                else if not (Hashtbl.mem visited (pos', survivors')) then begin
                  Hashtbl.add visited (pos', survivors') ();
                  Queue.add (depth + 1, pos', survivors', word') queue
                end
              end)
            (Fsm.valid_inputs m pos)
      done;
      !result
    end
  end

let all_uios ?scope ?max_len m =
  let seen = Fsm.reachable m in
  Array.init m.Fsm.n_states (fun s -> if seen.(s) then uio ?scope ?max_len m s else None)

let checking_sequence ?scope ?max_len m =
  let uios = all_uios ?scope ?max_len m in
  let transitions = Fsm.transitions m in
  let missing =
    List.exists (fun (_, _, s', _) -> uios.(s') = None) transitions
  in
  if missing then None
  else begin
    let word = ref [] in
    let current = ref m.Fsm.reset in
    let append i =
      word := i :: !word;
      current := m.Fsm.next !current i
    in
    let ok = ref true in
    List.iter
      (fun (s, i, s', _) ->
        if !ok then begin
          (match Tour.shortest_input_path m ~src:!current ~dst:s with
          | Some path -> List.iter append path
          | None -> ok := false);
          if !ok then begin
            append i;
            assert (!current = s');
            List.iter append (Option.get uios.(s'))
          end
        end)
      transitions;
    if !ok then Some (List.rev !word) else None
  end

let length_overhead m =
  match (Tour.transition_tour m, checking_sequence m) with
  | Some t, Some cs -> Some (t.Tour.length, List.length cs)
  | _ -> None

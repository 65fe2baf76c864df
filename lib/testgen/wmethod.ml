open Simcov_fsm

(* Does [word] separate states p and q (differing output at some step,
   or a validity mismatch)? Steps invalid in both truncate the word. *)
let separates (m : Fsm.t) word p q =
  let rec go p q = function
    | [] -> false
    | i :: rest -> (
        let vp = m.Fsm.valid p i and vq = m.Fsm.valid q i in
        if vp <> vq then true
        else if not vp then false
        else if m.Fsm.output p i <> m.Fsm.output q i then true
        else go (m.Fsm.next p i) (m.Fsm.next q i) rest)
  in
  p <> q && go p q word

let characterization_set ?(scope = `Reachable) (m : Fsm.t) =
  let seen = Fsm.reachable m in
  let in_scope q = match scope with `Reachable -> seen.(q) | `All -> true in
  let pairs = ref [] in
  for p = 0 to m.Fsm.n_states - 1 do
    for q = p + 1 to m.Fsm.n_states - 1 do
      if in_scope p && in_scope q then
        match Fsm.distinguish m p q with
        | Some w -> pairs := (p, q, w) :: !pairs
        | None -> () (* equivalent states: no word separates them *)
    done
  done;
  (* greedy cover: repeatedly take the word separating the most
     still-uncovered pairs *)
  let w_set = ref [] in
  let remaining = ref !pairs in
  while !remaining <> [] do
    let candidates = List.map (fun (_, _, w) -> w) !remaining in
    let best =
      List.fold_left
        (fun (bw, bc) w ->
          let c =
            List.length (List.filter (fun (p, q, _) -> separates m w p q) !remaining)
          in
          if c > bc then (w, c) else (bw, bc))
        ([], 0) candidates
    in
    let w = fst best in
    w_set := w :: !w_set;
    remaining := List.filter (fun (p, q, _) -> not (separates m w p q)) !remaining
  done;
  List.rev !w_set

let transition_cover m =
  let covers =
    List.filter_map
      (fun (s, i, _, _) ->
        match Tour.shortest_input_path m ~src:m.Fsm.reset ~dst:s with
        | Some access -> Some (access @ [ i ])
        | None -> None)
      (Fsm.transitions m)
  in
  [] :: covers

let suite ?scope (m : Fsm.t) =
  let w = match characterization_set ?scope m with [] -> [ [] ] | ws -> ws in
  let p = transition_cover m in
  List.concat_map (fun prefix -> List.map (fun suffix -> prefix @ suffix) w) p

let total_length words = List.fold_left (fun acc w -> acc + List.length w) 0 words

let campaign m faults words =
  let module Detect = Simcov_coverage.Detect in
  let eff = List.filter (Simcov_coverage.Fault.is_effective m) faults in
  let n = List.length eff in
  let excited = Array.make n false and detected = Array.make n false in
  List.iter
    (fun w ->
      List.iteri
        (fun j (_, (v : Detect.verdict)) ->
          excited.(j) <- excited.(j) || v.excited;
          detected.(j) <- detected.(j) || v.detected)
        (Detect.campaign_outcome m eff w).Detect.Campaign.verdicts)
    words;
  let count a = Array.fold_left (fun c b -> if b then c + 1 else c) 0 a in
  {
    Detect.backend = "fsm-fault/wmethod";
    total = List.length faults;
    effective = n;
    excited = count excited;
    detected = count detected;
    missed = List.filteri (fun j _ -> excited.(j) && not detected.(j)) eff;
    skipped = 0;
    truncated = None;
    shard_failures = [];
  }

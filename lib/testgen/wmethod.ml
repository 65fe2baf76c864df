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

let transition_cover (m : Fsm.t) =
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

(* Sigma^(<= extra): all input words up to the given length, including
   the empty word *)
let middle_words (m : Fsm.t) ~extra =
  let inputs = List.init m.Fsm.n_inputs Fun.id in
  let rec grow k acc frontier =
    if k = 0 then acc
    else
      let next = List.concat_map (fun w -> List.map (fun i -> w @ [ i ]) inputs) frontier in
      grow (k - 1) (acc @ next) next
  in
  grow extra [ [] ] [ [] ]

let suite_extra ?scope ~extra (m : Fsm.t) =
  let w = match characterization_set ?scope m with [] -> [ [] ] | ws -> ws in
  let p = transition_cover m in
  let mid = middle_words m ~extra in
  List.concat_map
    (fun prefix ->
      List.concat_map (fun inner -> List.map (fun suffix -> prefix @ inner @ suffix) w) mid)
    p

let total_length words = List.fold_left (fun acc w -> acc + List.length w) 0 words

let detects m fault words =
  List.exists (Simcov_coverage.Detect.detects m fault) words

let campaign m faults words =
  let total = List.length faults in
  let effective = ref 0 and excited = ref 0 and detected = ref 0 in
  let missed = ref [] in
  List.iter
    (fun f ->
      if Simcov_coverage.Fault.is_effective m f then begin
        incr effective;
        let verdicts =
          List.map (fun w -> Simcov_coverage.Detect.run_verdict m f w) words
        in
        let ex =
          List.exists
            (fun (v : Simcov_coverage.Detect.verdict) -> v.Simcov_coverage.Detect.excited)
            verdicts
        in
        let de =
          List.exists
            (fun (v : Simcov_coverage.Detect.verdict) -> v.Simcov_coverage.Detect.detected)
            verdicts
        in
        if ex then incr excited;
        if de then incr detected else if ex then missed := f :: !missed
      end)
    faults;
  {
    Simcov_coverage.Detect.backend = "fsm-fault/wmethod";
    total;
    effective = !effective;
    excited = !excited;
    detected = !detected;
    missed = List.rev !missed;
    skipped = 0;
    truncated = None;
    shard_failures = [];
  }

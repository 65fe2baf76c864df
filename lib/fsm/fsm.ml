type t = {
  n_states : int;
  n_inputs : int;
  reset : int;
  valid : int -> int -> bool;
  next : int -> int -> int;
  output : int -> int -> int;
  state_name : int -> string;
  input_name : int -> string;
}

let default_state_name s = "s" ^ string_of_int s
let default_input_name i = "i" ^ string_of_int i

let make ?(reset = 0) ?(valid = fun _ _ -> true) ?(state_name = default_state_name)
    ?(input_name = default_input_name) ~n_states ~n_inputs ~next ~output () =
  assert (n_states > 0 && n_inputs > 0 && reset >= 0 && reset < n_states);
  { n_states; n_inputs; reset; valid; next; output; state_name; input_name }

let of_table ?(reset = 0) rows =
  let n_states =
    List.fold_left (fun acc (s, _, n, _) -> max acc (max s n + 1)) 1 rows
  in
  let n_inputs = List.fold_left (fun acc (_, i, _, _) -> max acc (i + 1)) 1 rows in
  let tbl = Hashtbl.create (List.length rows) in
  List.iter
    (fun (s, i, n, o) ->
      assert (not (Hashtbl.mem tbl (s, i)));
      Hashtbl.add tbl (s, i) (n, o))
    rows;
  make ~reset
    ~valid:(fun s i -> Hashtbl.mem tbl (s, i))
    ~n_states ~n_inputs
    ~next:(fun s i -> fst (Hashtbl.find tbl (s, i)))
    ~output:(fun s i -> snd (Hashtbl.find tbl (s, i)))
    ()

type tables = {
  tab_states : int;
  tab_inputs : int;
  tab_reset : int;
  tab_valid : bool array;
  tab_next : int array;
  tab_output : int array;
}

let tables m =
  let n = m.n_states and k = m.n_inputs in
  let valid = Array.make (n * k) false in
  let next = Array.make (n * k) 0 in
  let output = Array.make (n * k) 0 in
  for s = 0 to n - 1 do
    for i = 0 to k - 1 do
      let idx = (s * k) + i in
      if m.valid s i then begin
        valid.(idx) <- true;
        next.(idx) <- m.next s i;
        output.(idx) <- m.output s i
      end
    done
  done;
  {
    tab_states = n;
    tab_inputs = k;
    tab_reset = m.reset;
    tab_valid = valid;
    tab_next = next;
    tab_output = output;
  }

let tabulate m =
  let k = m.n_inputs in
  let t = tables m in
  {
    m with
    (* bounds-check the input: an out-of-alphabet [i] must read as
       invalid, not alias into state [s+1]'s row of the flat table
       (or run off its end at the last state) *)
    valid = (fun s i -> i >= 0 && i < k && t.tab_valid.((s * k) + i));
    next = (fun s i -> t.tab_next.((s * k) + i));
    output = (fun s i -> t.tab_output.((s * k) + i));
  }

let step m s i =
  if not (m.valid s i) then
    invalid_arg
      (Printf.sprintf "Fsm.step: input %s invalid in state %s" (m.input_name i)
         (m.state_name s));
  (m.next s i, m.output s i)

let run m word =
  let rec go s acc = function
    | [] -> List.rev acc
    | i :: rest ->
        let s', o = step m s i in
        go s' ((s, i, s', o) :: acc) rest
  in
  go m.reset [] word

let output_word m word = List.map (fun (_, _, _, o) -> o) (run m word)

let final_state m word =
  List.fold_left (fun s i -> fst (step m s i)) m.reset word

let valid_inputs m s =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if m.valid s i then i :: acc else acc) in
  go (m.n_inputs - 1) []

let reachable m =
  let seen = Array.make m.n_states false in
  let queue = Queue.create () in
  seen.(m.reset) <- true;
  Queue.add m.reset queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    for i = 0 to m.n_inputs - 1 do
      if m.valid s i then begin
        let s' = m.next s i in
        if not seen.(s') then begin
          seen.(s') <- true;
          Queue.add s' queue
        end
      end
    done
  done;
  seen

let n_reachable m =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 (reachable m)

let transitions m =
  let seen = reachable m in
  let acc = ref [] in
  for s = m.n_states - 1 downto 0 do
    if seen.(s) then
      for i = m.n_inputs - 1 downto 0 do
        if m.valid s i then acc := (s, i, m.next s i, m.output s i) :: !acc
      done
  done;
  !acc

let n_transitions m =
  let seen = reachable m in
  let count = ref 0 in
  for s = 0 to m.n_states - 1 do
    if seen.(s) then
      for i = 0 to m.n_inputs - 1 do
        if m.valid s i then incr count
      done
  done;
  !count

let transition_graph m =
  let g = Simcov_graph.Digraph.create m.n_states in
  let seen = reachable m in
  for s = 0 to m.n_states - 1 do
    if seen.(s) then
      for i = 0 to m.n_inputs - 1 do
        if m.valid s i then
          ignore
            (Simcov_graph.Digraph.add_edge g ~src:s ~dst:(m.next s i) ~label:i ~cost:1)
      done
  done;
  g

(* Breadth-first search over a pair automaton; [mismatch] detects an
   observable difference on one input, [step2] advances both sides.
   Returns the shortest input word reaching a mismatch. *)
let pair_bfs ~n_pairs ~start ~inputs ~mismatch ~step2 =
  let visited = Hashtbl.create 1024 in
  let parent = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.add visited start ();
  Queue.add start queue;
  let rec word_of p acc =
    match Hashtbl.find_opt parent p with
    | None -> acc
    | Some (p', i) -> word_of p' (i :: acc)
  in
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       let p = Queue.pop queue in
       List.iter
         (fun i ->
           if !result = None then
             match mismatch p i with
             | true -> result := Some (word_of p [ i ])
             | false -> (
                 match step2 p i with
                 | None -> ()
                 | Some p' ->
                     assert (p' >= 0 && p' < n_pairs);
                     if not (Hashtbl.mem visited p') then begin
                       Hashtbl.add visited p' ();
                       Hashtbl.add parent p' (p, i);
                       Queue.add p' queue
                     end))
         inputs;
       if !result <> None then raise Exit
     done
   with Exit -> ());
  !result

let equivalent a b =
  if a.n_inputs <> b.n_inputs then Error "input alphabets differ"
  else begin
    let inputs = List.init a.n_inputs Fun.id in
    let encode s1 s2 = (s1 * b.n_states) + s2 in
    let mismatch p i =
      let s1 = p / b.n_states and s2 = p mod b.n_states in
      let v1 = a.valid s1 i and v2 = b.valid s2 i in
      if v1 <> v2 then true
      else if v1 then a.output s1 i <> b.output s2 i
      else false
    in
    let step2 p i =
      let s1 = p / b.n_states and s2 = p mod b.n_states in
      if a.valid s1 i && b.valid s2 i then Some (encode (a.next s1 i) (b.next s2 i))
      else None
    in
    match
      pair_bfs
        ~n_pairs:(a.n_states * b.n_states)
        ~start:(encode a.reset b.reset) ~inputs ~mismatch ~step2
    with
    | None -> Ok []
    | Some w -> Ok w
  end

let distinguish m s1 s2 =
  if s1 = s2 then None
  else
    let inputs = List.init m.n_inputs Fun.id in
    let encode a b = (a * m.n_states) + b in
    let mismatch p i =
      let a = p / m.n_states and b = p mod m.n_states in
      let v1 = m.valid a i and v2 = m.valid b i in
      if v1 <> v2 then true else if v1 then m.output a i <> m.output b i else false
    in
    let step2 p i =
      let a = p / m.n_states and b = p mod m.n_states in
      if m.valid a i && m.valid b i then Some (encode (m.next a i) (m.next b i))
      else None
    in
    pair_bfs
      ~n_pairs:(m.n_states * m.n_states)
      ~start:(encode s1 s2) ~inputs ~mismatch ~step2

(* ∀k-distinguishability, Definition 5. A length-k input sequence is
   applicable when each step's input is valid in at least one of the
   two current states; a validity mismatch is itself an observable
   difference (the simulator would accept the vector on one machine
   and reject it on the other). F is monotone in k. *)
let forall_k_distinguishable m ~k s1 s2 =
  let memo = Hashtbl.create 256 in
  let rec go k p q =
    if p = q then false
    else if k = 0 then false
    else
      match Hashtbl.find_opt memo (k, p, q) with
      | Some r -> r
      | None ->
          let all = ref true and some_applicable = ref false in
          let i = ref 0 in
          while !all && !i < m.n_inputs do
            let inp = !i in
            let vp = m.valid p inp and vq = m.valid q inp in
            if vp || vq then begin
              some_applicable := true;
              if vp <> vq then () (* this sequence start distinguishes *)
              else if m.output p inp <> m.output q inp then ()
              else if not (go (k - 1) (m.next p inp) (m.next q inp)) then all := false
            end;
            incr i
          done;
          let r = !some_applicable && !all in
          Hashtbl.add memo (k, p, q) r;
          r
  in
  go k s1 s2

(* One round of the ∀k recurrence over the pairs of [live] states:
   [cur] is the ∀(k-1) relation, the result the ∀k one. A pair is
   ∀k-distinguishable when some input is applicable and every
   applicable input either separates it at once (validity or output
   mismatch) or leads to a ∀(k-1) pair. The relation is symmetric, so
   each pair is computed once. Successors of live states must be live
   (true of the reachable set and of all states). *)
let forall_k_round m live cur =
  let n = m.n_states in
  let nxt = Array.make_matrix n n false in
  for p = 0 to n - 1 do
    if live.(p) then
      for q = p + 1 to n - 1 do
        if live.(q) then begin
          let all = ref true and some = ref false in
          let i = ref 0 in
          while !all && !i < m.n_inputs do
            let inp = !i in
            let vp = m.valid p inp and vq = m.valid q inp in
            if vp || vq then begin
              some := true;
              if vp = vq && m.output p inp = m.output q inp then
                if not cur.(m.next p inp).(m.next q inp) then all := false
            end;
            incr i
          done;
          let r = !some && !all in
          nxt.(p).(q) <- r;
          nxt.(q).(p) <- r
        end
      done
  done;
  nxt

let forall_k_matrix m ~k =
  let tab = tabulate m in
  let live = Array.make m.n_states true in
  let cur = ref (Array.make_matrix m.n_states m.n_states false) in
  for _ = 1 to k do
    cur := forall_k_round tab live !cur
  done;
  !cur

let min_forall_k ?(scope = `Reachable) ?(bound = 16) m =
  if bound < 1 then invalid_arg "Fsm.min_forall_k: bound < 1";
  let n = m.n_states in
  let tab = tabulate m in
  let live = match scope with `Reachable -> reachable m | `All -> Array.make n true in
  (* the first live pair p < q, row-major, outside the relation *)
  let rec first_bad mat p q =
    if p >= n then None
    else if q >= n then first_bad mat (p + 1) (p + 2)
    else if live.(p) && live.(q) && not mat.(p).(q) then Some (p, q)
    else first_bad mat p (q + 1)
  in
  (* the relation grows monotonically with k: once a round changes
     nothing, no larger bound can certify *)
  let rec search k cur =
    let nxt = forall_k_round tab live cur in
    match first_bad nxt 0 1 with
    | None -> Ok k
    | Some pair when k = bound || nxt = cur -> Error pair
    | Some _ -> search (k + 1) nxt
  in
  search 1 (Array.make_matrix n n false)

(* Partition refinement: initial classes by the (validity, output)
   signature over all inputs, refined by successor classes until
   stable. Classical Moore construction on reachable states. *)
let minimize m =
  let m = tabulate m in
  let n = m.n_states in
  let seen = reachable m in
  let cls = Array.make n (-1) in
  let sig0 s =
    List.init m.n_inputs (fun i ->
        if m.valid s i then Some (m.output s i) else None)
  in
  let assign_classes signature =
    (* snapshot every signature against the OLD classes before touching
       [cls]: updating in place would let later states see predecessors'
       already-renumbered classes, conflating old and new ids (which
       over-splits — equivalent states land in different classes) *)
    let keys = Array.init n (fun s -> if seen.(s) then Some (signature s) else None) in
    let tbl = Hashtbl.create 64 in
    let count = ref 0 in
    for s = 0 to n - 1 do
      match keys.(s) with
      | None -> ()
      | Some key -> (
          match Hashtbl.find_opt tbl key with
          | Some c -> cls.(s) <- c
          | None ->
              Hashtbl.add tbl key !count;
              cls.(s) <- !count;
              incr count)
    done;
    !count
  in
  let n_cls = ref (assign_classes sig0) in
  let stable = ref false in
  while not !stable do
    let refine s =
      ( cls.(s),
        List.init m.n_inputs (fun i -> if m.valid s i then Some cls.(m.next s i) else None)
      )
    in
    let n' = assign_classes refine in
    if n' = !n_cls then stable := true else n_cls := n'
  done;
  (* representative per class *)
  let rep = Array.make !n_cls (-1) in
  for s = n - 1 downto 0 do
    if seen.(s) then rep.(cls.(s)) <- s
  done;
  let quotient =
    make ~reset:cls.(m.reset)
      ~valid:(fun c i -> m.valid rep.(c) i)
      ~state_name:(fun c -> "q" ^ string_of_int c)
      ~input_name:m.input_name ~n_states:!n_cls ~n_inputs:m.n_inputs
      ~next:(fun c i -> cls.(m.next rep.(c) i))
      ~output:(fun c i -> m.output rep.(c) i)
      ()
  in
  (quotient, cls)

let random_connected rng ~n_states ~n_inputs ~n_outputs =
  assert (n_states > 0 && n_inputs > 0 && n_outputs > 0);
  let next = Array.make_matrix n_states n_inputs 0 in
  let output = Array.make_matrix n_states n_inputs 0 in
  for s = 0 to n_states - 1 do
    for i = 0 to n_inputs - 1 do
      next.(s).(i) <- Simcov_util.Rng.int rng n_states;
      output.(s).(i) <- Simcov_util.Rng.int rng n_outputs
    done
  done;
  (* Seed a Hamiltonian cycle through a random permutation so the
     transition graph is strongly connected. *)
  let perm = Array.init n_states Fun.id in
  Simcov_util.Rng.shuffle rng perm;
  for idx = 0 to n_states - 1 do
    let s = perm.(idx) and s' = perm.((idx + 1) mod n_states) in
    let i = Simcov_util.Rng.int rng n_inputs in
    next.(s).(i) <- s'
  done;
  make ~n_states ~n_inputs
    ~next:(fun s i -> next.(s).(i))
    ~output:(fun s i -> output.(s).(i))
    ()

let pp ppf m =
  Format.fprintf ppf "mealy(%d states, %d inputs, reset %s, %d reachable, %d transitions)"
    m.n_states m.n_inputs (m.state_name m.reset) (n_reachable m) (n_transitions m)

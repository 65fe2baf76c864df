module Obs = Simcov_obs.Obs
module Digraph = Simcov_graph.Digraph

let c_tabulations = Obs.counter "fsm.tabulations"

type tables = {
  tab_states : int;
  tab_inputs : int;
  tab_reset : int;
  tab_valid : bool array;
  tab_next : int array;
  tab_output : int array;
}

(* What depends on reachability from the reset: the reachable states,
   and the reachable valid transitions as codes [state * n_inputs +
   input] in state-then-input order. *)
type reach = { seen : bool array; n_seen : int; codes : int array }

(* The tabulated machine, built once by [make] and never written
   afterwards, so a machine can be shared across domains. *)
type compiled = {
  tab : tables;
  inputs : int array array;  (* each state's valid inputs, ascending *)
  index_words : int;  (* the distinct [inputs] arrays, headers included *)
  reach : reach;
}

type t = {
  n_states : int;
  n_inputs : int;
  reset : int;
  valid : int -> int -> bool;
  next : int -> int -> int;
  output : int -> int -> int;
  state_name : int -> string;
  input_name : int -> string;
  compiled : compiled;
}

let default_state_name s = "s" ^ string_of_int s
let default_input_name i = "i" ^ string_of_int i

(* Breadth-first from [r] over the tables. A successor outside the
   state range (a malformed machine, which fsm-lint reports) is not a
   state and is not followed. *)
let reach_of tab inputs r =
  let n = tab.tab_states and k = tab.tab_inputs in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(r) <- true;
  Queue.add r queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Array.iter
      (fun i ->
        let s' = tab.tab_next.((s * k) + i) in
        if s' >= 0 && s' < n && not seen.(s') then begin
          seen.(s') <- true;
          Queue.add s' queue
        end)
      inputs.(s)
  done;
  let n_seen = ref 0 and n_codes = ref 0 in
  for s = 0 to n - 1 do
    if seen.(s) then begin
      incr n_seen;
      n_codes := !n_codes + Array.length inputs.(s)
    end
  done;
  let codes = Array.make !n_codes 0 and j = ref 0 in
  for s = 0 to n - 1 do
    if seen.(s) then
      Array.iter
        (fun i ->
          codes.(!j) <- (s * k) + i;
          incr j)
        inputs.(s)
  done;
  { seen; n_seen = !n_seen; codes }

(* The one place a machine's functions are tabulated. States with the
   same valid inputs share one array, so an alphabet whose validity
   does not depend on the state is indexed once. *)
let compile ~n_states:n ~n_inputs:k ~reset ~valid:is_valid ~next:next_of ~output:output_of =
  Obs.incr c_tabulations;
  let valid = Array.make (n * k) false in
  let next = Array.make (n * k) 0 in
  let output = Array.make (n * k) 0 in
  let shared = Hashtbl.create 16 and index_words = ref (n + 1) in
  let inputs =
    Array.init n (fun s ->
        let acc = ref [] in
        for i = 0 to k - 1 do
          let idx = (s * k) + i in
          if is_valid s i then begin
            valid.(idx) <- true;
            next.(idx) <- next_of s i;
            output.(idx) <- output_of s i;
            acc := i :: !acc
          end
        done;
        let a = Array.of_list (List.rev !acc) in
        match Hashtbl.find_opt shared a with
        | Some a -> a
        | None ->
            Hashtbl.add shared a a;
            index_words := !index_words + Array.length a + 1;
            a)
  in
  let tab =
    {
      tab_states = n;
      tab_inputs = k;
      tab_reset = reset;
      tab_valid = valid;
      tab_next = next;
      tab_output = output;
    }
  in
  { tab; inputs; index_words = !index_words; reach = reach_of tab inputs reset }

let make ?(reset = 0) ?(valid = fun _ _ -> true) ?(state_name = default_state_name)
    ?(input_name = default_input_name) ~n_states ~n_inputs ~next ~output () =
  assert (n_states > 0 && n_inputs > 0 && reset >= 0 && reset < n_states);
  let compiled = compile ~n_states ~n_inputs ~reset ~valid ~next ~output in
  let k = n_inputs and { tab_valid; tab_next; tab_output; _ } = compiled.tab in
  {
    n_states;
    n_inputs;
    reset;
    (* bounds-check the input: an out-of-alphabet [i] must read as
       invalid, not alias into state [s+1]'s row of the flat table
       (or run off its end at the last state) *)
    valid = (fun s i -> i >= 0 && i < k && tab_valid.((s * k) + i));
    next = (fun s i -> tab_next.((s * k) + i));
    output = (fun s i -> tab_output.((s * k) + i));
    state_name;
    input_name;
    compiled;
  }

let tables m = m.compiled.tab

let compiled_bytes m =
  let c = m.compiled in
  let cells = c.tab.tab_states * c.tab.tab_inputs in
  (* a bool array spends a word per entry, like an int array *)
  let words =
    (3 * (cells + 1)) + c.index_words
    + (Array.length c.reach.seen + 1)
    + (Array.length c.reach.codes + 1)
  in
  words * (Sys.word_size / 8)

let step m s i =
  if not (m.valid s i) then
    invalid_arg
      (Printf.sprintf "Fsm.step: input %s invalid in state %s" (m.input_name i)
         (m.state_name s));
  (m.next s i, m.output s i)

let output_word m word =
  let _, outputs =
    List.fold_left
      (fun (s, acc) i ->
        let s', o = step m s i in
        (s', o :: acc))
      (m.reset, []) word
  in
  List.rev outputs

let final_state m word =
  List.fold_left (fun s i -> fst (step m s i)) m.reset word

let valid_inputs m s = Array.to_list m.compiled.inputs.(s)
let reachable m = Array.copy m.compiled.reach.seen
let n_reachable m = m.compiled.reach.n_seen
let transition_codes m = m.compiled.reach.codes
let n_transitions m = Array.length m.compiled.reach.codes

let transitions m =
  let tab = m.compiled.tab in
  let k = tab.tab_inputs in
  Array.fold_right
    (fun code acc ->
      (code / k, code mod k, tab.tab_next.(code), tab.tab_output.(code)) :: acc)
    m.compiled.reach.codes []

let transition_graph m =
  let tab = m.compiled.tab in
  let k = tab.tab_inputs in
  let g = Digraph.create m.n_states in
  Array.iter
    (fun code ->
      ignore
        (Digraph.add_edge g ~src:(code / k) ~dst:tab.tab_next.(code)
           ~label:(code mod k) ~cost:1))
    m.compiled.reach.codes;
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
   mismatch) or leads to a ∀(k-1) pair. The round walks the union of
   the two states' valid inputs: one valid in a single state separates
   the pair, so only the common ones are looked up. The relation is
   symmetric, so each pair is computed once. Successors of live states
   must be live (true of the reachable set and of all states). *)
let forall_k_round c live cur =
  let n = c.tab.tab_states and k = c.tab.tab_inputs in
  let tnext = c.tab.tab_next and tout = c.tab.tab_output in
  let nxt = Array.make_matrix n n false in
  for p = 0 to n - 1 do
    if live.(p) then begin
      let ip = c.inputs.(p) in
      let np = Array.length ip in
      for q = p + 1 to n - 1 do
        if live.(q) then begin
          let iq = c.inputs.(q) in
          let nq = Array.length iq in
          let all = ref true and a = ref 0 and b = ref 0 in
          while !all && !a < np && !b < nq do
            let i = ip.(!a) and j = iq.(!b) in
            if i < j then incr a
            else if j < i then incr b
            else begin
              let xp = (p * k) + i and xq = (q * k) + i in
              if tout.(xp) = tout.(xq) && not cur.(tnext.(xp)).(tnext.(xq)) then
                all := false;
              incr a;
              incr b
            end
          done;
          let r = (np > 0 || nq > 0) && !all in
          nxt.(p).(q) <- r;
          nxt.(q).(p) <- r
        end
      done
    end
  done;
  nxt

let forall_k_matrix m ~k =
  let c = m.compiled in
  let n = m.n_states in
  let live = Array.make n true in
  let cur = ref (Array.make_matrix n n false) in
  for _ = 1 to k do
    cur := forall_k_round c live !cur
  done;
  !cur

let min_forall_k ?(scope = `Reachable) ?(bound = 16) m =
  if bound < 1 then invalid_arg "Fsm.min_forall_k: bound < 1";
  let n = m.n_states in
  let c = m.compiled in
  let live = match scope with `Reachable -> c.reach.seen | `All -> Array.make n true in
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
    let nxt = forall_k_round c live cur in
    match first_bad nxt 0 1 with
    | None -> Ok k
    | Some pair when k = bound || nxt = cur -> Error pair
    | Some _ -> search (k + 1) nxt
  in
  search 1 (Array.make_matrix n n false)

(* Partition refinement: initial classes by the (validity, output)
   signature over all inputs, refined by successor classes until
   stable. Classical Moore construction on reachable states. A
   signature lists the valid inputs only, which tells two states apart
   exactly when the signature over every input code would. *)
let classes m =
  let cm = m.compiled in
  let n = m.n_states and k = m.n_inputs in
  let seen = cm.reach.seen in
  let cls = Array.make n (-1) in
  let signature s f = Array.to_list (Array.map (fun i -> (i, f ((s * k) + i))) cm.inputs.(s)) in
  let sig0 s = signature s (fun x -> cm.tab.tab_output.(x)) in
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
    let refine s = (cls.(s), signature s (fun x -> cls.(cm.tab.tab_next.(x)))) in
    let n' = assign_classes refine in
    if n' = !n_cls then stable := true else n_cls := n'
  done;
  cls

let minimize m =
  let cls = classes m in
  (* representative per class; classes are numbered densely from 0 *)
  let rep = Array.make (1 + Array.fold_left max (-1) cls) (-1) in
  for s = m.n_states - 1 downto 0 do
    if cls.(s) >= 0 then rep.(cls.(s)) <- s
  done;
  let quotient =
    make ~reset:cls.(m.reset)
      ~valid:(fun c i -> m.valid rep.(c) i)
      ~state_name:(fun c -> "q" ^ string_of_int c)
      ~input_name:m.input_name ~n_states:(Array.length rep) ~n_inputs:m.n_inputs
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

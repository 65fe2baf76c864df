open Simcov_fsm

(* A small reference machine: modulo-3 counter that outputs the new
   count; input 0 = increment, input 1 = reset-to-zero. *)
let counter3 =
  Fsm.make ~n_states:3 ~n_inputs:2
    ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
    ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
    ()

(* The Figure 2 fragment of the paper, completed into a closed machine:
   states 1,2,3,3',4,4',5 with inputs a,b,c. Transitions on b from 3
   and 3' give different outputs; transitions on c give the same
   output. An extra input returns to 1 so the machine is strongly
   connected. See test_coverage for the error-injection version. *)
let fig2_states = [| "1"; "2"; "3"; "3'"; "4"; "4'"; "5" |]
let fig2_inputs = [| "a"; "b"; "c"; "r" |]

(* (state, input, next, output) *)
let fig2_rows =
  [
    (0, 0, 1, 0) (* 1 -a-> 2 *);
    (1, 0, 2, 0) (* 2 -a-> 3 (the correct transition) *);
    (2, 1, 4, 1) (* 3 -b-> 4, output 1 *);
    (3, 1, 5, 2) (* 3' -b-> 4', output 2: differs *);
    (2, 2, 6, 3) (* 3 -c-> 5, output 3 *);
    (3, 2, 6, 3) (* 3' -c-> 5, same output 3 *);
    (4, 3, 0, 4) (* 4 -r-> 1 *);
    (5, 3, 0, 4) (* 4' -r-> 1 *);
    (6, 3, 0, 4) (* 5 -r-> 1 *);
  ]

let fig2 = Oracles.Fsm.of_table fig2_rows

let test_make_defaults () =
  Alcotest.(check int) "reset" 0 counter3.Fsm.reset;
  Alcotest.(check bool) "all valid" true (counter3.Fsm.valid 2 1)

let test_step_run () =
  let s, o = Oracles.Fsm.step counter3 0 0 in
  Alcotest.(check int) "next" 1 s;
  Alcotest.(check int) "output" 1 o;
  Alcotest.(check (list int)) "output word" [ 1; 2; 0; 0 ]
    (Fsm.output_word counter3 [ 0; 0; 0; 1 ]);
  Alcotest.(check int) "final state" 1 (Fsm.final_state counter3 [ 0; 0; 0; 0 ])

let test_step_invalid () =
  Alcotest.(check bool) "invalid input raises" true
    (try
       ignore (Oracles.Fsm.step fig2 0 1);
       false
     with Invalid_argument _ -> true)

let test_of_table_shape () =
  Alcotest.(check int) "states inferred" 7 fig2.Fsm.n_states;
  Alcotest.(check int) "inputs inferred" 4 fig2.Fsm.n_inputs;
  Alcotest.(check (list int)) "valid inputs at 3" [ 1; 2 ] (Fsm.valid_inputs fig2 2)

(* building tabulates the rows: each listed pair reads back as given,
   and every other pair, out-of-alphabet inputs included, is invalid *)
let test_tabulate_preserves () =
  List.iter
    (fun (s, i, n, o) ->
      Alcotest.(check bool) "valid preserved" true (fig2.Fsm.valid s i);
      Alcotest.(check int) "next preserved" n (fig2.Fsm.next s i);
      Alcotest.(check int) "output preserved" o (fig2.Fsm.output s i))
    fig2_rows;
  for s = 0 to fig2.Fsm.n_states - 1 do
    for i = -1 to fig2.Fsm.n_inputs do
      if not (List.exists (fun (s', i', _, _) -> s' = s && i' = i) fig2_rows) then
        Alcotest.(check bool) (Printf.sprintf "(%d, %d) invalid" s i) false (fig2.Fsm.valid s i)
    done
  done

let test_reachable () =
  (* state 3' (index 3) and 4' (index 5) are unreachable in the correct machine *)
  let r = Fsm.reachable fig2 in
  Alcotest.(check bool) "reset reachable" true r.(0);
  Alcotest.(check bool) "3' unreachable" false r.(3);
  Alcotest.(check bool) "4' unreachable" false r.(5);
  Alcotest.(check int) "5 reachable states" 5 (Fsm.n_reachable fig2)

let test_transitions_reachable_only () =
  let ts = Fsm.transitions fig2 in
  Alcotest.(check bool) "no transition from 3'" true
    (List.for_all (fun (s, _, _, _) -> s <> 3) ts);
  Alcotest.(check int) "6 reachable transitions" 6 (List.length ts)

let test_transition_graph () =
  let g = Fsm.transition_graph counter3 in
  Alcotest.(check int) "6 edges" 6 (Simcov_graph.Digraph.n_edges g);
  Alcotest.(check bool) "strongly connected" true
    (Oracles.Scc.is_strongly_connected g)

let test_equivalent_same () =
  match Oracles.Fsm.equivalent counter3 counter3 with
  | Ok [] -> ()
  | Ok w ->
      Alcotest.failf "unexpected counterexample of length %d" (List.length w)
  | Error e -> Alcotest.fail e

let test_equivalent_detects_output_difference () =
  let broken =
    Fsm.make ~n_states:3 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
      ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else if s = 2 then 9 else 0)
      ()
  in
  match Oracles.Fsm.equivalent counter3 broken with
  | Ok [] -> Alcotest.fail "expected counterexample"
  | Ok w ->
      (* counterexample must actually expose the difference *)
      Alcotest.(check bool) "outputs differ on ce" true
        (Fsm.output_word counter3 w <> Fsm.output_word broken w)
  | Error e -> Alcotest.fail e

let test_equivalent_detects_transfer_difference () =
  let broken =
    Fsm.make ~n_states:3 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (if s = 1 then 0 else (s + 1) mod 3) else 0)
      ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
      ()
  in
  match Oracles.Fsm.equivalent counter3 broken with
  | Ok [] -> Alcotest.fail "expected counterexample"
  | Ok w ->
      Alcotest.(check bool) "outputs differ on ce" true
        (Fsm.output_word counter3 w <> Fsm.output_word broken w)
  | Error e -> Alcotest.fail e

let test_equivalent_shortest () =
  (* the output difference above is reachable in 3 steps: 0,0 then
     observe; check minimality of the BFS counterexample *)
  let broken =
    Fsm.make ~n_states:3 ~n_inputs:2
      ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
      ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else if s = 2 then 9 else 0)
      ()
  in
  match Oracles.Fsm.equivalent counter3 broken with
  | Ok w -> Alcotest.(check int) "shortest ce length" 3 (List.length w)
  | Error e -> Alcotest.fail e

let test_distinguish () =
  (match Fsm.distinguish counter3 0 1 with
  | Some w ->
      Alcotest.(check int) "one step suffices" 1 (List.length w)
  | None -> Alcotest.fail "states should be distinguishable");
  Alcotest.(check bool) "same state indistinguishable" true
    (Fsm.distinguish counter3 1 1 = None)

let test_distinguish_equivalent_states () =
  (* machine with two copies of the same state *)
  let m =
    Fsm.make ~n_states:2 ~n_inputs:1 ~next:(fun _ _ -> 0) ~output:(fun _ _ -> 7) ()
  in
  Alcotest.(check bool) "equivalent states" true (Fsm.distinguish m 0 1 = None)

let test_forall_k () =
  (* In counter3 every pair differs in output immediately on input 0:
     out = s+1 mod 3 differs when states differ. Input 1 gives output 0
     from every state and moves to state 0, never distinguishing. So
     NOT all length-1 sequences distinguish (input 1 fails), hence
     forall-1 is false; and since input 1 merges the states, forall-k
     is false for every k. *)
  Alcotest.(check bool) "forall-1 false (input 1 hides)" false
    (Fsm.forall_k_distinguishable counter3 ~k:1 0 1);
  Alcotest.(check bool) "forall-3 still false (merging input)" false
    (Fsm.forall_k_distinguishable counter3 ~k:3 0 1)

let test_forall_k_positive () =
  (* A machine where every input reveals the state: output = state. *)
  let ident =
    Fsm.make ~n_states:3 ~n_inputs:2
      ~next:(fun s i -> (s + i + 1) mod 3)
      ~output:(fun s _ -> s)
      ()
  in
  Alcotest.(check bool) "forall-1 true" true (Fsm.forall_k_distinguishable ident ~k:1 0 1);
  Alcotest.(check bool) "forall-2 true (monotone)" true
    (Fsm.forall_k_distinguishable ident ~k:2 0 1);
  Alcotest.(check (result int (pair int int))) "min k is 1" (Ok 1) (Fsm.min_forall_k ident)

let test_forall_k_needs_two_steps () =
  (* Outputs equal on the first step from states 0,1 but successors
     (2,3) differ on every input: forall-1 false, forall-2 true. *)
  let m =
    Oracles.Fsm.of_table
      [
        (0, 0, 2, 0);
        (1, 0, 3, 0);
        (2, 0, 0, 1);
        (3, 0, 1, 2);
      ]
  in
  Alcotest.(check bool) "forall-1 false" false (Fsm.forall_k_distinguishable m ~k:1 0 1);
  Alcotest.(check bool) "forall-2 true" true (Fsm.forall_k_distinguishable m ~k:2 0 1)

let test_forall_k_matrix_agrees () =
  let rng = Simcov_util.Rng.create 17 in
  let m = Fsm.random_connected rng ~n_states:6 ~n_inputs:3 ~n_outputs:2 in
  for k = 1 to 3 do
    let mat = Fsm.forall_k_matrix m ~k in
    for p = 0 to 5 do
      for q = 0 to 5 do
        Alcotest.(check bool)
          (Printf.sprintf "matrix(%d,%d) k=%d" p q k)
          (Fsm.forall_k_distinguishable m ~k p q)
          mat.(p).(q)
      done
    done
  done

let test_min_forall_k_none_on_equivalent () =
  let m =
    Fsm.make ~n_states:2 ~n_inputs:1 ~next:(fun s _ -> 1 - s) ~output:(fun _ _ -> 0) ()
  in
  Alcotest.(check (result int (pair int int))) "no k distinguishes equivalent states"
    (Error (0, 1)) (Fsm.min_forall_k ~bound:6 m)

(* the one ∀k search against a brute force over the per-pair
   reference: the smallest k <= bound at which every in-scope pair is
   ∀k-distinguishable, else the first in-scope pair (p < q, row-major)
   that is not ∀bound-distinguishable *)
let brute_min_forall_k m ~scope ~bound =
  let seen = Fsm.reachable m in
  let in_scope s = match scope with `Reachable -> seen.(s) | `All -> true in
  let pairs =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun q -> if p < q && in_scope p && in_scope q then Some (p, q) else None)
          (List.init m.Fsm.n_states Fun.id))
      (List.init m.Fsm.n_states Fun.id)
  in
  let bad k =
    List.find_opt (fun (p, q) -> not (Fsm.forall_k_distinguishable m ~k p q)) pairs
  in
  let rec go k =
    if k > bound then Error (Option.get (bad bound))
    else match bad k with None -> Ok k | Some _ -> go (k + 1)
  in
  go 1

module Rng = Simcov_util.Rng
module Machine = Oracles.Machine

(* a machine's closures over per-cell arrays *)
let closures ?(reset = 0) ~n_states ~n_inputs ~valid ~next ~output () =
  let cell a s i = a.((s * n_inputs) + i) in
  {
    Machine.n_states;
    n_inputs;
    reset;
    valid = cell valid;
    next = cell next;
    output = cell output;
  }

(* random machines as closures, of four shapes: total and strongly
   connected; partial with random validity holes (and often
   unreachable states); a total machine with one state cloned, so an
   equivalent pair exists (reachable when an incoming transition is
   redirected to the clone, otherwise visible only under [`All]); and
   a machine whose validity is an arbitrary per-state subset of the
   alphabet and whose reset is any state *)
let random_closures rng ~shape ~n_states =
  let k = 1 + Rng.int rng (if shape < 3 then 3 else 4) in
  let cells n f = Array.init (n * k) (fun _ -> f ()) in
  let connected n =
    let next = cells n (fun () -> Rng.int rng n) and output = cells n (fun () -> Rng.int rng 2) in
    (* a random cycle through every state *)
    let perm = Array.init n Fun.id in
    Rng.shuffle rng perm;
    Array.iteri (fun idx s -> next.((s * k) + Rng.int rng k) <- perm.((idx + 1) mod n)) perm;
    (next, output)
  in
  let all n = Array.make (n * k) true in
  match shape with
  | 0 ->
      let next, output = connected n_states in
      closures ~n_states ~n_inputs:k ~valid:(all n_states) ~next ~output ()
  | 1 ->
      closures ~n_states ~n_inputs:k
        ~valid:(cells n_states (fun () -> Rng.int rng 4 > 0))
        ~next:(cells n_states (fun () -> Rng.int rng n_states))
        ~output:(cells n_states (fun () -> Rng.int rng 2))
        ()
  | 2 ->
      let n = n_states and c = Rng.int rng n_states in
      let next, output = connected n in
      let orig s = if s = n then c else s in
      let redirect =
        if Rng.bool rng then
          List.find_opt (fun x -> next.(x) = c) (List.init (n * k) Fun.id)
        else None
      in
      let copy a = Array.init ((n + 1) * k) (fun x -> a.((orig (x / k) * k) + (x mod k))) in
      let next = copy next in
      Option.iter (fun x -> next.(x) <- n) redirect;
      closures ~n_states:(n + 1) ~n_inputs:k ~valid:(all (n + 1)) ~next
        ~output:(copy output) ()
  | _ ->
      closures ~reset:(Rng.int rng n_states) ~n_states ~n_inputs:k
        ~valid:(cells n_states (fun () -> Rng.int rng 3 > 0))
        ~next:(cells n_states (fun () -> Rng.int rng n_states))
        ~output:(cells n_states (fun () -> Rng.int rng 3))
        ()

let qcheck_min_forall_k_brute =
  let show = function
    | Ok k -> Printf.sprintf "Ok %d" k
    | Error (p, q) -> Printf.sprintf "Error (%d, %d)" p q
  in
  QCheck.Test.make ~name:"fsm: min_forall_k = brute force over the per-pair reference"
    ~count:300
    QCheck.(
      quad (int_range 0 2) (int_range 1 7) (int_range 1 6) (int_range 1 1_000_000))
    (fun (shape, n_states, bound, seed) ->
      let m = Machine.build (random_closures (Rng.create seed) ~shape ~n_states) in
      List.for_all
        (fun scope ->
          let got = Fsm.min_forall_k ~scope ~bound m
          and want = brute_min_forall_k m ~scope ~bound in
          got = want
          || QCheck.Test.fail_reportf "shape %d, %s, bound %d: got %s, want %s" shape
               (match scope with `Reachable -> "reachable" | `All -> "all")
               bound (show got) (show want))
        [ `Reachable; `All ])

(* ---- the compiled form against the closure references ---- *)

(* every compiled query of [c] equals its reference on [r], the
   closures [c] was built from; the first disagreement is named *)
let disagreement (c : Fsm.t) (r : Machine.t) =
  let module O = Oracles.Fsm in
  let k = r.Machine.n_inputs in
  let tab = Fsm.tables c and want_tab = O.tables r in
  let tables_agree =
    tab.Fsm.tab_reset = r.Machine.reset
    && Array.for_all Fun.id
         (Array.mapi
            (fun idx (v, n, o) ->
              tab.Fsm.tab_valid.(idx) = v
              && ((not v) || (tab.Fsm.tab_next.(idx) = n && tab.Fsm.tab_output.(idx) = o)))
            want_tab)
  in
  (* the readers bounds-check: an input outside the alphabet is invalid *)
  let readers_agree =
    List.for_all
      (fun s ->
        List.for_all
          (fun i ->
            let v = i >= 0 && i < k && r.Machine.valid s i in
            c.Fsm.valid s i = v
            && ((not v) || (c.Fsm.next s i = r.Machine.next s i && c.Fsm.output s i = r.Machine.output s i)))
          (List.init (k + 2) (fun i -> i - 1)))
      (List.init r.Machine.n_states Fun.id)
  in
  let transitions = O.transitions r in
  let checks =
    [
      ("valid/next/output", fun () -> readers_agree);
      ("reachable", fun () -> Fsm.reachable c = O.reachable r);
      ( "n_reachable",
        fun () ->
          Fsm.n_reachable c = Array.fold_left (fun a b -> if b then a + 1 else a) 0 (O.reachable r) );
      ("transitions", fun () -> Fsm.transitions c = transitions);
      ("n_transitions", fun () -> Fsm.n_transitions c = List.length transitions);
      ( "transition_codes",
        fun () ->
          Array.to_list (Fsm.transition_codes c)
          = List.map (fun (s, i, _, _) -> (s * k) + i) transitions );
      ( "valid_inputs",
        fun () ->
          List.for_all
            (fun s -> Fsm.valid_inputs c s = O.valid_inputs r s)
            (List.init r.Machine.n_states Fun.id) );
      ( "transition_graph",
        fun () ->
          let g = Fsm.transition_graph c in
          Simcov_graph.Digraph.fold_edges
            (fun e acc -> (e.Simcov_graph.Digraph.src, e.dst, e.label) :: acc)
            g []
          |> List.rev = O.graph_edges r );
      ("tables", fun () -> tables_agree);
      ( "min_forall_k",
        fun () ->
          List.for_all
            (fun (scope, bound) ->
              Fsm.min_forall_k ~scope ~bound c = O.min_forall_k ~scope ~bound r)
            [ (`Reachable, 1); (`Reachable, 4); (`All, 1); (`All, 4) ] );
      ("forall_k_matrix", fun () -> Fsm.forall_k_matrix c ~k:2 = O.forall_k_matrix r ~k:2);
      ("classes", fun () -> Fsm.classes c = O.minimize_classes r);
    ]
  in
  List.find_map (fun (name, ok) -> if ok () then None else Some name) checks

let qcheck_compiled_queries =
  QCheck.Test.make
    ~name:"fsm: compiled queries = closure references (total, partial, state-dependent validity)"
    ~count:300
    QCheck.(triple (int_range 0 3) (int_range 1 8) (int_range 1 1_000_000))
    (fun (shape, n_states, seed) ->
      let r = random_closures (Rng.create seed) ~shape ~n_states in
      (* every reset: a machine built from the same closures each time *)
      List.for_all
        (fun reset ->
          let r = { r with Machine.reset } in
          match disagreement (Machine.build r) r with
          | None -> true
          | Some q -> QCheck.Test.fail_reportf "shape %d, reset %d: %s differs" shape reset q)
        (List.init r.Machine.n_states Fun.id))

(* ---- the one replay against the walks it replaced ---- *)

(* a word that mostly follows the machine's valid inputs from reset,
   with a symbol from [-1, n_inputs] (rejected when out of range) one
   time in six *)
let random_word rng (r : Machine.t) ~length =
  let k = r.Machine.n_inputs in
  let rec go s n acc =
    if n = 0 then List.rev acc
    else
      let valid = List.filter (r.Machine.valid s) (List.init k Fun.id) in
      if valid = [] || Rng.int rng 6 = 0 then
        let i = Rng.int rng (k + 2) - 1 in
        let s = if i >= 0 && i < k && r.Machine.valid s i then r.Machine.next s i else s in
        go s (n - 1) (i :: acc)
      else
        let i = List.nth valid (Rng.int rng (List.length valid)) in
        go (r.Machine.next s i) (n - 1) (i :: acc)
  in
  go r.Machine.reset length []

let qcheck_replay_readers =
  let raises f = match f () with v -> Ok v | exception Invalid_argument _ -> Error () in
  QCheck.Test.make
    ~name:"fsm: replay and its readers = the walks they replaced (rejected inputs included)"
    ~count:300
    QCheck.(quad (int_range 0 3) (int_range 1 8) (int_range 0 24) (int_range 1 1_000_000))
    (fun (shape, n_states, length, seed) ->
      let rng = Rng.create seed in
      let r = random_closures rng ~shape ~n_states in
      let m = Machine.build r in
      let word = random_word rng r ~length in
      let steps, final, rejected = Oracles.Fsm.walk r word in
      let k = m.Fsm.n_inputs in
      let rp = Fsm.replay m word in
      let checks =
        [
          ("replay stop", rp.Fsm.halt = List.length steps && rp.Fsm.rejected = rejected);
          ( "replay states",
            Array.to_list rp.Fsm.states = List.map fst steps @ [ final ] );
          ( "replay codes",
            Array.to_list rp.Fsm.codes = List.map (fun (s, i) -> (s * k) + i) steps );
          ( "output_word",
            raises (fun () -> Fsm.output_word m word)
            = raises (fun () -> Oracles.Fsm.output_word m word) );
          ( "final_state",
            raises (fun () -> Fsm.final_state m word)
            = raises (fun () -> Oracles.Fsm.final_state m word) );
          ( "state_coverage",
            Simcov_coverage.Detect.state_coverage m word
            = Oracles.Detect.state_coverage m word );
          ( "transition_coverage",
            Simcov_coverage.Detect.transition_coverage m word
            = Oracles.Detect.transition_coverage m word );
          ( "word_is_tour",
            Simcov_testgen.Tour.word_is_tour m word = Oracles.Tour.word_is_tour m word );
        ]
      in
      match List.find_opt (fun (_, ok) -> not ok) checks with
      | None -> true
      | Some (name, _) ->
          QCheck.Test.fail_reportf "shape %d, word [%s]: %s differs" shape
            (String.concat "; " (List.map string_of_int word))
            name)

(* a machine is compiled once, when it is built: no query compiles it
   again, and a quotient is one more machine built *)
let test_compiled_once () =
  let module Obs = Simcov_obs.Obs in
  let reg = Obs.registry () in
  Fun.protect
    ~finally:(fun () -> Obs.release reg)
    (fun () ->
      Obs.with_registry reg (fun () ->
          let count () = Metrics.count "fsm.tabulations" in
          let m = Oracles.Fsm.of_table fig2_rows in
          Alcotest.(check int) "one tabulation per machine built" 1 (count ());
          ignore
            ( Fsm.output_word m [ 0; 0; 1 ],
              Fsm.final_state m [ 0; 0; 1 ],
              Fsm.valid_inputs m 2,
              Fsm.reachable m,
              Fsm.n_reachable m,
              Fsm.transitions m,
              Fsm.transition_codes m,
              Fsm.n_transitions m,
              Fsm.transition_graph m,
              Fsm.tables m,
              Fsm.compiled_bytes m );
          ignore
            ( Fsm.distinguish m 0 1,
              Fsm.forall_k_distinguishable m ~k:2 0 1,
              Fsm.forall_k_matrix m ~k:2,
              Fsm.min_forall_k m,
              Fsm.classes m );
          Alcotest.(check int) "no query tabulates" 1 (count ());
          ignore (Fsm.minimize m);
          Alcotest.(check int) "a quotient is a machine built" 2 (count ())))

let test_minimize_counter () =
  let q, cls = Fsm.minimize counter3 in
  Alcotest.(check int) "already minimal" 3 q.Fsm.n_states;
  Alcotest.(check bool) "classes distinct" true (cls.(0) <> cls.(1) && cls.(1) <> cls.(2))

let test_minimize_merges () =
  (* two equivalent states 1 and 2 (same outputs, same successor) *)
  let m =
    Oracles.Fsm.of_table
      [
        (0, 0, 1, 0);
        (0, 1, 2, 0);
        (1, 0, 0, 1);
        (1, 1, 0, 2);
        (2, 0, 0, 1);
        (2, 1, 0, 2);
      ]
  in
  let q, cls = Fsm.minimize m in
  Alcotest.(check int) "merged to 2 states" 2 q.Fsm.n_states;
  Alcotest.(check int) "1 and 2 same class" cls.(1) cls.(2);
  (* quotient is equivalent to the original *)
  match Oracles.Fsm.equivalent m q with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "quotient not equivalent"
  | Error e -> Alcotest.fail e

let test_minimize_drops_unreachable () =
  (* 5 reachable states, of which "4" and "5" are equivalent (only r is
     valid, same output, same successor): quotient has 4 states. *)
  let q, cls = Fsm.minimize fig2 in
  Alcotest.(check int) "unreachable dropped, equivalent merged" 4 q.Fsm.n_states;
  Alcotest.(check int) "unreachable state unclassified" (-1) cls.(3);
  Alcotest.(check int) "4 and 5 merged" cls.(4) cls.(6)

let test_random_connected_is_connected () =
  let rng = Simcov_util.Rng.create 99 in
  for _ = 1 to 10 do
    let m = Fsm.random_connected rng ~n_states:8 ~n_inputs:2 ~n_outputs:3 in
    Alcotest.(check int) "all states reachable" 8 (Fsm.n_reachable m);
    Alcotest.(check bool) "transition graph SC" true
      (Oracles.Scc.is_strongly_connected (Fsm.transition_graph m))
  done

let qcheck_minimize_equivalent =
  QCheck.Test.make ~name:"fsm: minimize yields an equivalent machine" ~count:50
    QCheck.(triple (int_range 2 10) (int_range 1 3) (int_range 1 200))
    (fun (n, k, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      let q, _ = Fsm.minimize m in
      match Oracles.Fsm.equivalent m q with Ok [] -> true | _ -> false)

let qcheck_distinguish_sound =
  QCheck.Test.make ~name:"fsm: distinguishing words do distinguish" ~count:50
    QCheck.(pair (int_range 3 8) (int_range 1 500))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:2 ~n_outputs:2 in
      let ok = ref true in
      for s1 = 0 to n - 1 do
        for s2 = 0 to n - 1 do
          match Fsm.distinguish m s1 s2 with
          | None -> ()
          | Some w ->
              let run_from s word =
                List.fold_left
                  (fun (s, acc) i ->
                    let s', o = Oracles.Fsm.step m s i in
                    (s', o :: acc))
                  (s, []) word
                |> snd
              in
              if run_from s1 w = run_from s2 w then ok := false
        done
      done;
      !ok)

let qcheck_forall_k_monotone =
  QCheck.Test.make ~name:"fsm: forall-k distinguishability is monotone in k" ~count:40
    QCheck.(pair (int_range 3 7) (int_range 1 300))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:2 ~n_outputs:3 in
      let m1 = Fsm.forall_k_matrix m ~k:1 in
      let m2 = Fsm.forall_k_matrix m ~k:2 in
      let m3 = Fsm.forall_k_matrix m ~k:3 in
      let ok = ref true in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if m1.(p).(q) && not m2.(p).(q) then ok := false;
          if m2.(p).(q) && not m3.(p).(q) then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "make defaults" `Quick test_make_defaults;
    Alcotest.test_case "step/run" `Quick test_step_run;
    Alcotest.test_case "step invalid" `Quick test_step_invalid;
    Alcotest.test_case "of_table shape" `Quick test_of_table_shape;
    Alcotest.test_case "tabulate preserves" `Quick test_tabulate_preserves;
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "transitions reachable only" `Quick test_transitions_reachable_only;
    Alcotest.test_case "transition graph" `Quick test_transition_graph;
    Alcotest.test_case "equivalent same" `Quick test_equivalent_same;
    Alcotest.test_case "equivalent output diff" `Quick test_equivalent_detects_output_difference;
    Alcotest.test_case "equivalent transfer diff" `Quick test_equivalent_detects_transfer_difference;
    Alcotest.test_case "equivalent shortest" `Quick test_equivalent_shortest;
    Alcotest.test_case "distinguish" `Quick test_distinguish;
    Alcotest.test_case "distinguish equivalent" `Quick test_distinguish_equivalent_states;
    Alcotest.test_case "forall-k merging input" `Quick test_forall_k;
    Alcotest.test_case "forall-k positive" `Quick test_forall_k_positive;
    Alcotest.test_case "forall-k two steps" `Quick test_forall_k_needs_two_steps;
    Alcotest.test_case "forall-k matrix agrees" `Quick test_forall_k_matrix_agrees;
    Alcotest.test_case "min forall-k none" `Quick test_min_forall_k_none_on_equivalent;
    Alcotest.test_case "minimize counter" `Quick test_minimize_counter;
    Alcotest.test_case "minimize merges" `Quick test_minimize_merges;
    Alcotest.test_case "minimize drops unreachable" `Quick test_minimize_drops_unreachable;
    Alcotest.test_case "random connected" `Quick test_random_connected_is_connected;
    QCheck_alcotest.to_alcotest qcheck_minimize_equivalent;
    QCheck_alcotest.to_alcotest qcheck_distinguish_sound;
    QCheck_alcotest.to_alcotest qcheck_forall_k_monotone;
    QCheck_alcotest.to_alcotest qcheck_min_forall_k_brute;
    QCheck_alcotest.to_alcotest qcheck_compiled_queries;
    QCheck_alcotest.to_alcotest qcheck_replay_readers;
    Alcotest.test_case "a machine is compiled once, when built" `Quick test_compiled_once;
  ]

let _ = (fig2_states, fig2_inputs)

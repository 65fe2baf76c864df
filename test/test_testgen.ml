open Simcov_fsm
open Simcov_testgen

let counter3 =
  Fsm.make ~n_states:3 ~n_inputs:2
    ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
    ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else s)
    ()

let test_transition_tour_counter () =
  match Tour.transition_tour counter3 with
  | None -> Alcotest.fail "expected tour"
  | Some t ->
      Alcotest.(check bool) "is a tour" true (Tour.word_is_tour counter3 t.Tour.word);
      Alcotest.(check int) "covers 6 transitions" 6 t.Tour.n_transitions;
      Alcotest.(check int) "length = list length" (List.length t.Tour.word) t.Tour.length;
      (* returns to reset: closed walk *)
      Alcotest.(check int) "closed" counter3.Fsm.reset
        (Fsm.final_state counter3 t.Tour.word)

let test_tour_length_optimality () =
  (* counter3's transition graph: in/out degrees — state 0 has in-degree
     4 (resets from 0,1,2 plus 2->0 increment) and out-degree 2, so
     extra traversals are needed; CPP must do no worse than greedy. *)
  match (Tour.transition_tour counter3, Tour.greedy_transition_tour counter3) with
  | Some opt, Some greedy ->
      Alcotest.(check bool) "optimal <= greedy" true (opt.Tour.length <= greedy.Tour.length);
      Alcotest.(check bool) "greedy also a tour" true
        (Tour.word_is_tour counter3 greedy.Tour.word)
  | _ -> Alcotest.fail "tours must exist"

let test_state_tour () =
  match Tour.state_tour counter3 with
  | None -> Alcotest.fail "expected state tour"
  | Some t ->
      let visited = Hashtbl.create 8 in
      Hashtbl.replace visited counter3.Fsm.reset ();
      let _ =
        List.fold_left
          (fun s i ->
            let s' = fst (Oracles.Fsm.step counter3 s i) in
            Hashtbl.replace visited s' ();
            s')
          counter3.Fsm.reset t.Tour.word
      in
      Alcotest.(check int) "all states" 3 (Hashtbl.length visited);
      Alcotest.(check bool) "shorter than transition tour" true (t.Tour.length <= 6)

let test_tour_none_on_non_sc () =
  (* one-way machine: 0 -> 1 with no way back *)
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 0, 1, 0) ] in
  Alcotest.(check bool) "no closed tour" true (Tour.transition_tour m = None)

let test_transition_cover_non_sc () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (0, 1, 2, 0); (1, 0, 1, 1); (2, 0, 2, 2) ] in
  let segments = Tour.transition_cover_segments m in
  Alcotest.(check bool) "multiple segments needed" true (List.length segments >= 2);
  (* together the segments cover all transitions *)
  let covered = Hashtbl.create 16 in
  List.iter
    (fun seg ->
      let rec go s = function
        | [] -> ()
        | i :: rest ->
            Hashtbl.replace covered (s, i) ();
            go (m.Fsm.next s i) rest
      in
      go m.Fsm.reset seg)
    segments;
  Alcotest.(check int) "all transitions covered" (Fsm.n_transitions m)
    (Hashtbl.length covered)

let test_random_word_valid () =
  let rng = Simcov_util.Rng.create 31 in
  let word = Tour.random_word rng counter3 ~length:50 in
  Alcotest.(check int) "full length" 50 (List.length word);
  (* must not raise *)
  ignore (Oracles.Fsm.run counter3 word)

let test_random_word_respects_validity () =
  let m = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 1, 0, 0) ] in
  let rng = Simcov_util.Rng.create 8 in
  let word = Tour.random_word rng m ~length:20 in
  ignore (Oracles.Fsm.run m word);
  Alcotest.(check int) "alternates" 20 (List.length word)

let test_word_is_tour_negative () =
  Alcotest.(check bool) "empty word is not a tour" false (Tour.word_is_tour counter3 [])

let test_word_is_tour_poisoned_suffix () =
  (* a complete tour followed by an input that is invalid where it lands
     must be rejected: such a word cannot be replayed end to end, even
     though its covering prefix is a tour *)
  let m =
    Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 1, 2, 1); (2, 0, 0, 2); (2, 1, 1, 3) ]
  in
  match Tour.transition_tour m with
  | None -> Alcotest.fail "expected tour"
  | Some t ->
      let word = t.Tour.word in
      Alcotest.(check bool) "tour accepted" true (Tour.word_is_tour m word);
      let final = Fsm.final_state m word in
      (* input 1 is invalid in states 0 (reset, where a closed tour
         ends); pick any input invalid at the final state *)
      let bad =
        match List.find_opt (fun i -> not (m.Fsm.valid final i)) [ 0; 1 ] with
        | Some i -> i
        | None -> Alcotest.fail "final state accepts every input"
      in
      Alcotest.(check bool)
        "poisoned suffix rejected" false
        (Tour.word_is_tour m (word @ [ bad ]));
      (* poison in the middle, not just at the end *)
      Alcotest.(check bool)
        "poisoned middle rejected" false
        (Tour.word_is_tour m (word @ [ bad ] @ word))

let test_tour_partial_validity () =
  (* machine with per-state valid inputs; tour must only use valid ones *)
  let m =
    Oracles.Fsm.of_table
      [
        (0, 0, 1, 0);
        (1, 1, 2, 1);
        (2, 0, 0, 2);
        (2, 1, 1, 3);
      ]
  in
  match Tour.transition_tour m with
  | None -> Alcotest.fail "expected tour"
  | Some t ->
      ignore (Oracles.Fsm.run m t.Tour.word);
      Alcotest.(check bool) "tour" true (Tour.word_is_tour m t.Tour.word)

let qcheck_tour_on_random_machines =
  QCheck.Test.make ~name:"testgen: CPP tour covers all transitions on random machines"
    ~count:50
    QCheck.(triple (int_range 2 12) (int_range 1 3) (int_range 1 999))
    (fun (n, k, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      match Tour.transition_tour m with
      | None -> false
      | Some t ->
          Tour.word_is_tour m t.Tour.word
          && t.Tour.length >= t.Tour.n_transitions
          && t.Tour.extra = t.Tour.length - t.Tour.n_transitions)

let qcheck_greedy_tour_valid =
  QCheck.Test.make ~name:"testgen: greedy tour is executable and covering" ~count:50
    QCheck.(pair (int_range 2 10) (int_range 1 999))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:2 ~n_outputs:2 in
      match Tour.greedy_transition_tour m with
      | None -> false
      | Some t -> (
          try
            ignore (Oracles.Fsm.run m t.Tour.word);
            Tour.word_is_tour m t.Tour.word
          with Invalid_argument _ -> false))

let qcheck_state_tour_visits_all =
  QCheck.Test.make ~name:"testgen: state tour visits every reachable state" ~count:50
    QCheck.(pair (int_range 2 10) (int_range 1 999))
    (fun (n, seed) ->
      let rng = Simcov_util.Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:2 ~n_outputs:2 in
      match Tour.state_tour m with
      | None -> false
      | Some t ->
          let visited = Hashtbl.create 16 in
          Hashtbl.replace visited m.Fsm.reset ();
          let _ =
            List.fold_left
              (fun s i ->
                let s' = fst (Oracles.Fsm.step m s i) in
                Hashtbl.replace visited s' ();
                s')
              m.Fsm.reset t.Tour.word
          in
          Hashtbl.length visited = Fsm.n_reachable m)

let suite =
  [
    Alcotest.test_case "transition tour counter" `Quick test_transition_tour_counter;
    Alcotest.test_case "tour optimality" `Quick test_tour_length_optimality;
    Alcotest.test_case "state tour" `Quick test_state_tour;
    Alcotest.test_case "no tour on non-SC" `Quick test_tour_none_on_non_sc;
    Alcotest.test_case "transition cover non-SC" `Quick test_transition_cover_non_sc;
    Alcotest.test_case "random word valid" `Quick test_random_word_valid;
    Alcotest.test_case "random word validity" `Quick test_random_word_respects_validity;
    Alcotest.test_case "word_is_tour negative" `Quick test_word_is_tour_negative;
    Alcotest.test_case "word_is_tour poisoned suffix" `Quick
      test_word_is_tour_poisoned_suffix;
    Alcotest.test_case "tour partial validity" `Quick test_tour_partial_validity;
    QCheck_alcotest.to_alcotest qcheck_tour_on_random_machines;
    QCheck_alcotest.to_alcotest qcheck_greedy_tour_valid;
    QCheck_alcotest.to_alcotest qcheck_state_tour_visits_all;
  ]

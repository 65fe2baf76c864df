open Simcov_core

let test_structure () =
  Alcotest.(check int) "7 states" 7 Fig2.original.Simcov_fsm.Fsm.n_states;
  Alcotest.(check int) "5 inputs" 5 Fig2.original.Simcov_fsm.Fsm.n_inputs;
  (* 3' and 4' are unreachable in the correct machine *)
  let r = Simcov_fsm.Fsm.reachable Fig2.original in
  Alcotest.(check bool) "3' unreachable" false r.(3);
  Alcotest.(check bool) "4' unreachable" false r.(5)

let test_both_words_are_tours () =
  List.iter
    (fun (r : Fig2.row) ->
      Alcotest.(check bool) (r.Fig2.machine ^ ": " ^ r.Fig2.tour) true r.Fig2.is_tour)
    (Fig2.experiment ());
  List.iter
    (fun (m, name) ->
      Alcotest.(check bool) (name ^ ": via b") true
        (Simcov_testgen.Tour.word_is_tour m Oracles.Fig2.tour_via_b);
      Alcotest.(check bool) (name ^ ": via c") true
        (Simcov_testgen.Tour.word_is_tour m Oracles.Fig2.tour_via_c))
    [ (Fig2.original, "original"); (Fig2.repaired, "repaired") ]

let test_single_excitation () =
  (* each demonstration tour traverses the faulty (2, a) transition
     exactly once — the point of the figure *)
  let count word =
    let m = Fig2.original in
    let rec go s acc = function
      | [] -> acc
      | i :: rest ->
          let s', _ = Oracles.Fsm.step m s i in
          go s' (if s = 1 && i = 0 then acc + 1 else acc) rest
    in
    go m.Simcov_fsm.Fsm.reset 0 word
  in
  Alcotest.(check int) "via b: once" 1 (count Oracles.Fig2.tour_via_b);
  Alcotest.(check int) "via c: once" 1 (count Oracles.Fig2.tour_via_c)

let test_experiment_shape () =
  let rows = Fig2.experiment () in
  Alcotest.(check int) "four rows" 4 (List.length rows);
  let detected =
    List.map (fun (r : Fig2.row) -> (r.Fig2.machine, r.Fig2.tour, r.Fig2.detected)) rows
  in
  Alcotest.(check bool) "original via c misses" true
    (List.mem ("original", "<a,c> first", false) detected);
  Alcotest.(check bool) "original via b detects" true
    (List.mem ("original", "<a,b> first", true) detected);
  Alcotest.(check bool) "repaired always detects" true
    (List.for_all
       (fun (m, _, d) -> if m = "repaired" then d else true)
       detected)

let test_repaired_certifies_original_does_not () =
  Alcotest.(check bool) "original refuses (scope All)" true
    (Result.is_error (Completeness.certify ~scope:`All Fig2.original));
  Alcotest.(check bool) "repaired certifies (scope All)" true
    (Result.is_ok (Completeness.certify ~scope:`All Fig2.repaired))

let test_random_detection_gap () =
  let rng = Simcov_util.Rng.create 2026 in
  let d_orig = Fig2.random_tour_detection rng ~n:100 Fig2.original in
  let d_rep = Fig2.random_tour_detection rng ~n:100 Fig2.repaired in
  Alcotest.(check int) "repaired: certain" 100 d_rep;
  Alcotest.(check bool) "original: uncertain" true (d_orig < 100)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "both words are tours" `Quick test_both_words_are_tours;
    Alcotest.test_case "single excitation" `Quick test_single_excitation;
    Alcotest.test_case "experiment shape" `Quick test_experiment_shape;
    Alcotest.test_case "certification gap" `Quick test_repaired_certifies_original_does_not;
    Alcotest.test_case "random detection gap" `Quick test_random_detection_gap;
  ]

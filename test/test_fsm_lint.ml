(* FSM static analysis: golden machines with known defects, and QCheck
   properties tying the lint verdicts to the ground-truth algorithms
   (minimization, fault simulation) they are meant to predict. *)

open Simcov_fsm
open Simcov_analysis
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Rng = Simcov_util.Rng
module Detect = Simcov_coverage.Detect
module Fault = Simcov_coverage.Fault
module Tour = Simcov_testgen.Tour

let has code r = List.exists (fun d -> d.Diag.code = code) r.Fsm_lint.diags
let diag code r = List.find (fun d -> d.Diag.code = code) r.Fsm_lint.diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- golden machines ---- *)

(* minimal, strongly connected, total: the clean baseline *)
let counter3 =
  Fsm.make ~n_states:3 ~n_inputs:2
    ~next:(fun s i -> if i = 0 then (s + 1) mod 3 else 0)
    ~output:(fun s i -> if i = 0 then (s + 1) mod 3 else s)
    ()

(* states 1 and 2 are behaviorally identical: SA620 *)
let nonminimal =
  Oracles.Fsm.of_table
    [ (0, 0, 1, 0); (0, 1, 2, 0); (1, 0, 0, 1); (2, 0, 0, 1) ]

(* state 1 is a sink with a self-loop: reachable but no way back, SA610 *)
let oneway = Oracles.Fsm.of_table [ (0, 0, 1, 0); (1, 0, 1, 1) ]

(* state 1 is reachable and accepts no input at all: SA601 (and SA610) *)
let deadend = Oracles.Fsm.of_table [ (0, 0, 1, 0) ]

(* state 1 appears only as a source: SA602 unreachable *)
let unreachable = Oracles.Fsm.of_table [ (0, 0, 0, 0); (1, 0, 0, 1) ]

(* input 1 is valid nowhere (alphabet inferred from the max index): SA603 *)
let dead_input = Oracles.Fsm.of_table [ (0, 0, 0, 0); (0, 2, 0, 1) ]

let test_clean_machine () =
  let r = Fsm_lint.run ~name:"counter3" counter3 in
  Alcotest.(check int) "no errors" 0 (Diag.count r.Fsm_lint.diags Diag.Error);
  Alcotest.(check bool) "passes --fail-on error" false
    (Diag.fails r.Fsm_lint.diags ~threshold:Diag.Error);
  Alcotest.(check int) "one SCC" 1 r.Fsm_lint.stats.Fsm_lint.n_sccs;
  Alcotest.(check int) "3 classes" 3 r.Fsm_lint.stats.Fsm_lint.n_classes;
  (match r.Fsm_lint.stats.Fsm_lint.certified_k with
  | None -> Alcotest.fail "expected a certified k"
  | Some k -> Alcotest.(check bool) "certified k positive" true (k >= 1));
  Alcotest.(check bool) "SA630 certificate present" true (has "SA630" r);
  Alcotest.(check (list string)) "nothing skipped" [] r.Fsm_lint.skipped;
  Alcotest.(check bool) "all passes ran" true
    (List.mem "fault-structural" r.Fsm_lint.passes)

let test_disconnected () =
  let r = Fsm_lint.run ~name:"oneway" oneway in
  Alcotest.(check bool) "SA610 reported" true (has "SA610" r);
  Alcotest.(check bool) "fails --fail-on error" true
    (Diag.fails r.Fsm_lint.diags ~threshold:Diag.Error);
  Alcotest.(check int) "two SCCs" 2 r.Fsm_lint.stats.Fsm_lint.n_sccs;
  (* the witness names a condensation cut edge *)
  let d = diag "SA610" r in
  Alcotest.(check bool) "cut-edge witness" true
    (List.exists (contains ~sub:"no way back") d.Diag.related);
  (* no tour exists, so the fault-structural pass cannot run *)
  Alcotest.(check bool) "fault-structural not claimed" false
    (List.mem "fault-structural" r.Fsm_lint.passes)

let test_nonminimal () =
  let r = Fsm_lint.run ~name:"nonminimal" nonminimal in
  Alcotest.(check bool) "SA620 reported" true (has "SA620" r);
  Alcotest.(check int) "2 classes over 3 states" 2
    r.Fsm_lint.stats.Fsm_lint.n_classes;
  Alcotest.(check bool) "no certified k" true
    (r.Fsm_lint.stats.Fsm_lint.certified_k = None);
  (* ∀k can never hold with an equivalent pair: the pass is skipped,
     not silently absent *)
  Alcotest.(check bool) "distinguishability skipped" true
    (List.mem "distinguishability" r.Fsm_lint.skipped)

let test_well_formedness_codes () =
  let r = Fsm_lint.run deadend in
  Alcotest.(check bool) "SA601 dead end" true (has "SA601" r);
  Alcotest.(check bool) "SA610 too" true (has "SA610" r);
  let r = Fsm_lint.run unreachable in
  Alcotest.(check bool) "SA602 unreachable" true (has "SA602" r);
  Alcotest.(check bool) "warning only" false
    (Diag.fails r.Fsm_lint.diags ~threshold:Diag.Error);
  let r = Fsm_lint.run dead_input in
  Alcotest.(check bool) "SA603 dead input" true (has "SA603" r);
  (* of_table machines are rarely completely specified *)
  let r = Fsm_lint.run nonminimal in
  Alcotest.(check bool) "SA605 partial spec" true (has "SA605" r)

let test_suite_cover () =
  (* words for counter3: [0;0;0] covers the increment cycle, [1] the
     reset from 0; the repeat adds nothing and the reset edges from
     states 1 and 2 stay uncovered *)
  let suite = [ [ 0; 0; 0 ]; [ 1 ]; [ 0; 0; 0 ] ] in
  let r = Fsm_lint.run ~suite counter3 in
  match r.Fsm_lint.suite with
  | None -> Alcotest.fail "suite report expected"
  | Some s ->
      Alcotest.(check int) "3 words" 3 s.Fsm_lint.n_words;
      Alcotest.(check int) "4 of 6 transitions" 4 s.Fsm_lint.suite_transitions;
      Alcotest.(check (list int)) "word 2 redundant" [ 2 ] s.Fsm_lint.redundant;
      Alcotest.(check (list (pair int int)))
        "missed resets" [ (1, 1); (2, 1) ]
        (List.sort compare s.Fsm_lint.missed);
      Alcotest.(check bool) "SA651 missed transitions" true (has "SA651" r);
      Alcotest.(check bool) "SA652 redundant word" true (has "SA652" r)

let test_suite_invalid_word () =
  (* input 1 is invalid in state 1 of [nonminimal]: the word dies there
     and only its executable prefix counts (matching Detect) *)
  let r = Fsm_lint.run ~suite:[ [ 0; 1 ] ] nonminimal in
  Alcotest.(check bool) "SA650 invalid input" true (has "SA650" r);
  match r.Fsm_lint.suite with
  | None -> Alcotest.fail "suite report expected"
  | Some s ->
      Alcotest.(check int) "prefix covers 1 transition" 1
        s.Fsm_lint.suite_transitions

let test_budget_skip () =
  let budget = Budget.create ~max_steps:2 () in
  let r = Fsm_lint.run ~budget ~suite:[ [ 0 ] ] counter3 in
  Alcotest.(check bool) "truncated" true (r.Fsm_lint.truncated <> None);
  Alcotest.(check bool) "skipped recorded" true (r.Fsm_lint.skipped <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%s not both run and skipped" p)
        false
        (List.mem p r.Fsm_lint.passes))
    r.Fsm_lint.skipped

(* ---- QCheck properties ---- *)

(* duplicate the reset state (clone its rows, redirect one incoming
   transition onto the clone): minimization must always catch it. The
   reset state is the one state that stays reachable no matter which
   incoming edge the redirect steals. *)
let clone_state (m : Fsm.t) s =
  let n = m.Fsm.n_states in
  let p, pi, _, _ =
    List.find (fun (_, _, nx, _) -> nx = s) (Fsm.transitions m)
  in
  Fsm.make ~n_states:(n + 1) ~n_inputs:m.Fsm.n_inputs ~reset:m.Fsm.reset
    ~valid:(fun st i -> m.Fsm.valid (if st = n then s else st) i)
    ~next:(fun st i ->
      if st = n then m.Fsm.next s i
      else if st = p && i = pi then n
      else m.Fsm.next st i)
    ~output:(fun st i -> m.Fsm.output (if st = n then s else st) i)
    ()

let qcheck_minimized_is_minimal =
  QCheck.Test.make ~name:"fsm_lint: minimized machine lints minimal" ~count:60
    QCheck.(triple (int_range 2 10) (int_range 1 3) (int_range 1 999))
    (fun (n, k, seed) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      let q, _ = Fsm.minimize m in
      let r = Fsm_lint.run q in
      (not (has "SA620" r))
      && r.Fsm_lint.stats.Fsm_lint.n_classes
         = r.Fsm_lint.stats.Fsm_lint.n_reachable)

let qcheck_duplicate_state_caught =
  QCheck.Test.make ~name:"fsm_lint: duplicated state always flagged SA620"
    ~count:60
    QCheck.(triple (int_range 2 8) (int_range 1 3) (int_range 1 999))
    (fun (n, k, seed) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      let m' = clone_state m m.Fsm.reset in
      let r = Fsm_lint.run m' in
      has "SA620" r && r.Fsm_lint.stats.Fsm_lint.certified_k = None)

let qcheck_suite_cover_matches_simulation =
  (* the suite-cover pass predicts coverage by graph walk; it must
     agree exactly with the pairs a word traverses from reset, up to
     its first invalid input *)
  QCheck.Test.make
    ~name:"fsm_lint: predicted suite coverage = simulated coverage" ~count:60
    QCheck.(
      quad (int_range 2 8) (int_range 1 3) (int_range 1 999)
        (list_of_size Gen.(1 -- 5) (list_of_size Gen.(0 -- 12) (int_bound 3))))
    (fun (n, k, seed, words) ->
      let n = max 2 n and k = max 1 k and seed = max 1 seed in
      let rng = Rng.create seed in
      let m = Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:2 in
      (* clamp symbols into the alphabet: random_connected machines are
         total with a permissive [valid], so an out-of-range symbol is
         an array overflow, not an invalid input (the invalid-input
         path is covered by the golden of_table test above) *)
      let words = List.map (List.map (fun i -> i mod k)) words in
      let r = Fsm_lint.run ~suite:words m in
      match r.Fsm_lint.suite with
      | None -> false
      | Some s ->
          let rec walk s acc = function
            | i :: rest when m.Fsm.valid s i -> walk (m.Fsm.next s i) ((s, i) :: acc) rest
            | _ -> acc
          in
          let simulated =
            List.sort_uniq compare (List.concat_map (walk m.Fsm.reset []) words)
          in
          let predicted =
            List.filter
              (fun (st, i, _, _) -> not (List.mem (st, i) s.Fsm_lint.missed))
              (Fsm.transitions m)
            |> List.map (fun (st, i, _, _) -> (st, i))
          in
          simulated = predicted
          && List.length simulated = s.Fsm_lint.suite_transitions)

(* ---- SA640 against the direct reference count ---- *)

(* SA640 names the count, the site count and the first example the
   reference loop finds on the same padded tour; no SA640 when it
   finds none, or when there is no tour to replay *)
let sa640_matches_oracle (m : Fsm.t) =
  let r = Fsm_lint.run m in
  match (Tour.facts m).Tour.tour with
  | None -> not (has "SA640" r)
  | Some tour -> (
      let k = Option.value ~default:1 r.Fsm_lint.stats.Fsm_lint.certified_k in
      match Oracles.Fsm_lint.r1_count m (Tour.pad m ~k tour.Tour.word) with
      | 0, _, _ -> not (has "SA640" r)
      | r1, sites, Some (s, i, o, p) ->
          let d = diag "SA640" r in
          let fault =
            Fault.Conditional_output
              { state = s; input = i; wrong_output = o + 1; prev = p }
          in
          let prefix =
            Printf.sprintf "%d non-uniform output error%s at %d site%s " r1
              (if r1 = 1 then "" else "s")
              sites
              (if sites = 1 then "" else "s")
          in
          d.Diag.loc = Diag.State (m.Fsm.state_name s)
          && d.Diag.related = [ Format.asprintf "%a" Fault.pp fault ]
          && String.starts_with ~prefix d.Diag.message
      | _ -> false)

(* input 0 closes a cycle through every state (strongly connected) or
   goes anywhere; every other input is valid with probability 7/10 *)
let random_partial rng ~n_states ~n_inputs =
  let cycle = Rng.bool rng in
  let rows = ref [] in
  for s = 0 to n_states - 1 do
    for i = 0 to n_inputs - 1 do
      if i = 0 || Rng.int rng 10 < 7 then
        let next =
          if i = 0 && cycle then (s + 1) mod n_states else Rng.int rng n_states
        in
        rows := (s, i, next, Rng.int rng 3) :: !rows
    done
  done;
  Oracles.Fsm.of_table (List.rev !rows)

let qcheck_sa640_matches_oracle =
  QCheck.Test.make
    ~name:"fsm_lint: SA640 = reference count (total and partial machines)"
    ~count:160
    QCheck.(quad bool (int_range 2 12) (int_range 1 4) (int_range 1 9999))
    (fun (partial, n, k, seed) ->
      let rng = Rng.create seed in
      sa640_matches_oracle
        (if partial then random_partial rng ~n_states:n ~n_inputs:k
         else Fsm.random_connected rng ~n_states:n ~n_inputs:k ~n_outputs:3))

let test_sa640_dlx () =
  List.iter
    (fun n_regs ->
      let m =
        Simcov_dlx.Testmodel.build
          { Simcov_dlx.Testmodel.default with Simcov_dlx.Testmodel.n_regs }
      in
      Alcotest.(check bool)
        (Printf.sprintf "SA640 = reference at %d registers" n_regs)
        true (sa640_matches_oracle m))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "clean machine certified" `Quick test_clean_machine;
    Alcotest.test_case "disconnected machine" `Quick test_disconnected;
    Alcotest.test_case "non-minimal machine" `Quick test_nonminimal;
    Alcotest.test_case "well-formedness codes" `Quick test_well_formedness_codes;
    Alcotest.test_case "suite cover prediction" `Quick test_suite_cover;
    Alcotest.test_case "suite invalid word" `Quick test_suite_invalid_word;
    Alcotest.test_case "budget skips recorded" `Quick test_budget_skip;
    QCheck_alcotest.to_alcotest qcheck_minimized_is_minimal;
    QCheck_alcotest.to_alcotest qcheck_duplicate_state_caught;
    QCheck_alcotest.to_alcotest qcheck_suite_cover_matches_simulation;
    Alcotest.test_case "SA640 = reference on DLX" `Quick test_sa640_dlx;
    QCheck_alcotest.to_alcotest qcheck_sa640_matches_oracle;
  ]

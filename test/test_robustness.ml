(* Chaos tests for the resource-governance layer: BDD garbage
   collection against a GC-free oracle, budgeted traversals and tours,
   the validate-dlx degradation ladder, and parser fuzzing. *)

open Simcov_bdd
open Simcov_netlist
module Budget = Simcov_util.Budget
module Rng = Simcov_util.Rng

(* structural equality of [a] in manager [m] and [b] in manager [o]
   (hash-consing only holds within one manager) *)
let rec same_shape m o a b =
  if Bdd.is_false a then Bdd.is_false b
  else if Bdd.is_true a then Bdd.is_true b
  else
    (not (Bdd.is_false b || Bdd.is_true b))
    && Bdd.topvar m a = Bdd.topvar o b
    && same_shape m o (Bdd.low m a) (Bdd.low o b)
    && same_shape m o (Bdd.high m a) (Bdd.high o b)

(* --- GC vs. oracle: random op sequences with forced sweeps --- *)

(* Run the same random 500-op sequence in a collected manager (sweep
   forced every [sweep_every] ops, every live value rooted) and in an
   untouched oracle manager; the value pools must stay node-for-node
   identical. *)
let gc_oracle_run ~seed ~sweep_every =
  let nvars = 10 in
  let m = Bdd.man nvars in
  let o = Bdd.man nvars in
  let rng = Rng.create seed in
  (* parallel pools; pool_m entries are rooted in m *)
  let pool_m = ref [| Bdd.btrue m |] in
  let pool_o = ref [| Bdd.btrue o |] in
  let roots = Hashtbl.create 64 in
  let push a b =
    Hashtbl.replace roots a (Bdd.add_root m a);
    pool_m := Array.append !pool_m [| a |];
    pool_o := Array.append !pool_o [| b |]
  in
  let pick_pair () =
    let i = Rng.int rng (Array.length !pool_m) in
    ((!pool_m).(i), (!pool_o).(i))
  in
  for step = 1 to 500 do
    (match Rng.int rng 7 with
    | 0 ->
        let v = Rng.int rng nvars in
        push (Bdd.var m v) (Bdd.var o v)
    | 1 ->
        let a, a' = pick_pair () in
        let b, b' = pick_pair () in
        push (Bdd.band m a b) (Bdd.band o a' b')
    | 2 ->
        let a, a' = pick_pair () in
        let b, b' = pick_pair () in
        push (Bdd.bor m a b) (Bdd.bor o a' b')
    | 3 ->
        let a, a' = pick_pair () in
        let b, b' = pick_pair () in
        push (Bdd.bxor m a b) (Bdd.bxor o a' b')
    | 4 ->
        let a, a' = pick_pair () in
        push (Bdd.bnot m a) (Bdd.bnot o a')
    | 5 ->
        let a, a' = pick_pair () in
        let b, b' = pick_pair () in
        let c, c' = pick_pair () in
        push (Bdd.ite m a b c) (Bdd.ite o a' b' c')
    | _ ->
        let a, a' = pick_pair () in
        let vs = [ Rng.int rng nvars; Rng.int rng nvars ] in
        push (Bdd.and_exists_list m vs [ a ]) (Bdd.and_exists_list o vs [ a' ]));
    if step mod sweep_every = 0 then ignore (Bdd.gc m)
  done;
  Array.iteri
    (fun i a ->
      if not (same_shape m o a (!pool_o).(i)) then
        Alcotest.failf "pool entry %d diverged after GC (seed %d)" i seed)
    !pool_m;
  (* hash-consing must survive: recomputing an old value physically
     rediscovers the rooted node *)
  let n = Array.length !pool_m in
  for i = 0 to n - 1 do
    for j = i + 1 to min (i + 5) (n - 1) do
      let fresh = Bdd.band m (!pool_m).(i) (!pool_m).(j) in
      let fresh' = Bdd.band m (!pool_m).(i) (!pool_m).(j) in
      Alcotest.(check bool) "recomputation is hash-consed" true
        (Bdd.equal fresh fresh')
    done
  done

let test_gc_oracle () =
  List.iter
    (fun (seed, k) -> gc_oracle_run ~seed ~sweep_every:k)
    [ (1, 25); (2, 50); (3, 100); (4, 7) ]

let test_gc_preserves_counts () =
  (* sat_count and size of a rooted BDD are identical before and after
     a sweep that reclaims garbage around it *)
  let m = Bdd.man 12 in
  let f =
    Bdd.protect m
      (Bdd.conj m
         (List.init 6 (fun i ->
              Bdd.bor m (Bdd.var m (2 * i)) (Bdd.nvar m ((2 * i) + 1)))))
  in
  (* garbage: a pile of unrooted intermediates *)
  for i = 0 to 10 do
    ignore (Bdd.bxor m f (Bdd.var m (i mod 12)))
  done;
  let count0 = Bdd.sat_count m ~nvars:12 f in
  let size0 = Bdd.size m f in
  let live_before = Bdd.node_count m in
  let freed = Bdd.gc m in
  Alcotest.(check bool) "something was reclaimed" true (freed > 0);
  Alcotest.(check bool) "live count dropped" true (Bdd.node_count m < live_before);
  Alcotest.(check (float 0.0)) "sat_count stable" count0 (Bdd.sat_count m ~nvars:12 f);
  Alcotest.(check int) "size stable" size0 (Bdd.size m f);
  let stats = Bdd.gc_stats m in
  Alcotest.(check bool) "stats recorded" true
    (stats.Bdd.runs >= 1 && stats.Bdd.reclaimed >= freed)

let test_freed_handle_refused () =
  (* an unrooted handle dangles after a collection: while its slot is
     free, operations refuse it instead of reading a dead node *)
  let m = Bdd.man 4 in
  let kept = Bdd.protect m (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)) in
  let lost = Bdd.bor m (Bdd.var m 2) (Bdd.nvar m 3) in
  Alcotest.(check bool) "collected" true (Bdd.gc m > 0);
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a freed handle" name
    | exception Invalid_argument _ -> ()
  in
  refused "band" (fun () -> ignore (Bdd.band m kept lost));
  refused "bnot" (fun () -> ignore (Bdd.bnot m lost));
  refused "and_exists" (fun () -> ignore (Bdd.and_exists m [ 2 ] kept lost));
  refused "sat_count" (fun () -> ignore (Bdd.sat_count m ~nvars:4 lost));
  refused "support" (fun () -> ignore (Bdd.support m lost));
  refused "add_root" (fun () -> ignore (Bdd.add_root m lost));
  (* rooted handles and literals are untouched *)
  Alcotest.(check (float 0.0)) "rooted handle" 4.0 (Bdd.sat_count m ~nvars:4 kept);
  Alcotest.(check (list int)) "literal" [ 2 ] (Bdd.support m (Bdd.var m 2))

let test_auto_gc_retry () =
  (* a node ceiling forces automatic collect-and-retry mid-operation;
     results must match an unlimited manager *)
  let nvars = 14 in
  let m = Bdd.man ~max_nodes:80 nvars in
  let o = Bdd.man nvars in
  let acc_m = ref (Bdd.btrue m) in
  let acc_o = ref (Bdd.btrue o) in
  let root = Bdd.add_root m !acc_m in
  for i = 0 to nvars - 2 do
    acc_m := Bdd.band m !acc_m (Bdd.bxor m (Bdd.var m i) (Bdd.var m (i + 1)));
    Bdd.set_root m root !acc_m;
    acc_o := Bdd.band o !acc_o (Bdd.bxor o (Bdd.var o i) (Bdd.var o (i + 1)))
  done;
  Alcotest.(check bool) "ceiling respected" true (Bdd.node_count m <= 80);
  Alcotest.(check bool) "collections happened" true ((Bdd.gc_stats m).Bdd.runs > 0);
  Alcotest.(check bool) "same function as oracle" true (same_shape m o !acc_m !acc_o)

let test_node_limit_raises_when_hopeless () =
  (* when even a sweep cannot fit the operands, Node_limit escapes and
     the manager stays usable *)
  let m = Bdd.man ~max_nodes:8 16 in
  let acc = ref (Bdd.btrue m) in
  let root = Bdd.add_root m !acc in
  (match
     for i = 0 to 15 do
       acc := Bdd.band m !acc (Bdd.bxor m (Bdd.var m i) (Bdd.var m ((i + 7) mod 16)));
       Bdd.set_root m root !acc
     done
   with
  | () -> Alcotest.fail "expected Node_limit"
  | exception Bdd.Node_limit _ -> ());
  (* still usable afterwards *)
  Alcotest.(check bool) "manager alive" true
    (Bdd.is_true (Bdd.bor m !acc (Bdd.bnot m !acc)))

let test_unlimited_budget_is_stateless () =
  (* the shared unlimited budget is a singleton: stepping it must not
     accumulate state across unrelated computations *)
  Budget.step Budget.unlimited;
  Budget.step Budget.unlimited;
  Alcotest.(check int) "no steps accumulate" 0 (Budget.steps_used Budget.unlimited)

(* --- budgeted traversal and tour --- *)

let toggle_circuit () =
  let open Circuit.Build in
  let ctx = create "toggle3" in
  let en = input ctx "en" in
  let b = reg_vec ctx "b" 3 in
  (* 3-bit binary counter, gated by [en] *)
  let next =
    [|
      Expr.( !! ) b.(0);
      Expr.( ^^^ ) b.(1) b.(0);
      Expr.( ^^^ ) b.(2) (Expr.( &&& ) b.(1) b.(0));
    |]
  in
  Array.iteri (fun i r -> assign ctx r (Expr.mux en next.(i) r)) b;
  output ctx "msb" b.(2);
  finish ctx

let test_traverse_truncation_is_sound () =
  let c = toggle_circuit () in
  let sym = Simcov_symbolic.Symfsm.of_circuit c in
  let exact = Simcov_symbolic.Symfsm.traverse sym in
  Alcotest.(check bool) "exact is exact" true
    (exact.Simcov_symbolic.Symfsm.truncated = None);
  let man = sym.Simcov_symbolic.Symfsm.man in
  for max_steps = 1 to 4 do
    let budget = Budget.create ~max_steps () in
    let tr = Simcov_symbolic.Symfsm.traverse ~budget sym in
    Alcotest.(check bool)
      (Printf.sprintf "truncated at %d steps" max_steps)
      true
      (tr.Simcov_symbolic.Symfsm.truncated = Some Budget.Steps);
    (* the partial reached set under-approximates the fixpoint *)
    let outside =
      Bdd.band man tr.Simcov_symbolic.Symfsm.reached
        (Bdd.bnot man exact.Simcov_symbolic.Symfsm.reached)
    in
    Alcotest.(check bool) "subset of the fixpoint" true (Bdd.is_false outside);
    Alcotest.(check bool) "iterations bounded" true
      (tr.Simcov_symbolic.Symfsm.iterations <= max_steps)
  done

let test_gc_interleaved_traversal_agrees () =
  (* regression for the rooting contract: collections forced by a node
     ceiling in the middle of of_circuit / traverse — sweeping while
     expr_bdd siblings, image results and frontier sets are held as
     intermediates — must leave the fixpoint identical to an unlimited
     oracle, or truncate to a sound under-approximation; never raise *)
  let c = toggle_circuit () in
  let oracle = Simcov_symbolic.Symfsm.of_circuit c in
  let exact = Simcov_symbolic.Symfsm.traverse oracle in
  let exact_states =
    Simcov_symbolic.Symfsm.count_states oracle exact.Simcov_symbolic.Symfsm.reached
  in
  let gc_complete_runs = ref 0 in
  List.iter
    (fun max_nodes ->
      match
        Simcov_symbolic.Symfsm.of_circuit ~budget:(Budget.create ~max_nodes ()) c
      with
      | exception Bdd.Node_limit _ -> () (* even the relation does not fit *)
      | sym -> (
          let tr = Simcov_symbolic.Symfsm.traverse sym in
          let states =
            Simcov_symbolic.Symfsm.count_states sym
              tr.Simcov_symbolic.Symfsm.reached
          in
          match tr.Simcov_symbolic.Symfsm.truncated with
          | Some Budget.Nodes ->
              Alcotest.(check bool)
                (Printf.sprintf "ceiling %d: truncation is sound" max_nodes)
                true (states <= exact_states)
          | Some r ->
              Alcotest.failf "ceiling %d: unexpected truncation by %s" max_nodes
                (Budget.resource_name r)
          | None ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "ceiling %d: fixpoint agrees" max_nodes)
                exact_states states;
              if (Bdd.gc_stats sym.Simcov_symbolic.Symfsm.man).Bdd.runs > 0 then
                incr gc_complete_runs))
    [ 40; 50; 60; 70; 80; 100; 120 ];
  (* the sweep must include runs that both garbage-collected and
     completed exactly — otherwise the ceilings stopped exercising the
     GC-interleaved path and need retuning *)
  Alcotest.(check bool) "GC-interleaved exact runs observed" true
    (!gc_complete_runs >= 2)

let test_symtour_chaos_budgets () =
  let c = toggle_circuit () in
  let exact = Simcov_symbolic.Symtour.generate c in
  Alcotest.(check bool) "unbudgeted tour completes" true
    exact.Simcov_symbolic.Symtour.complete;
  let rng = Rng.create 77 in
  for trial = 1 to 12 do
    let budget =
      match Rng.int rng 3 with
      | 0 -> Budget.create ~max_steps:(1 + Rng.int rng 5) ()
      | 1 -> Budget.create ~max_nodes:(30 + Rng.int rng 200) ()
      | _ ->
          Budget.create
            ~max_steps:(1 + Rng.int rng 5)
            ~max_nodes:(30 + Rng.int rng 200) ()
    in
    match Simcov_symbolic.Symtour.generate ~budget c with
    | r ->
        (* a well-formed partial result: progress never exceeds the
           total and completeness implies no truncation *)
        let p = r.Simcov_symbolic.Symtour.progress in
        Alcotest.(check bool) "covered <= total" true
          (p.Simcov_symbolic.Symtour.covered <= p.Simcov_symbolic.Symtour.total +. 0.5);
        Alcotest.(check int) "word matches steps"
          p.Simcov_symbolic.Symtour.steps
          (List.length r.Simcov_symbolic.Symtour.word);
        if r.Simcov_symbolic.Symtour.complete then
          Alcotest.(check bool) "complete implies not truncated" true
            (r.Simcov_symbolic.Symtour.truncated_by = None)
    | exception e ->
        Alcotest.failf "tour raised %s (trial %d)" (Printexc.to_string e) trial
  done

(* --- the validate-dlx degradation ladder --- *)

let test_ladder_tiny_node_budget () =
  let budget = Budget.create ~max_nodes:64 () in
  let r = Simcov_core.Methodology.validate_dlx ~budget () in
  let open Simcov_core.Methodology in
  Alcotest.(check bool) "explicit tier" true (r.symbolic.tier = Explicit);
  Alcotest.(check int) "the symbolic tier noted" 1
    (List.length r.symbolic.degradations);
  (* the explicit figures agree with the tabulated model *)
  Alcotest.(check (float 0.0)) "states" (float_of_int r.model_states)
    r.symbolic.sym_states;
  Alcotest.(check (float 0.0)) "transitions"
    (float_of_int r.model_transitions)
    r.symbolic.sym_transitions;
  (* and the rest of the pipeline was untouched by the degradation *)
  Alcotest.(check bool) "certificate still holds" true (Result.is_ok r.certificate);
  Alcotest.(check int) "all bugs still found" (List.length r.bug_results)
    r.n_bugs_detected

let test_ladder_unlimited_symbolic_agrees () =
  let r = Simcov_core.Methodology.validate_dlx () in
  let open Simcov_core.Methodology in
  Alcotest.(check bool) "top tier" true (r.symbolic.tier = Partitioned_symbolic);
  Alcotest.(check (list string)) "no degradation" [] r.symbolic.degradations;
  Alcotest.(check (float 0.0)) "symbolic states agree"
    (float_of_int r.model_states) r.symbolic.sym_states;
  Alcotest.(check (float 0.0)) "symbolic transitions agree"
    (float_of_int r.model_transitions)
    r.symbolic.sym_transitions

let test_validate_chaos_budgets () =
  (* random tightened budgets: the pipeline either returns a
     well-formed report or signals Budget_exceeded — never anything
     else *)
  let rng = Rng.create 4242 in
  for trial = 1 to 8 do
    let budget =
      match Rng.int rng 3 with
      | 0 -> Budget.create ~max_nodes:(32 + Rng.int rng 5000) ()
      | 1 -> Budget.create ~timeout_s:(float (Rng.int rng 50) /. 1000.) ()
      | _ ->
          Budget.create
            ~timeout_s:(0.01 +. (float (Rng.int rng 100) /. 1000.))
            ~max_nodes:(32 + Rng.int rng 5000) ()
    in
    match Simcov_core.Methodology.validate_dlx ~budget () with
    | r ->
        let open Simcov_core.Methodology in
        Alcotest.(check bool) "figures populated" true
          (r.symbolic.sym_states > 0.0 && r.symbolic.sym_transitions > 0.0);
        Alcotest.(check bool) "degradations explain the tier" true
          (match r.symbolic.tier with
          | Partitioned_symbolic -> r.symbolic.degradations = []
          | Explicit -> List.length r.symbolic.degradations = 1)
    | exception Budget.Budget_exceeded _ -> ()
    | exception e ->
        Alcotest.failf "validate_dlx raised %s (trial %d)" (Printexc.to_string e)
          trial
  done

(* --- serializer fuzzing --- *)

let test_serialize_fuzz () =
  let c = toggle_circuit () in
  let dump = Serialize.to_string c in
  let n = String.length dump in
  let rng = Rng.create 99 in
  for _ = 1 to 2000 do
    let b = Bytes.of_string dump in
    (* corrupt 1-3 random bytes with arbitrary values *)
    for _ = 0 to Rng.int rng 3 do
      Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256))
    done;
    let text = Bytes.to_string b in
    match Serialize.of_string text with
    | Ok _ -> ()
    | Error e ->
        (* positioned errors point into the input *)
        let open Serialize in
        if e.line < 0 || e.col < 0 then
          Alcotest.failf "negative error position for %S" text
    | exception e ->
        Alcotest.failf "of_string raised %s on corrupted dump" (Printexc.to_string e)
  done;
  (* truncation at every byte boundary is also harmless *)
  for k = 0 to n - 1 do
    match Serialize.of_string (String.sub dump 0 k) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "of_string raised %s on truncated dump" (Printexc.to_string e)
  done

(* --- crash chaos: SIGKILL a checkpointing campaign, resume it --- *)

module Campaign = Simcov_campaign.Campaign
module Covdb = Simcov_covdb.Covdb
module Detect = Simcov_coverage.Detect
module Fault = Simcov_coverage.Fault

let verdict_of_status = function
  | Covdb.Undetected ->
      {
        Campaign.detected = false;
        excited = false;
        detect_step = None;
        excite_step = None;
        masked_step = None;
      }
  | Covdb.Excited e ->
      {
        Campaign.detected = false;
        excited = true;
        detect_step = None;
        excite_step = Some e;
        masked_step = None;
      }
  | Covdb.Detected { excite_step; detect_step } ->
      {
        Campaign.detected = true;
        excited = excite_step <> None;
        detect_step = Some detect_step;
        excite_step;
        masked_step = None;
      }

let status_of_verdict (v : Campaign.verdict) =
  match (v.Campaign.detect_step, v.Campaign.excite_step) with
  | Some ds, es -> Covdb.Detected { excite_step = es; detect_step = ds }
  | None, Some es -> Covdb.Excited es
  | None, None -> Covdb.Undetected

(* the persisted fields: a snapshot does not keep [masked_step] *)
let campaign_verdict_eq (a : Campaign.verdict) (b : Campaign.verdict) =
  a.Campaign.detected = b.Campaign.detected
  && a.Campaign.excited = b.Campaign.excited
  && a.Campaign.detect_step = b.Campaign.detect_step
  && a.Campaign.excite_step = b.Campaign.excite_step

(* The tentpole's end-to-end durability claim, exercised with a real
   [kill -9]. [Unix.fork] is off-limits once any test has spawned a
   domain (OCaml 5 forbids mixing them), so the child is this very test
   binary re-executed with [SIMCOV_CHAOS_CHILD=<path>] in its
   environment: {!chaos_child_main} (dispatched from [test_main]
   before Alcotest starts) runs an FSM-fault campaign flushing a
   coverage snapshot after every batch. The parent kills it mid-run at
   an arbitrary point, loads whatever snapshot made it to disk, and
   resumes — the resumed run's verdicts must equal the uninterrupted
   reference exactly. Because [Covdb.save] is atomic (temp + fsync +
   rename), the parent can never observe a torn snapshot, only an
   older complete one or none at all — and any kill time whatsoever
   (before the first flush, mid-campaign, after completion) must
   produce the same final report. *)

(* parent and child rebuild the identical instance from the seed *)
let chaos_instance () =
  let rng = Rng.create 2026 in
  let m = Simcov_fsm.Fsm.random_connected rng ~n_states:12 ~n_inputs:3 ~n_outputs:3 in
  let faults =
    Fault.sample_transfer_faults rng m ~count:80
    @ Fault.sample_output_faults rng m ~n_outputs:3 ~count:80
  in
  let word = Simcov_testgen.Tour.random_word rng m ~length:120 in
  (m, faults, word)

let chaos_child_main path =
  let m, faults, word = chaos_instance () in
  (* one snapshot across the run, as [Service] keeps it: each flush
     adds the verdicts decided since the previous one and saves *)
  let db =
    Covdb.create
      {
        Covdb.backend = "fsm-fault";
        run = "chaos";
        config_hash = "0";
        stim_hash = "0";
        word_length = 120;
        total = List.length faults;
      }
  in
  let flush pairs =
    List.iter
      (fun (f, v) -> Covdb.set db (Fault.key f) (status_of_verdict v))
      pairs;
    Covdb.save db path
  in
  (* three 63-lane batches, a flush after every one, slowed down so
     the parent's kill lands mid-campaign *)
  ignore
    (Detect.campaign_outcome
       ~on_batch:(fun _ -> Unix.sleepf 0.005)
       ~checkpoint:{ Campaign.every = 1; flush }
       m faults word);
  exit 0

let test_kill_resume_equivalence () =
  if not Sys.unix then ()
  else begin
    let m, faults, word = chaos_instance () in
    let reference = Detect.campaign_outcome m faults word in
    for trial = 1 to 3 do
      let path = Filename.temp_file "simcov_chaos" ".covdb" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () ->
          (* the snapshot, plus any temp file orphaned by the kill *)
          let dir = Filename.dirname path and base = Filename.basename path in
          Array.iter
            (fun f ->
              if
                String.length f >= String.length base
                && String.sub f 0 (String.length base) = base
              then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir))
        (fun () ->
          let env =
            Array.append (Unix.environment ())
              [| "SIMCOV_CHAOS_CHILD=" ^ path |]
          in
          let pid =
            Unix.create_process_env Sys.executable_name
              [| Sys.executable_name |]
              env Unix.stdin Unix.stdout Unix.stderr
          in
          Unix.sleepf (0.02 *. float_of_int trial);
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          let snapshot = Hashtbl.create 128 in
          (match Covdb.load path with
          | Ok { Covdb.db; _ } ->
              Covdb.iter db (fun k s ->
                  Hashtbl.replace snapshot k (verdict_of_status s))
          | Error _ -> () (* killed before the first flush *));
          let resumed =
            Detect.campaign_outcome
              ~resume:(fun f -> Hashtbl.find_opt snapshot (Fault.key f))
              m faults word
          in
          Alcotest.(check int)
            (Printf.sprintf "trial %d: verdict count" trial)
            (List.length reference.Campaign.verdicts)
            (List.length resumed.Campaign.verdicts);
          List.iter2
            (fun (fa, va) (fb, vb) ->
              if fa <> fb then
                Alcotest.failf "trial %d: fault order differs" trial;
              Alcotest.(check bool)
                (Printf.sprintf "trial %d: verdict agrees" trial)
                true (campaign_verdict_eq va vb))
            reference.Campaign.verdicts resumed.Campaign.verdicts;
          Alcotest.(check int)
            (Printf.sprintf "trial %d: detected count" trial)
            reference.Campaign.report.Campaign.detected
            resumed.Campaign.report.Campaign.detected)
    done
  end

let suite =
  [
    Alcotest.test_case "gc vs oracle (random ops)" `Quick test_gc_oracle;
    Alcotest.test_case "gc preserves counts" `Quick test_gc_preserves_counts;
    Alcotest.test_case "auto gc-retry under ceiling" `Quick test_auto_gc_retry;
    Alcotest.test_case "node limit when hopeless" `Quick test_node_limit_raises_when_hopeless;
    Alcotest.test_case "unlimited budget stateless" `Quick test_unlimited_budget_is_stateless;
    Alcotest.test_case "traverse truncation sound" `Quick test_traverse_truncation_is_sound;
    Alcotest.test_case "gc-interleaved traversal agrees" `Quick
      test_gc_interleaved_traversal_agrees;
    Alcotest.test_case "symtour chaos budgets" `Quick test_symtour_chaos_budgets;
    Alcotest.test_case "ladder: tiny node budget" `Quick test_ladder_tiny_node_budget;
    Alcotest.test_case "ladder: unlimited agrees" `Quick test_ladder_unlimited_symbolic_agrees;
    Alcotest.test_case "validate chaos budgets" `Quick test_validate_chaos_budgets;
    Alcotest.test_case "serialize fuzz" `Quick test_serialize_fuzz;
    Alcotest.test_case "kill -9 + resume equals uninterrupted" `Quick
      test_kill_resume_equivalence;
    Alcotest.test_case "a handle freed by a collection is refused" `Quick
      test_freed_handle_refused;
  ]

(* The lockstep-equivalence contract of the unified campaign engine:
   the bit-parallel batched driver must agree with the scalar
   one-mutant-per-pass reference, verdict by verdict — detection,
   excitation, and the step each first occurred at — across lane
   boundaries and under budget truncation. *)

open Simcov_fsm
open Simcov_coverage
module Campaign = Simcov_campaign.Campaign
module Budget = Simcov_util.Budget
module Rng = Simcov_util.Rng

let verdict_eq (a : Campaign.verdict) (b : Campaign.verdict) =
  a.detected = b.detected && a.excited = b.excited
  && a.detect_step = b.detect_step
  && a.excite_step = b.excite_step

let check_outcomes_agree ~what (scalar : Fault.t Campaign.outcome)
    (batched : Fault.t Campaign.outcome) =
  let s = scalar.Campaign.report and b = batched.Campaign.report in
  if
    s.Campaign.effective <> b.Campaign.effective
    || s.Campaign.excited <> b.Campaign.excited
    || s.Campaign.detected <> b.Campaign.detected
  then
    QCheck.Test.fail_reportf
      "%s: report mismatch (scalar eff/exc/det %d/%d/%d, batched %d/%d/%d)" what
      s.Campaign.effective s.Campaign.excited s.Campaign.detected
      b.Campaign.effective b.Campaign.excited b.Campaign.detected;
  List.iter2
    (fun (fs, vs) (fb, vb) ->
      if not (Fault.equal fs fb) then
        QCheck.Test.fail_reportf "%s: verdict order differs" what;
      if not (verdict_eq vs vb) then
        QCheck.Test.fail_reportf
          "%s: verdict mismatch on %a (scalar det=%b@%s exc=%b@%s, batched \
           det=%b@%s exc=%b@%s)"
          what Fault.pp fs vs.Campaign.detected
          (match vs.Campaign.detect_step with Some n -> string_of_int n | None -> "-")
          vs.Campaign.excited
          (match vs.Campaign.excite_step with Some n -> string_of_int n | None -> "-")
          vb.Campaign.detected
          (match vb.Campaign.detect_step with Some n -> string_of_int n | None -> "-")
          vb.Campaign.excited
          (match vb.Campaign.excite_step with Some n -> string_of_int n | None -> "-"))
    scalar.Campaign.verdicts batched.Campaign.verdicts;
  true

(* a machine, a fault population mixing all three kinds, and a word *)
let random_instance seed =
  let rng = Rng.create seed in
  let n_states = 3 + Rng.int rng 20 in
  let n_inputs = 2 + Rng.int rng 3 in
  let n_outputs = 2 + Rng.int rng 3 in
  let m = Fsm.tabulate (Fsm.random_connected rng ~n_states ~n_inputs ~n_outputs) in
  let faults =
    Fault.sample_transfer_faults rng m ~count:20
    @ Fault.sample_output_faults rng m ~n_outputs ~count:20
    @ List.filter_map
        (fun (s, i, _, o) ->
          if Rng.int rng 10 = 0 then
            Some
              (Fault.Conditional_output
                 {
                   state = s;
                   input = i;
                   wrong_output = (o + 1) mod (n_outputs + 1);
                   prev = (Rng.int rng n_states, Rng.int rng n_inputs);
                 })
          else None)
        (Fsm.transitions m)
  in
  let word = Simcov_testgen.Tour.random_word rng m ~length:(20 + Rng.int rng 120) in
  (m, faults, word)

let qcheck_batched_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: batched verdicts = scalar verdicts (total machines)" ~count:80
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = random_instance seed in
      check_outcomes_agree ~what:"total machine"
        (Detect.campaign_scalar m faults word)
        (Detect.campaign_outcome m faults word))

(* partial machines: random validity holes exercise the halt path
   (golden rejects the next input) where a diverged mutant that still
   accepts it counts as detected *)
let random_partial_instance seed =
  let rng = Rng.create seed in
  let n_states = 3 + Rng.int rng 6 in
  let n_inputs = 2 + Rng.int rng 2 in
  let rows = ref [] in
  for s = 0 to n_states - 1 do
    for i = 0 to n_inputs - 1 do
      (* keep every state exit-capable via input 0; drop others freely *)
      if i = 0 || Rng.int rng 10 < 7 then
        rows := (s, i, Rng.int rng n_states, Rng.int rng 3) :: !rows
    done
  done;
  let m = Fsm.tabulate (Fsm.of_table (List.rev !rows)) in
  let faults =
    Fault.sample_transfer_faults rng m ~count:15
    @ Fault.sample_output_faults rng m ~n_outputs:3 ~count:15
  in
  (* deliberately unconstrained inputs: some steps are invalid on the
     golden machine, stopping the campaign word early *)
  let word = List.init (10 + Rng.int rng 60) (fun _ -> Rng.int rng n_inputs) in
  (m, faults, word)

let qcheck_batched_eq_scalar_partial =
  QCheck.Test.make
    ~name:"campaign: batched = scalar on partial machines (halt semantics)"
    ~count:80
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = random_partial_instance seed in
      check_outcomes_agree ~what:"partial machine"
        (Detect.campaign_scalar m faults word)
        (Detect.campaign_outcome m faults word))

(* out-of-alphabet stimuli: an input >= n_inputs is invalid in every
   state. The flat-table paths (tabulate's wrappers, the batched
   backend's site keys) used to index [s * k + i] with such an input,
   aliasing into state s+1's row — phantom transitions, phantom site
   hits, and an out-of-bounds read at the last state. QCheck found the
   original instance at seed 31382. *)
let test_out_of_alphabet_inputs () =
  let m =
    Fsm.tabulate
      (Fsm.of_table [ (0, 0, 1, 0); (0, 1, 2, 1); (1, 0, 2, 0); (2, 0, 0, 2) ])
  in
  (* tabulate's valid must bounds-check, including at the last state
     where the aliased index would run off the table *)
  Alcotest.(check bool) "input 2 invalid at s0" false (m.Fsm.valid 0 2);
  Alcotest.(check bool) "input 2 invalid at last state" false (m.Fsm.valid 2 2);
  Alcotest.(check bool) "input -1 invalid" false (m.Fsm.valid 1 (-1));
  let faults =
    List.filter (Fault.is_effective m)
      (Fault.all_transfer_faults m @ Fault.all_output_faults m)
  in
  Alcotest.(check bool) "population not empty" true (faults <> []);
  (* golden accepts the prefix [0; 0], then input 3 halts the word for
     golden and every mutant alike: nothing after it may count *)
  List.iter
    (fun word ->
      ignore
        (check_outcomes_agree ~what:"out-of-alphabet word"
           (Detect.campaign_scalar m faults word)
           (Detect.campaign_outcome m faults word)))
    [ [ 3 ]; [ 2; 0; 0 ]; [ 0; 0; 3; 0; 1 ]; [ 0; 2; 1; 0 ]; [ 0; 0; 0; 5 ] ];
  let halted = Detect.campaign m faults [ 3; 0; 0; 0 ] in
  Alcotest.(check int) "nothing detected past the halt" 0
    halted.Campaign.detected

(* lane-boundary fault counts: 1, Sys.int_size - 1, exactly one word,
   one word + 1, two words + 1 *)
let test_lane_boundaries () =
  let rng = Rng.create 42 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:15 ~n_inputs:3 ~n_outputs:3)
  in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let word = Simcov_testgen.Tour.random_word rng m ~length:200 in
  Alcotest.(check bool)
    "enough faults for the largest boundary" true
    (List.length all >= 127);
  List.iter
    (fun n ->
      let faults = List.filteri (fun i _ -> i < n) all in
      let scalar = Detect.campaign_scalar m faults word in
      let batched = Detect.campaign_outcome m faults word in
      ignore
        (check_outcomes_agree
           ~what:(Printf.sprintf "%d faults" n)
           scalar batched);
      Alcotest.(check int)
        (Printf.sprintf "%d faults: all evaluated" n)
        n batched.Campaign.report.Campaign.effective)
    [ 1; 62; 63; 64; 127 ]

(* budget truncation: whole batches are evaluated or skipped, and the
   evaluated prefix carries exactly the scalar verdicts *)
let test_budget_truncation_prefix () =
  let rng = Rng.create 7 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:12 ~n_inputs:3 ~n_outputs:3)
  in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let faults = List.filteri (fun i _ -> i < 150) all in
  let word = Simcov_testgen.Tour.random_word rng m ~length:150 in
  let full = Detect.campaign_scalar m faults word in
  let budget = Budget.create ~max_steps:1 () in
  let truncated = Detect.campaign_outcome ~budget m faults word in
  let r = truncated.Campaign.report in
  (match r.Campaign.truncated with
  | Some Budget.Steps -> ()
  | Some res -> Alcotest.failf "wrong resource: %s" (Budget.resource_name res)
  | None -> Alcotest.fail "campaign was not truncated");
  Alcotest.(check int) "whole batches only" 0 (r.Campaign.effective mod Sys.int_size);
  Alcotest.(check bool) "some faults skipped" true (r.Campaign.skipped > 0);
  Alcotest.(check int) "effective + skipped = population"
    (List.length faults)
    (r.Campaign.effective + r.Campaign.skipped);
  (* the evaluated prefix agrees with the scalar reference, fault by
     fault, and the counters are exactly the prefix's *)
  let prefix =
    List.filteri (fun i _ -> i < r.Campaign.effective) full.Campaign.verdicts
  in
  List.iter2
    (fun (fs, vs) (ft, vt) ->
      Alcotest.(check bool) "same fault" true (Fault.equal fs ft);
      Alcotest.(check bool) "same verdict" true (verdict_eq vs vt))
    prefix truncated.Campaign.verdicts;
  let count p = List.length (List.filter (fun (_, v) -> p v) prefix) in
  Alcotest.(check int) "prefix detected" (count (fun v -> v.Campaign.detected))
    r.Campaign.detected;
  Alcotest.(check int) "prefix excited" (count (fun v -> v.Campaign.excited))
    r.Campaign.excited

(* ---- wide lanes and domain sharding ----

   The FSM backend at every lane width, and the sharded driver, must be
   observationally identical to the scalar reference: same verdicts,
   same order, same counters. *)

let qcheck_wide_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: wide lanes / sharded = scalar (total machines)" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = random_instance seed in
      let scalar = Detect.campaign_scalar m faults word in
      ignore
        (check_outcomes_agree ~what:"wide 256" scalar
           (Detect.campaign_outcome ~lanes:256 m faults word));
      ignore
        (check_outcomes_agree ~what:"wide 512, jobs 2" scalar
           (Detect.campaign_outcome ~lanes:512 ~jobs:2 m faults word));
      check_outcomes_agree ~what:"native lanes, jobs 3" scalar
        (Detect.campaign_outcome ~jobs:3 m faults word))

let qcheck_wide_eq_scalar_partial =
  QCheck.Test.make
    ~name:"campaign: wide lanes / sharded = scalar (partial machines)" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = random_partial_instance seed in
      let scalar = Detect.campaign_scalar m faults word in
      ignore
        (check_outcomes_agree ~what:"partial, wide 256" scalar
           (Detect.campaign_outcome ~lanes:256 m faults word));
      check_outcomes_agree ~what:"partial, wide 256 jobs 2" scalar
        (Detect.campaign_outcome ~lanes:256 ~jobs:2 m faults word))

(* wide lane-boundary fault counts around one native word (63/64), one
   wide-word boundary (255/256/257) and a full 512-lane batch *)
let test_wide_lane_boundaries () =
  let rng = Rng.create 43 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:22 ~n_inputs:3 ~n_outputs:3)
  in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let word = Simcov_testgen.Tour.random_word rng m ~length:250 in
  Alcotest.(check bool)
    "enough faults for the largest boundary" true
    (List.length all >= 512);
  List.iter
    (fun n ->
      let faults = List.filteri (fun i _ -> i < n) all in
      let scalar = Detect.campaign_scalar m faults word in
      List.iter
        (fun lanes ->
          let o = Detect.campaign_outcome ~lanes m faults word in
          ignore
            (check_outcomes_agree
               ~what:(Printf.sprintf "%d faults at %d lanes" n lanes)
               scalar o);
          Alcotest.(check int)
            (Printf.sprintf "%d faults at %d lanes: all evaluated" n lanes)
            n o.Campaign.report.Campaign.effective)
        [ 256; 512 ])
    [ 63; 64; 255; 256; 257; 512 ]

(* sharded truncation: each shard evaluates whole batches forming a
   prefix of its contiguous slice; the merged verdict list is exactly
   the concatenation of those shard prefixes, and every evaluated
   verdict equals the scalar reference's *)
let test_sharded_truncation_prefix () =
  let rng = Rng.create 9 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:12 ~n_inputs:3 ~n_outputs:3)
  in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let faults = List.filteri (fun i _ -> i < 200) all in
  let word = Simcov_testgen.Tour.random_word rng m ~length:150 in
  let full = Detect.campaign_scalar m faults word in
  let scalar_verdicts = Array.of_list full.Campaign.verdicts in
  let n = Array.length scalar_verdicts in
  let jobs = 2 in
  let budget = Budget.create ~max_steps:jobs () in
  let o = Detect.campaign_outcome ~budget ~jobs m faults word in
  let r = o.Campaign.report in
  (match r.Campaign.truncated with
  | Some Budget.Steps -> ()
  | Some res -> Alcotest.failf "wrong resource: %s" (Budget.resource_name res)
  | None -> Alcotest.fail "campaign was not truncated");
  Alcotest.(check int) "effective + skipped = population" n
    (r.Campaign.effective + r.Campaign.skipped);
  Alcotest.(check bool) "some faults skipped" true (r.Campaign.skipped > 0);
  let ranges = Campaign.shard_ranges ~n ~jobs in
  let rem = ref o.Campaign.verdicts in
  let evaluated = ref 0 in
  Array.iter
    (fun (off, len) ->
      let j = ref 0 in
      let continue_matching = ref true in
      while !continue_matching do
        match !rem with
        | (f, v) :: tl
          when !j < len && Fault.equal f (fst scalar_verdicts.(off + !j)) ->
            Alcotest.(check bool) "verdict equals scalar" true
              (verdict_eq v (snd scalar_verdicts.(off + !j)));
            rem := tl;
            incr j
        | _ -> continue_matching := false
      done;
      Alcotest.(check bool) "shard prefix is whole batches" true
        (!j = len || !j mod Sys.int_size = 0);
      evaluated := !evaluated + !j)
    ranges;
  Alcotest.(check int) "verdicts are exactly the shard prefixes" 0
    (List.length !rem);
  Alcotest.(check int) "report counts the shard prefixes" r.Campaign.effective
    !evaluated

(* with an unlimited budget, sharding changes nothing at all: the
   merged outcome is field-for-field the sequential one *)
let test_sharded_equals_sequential () =
  let rng = Rng.create 13 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:14 ~n_inputs:3 ~n_outputs:3)
  in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let faults = List.filteri (fun i _ -> i < 170) all in
  let word = Simcov_testgen.Tour.random_word rng m ~length:200 in
  let seq = Detect.campaign_outcome m faults word in
  List.iter
    (fun jobs ->
      let par = Detect.campaign_outcome ~jobs m faults word in
      ignore
        (check_outcomes_agree
           ~what:(Printf.sprintf "jobs %d vs sequential" jobs)
           seq par);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: same missed count" jobs)
        (List.length seq.Campaign.report.Campaign.missed)
        (List.length par.Campaign.report.Campaign.missed))
    [ 2; 3; 5 ]

let test_unlimited_budget_not_truncated () =
  let rng = Rng.create 11 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:8 ~n_inputs:2 ~n_outputs:2)
  in
  let faults = Fault.sample_transfer_faults rng m ~count:40 in
  let word = Simcov_testgen.Tour.random_word rng m ~length:80 in
  let r = Detect.campaign ~budget:Budget.unlimited m faults word in
  Alcotest.(check bool) "not truncated" true (r.Detect.truncated = None);
  Alcotest.(check int) "nothing skipped" 0 r.Detect.skipped

(* ---- stuck-at backend: bitvec lanes vs the scalar reference ---- *)

let ( !! ) = Simcov_netlist.Expr.( !! )
let ( &&& ) = Simcov_netlist.Expr.( &&& )
let ( ||| ) = Simcov_netlist.Expr.( ||| )
let ( ^^^ ) = Simcov_netlist.Expr.( ^^^ )

let counter () =
  let open Simcov_netlist.Circuit.Build in
  let ctx = create "counter" in
  let en = input ctx "en" in
  let b0 = reg ctx "b0" in
  let b1 = reg ctx "b1" in
  assign ctx b0 (Simcov_netlist.Expr.mux en (!!b0) b0);
  assign ctx b1 (Simcov_netlist.Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  finish ctx

let wide () =
  let open Simcov_netlist.Circuit.Build in
  let ctx = create "wide" in
  let a = input ctx "a" in
  let b = input ctx "b" in
  let r0 = reg ctx "r0" in
  let r1 = reg ctx "r1" in
  let r2 = reg ctx "r2" in
  assign ctx r0 (a ^^^ r2);
  assign ctx r1 ((a &&& r0) ||| (b &&& !!r0));
  assign ctx r2 (Simcov_netlist.Expr.mux b r1 (!!r1));
  output ctx "x" (r0 ^^^ (r1 &&& r2));
  output ctx "y" (!!r0 ||| b);
  finish ctx

let check_stuckat_agrees c word =
  let faults = Stuckat.all_faults c in
  let batched = Stuckat.campaign_outcome c faults word in
  List.iter2
    (fun f (fb, vb) ->
      if f <> fb then QCheck.Test.fail_reportf "stuckat: fault order differs";
      let vs = Stuckat.run_verdict c f word in
      if not (verdict_eq vs vb) then
        QCheck.Test.fail_reportf
          "stuckat: verdict mismatch on %a (scalar det=%b exc=%b, batched \
           det=%b exc=%b)"
          Stuckat.pp_fault f vs.Campaign.detected vs.Campaign.excited
          vb.Campaign.detected vb.Campaign.excited)
    faults batched.Campaign.verdicts;
  (* [lanes] is ignored, and the sharded driver agrees with the
     sequential batched run, verdict by verdict *)
  let wide = Stuckat.campaign_outcome ~lanes:256 ~jobs:2 c faults word in
  List.iter2
    (fun (fb, vb) (fw, vw) ->
      if fb <> fw then
        QCheck.Test.fail_reportf "stuckat: wide fault order differs";
      if not (verdict_eq vb vw) then
        QCheck.Test.fail_reportf "stuckat: wide verdict mismatch on %a"
          Stuckat.pp_fault fb)
    batched.Campaign.verdicts wide.Campaign.verdicts;
  true

let qcheck_stuckat_batched_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: stuck-at bitvec lanes = scalar reference" ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 40))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let c = if Rng.bool rng then counter () else wide () in
      let ni = Simcov_netlist.Circuit.n_inputs c in
      let word =
        List.init len (fun _ -> Array.init ni (fun _ -> Rng.bool rng))
      in
      check_stuckat_agrees c word)

let test_stuckat_excitation_without_detection () =
  (* idle word on the counter: b0 stuck-at-1 is excited at step 0 (the
     net reads 0, the pin forces 1) but with en=0 the wrap output stays
     false either way — the classic excited-not-detected column *)
  let c = counter () in
  let word = List.init 6 (fun _ -> [| false |]) in
  let f = { Stuckat.site = Stuckat.Reg_output 0; stuck = true } in
  let v = Stuckat.run_verdict c f word in
  Alcotest.(check bool) "excited" true v.Campaign.excited;
  Alcotest.(check (option int)) "at step 0" (Some 0) v.Campaign.excite_step;
  Alcotest.(check bool) "not detected" false v.Campaign.detected;
  let r = Stuckat.campaign c (Stuckat.all_faults c) word in
  Alcotest.(check bool) "report separates columns" true
    (r.Stuckat.excited > r.Stuckat.detected)

(* ---- pipeline-bug backend vs the naive detects_bug loop ---- *)

let bug_program =
  match
    Simcov_dlx.Isa.parse_program
      "addi r1, r0, 5\nadd r2, r1, r1\nlw r3, 0(r2)\nadd r4, r3, r2\nsw r4, 4(r2)\nbeqz r4, 2\naddi r5, r0, 1\nadd r6, r5, r4"
  with
  | Ok p -> p
  | Error e -> failwith e

let test_bug_campaign_matches_naive () =
  let open Simcov_dlx in
  let r = Validate.bug_campaign_multi [ bug_program ] in
  Alcotest.(check int) "catalog size"
    (List.length Pipeline.bug_catalog)
    r.Validate.n_bugs;
  List.iter
    (fun (name, bugs) ->
      let naive = Validate.detects_bug ~program:bug_program bugs in
      let campaign = List.assoc name r.Validate.bug_results in
      Alcotest.(check bool) name naive campaign)
    Pipeline.bug_catalog;
  Alcotest.(check bool) "report not truncated" true
    (r.Validate.report.Campaign.truncated = None)

let test_bug_campaign_budget_truncates () =
  let open Simcov_dlx in
  let budget = Budget.create ~max_steps:1 () in
  let r = Validate.bug_campaign_tests ~budget [ Validate.test_program bug_program ] in
  Alcotest.(check bool) "truncated" true
    (r.Validate.report.Campaign.truncated <> None);
  Alcotest.(check bool) "some bugs skipped" true
    (r.Validate.report.Campaign.skipped > 0);
  (* every catalog bug still gets a row; skipped ones read undetected *)
  Alcotest.(check int) "full result list"
    (List.length Pipeline.bug_catalog)
    (List.length r.Validate.bug_results)

(* ---- report plumbing ---- *)

let test_json_schema () =
  let rng = Rng.create 3 in
  let m =
    Fsm.tabulate (Fsm.random_connected rng ~n_states:6 ~n_inputs:2 ~n_outputs:2)
  in
  let faults = Fault.sample_transfer_faults rng m ~count:10 in
  let word = Simcov_testgen.Tour.random_word rng m ~length:60 in
  let r = Detect.campaign m faults word in
  match Detect.to_json ~extra:[ ("model", Simcov_util.Json.String "t") ] r with
  | Simcov_util.Json.Obj fields ->
      Alcotest.(check bool) "schema tag" true
        (List.assoc_opt "schema" fields
        = Some (Simcov_util.Json.String "simcov-campaign/1"));
      List.iter
        (fun k ->
          Alcotest.(check bool) k true (List.mem_assoc k fields))
        [
          "backend"; "total"; "effective"; "excited"; "detected"; "missed";
          "skipped"; "coverage_pct"; "truncated"; "shard_failures";
          "missed_faults"; "model";
        ]
  | _ -> Alcotest.fail "campaign JSON is not an object"

(* ---- crash safety and shard isolation ---- *)

(* A deterministic synthetic backend whose workers can be poisoned: a
   batch containing a poisoned fault raises in [start] — every time, or
   only on the first attempt ([fail_once]) to model a transient worker
   fault that a retry on a fresh domain absorbs. *)
module Synth = struct
  module L = Simcov_util.Lanes.Native

  type ctx = { poison : int -> bool; fail_once : bool Atomic.t option }
  type fault = int
  type stim = int

  let name = "synthetic"
  let max_lanes = 8
  let effective _ _ = true

  type batch = { faults : fault array; mutable t : int }

  let start ctx faults =
    if Array.exists ctx.poison faults then begin
      let blow =
        match ctx.fail_once with
        | None -> true
        | Some flag -> Atomic.compare_and_set flag false true
      in
      if blow then failwith "injected worker fault"
    end;
    { faults; t = 0 }

  let step b ~active:_ x =
    let exc = ref 0 and det = ref 0 in
    Array.iteri
      (fun l f ->
        if (f + x) mod 5 = 0 then exc := !exc lor (1 lsl l);
        if ((f * 7) + x + b.t) mod 11 = 0 then det := !det lor (1 lsl l))
      b.faults;
    b.t <- b.t + 1;
    { Campaign.excited = !exc; detected = !det; halt = false }
end

module Synth_driver = Campaign.Make (Synth)

let synth_ctx = { Synth.poison = (fun _ -> false); fail_once = None }
let synth_faults = List.init 200 Fun.id
let synth_word = List.init 60 (fun i -> i * 13 mod 29)

let check_synth_outcomes_equal ~what (a : int Campaign.outcome)
    (b : int Campaign.outcome) =
  Alcotest.(check int)
    (what ^ ": verdict count")
    (List.length a.Campaign.verdicts)
    (List.length b.Campaign.verdicts);
  List.iter2
    (fun (fa, va) (fb, vb) ->
      Alcotest.(check int) (what ^ ": fault order") fa fb;
      Alcotest.(check bool)
        (Printf.sprintf "%s: verdict for fault %d" what fa)
        true (verdict_eq va vb))
    a.Campaign.verdicts b.Campaign.verdicts;
  Alcotest.(check int)
    (what ^ ": detected")
    a.Campaign.report.Campaign.detected b.Campaign.report.Campaign.detected;
  Alcotest.(check int)
    (what ^ ": excited")
    a.Campaign.report.Campaign.excited b.Campaign.report.Campaign.excited

(* interrupt a sharded run via [should_stop] after a few checkpoint
   flushes, then resume from the snapshot under different jobs counts:
   the final outcome must equal the uninterrupted run exactly *)
let test_checkpoint_resume_equivalence () =
  let reference = Synth_driver.run synth_ctx synth_faults synth_word in
  let flushed = Atomic.make 0 in
  let latest = ref [] in
  let interrupted =
    Synth_driver.run ~jobs:2
      ~checkpoint:
        {
          Campaign.every = 1;
          flush =
            (fun pairs ->
              latest := pairs;
              Atomic.incr flushed);
        }
      ~should_stop:(fun () -> Atomic.get flushed >= 5)
      synth_ctx synth_faults synth_word
  in
  Alcotest.(check bool) "the stop actually cut the run short" true
    (interrupted.Campaign.report.Campaign.skipped > 0);
  Alcotest.(check (option string)) "a clean stop is not budget truncation" None
    (Option.map Simcov_util.Budget.resource_name
       interrupted.Campaign.report.Campaign.truncated);
  let snapshot = Hashtbl.create 64 in
  List.iter (fun (f, v) -> Hashtbl.replace snapshot f v) !latest;
  Alcotest.(check bool) "the snapshot holds some decisions" true
    (Hashtbl.length snapshot > 0);
  List.iter
    (fun jobs ->
      let resumed =
        Synth_driver.run ~jobs ~resume:(Hashtbl.find_opt snapshot) synth_ctx
          synth_faults synth_word
      in
      Alcotest.(check int)
        (Printf.sprintf "resume jobs=%d reports resumed faults" jobs)
        (Hashtbl.length snapshot)
        (List.length
           (List.filter
              (fun (f, _) -> Hashtbl.mem snapshot f)
              resumed.Campaign.verdicts));
      check_synth_outcomes_equal
        ~what:(Printf.sprintf "resume jobs=%d" jobs)
        reference resumed)
    [ 1; 3 ]

(* one shard's worker raises every time: the campaign must survive,
   report exactly that shard in [shard_failures], and the surviving
   verdicts must match the healthy run *)
let test_poisoned_shard_isolated () =
  let reference = Synth_driver.run synth_ctx synth_faults synth_word in
  let ctx = { Synth.poison = (fun f -> f = 60); fail_once = None } in
  let r =
    Synth_driver.run ~jobs:4 ~retry_backoff_s:0.001 ctx synth_faults synth_word
  in
  let rep = r.Campaign.report in
  (match rep.Campaign.shard_failures with
  | [ f ] ->
      Alcotest.(check int) "the poisoned shard" 1 f.Campaign.shard;
      Alcotest.(check int) "its fault count" 50 f.Campaign.faults;
      Alcotest.(check bool) "the error is reported" true
        (String.length f.Campaign.error > 0)
  | l -> Alcotest.failf "expected one shard failure, got %d" (List.length l));
  Alcotest.(check int) "the lost shard's faults are skipped" 50
    rep.Campaign.skipped;
  Alcotest.(check int) "surviving shards all evaluated" 150
    (List.length r.Campaign.verdicts);
  let ref_tbl = Hashtbl.create 256 in
  List.iter
    (fun (f, v) -> Hashtbl.replace ref_tbl f v)
    reference.Campaign.verdicts;
  List.iter
    (fun (f, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "fault %d is outside the lost shard" f)
        true
        (f < 50 || f >= 100);
      Alcotest.(check bool)
        (Printf.sprintf "surviving verdict for fault %d" f)
        true
        (verdict_eq v (Hashtbl.find ref_tbl f)))
    r.Campaign.verdicts

(* a transient worker fault (raises once, succeeds on the retry
   domain): no shard failure surfaces and the outcome is unchanged *)
let test_transient_fault_retried () =
  let reference = Synth_driver.run synth_ctx synth_faults synth_word in
  let ctx =
    { Synth.poison = (fun f -> f = 60); fail_once = Some (Atomic.make false) }
  in
  let r =
    Synth_driver.run ~jobs:4 ~retry_backoff_s:0.001 ctx synth_faults synth_word
  in
  Alcotest.(check int) "no shard failures" 0
    (List.length r.Campaign.report.Campaign.shard_failures);
  Alcotest.(check int) "nothing skipped" 0 r.Campaign.report.Campaign.skipped;
  check_synth_outcomes_equal ~what:"after transient fault" reference r

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_batched_eq_scalar;
    QCheck_alcotest.to_alcotest qcheck_batched_eq_scalar_partial;
    Alcotest.test_case "out-of-alphabet inputs halt like scalar" `Quick
      test_out_of_alphabet_inputs;
    Alcotest.test_case "lane boundaries 1/62/63/64/127" `Quick test_lane_boundaries;
    Alcotest.test_case "budget truncation is prefix-consistent" `Quick
      test_budget_truncation_prefix;
    QCheck_alcotest.to_alcotest qcheck_wide_eq_scalar;
    QCheck_alcotest.to_alcotest qcheck_wide_eq_scalar_partial;
    Alcotest.test_case "wide lane boundaries 63/64/255/256/257/512" `Quick
      test_wide_lane_boundaries;
    Alcotest.test_case "sharded truncation is shard-prefix-consistent" `Quick
      test_sharded_truncation_prefix;
    Alcotest.test_case "sharded report equals sequential report" `Quick
      test_sharded_equals_sequential;
    Alcotest.test_case "unlimited budget never truncates" `Quick
      test_unlimited_budget_not_truncated;
    QCheck_alcotest.to_alcotest qcheck_stuckat_batched_eq_scalar;
    Alcotest.test_case "stuck-at excitation without detection" `Quick
      test_stuckat_excitation_without_detection;
    Alcotest.test_case "bug campaign matches naive loop" `Quick
      test_bug_campaign_matches_naive;
    Alcotest.test_case "bug campaign budget truncation" `Quick
      test_bug_campaign_budget_truncates;
    Alcotest.test_case "campaign JSON schema" `Quick test_json_schema;
    Alcotest.test_case "checkpoint/resume equals uninterrupted" `Quick
      test_checkpoint_resume_equivalence;
    Alcotest.test_case "poisoned shard is isolated and reported" `Quick
      test_poisoned_shard_isolated;
    Alcotest.test_case "transient worker fault absorbed by retry" `Quick
      test_transient_fault_retried;
  ]

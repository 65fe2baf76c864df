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
module Obs = Simcov_obs.Obs

let verdict_eq (a : Campaign.verdict) (b : Campaign.verdict) =
  a.detected = b.detected && a.excited = b.excited
  && a.detect_step = b.detect_step
  && a.excite_step = b.excite_step
  && a.masked_step = b.masked_step

let step = function Some n -> string_of_int n | None -> "-"

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
          "%s: verdict mismatch on %a (scalar det=%b@%s exc=%b@%s masked@%s, \
           batched det=%b@%s exc=%b@%s masked@%s)"
          what Fault.pp fs vs.Campaign.detected (step vs.Campaign.detect_step)
          vs.Campaign.excited (step vs.Campaign.excite_step) (step vs.Campaign.masked_step)
          vb.Campaign.detected (step vb.Campaign.detect_step) vb.Campaign.excited
          (step vb.Campaign.excite_step) (step vb.Campaign.masked_step))
    scalar.Campaign.verdicts batched.Campaign.verdicts;
  true

(* a machine, a fault population mixing all three kinds, and a word *)
let random_instance seed =
  let rng = Rng.create seed in
  let n_states = 3 + Rng.int rng 20 in
  let n_inputs = 2 + Rng.int rng 3 in
  let n_outputs = 2 + Rng.int rng 3 in
  let m = Fsm.random_connected rng ~n_states ~n_inputs ~n_outputs in
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
        (Oracles.Detect.campaign_scalar m faults word)
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
  let m = Fsm.of_table (List.rev !rows) in
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
        (Oracles.Detect.campaign_scalar m faults word)
        (Detect.campaign_outcome m faults word))

(* The field the properties above compare is really exercised: on
   random total machines some transfer verdicts carry a masking
   window, some of those are detected later, and some never are. *)
let test_masked_verdicts_occur () =
  let masked = ref 0 and later = ref 0 in
  for seed = 1 to 40 do
    let m, faults, word = random_instance seed in
    List.iter
      (fun (_, v) ->
        if v.Campaign.masked_step <> None then begin
          incr masked;
          if v.Campaign.detected then incr later
        end)
      (Detect.campaign_outcome m faults word).Campaign.verdicts
  done;
  Alcotest.(check bool) "some verdicts carry a window" true (!masked > 0);
  Alcotest.(check bool) "some are detected later" true (!later > 0);
  Alcotest.(check bool) "some are never detected" true (!later < !masked)

(* out-of-alphabet stimuli: an input >= n_inputs is invalid in every
   state. The flat-table paths (a built machine's readers, the batched
   backend's site keys) used to index [s * k + i] with such an input,
   aliasing into state s+1's row — phantom transitions, phantom site
   hits, and an out-of-bounds read at the last state. QCheck found the
   original instance at seed 31382. *)
let test_out_of_alphabet_inputs () =
  let m = Fsm.of_table [ (0, 0, 1, 0); (0, 1, 2, 1); (1, 0, 2, 0); (2, 0, 0, 2) ] in
  (* a built machine's valid must bounds-check, including at the last
     state where the aliased index would run off the table *)
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
           (Oracles.Detect.campaign_scalar m faults word)
           (Detect.campaign_outcome m faults word)))
    [ [ 3 ]; [ 2; 0; 0 ]; [ 0; 0; 3; 0; 1 ]; [ 0; 2; 1; 0 ]; [ 0; 0; 0; 5 ] ];
  let halted = Detect.campaign m faults [ 3; 0; 0; 0 ] in
  Alcotest.(check int) "nothing detected past the halt" 0
    halted.Campaign.detected

(* lane-boundary fault counts: 1, Sys.int_size - 1, exactly one word,
   one word + 1, two words + 1 *)
let test_lane_boundaries () =
  let rng = Rng.create 42 in
  let m = Fsm.random_connected rng ~n_states:15 ~n_inputs:3 ~n_outputs:3 in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let word = Simcov_testgen.Tour.random_word rng m ~length:200 in
  Alcotest.(check bool)
    "enough faults for the largest boundary" true
    (List.length all >= 127);
  List.iter
    (fun n ->
      let faults = List.filteri (fun i _ -> i < n) all in
      let scalar = Oracles.Detect.campaign_scalar m faults word in
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
  let m = Fsm.random_connected rng ~n_states:12 ~n_inputs:3 ~n_outputs:3 in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let faults = List.filteri (fun i _ -> i < 150) all in
  let word = Simcov_testgen.Tour.random_word rng m ~length:150 in
  let full = Oracles.Detect.campaign_scalar m faults word in
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

(* ---- multi-batch runs and domain sharding ----

   A batch with no diverged lane jumps from one golden traversal of a
   live lane's site to the next, and the sharded driver splits the
   population across domains. Both must be observationally identical
   to the scalar reference: same verdicts, same order, same counters. *)

(* the DLX test model and its certified padded tour (5,175 steps): the
   machine and word every `coverage dlx` campaign runs *)
let dlx_model =
  lazy
    (let m = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
     match Simcov_core.Completeness.certify m with
     | Ok cert -> (m, cert.Simcov_core.Completeness.word)
     | Error _ -> failwith "DLX test model lost its certificate")

(* A partial machine (one seed in five: the DLX test model and its
   certified tour), a word that runs into a golden-invalid or an
   out-of-alphabet input, and a population of transfer, output and
   conditional-output faults with at least 150 effective members (so
   at least three 63-lane batches). In a random machine a chain on
   input 0 keeps every state reachable; conditional faults top the
   population up. *)
let multi_batch_instance seed =
  let rng = Rng.create seed in
  let m, walk =
    if seed mod 5 = 0 then Lazy.force dlx_model
    else begin
      let n_states = 6 + Rng.int rng 10 in
      let n_inputs = 2 + Rng.int rng 3 in
      let rows = ref [] in
      for s = 0 to n_states - 1 do
        for i = 0 to n_inputs - 1 do
          if i = 0 then
            rows :=
              (s, 0, (if s + 1 < n_states then s + 1 else Rng.int rng n_states), Rng.int rng 3)
              :: !rows
          else if Rng.int rng 10 < 7 then
            rows := (s, i, Rng.int rng n_states, Rng.int rng 3) :: !rows
        done
      done;
      let m = Fsm.of_table (List.rev !rows) in
      (m, Simcov_testgen.Tour.random_word rng m ~length:(40 + Rng.int rng 160))
    end
  in
  let trans = Fsm.transitions m in
  let n_outputs = 1 + List.fold_left (fun acc (_, _, _, o) -> max acc o) 0 trans in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  (* a random transition as the history, any transition out of its
     destination as the site: effective, and excited whenever the
     word takes the two in a row *)
  let conditional () =
    let ps, pi, s, _ = pick trans in
    let _, i, _, o = pick (List.filter (fun (s', _, _, _) -> s' = s) trans) in
    Fault.Conditional_output
      { state = s; input = i; wrong_output = (o + 1) mod n_outputs; prev = (ps, pi) }
  in
  let base =
    List.filter (Fault.is_effective m)
      (Fault.sample_transfer_faults rng m ~count:90
      @ Fault.sample_output_faults rng m ~n_outputs ~count:30)
  in
  let faults = base @ List.init (max 30 (150 - List.length base)) (fun _ -> conditional ()) in
  (* the walk, then one input the golden machine rejects, then more
     inputs the campaign must ignore *)
  let n_inputs = m.Fsm.n_inputs in
  let last = List.fold_left (fun s i -> m.Fsm.next s i) m.Fsm.reset walk in
  let rejected =
    List.filter (fun i -> not (m.Fsm.valid last i)) (List.init n_inputs Fun.id)
  in
  let bad =
    if rejected <> [] && Rng.bool rng then pick rejected else n_inputs + Rng.int rng 3
  in
  let word = walk @ (bad :: List.init (Rng.int rng 20) (fun _ -> Rng.int rng n_inputs)) in
  (m, faults, word)

let qcheck_multi_batch_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: 3+ batches at jobs 1 and 3 = scalar (partial machines)"
    ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = multi_batch_instance seed in
      let scalar = Oracles.Detect.campaign_scalar m faults word in
      if scalar.Campaign.report.Campaign.effective <= 2 * Simcov_util.Lanes.width then
        QCheck.Test.fail_reportf "only %d effective faults"
          scalar.Campaign.report.Campaign.effective;
      ignore
        (check_outcomes_agree ~what:"jobs 1" scalar (Detect.campaign_outcome m faults word));
      check_outcomes_agree ~what:"jobs 3" scalar
        (Detect.campaign_outcome ~jobs:3 m faults word))

(* The 256- and 512-lane widths the benchmark still requests through
   [?lanes] are ignored: every batch carries 63 lanes, so a wide
   request, sharded or not, must still match the scalar reference. *)

let dlx_instance seed =
  let m, word = Lazy.force dlx_model in
  let rng = Rng.create seed in
  let n_outputs =
    List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 (Fsm.transitions m)
  in
  let faults =
    Fault.sample_transfer_faults rng m ~count:20
    @ Fault.sample_output_faults rng m ~n_outputs ~count:20
  in
  (m, faults, word)

let qcheck_wide_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: wide lanes / sharded = scalar (total machines)" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word =
        if seed mod 5 = 0 then dlx_instance seed else random_instance seed
      in
      let scalar = Oracles.Detect.campaign_scalar m faults word in
      ignore
        (check_outcomes_agree ~what:"lanes 256" scalar
           (Detect.campaign_outcome ~lanes:256 m faults word));
      ignore
        (check_outcomes_agree ~what:"lanes 512, jobs 2" scalar
           (Detect.campaign_outcome ~lanes:512 ~jobs:2 m faults word));
      check_outcomes_agree ~what:"jobs 3" scalar
        (Detect.campaign_outcome ~jobs:3 m faults word))

let qcheck_wide_eq_scalar_partial =
  QCheck.Test.make
    ~name:"campaign: wide lanes / sharded = scalar (partial machines)" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let m, faults, word = random_partial_instance seed in
      let scalar = Oracles.Detect.campaign_scalar m faults word in
      ignore
        (check_outcomes_agree ~what:"partial, lanes 256" scalar
           (Detect.campaign_outcome ~lanes:256 m faults word));
      check_outcomes_agree ~what:"partial, lanes 256 jobs 2" scalar
        (Detect.campaign_outcome ~lanes:256 ~jobs:2 m faults word))

(* batch-boundary fault counts around one batch (63/64), four batches
   (255/256/257) and a population of nine batches *)
let test_batch_boundaries () =
  let rng = Rng.create 43 in
  let m = Fsm.random_connected rng ~n_states:22 ~n_inputs:3 ~n_outputs:3 in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let word = Simcov_testgen.Tour.random_word rng m ~length:250 in
  Alcotest.(check bool)
    "enough faults for the largest boundary" true
    (List.length all >= 512);
  List.iter
    (fun n ->
      let faults = List.filteri (fun i _ -> i < n) all in
      let o = Detect.campaign_outcome m faults word in
      ignore
        (check_outcomes_agree
           ~what:(Printf.sprintf "%d faults" n)
           (Oracles.Detect.campaign_scalar m faults word)
           o);
      Alcotest.(check int)
        (Printf.sprintf "%d faults: all evaluated" n)
        n o.Campaign.report.Campaign.effective)
    [ 63; 64; 255; 256; 257; 512 ]

(* Lockstep steps visited, read off a fresh registry. A batch visits a
   step only while one of its lanes is diverged or when the golden run
   traverses a live lane's site, so the count stays near one pass over
   the word. Replaying the word from reset for every 63-lane batch took
   244,557 and 267,494 steps on the two populations below. *)
let sim_steps_of m faults word =
  let reg = Obs.registry () in
  Fun.protect
    ~finally:(fun () -> Obs.release reg)
    (fun () ->
      Obs.with_registry reg (fun () ->
          let o = Detect.campaign_outcome m faults word in
          (o.Campaign.report, Obs.count (Obs.counter "campaign.sim_steps"))))

(* the `coverage dlx --count 1500` population: 3,000 faults on the
   certified 5,175-step tour, every one detected *)
let test_sim_steps_certified_tour () =
  let m, word = Lazy.force dlx_model in
  let faults = Fault.sample_faults (Rng.create 2026) m ~count:1500 in
  let r, steps = sim_steps_of m faults word in
  Alcotest.(check int) "3,000 faults" 3000 r.Campaign.total;
  Alcotest.(check int) "all detected" r.Campaign.effective r.Campaign.detected;
  if steps > 10_350 then Alcotest.failf "%d steps visited, bound 10,350" steps

(* the uncertified model without observable destinations: the same
   population on its 5,650-step greedy word, 790 faults missed *)
let test_sim_steps_greedy_word () =
  let m =
    Simcov_dlx.Testmodel.build { Simcov_dlx.Testmodel.default with observable_dest = false }
  in
  let word = Simcov_core.Completeness.campaign_word m None in
  let faults = Fault.sample_faults (Rng.create 2026) m ~count:1500 in
  let r, steps = sim_steps_of m faults word in
  Alcotest.(check int) "greedy word" 5650 (List.length word);
  Alcotest.(check int) "790 missed" 790 (List.length r.Campaign.missed);
  if steps > 11_300 then Alcotest.failf "%d steps visited, bound 11,300" steps

(* sharded truncation: each shard evaluates whole batches forming a
   prefix of its contiguous slice; the merged verdict list is exactly
   the concatenation of those shard prefixes, and every evaluated
   verdict equals the scalar reference's *)
let test_sharded_truncation_prefix () =
  let rng = Rng.create 9 in
  let m = Fsm.random_connected rng ~n_states:12 ~n_inputs:3 ~n_outputs:3 in
  let all = List.filter (Fault.is_effective m) (Fault.all_transfer_faults m) in
  let faults = List.filteri (fun i _ -> i < 200) all in
  let word = Simcov_testgen.Tour.random_word rng m ~length:150 in
  let full = Oracles.Detect.campaign_scalar m faults word in
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
  let m = Fsm.random_connected rng ~n_states:14 ~n_inputs:3 ~n_outputs:3 in
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
  let m = Fsm.random_connected rng ~n_states:8 ~n_inputs:2 ~n_outputs:2 in
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
      let vs = Oracles.Stuckat.run_verdict c f word in
      if not (verdict_eq vs vb) then
        QCheck.Test.fail_reportf
          "stuckat: verdict mismatch on %a (scalar det=%b exc=%b, batched \
           det=%b exc=%b)"
          Stuckat.pp_fault f vs.Campaign.detected vs.Campaign.excited
          vb.Campaign.detected vb.Campaign.excited)
    faults batched.Campaign.verdicts;
  (* the sharded driver agrees with the sequential batched run,
     verdict by verdict *)
  let sharded = Stuckat.campaign_outcome ~jobs:2 c faults word in
  List.iter2
    (fun (fb, vb) (fw, vw) ->
      if fb <> fw then
        QCheck.Test.fail_reportf "stuckat: sharded fault order differs";
      if not (verdict_eq vb vw) then
        QCheck.Test.fail_reportf "stuckat: sharded verdict mismatch on %a"
          Stuckat.pp_fault fb)
    batched.Campaign.verdicts sharded.Campaign.verdicts;
  true

(* the DLX test-model netlist, whose input constraints reject most
   random vectors *)
let dlx_test_circuit = lazy (fst (Simcov_dlx.Control.derive_test_model ()))

(* a random walk of valid vectors; on an unconstrained circuit every
   first draw is valid *)
let valid_word rng c ~len =
  let module Circuit = Simcov_netlist.Circuit in
  let ni = Circuit.n_inputs c in
  let state = ref (Circuit.initial_state c) in
  List.init len (fun _ ->
      let rec draw tries =
        if tries > 1000 then failwith "no valid vector found";
        let iv = Array.init ni (fun _ -> Rng.bool rng) in
        if Circuit.input_valid c !state iv then iv else draw (tries + 1)
      in
      let iv = draw 0 in
      state := fst (Circuit.step c !state iv);
      iv)

let qcheck_stuckat_batched_eq_scalar =
  QCheck.Test.make
    ~name:"campaign: stuck-at bitvec lanes = scalar reference" ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 40))
    (fun (seed, len) ->
      let rng = Rng.create seed in
      let c =
        match Rng.int rng 3 with
        | 0 -> counter ()
        | 1 -> wide ()
        | _ -> Lazy.force dlx_test_circuit
      in
      check_stuckat_agrees c (valid_word rng c ~len))

let test_stuckat_excitation_without_detection () =
  (* idle word on the counter: b0 stuck-at-1 is excited at step 0 (the
     net reads 0, the pin forces 1) but with en=0 the wrap output stays
     false either way — the classic excited-not-detected column *)
  let c = counter () in
  let word = List.init 6 (fun _ -> [| false |]) in
  let f = { Stuckat.site = Stuckat.Reg_output 0; stuck = true } in
  let v = Oracles.Stuckat.run_verdict c f word in
  Alcotest.(check bool) "excited" true v.Campaign.excited;
  Alcotest.(check (option int)) "at step 0" (Some 0) v.Campaign.excite_step;
  Alcotest.(check bool) "not detected" false v.Campaign.detected;
  let r = (Stuckat.campaign_outcome c (Stuckat.all_faults c) word).Campaign.report in
  Alcotest.(check bool) "report separates columns" true
    (r.Campaign.excited > r.Campaign.detected)

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
      let naive = Oracles.Validate.detects_bug ~program:bug_program bugs in
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
  let m = Fsm.random_connected rng ~n_states:6 ~n_inputs:2 ~n_outputs:2 in
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
   batch containing a poisoned fault raises in [start]. *)
module Synth = struct
  type ctx = { poison : int -> bool }
  type fault = int
  type stim = int

  let name = "synthetic"
  let max_lanes = 8
  let effective _ _ = true

  type batch = { faults : fault array; mutable t : int }

  let start ctx faults =
    if Array.exists ctx.poison faults then failwith "injected worker fault";
    { faults; t = 0 }

  let next _ ~active:_ t = t

  let step b ~active:_ x =
    let exc = ref 0 and det = ref 0 in
    Array.iteri
      (fun l f ->
        if (f + x) mod 5 = 0 then exc := !exc lor (1 lsl l);
        if ((f * 7) + x + b.t) mod 11 = 0 then det := !det lor (1 lsl l))
      b.faults;
    b.t <- b.t + 1;
    { Campaign.excited = !exc; detected = !det; rejoined = 0; halt = false }
end

module Synth_driver = Campaign.Make (Synth)

let synth_ctx = { Synth.poison = (fun _ -> false) }
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
  (* a flush carries the verdicts decided since the previous one: the
     snapshot accumulates them *)
  let snapshot = Hashtbl.create 64 in
  let interrupted =
    Synth_driver.run ~jobs:2
      ~checkpoint:
        {
          Campaign.every = 1;
          flush =
            (fun pairs ->
              List.iter (fun (f, v) -> Hashtbl.replace snapshot f v) pairs;
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
  let ctx = { Synth.poison = (fun f -> f = 60) } in
  let r = Synth_driver.run ~jobs:4 ctx synth_faults synth_word in
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

(* at jobs = 1 the one shard is isolated the same way: the run still
   returns, every fault is skipped, and the job exits 5 *)
let test_poisoned_single_shard () =
  let ctx = { Synth.poison = (fun f -> f = 60) } in
  let r = Synth_driver.run ctx synth_faults synth_word in
  let rep = r.Campaign.report in
  (match rep.Campaign.shard_failures with
  | [ f ] ->
      Alcotest.(check int) "shard 0" 0 f.Campaign.shard;
      Alcotest.(check int) "every fault" 200 f.Campaign.faults
  | l -> Alcotest.failf "expected one shard failure, got %d" (List.length l));
  Alcotest.(check int) "every fault skipped" 200 rep.Campaign.skipped;
  Alcotest.(check int) "no verdicts" 0 (List.length r.Campaign.verdicts);
  Alcotest.(check int) "exit 5" 5
    (Simcov_service.Service.campaign_exit ~fail_under:None ~interrupted:false
       ~pct:(Campaign.coverage_pct rep) rep)

(* The flush contract: the flushes of one run hold each decided
   verdict once, each equal to its fault's final verdict; the first
   flush carries the resumed verdicts; and when a batch is flushed as
   soon as it completes and nothing stops the run, the flushes together
   hold the outcome's verdicts. *)
let qcheck_flush_contract =
  QCheck.Test.make ~name:"checkpoint: each decided verdict is flushed once"
    ~count:100
    QCheck.(
      quad (int_range 1 1_000_000) (oneofl ~print:string_of_int [ 1; 3 ])
        (int_range 1 4) bool)
    (fun (seed, jobs, every, resuming) ->
      let rng = Rng.create seed in
      let faults = List.init (1 + Rng.int rng 200) Fun.id in
      let resumed = Hashtbl.create 64 in
      if resuming then
        List.iter
          (fun (f, v) -> if Rng.int rng 3 = 0 then Hashtbl.replace resumed f v)
          (Synth_driver.run synth_ctx faults synth_word).Campaign.verdicts;
      let flushes = ref [] in
      let outcome =
        Synth_driver.run ~jobs
          ?resume:(if resuming then Some (Hashtbl.find_opt resumed) else None)
          ~checkpoint:
            { Campaign.every; flush = (fun pairs -> flushes := pairs :: !flushes) }
          synth_ctx faults synth_word
      in
      let flushes = List.rev !flushes in
      let final = Hashtbl.create 256 in
      List.iter (fun (f, v) -> Hashtbl.replace final f v) outcome.Campaign.verdicts;
      let flushed = Hashtbl.create 256 in
      List.iter
        (List.iter (fun (f, v) ->
             if Hashtbl.mem flushed f then
               QCheck.Test.fail_reportf "fault %d flushed twice" f;
             Hashtbl.replace flushed f ();
             match Hashtbl.find_opt final f with
             | Some v' when verdict_eq v v' -> ()
             | _ -> QCheck.Test.fail_reportf "fault %d flushed a verdict it did not end with" f))
        flushes;
      (match flushes with
      | first :: _ ->
          Hashtbl.iter
            (fun f _ ->
              if not (List.mem_assoc f first) then
                QCheck.Test.fail_reportf "resumed fault %d is not in the first flush" f)
            resumed
      | [] -> ());
      if every = 1 && Hashtbl.length resumed < List.length faults then begin
        if Hashtbl.length flushed <> Hashtbl.length final then
          QCheck.Test.fail_reportf "%d verdicts flushed, %d decided"
            (Hashtbl.length flushed) (Hashtbl.length final)
      end;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_batched_eq_scalar;
    QCheck_alcotest.to_alcotest qcheck_batched_eq_scalar_partial;
    Alcotest.test_case "out-of-alphabet inputs halt like scalar" `Quick
      test_out_of_alphabet_inputs;
    Alcotest.test_case "lane boundaries 1/62/63/64/127" `Quick test_lane_boundaries;
    Alcotest.test_case "budget truncation is prefix-consistent" `Quick
      test_budget_truncation_prefix;
    QCheck_alcotest.to_alcotest qcheck_multi_batch_eq_scalar;
    QCheck_alcotest.to_alcotest qcheck_wide_eq_scalar;
    QCheck_alcotest.to_alcotest qcheck_wide_eq_scalar_partial;
    Alcotest.test_case "batch boundaries 63/64/255/256/257/512" `Quick
      test_batch_boundaries;
    Alcotest.test_case "sim steps: certified DLX tour, 3,000 faults" `Quick
      test_sim_steps_certified_tour;
    Alcotest.test_case "sim steps: greedy DLX word, 3,000 faults" `Quick
      test_sim_steps_greedy_word;
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
    Alcotest.test_case "poisoned single shard is reported, exit 5" `Quick
      test_poisoned_single_shard;
    Alcotest.test_case "masked verdicts occur, some detected later" `Quick
      test_masked_verdicts_occur;
    QCheck_alcotest.to_alcotest qcheck_flush_contract;
  ]

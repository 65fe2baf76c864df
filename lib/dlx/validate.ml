module Obs = Simcov_obs.Obs

type mismatch = {
  index : int;
  expected : Spec.commit option;
  actual : Spec.commit option;
}

type outcome = Pass of { compared : int; cut : bool } | Fail of mismatch

let c_compared = Obs.counter "validate.commits_compared"

let commits_equal (a : Spec.commit) (b : Spec.commit) =
  a.Spec.at_pc = b.Spec.at_pc
  && a.Spec.instr = b.Spec.instr
  && a.Spec.reg_write = b.Spec.reg_write
  && a.Spec.mem_write = b.Spec.mem_write
  && a.Spec.next_pc = b.Spec.next_pc

type test_program = {
  program : Isa.t array;
  preload_regs : (int * int32) list;
  preload_mem : (int * int32) list;
}

let test_program ?(preload_regs = []) ?(preload_mem = []) program =
  { program; preload_regs; preload_mem }

type reference = { test : test_program; commits : Spec.commit array; cut : bool }

(* far above any generated test program (129,803 commits at 8
   registers), low enough that a program that never halts is cut within
   about half a second and 150 MB *)
let default_max_steps = 1_000_000

let reference_of ~max_steps test =
  let spec = Spec.create test.program in
  List.iter (fun (r, v) -> Spec.set_reg spec r v) test.preload_regs;
  List.iter (fun (a, v) -> Spec.set_mem spec a v) test.preload_mem;
  let commits = Array.of_list (Spec.run ~max_steps spec) in
  (* a spec that halted in fewer steps has nothing left to execute *)
  let cut = Array.length commits = max_steps && Spec.step spec <> None in
  { test; commits; cut }

let reference test = reference_of ~max_steps:default_max_steps test

let check r next =
  let n = Array.length r.commits in
  let rec go i =
    if i = n && r.cut then Pass { compared = i; cut = true }
    else
      match next () with
      | None ->
          if i = n then Pass { compared = i; cut = false }
          else Fail { index = i; expected = Some r.commits.(i); actual = None }
      | Some a when i = n -> Fail { index = i; expected = None; actual = Some a }
      | Some a ->
          if commits_equal r.commits.(i) a then go (i + 1)
          else Fail { index = i; expected = Some r.commits.(i); actual = Some a }
  in
  let outcome = go 0 in
  (* one count per implementation commit held against a reference
     commit, the mismatching one included *)
  Obs.add c_compared
    (match outcome with
    | Pass { compared; _ } -> compared
    | Fail { index; expected = Some _; actual = Some _ } -> index + 1
    | Fail { index; _ } -> index);
  outcome

(* the pipeline cycle by cycle: every few cycles it commits or drains,
   so the reference alone bounds the run *)
let check_pipeline ~bugs r =
  let pipe = Pipeline.create ~bugs r.test.program in
  List.iter (fun (reg, v) -> Pipeline.set_reg pipe reg v) r.test.preload_regs;
  List.iter (fun (a, v) -> Pipeline.set_mem pipe a v) r.test.preload_mem;
  let rec next () =
    if Pipeline.drained pipe then None
    else match Pipeline.cycle pipe with Some _ as c -> c | None -> next ()
  in
  check r next

let run_program ?(bugs = Pipeline.no_bugs) ?(max_steps = default_max_steps)
    ?(preload_regs = []) ?(preload_mem = []) program =
  check_pipeline ~bugs
    (reference_of ~max_steps { program; preload_regs; preload_mem })

module Campaign = Simcov_campaign.Campaign

(* The pipeline-bug backend: a "fault" is a named bug configuration
   from the catalog, a stimulus element is the index of a test program
   whose reference commits the context holds (the spec runs once per
   program, before any shard starts), and one lockstep step compares
   one bug's pipeline against that reference up to its first mismatch.
   The commit-stream comparison cannot be bit-packed, so batches are
   scalar ([max_lanes = 1]) — the shared driver still provides
   budgeting (one budget step per bug), early exit on detection, and
   the unified report. Excitation has no finer probe than detection
   here: a mismatching commit stream is both. *)
module Bug_backend = struct
  type ctx = reference array
  type fault = string * Pipeline.bugs
  type stim = int

  let name = "dlx-pipeline"
  let max_lanes = 1
  let effective _ _ = true

  type batch = { refs : reference array; faults : fault array }

  let start refs faults = { refs; faults }
  let next _ ~active:_ t = t

  let step b ~active k =
    let detected = ref 0 in
    Simcov_util.Lanes.iter active (fun l ->
        let _, bugs = b.faults.(l) in
        match check_pipeline ~bugs b.refs.(k) with
        | Fail _ -> detected := !detected lor (1 lsl l)
        | Pass _ -> ());
    { Campaign.excited = !detected; detected = !detected; rejoined = 0; halt = false }
end

module Driver = Campaign.Make (Bug_backend)

type campaign_result = {
  bug_results : (string * bool) list;
  n_detected : int;
  n_bugs : int;
  report : (string * Pipeline.bugs) Campaign.report;
}

let bug_campaign_tests ?budget ?jobs ?on_batch tests =
  let refs = Array.of_list (List.map reference tests) in
  let o =
    Driver.run ?budget ?jobs ?on_batch refs Pipeline.bug_catalog
      (List.init (Array.length refs) Fun.id)
  in
  let verdict_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((name, _), (v : Campaign.verdict)) ->
        Hashtbl.replace tbl name v.Campaign.detected)
      o.Campaign.verdicts;
    fun name -> match Hashtbl.find_opt tbl name with Some d -> d | None -> false
  in
  (* bugs skipped by a truncated budget are listed undetected; the
     report's [skipped] count says how many were never run *)
  let bug_results =
    List.map (fun (name, _) -> (name, verdict_of name)) Pipeline.bug_catalog
  in
  {
    bug_results;
    n_detected = o.Campaign.report.Campaign.detected;
    n_bugs = List.length Pipeline.bug_catalog;
    report = o.Campaign.report;
  }

let bug_campaign_multi programs =
  bug_campaign_tests (List.map (fun p -> test_program p) programs)

let bug_campaign program = bug_campaign_multi [ program ]

let pp_outcome ppf = function
  | Pass { compared; cut = false } -> Format.fprintf ppf "PASS (%d commits compared)" compared
  | Pass { compared; cut = true } ->
      Format.fprintf ppf
        "PASS (%d commits compared; cut: the specification had not halted)" compared
  | Fail { index; expected; actual } ->
      Format.fprintf ppf "FAIL at commit %d:@\n  expected: %a@\n  actual:   %a" index
        (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "(nothing)")
           Spec.pp_commit)
        expected
        (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "(nothing)")
           Spec.pp_commit)
        actual

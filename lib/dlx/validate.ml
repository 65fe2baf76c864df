type mismatch = {
  index : int;
  expected : Spec.commit option;
  actual : Spec.commit option;
}

type outcome = Pass of int | Fail of mismatch

let commits_equal (a : Spec.commit) (b : Spec.commit) =
  a.Spec.at_pc = b.Spec.at_pc
  && a.Spec.instr = b.Spec.instr
  && a.Spec.reg_write = b.Spec.reg_write
  && a.Spec.mem_write = b.Spec.mem_write
  && a.Spec.next_pc = b.Spec.next_pc

let run_program ?(bugs = Pipeline.no_bugs) ?(max_steps = 10_000) ?(preload_regs = [])
    ?(preload_mem = []) program =
  let spec = Spec.create program in
  let pipe = Pipeline.create ~bugs program in
  List.iter (fun (r, v) -> Spec.set_reg spec r v) preload_regs;
  List.iter (fun (r, v) -> Pipeline.set_reg pipe r v) preload_regs;
  List.iter (fun (a, v) -> Spec.set_mem spec a v) preload_mem;
  List.iter (fun (a, v) -> Pipeline.set_mem pipe a v) preload_mem;
  let expected = Spec.run ~max_steps spec in
  let actual = Pipeline.run ~max_cycles:(max_steps * 4) pipe in
  let rec compare idx exp act =
    match (exp, act) with
    | [], [] -> Pass idx
    | e :: exp', a :: act' ->
        if commits_equal e a then compare (idx + 1) exp' act'
        else Fail { index = idx; expected = Some e; actual = Some a }
    | e :: _, [] -> Fail { index = idx; expected = Some e; actual = None }
    | [], a :: _ -> Fail { index = idx; expected = None; actual = Some a }
  in
  compare 0 expected actual

module Campaign = Simcov_campaign.Campaign

type test_program = {
  program : Isa.t array;
  preload_regs : (int * int32) list;
  preload_mem : (int * int32) list;
}

let test_program ?(preload_regs = []) ?(preload_mem = []) program =
  { program; preload_regs; preload_mem }

(* The pipeline-bug backend: a "fault" is a named bug configuration
   from the catalog, a stimulus element is a whole test program, and
   one lockstep step is a full spec-vs-pipeline run. The commit-stream
   comparison cannot be bit-packed, so batches are scalar
   ([max_lanes = 1]) — the shared driver still provides budgeting
   (one budget step per bug), early exit on detection (replacing the
   old [List.exists]), and the unified report. Excitation has no finer
   probe than detection here: a mismatching commit stream is both. *)
module Bug_backend = struct
  type ctx = unit
  type fault = string * Pipeline.bugs
  type stim = test_program

  let name = "dlx-pipeline"
  let max_lanes = 1
  let effective () _ = true

  type batch = fault array

  let start () faults = faults
  let next _ ~active:_ t = t

  let step (b : batch) ~active t =
    let detected = ref 0 in
    Simcov_util.Lanes.iter active (fun l ->
        let _, bugs = b.(l) in
        match
          run_program ~bugs ~preload_regs:t.preload_regs
            ~preload_mem:t.preload_mem t.program
        with
        | Fail _ -> detected := !detected lor (1 lsl l)
        | Pass _ -> ());
    { Campaign.excited = !detected; detected = !detected; halt = false }
end

module Driver = Campaign.Make (Bug_backend)

type campaign_result = {
  bug_results : (string * bool) list;
  n_detected : int;
  n_bugs : int;
  report : (string * Pipeline.bugs) Campaign.report;
}

let bug_campaign_tests ?budget ?jobs ?on_batch tests =
  let o = Driver.run ?budget ?jobs ?on_batch () Pipeline.bug_catalog tests in
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
  | Pass n -> Format.fprintf ppf "PASS (%d commits compared)" n
  | Fail { index; expected; actual } ->
      Format.fprintf ppf "FAIL at commit %d:@\n  expected: %a@\n  actual:   %a" index
        (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "(nothing)")
           Spec.pp_commit)
        expected
        (Format.pp_print_option ~none:(fun ppf () -> Format.pp_print_string ppf "(nothing)")
           Spec.pp_commit)
        actual

(* The paper's case study, end to end: validate a 5-stage pipelined DLX
   implementation against its ISA specification using a transition tour
   of the derived control test model.

   Run with:  dune exec examples/dlx_validation.exe

   This is the headline experiment: under Requirements 1-5 the tour is
   a complete test set (Theorem 3); all seeded control bugs in the
   pipelined implementation (bypass, interlock, squash, ...) are
   exposed by the single tour-derived program. *)

let () =
  print_endline "=== full methodology on the default test model ===";
  let report = Simcov_core.Methodology.validate_dlx () in
  Format.printf "%a@." Simcov_core.Methodology.pp_run_report report;

  print_endline "";
  print_endline "=== Section 6.3 ablation: drop destination-register state ===";
  let ablation = Simcov_core.Methodology.ablation_dest_tracking () in
  Format.printf "%a@." Simcov_core.Methodology.pp_ablation_report ablation;

  print_endline "";
  print_endline "=== a look at the concretized tour program (first 24 lines) ===";
  let model = Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default in
  (match Simcov_testgen.Tour.transition_tour model with
  | Some t ->
      let conc =
        Simcov_dlx.Testmodel.concretize Simcov_dlx.Testmodel.default
          t.Simcov_testgen.Tour.word
      in
      Array.iteri
        (fun k instr ->
          if k < 24 then Printf.printf "%4d: %s\n" k (Simcov_dlx.Isa.to_string instr))
        conc.Simcov_dlx.Testmodel.test.Simcov_dlx.Validate.program
  | None -> ());

  print_endline "";
  print_endline "=== pipeline diagram for a load-use + branch snippet ===";
  (match
     Simcov_dlx.Isa.parse_program
       "addi r1, r0, 2\nlw r2, 0(r0)\nadd r3, r2, r1\nbnez r3, 1\nnop\nsw r3, 1(r0)"
   with
  | Ok p -> print_string (Simcov_dlx.Pipeline.trace (Simcov_dlx.Pipeline.create p))
  | Error e -> print_endline e);

  print_endline "";
  print_endline "=== how a single bug manifests ===";
  (* disable the load-use interlock and watch the first divergence *)
  let program =
    match
      Simcov_dlx.Isa.parse_program
        "addi r1, r0, 9\nsw r1, 0(r0)\nlw r2, 0(r0)\nadd r3, r2, r2\nsw r3, 1(r0)"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let bugs = { Simcov_dlx.Pipeline.no_bugs with Simcov_dlx.Pipeline.no_load_interlock = true } in
  (match Simcov_dlx.Validate.run_program ~bugs program with
  | Simcov_dlx.Validate.Fail _ as f ->
      Format.printf "%a@." Simcov_dlx.Validate.pp_outcome f
  | Simcov_dlx.Validate.Pass _ -> print_endline "unexpectedly passed!")

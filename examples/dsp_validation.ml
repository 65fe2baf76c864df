(* The second design class of the paper's Section 5: a fixed-program
   signal-processing ASIC.

   Run with:  dune exec examples/dsp_validation.exe

   "In the case of a fixed program processor (e.g. a signal processing
   ASIC) the input sequence is simply a sequence of data values."
   The device here is a saturating MAC unit whose pipelined
   implementation has a two-cycle multiplier: reads racing an in-flight
   MAC must stall or be served by the adder bypass, and clear must
   squash in-flight products — the same stall / forward / squash
   phenomena as the DLX case study, at a scale where every artifact is
   inspectable by eye. *)

open Simcov_dsp.Mac

let () =
  (* the behavioral specification *)
  let spec = Spec.create () in
  let responses = Spec.run spec [ Setc 3l; Mac 4l; Mac 5l; Read ] in
  Format.printf "spec: setc 3; mac 4; mac 5; read  =>  %a@."
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_response)
    responses;

  (* the pipelined implementation agrees, stalling and forwarding as
     needed *)
  (match Validate.run [ Setc 3l; Mac 4l; Read; Mac 5l; Setc 7l; Read ] with
  | Validate.Pass n -> Printf.printf "pipeline matches on %d commands\n" n
  | Validate.Fail _ as f -> Format.printf "%a@." Validate.pp_outcome f);
  let p = Pipe.create () in
  let _ = Pipe.run p [ Setc 3l; Mac 4l; Read; Clear ] in
  let cycles, stalls, squashed = Pipe.stats p in
  Printf.printf "pipeline stats: %d cycles, %d stalls, %d squashed products\n" cycles
    stalls squashed;

  (* the control test model and its certificate *)
  let model = Testmodel.build () in
  Format.printf "test model: %a@." Simcov_fsm.Fsm.pp model;
  let cert =
    match Simcov_core.Completeness.certify model with
    | Ok c -> c
    | Error _ -> failwith "certification failed"
  in
  Printf.printf "certificate: forall-%d-distinguishable; optimal tour %d transitions\n"
    cert.Simcov_core.Completeness.k cert.Simcov_core.Completeness.tour_length;

  (* the tour, concretized to a command stream, exposes every seeded bug *)
  let word = Simcov_core.Completeness.padded_tour model cert in
  let cmds = Testmodel.concretize word in
  Printf.printf "tour command stream (%d commands):\n  " (List.length cmds);
  List.iteri
    (fun k c ->
      if k < 14 then Format.printf "%a; " pp_cmd c
      else if k = 14 then print_string "...")
    cmds;
  print_newline ();
  List.iter
    (fun (name, detected) ->
      Printf.printf "  %-18s %s\n" name (if detected then "DETECTED" else "missed"))
    (Validate.bug_campaign cmds)

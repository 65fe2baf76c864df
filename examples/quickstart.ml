(* Quickstart: the simulation-coverage methodology on a toy machine.

   Run with:  dune exec examples/quickstart.exe

   The flow is the paper's Figure 1 in miniature:
   1. define a test model (a Mealy machine),
   2. certify that a transition tour is a complete test set
      (∀k-distinguishability + strong connectivity, Theorem 1),
   3. generate the minimum-length tour (Chinese postman),
   4. inject an implementation error and expose it by simulating the
      tour on specification and implementation side by side. *)

open Simcov_fsm

let () =
  (* A tiny elevator controller: states = floors 0..2; inputs are
     "up", "down", "ring"; the output reports the floor reached, so
     every state responds distinctly to every input (the floor display
     is part of the response — Requirement 5). *)
  let floors = 3 in
  let model =
    Fsm.make ~n_states:floors ~n_inputs:3
      ~next:(fun s i ->
        match i with
        | 0 -> min (s + 1) (floors - 1) (* up *)
        | 1 -> max (s - 1) 0 (* down *)
        | _ -> s (* ring: stay *))
      ~output:(fun s i ->
        (* the position display shows the current floor alongside the
           action taken, so every response identifies the state —
           Requirement 5 in miniature *)
        (s * 4) + i)
      ~state_name:(fun s -> Printf.sprintf "floor%d" s)
      ~input_name:(fun i -> [| "up"; "down"; "ring" |].(i))
      ()
  in
  Printf.printf "model: %d states, %d transitions\n" (Fsm.n_reachable model)
    (Fsm.n_transitions model);

  (* 2. certify completeness *)
  (match Simcov_core.Completeness.certify model with
  | Ok cert ->
      Printf.printf
        "certificate: every state pair is forall-%d-distinguishable; optimal tour \
         has %d transitions\n"
        cert.Simcov_core.Completeness.k cert.Simcov_core.Completeness.tour_length
  | Error _ -> failwith "certification failed");

  (* 3. the tour *)
  let tour =
    match Simcov_testgen.Tour.transition_tour model with
    | Some t -> t
    | None -> failwith "no tour"
  in
  Printf.printf "tour inputs: %s\n"
    (String.concat " "
       (List.map (fun i -> model.Fsm.input_name i) tour.Simcov_testgen.Tour.word));

  (* 4. inject a transfer error: "up" from floor1 gets stuck at floor1 *)
  let fault =
    Simcov_coverage.Fault.Transfer { state = 1; input = 0; wrong_next = 1 }
  in
  let verdict =
    match
      (Simcov_coverage.Detect.campaign_outcome model [ fault ]
         tour.Simcov_testgen.Tour.word)
        .Simcov_coverage.Detect.Campaign.verdicts
    with
    | [ (_, v) ] -> v
    | _ -> failwith "the fault is not effective"
  in
  Printf.printf "injected fault: %s\n"
    (Format.asprintf "%a" Simcov_coverage.Fault.pp fault);
  Printf.printf "tour exposes it: %b (excited at step %s, detected at step %s)\n"
    verdict.Simcov_coverage.Detect.detected
    (match verdict.Simcov_coverage.Detect.excite_step with
    | Some s -> string_of_int s
    | None -> "-")
    (match verdict.Simcov_coverage.Detect.detect_step with
    | Some s -> string_of_int s
    | None -> "-");

  (* every single transfer/output error is caught — Theorem 3 *)
  let rng = Simcov_util.Rng.create 7 in
  let report =
    match Simcov_core.Completeness.certify model with
    | Ok cert -> Simcov_core.Completeness.check_empirically rng model cert
    | Error _ -> assert false
  in
  Format.printf "fault campaign: %a@." Simcov_coverage.Detect.pp_report report

open Simcov_fsm

type status = Satisfied of string | Violated of string | Assumed of string

let is_ok = function Satisfied _ | Assumed _ -> true | Violated _ -> false

type report = {
  r1_uniform_output_errors : status;
  r2_bounded_processing : status;
  r3_unique_outputs : status;
  r4_no_masking : status;
  r5_observable_interaction : status;
}

let all_ok r =
  is_ok r.r1_uniform_output_errors && is_ok r.r2_bounded_processing
  && is_ok r.r3_unique_outputs && is_ok r.r4_no_masking
  && is_ok r.r5_observable_interaction

let pp_status ppf = function
  | Satisfied e -> Format.fprintf ppf "satisfied (%s)" e
  | Violated e -> Format.fprintf ppf "VIOLATED (%s)" e
  | Assumed e -> Format.fprintf ppf "assumed (%s)" e

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>R1 uniform output errors:    %a@,\
     R2 bounded processing:       %a@,\
     R3 unique outputs:           %a@,\
     R4 no masked transfers:      %a@,\
     R5 observable interactions:  %a@]"
    pp_status r.r1_uniform_output_errors pp_status r.r2_bounded_processing pp_status
    r.r3_unique_outputs pp_status r.r4_no_masking pp_status
    r.r5_observable_interaction

let check_r1 concrete =
  match concrete with
  | None -> Assumed "no concrete machine supplied"
  | Some (machine, mapping, faulty) ->
      let classes = Simcov_coverage.Uniformity.classify machine mapping ~faulty in
      let bad = List.filter (fun c -> not (Simcov_coverage.Uniformity.is_uniform c)) classes in
      if bad = [] then
        Satisfied
          (Printf.sprintf "%d faulty abstract transitions, all uniform" (List.length classes))
      else
        let c = List.hd bad in
        Violated
          (Printf.sprintf
             "abstract transition (s%d, i%d) mixes %d faulty and %d clean concrete members"
             (fst c.Simcov_coverage.Uniformity.abs_transition)
             (snd c.Simcov_coverage.Uniformity.abs_transition)
             c.Simcov_coverage.Uniformity.faulty_members
             c.Simcov_coverage.Uniformity.clean_members)

module Tour = Simcov_testgen.Tour

let check_r4 model (facts : Tour.facts) rng samples =
  match rng with
  | None -> Assumed "masking excluded by design (no registered error cancellation)"
  | Some rng -> (
      match facts.Tour.tour with
      | None -> Assumed "no tour available for the masking scan"
      | Some tour ->
          let faults = Simcov_coverage.Fault.sample_transfer_faults rng model ~count:samples in
          let masked =
            List.filter
              (fun f ->
                Simcov_coverage.Detect.has_masked_transfer model [ f ] tour.Tour.word)
              faults
          in
          if masked = [] then
            Satisfied
              (Printf.sprintf "no masked window under %d sampled transfer faults"
                 (List.length faults))
          else
            Violated
              (Format.asprintf "masked transfer error found: %a" Simcov_coverage.Fault.pp
                 (List.hd masked)))

let check ?concrete ?facts ?rng ?(masking_samples = 100) model =
  let facts = match facts with Some f -> f | None -> Tour.facts model in
  {
    r1_uniform_output_errors = check_r1 concrete;
    r2_bounded_processing =
      (match facts.Tour.forall_k with
      | Ok k -> Satisfied (Printf.sprintf "processing bounded: k = %d" k)
      | Error _ ->
          Violated (Printf.sprintf "no k <= %d bounds exposure" facts.Tour.k_bound));
    r3_unique_outputs =
      Assumed "discharged by data selection during concretization (checkpoints carry identity)";
    r4_no_masking = check_r4 model facts rng masking_samples;
    r5_observable_interaction =
      (* pairwise single-step distinguishability *)
      (match Tour.forall_1 model facts with
      | Ok _ -> Satisfied "every reachable state pair is ∀1-distinguishable"
      | Error (p, q) ->
          Violated
            (Printf.sprintf "states %s and %s agree on some input's output"
               (model.Fsm.state_name p) (model.Fsm.state_name q)));
  }

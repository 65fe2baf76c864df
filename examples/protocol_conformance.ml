(* Protocol conformance testing with transition tours.

   Run with:  dune exec examples/protocol_conformance.exe

   The paper's completeness argument descends from protocol
   conformance testing (Dahbura-Sabnani-Uyar): a transition tour
   catches all errors when every state can be told apart by what it
   answers. We model an alternating-bit-protocol sender in two
   flavors:

   - [abp_observable]: every response carries the sender's status word
     (sequence bit + waiting flag) — the protocol analogue of the
     paper's Requirement 5. Here the tour is a certified complete
     conformance test.
   - [abp_terse]: ignored acknowledgements are answered with a bare
     NAK that hides the state. ∀k-distinguishability fails for every
     k, and the tour misses injected errors. *)

open Simcov_fsm

(* ABP sender states: (seq bit, waiting-for-ack?) -> 4 states.
   Inputs: 0 = send-request, 1 = ack(0), 2 = ack(1). *)
let abp ~observable =
  let state seq waiting = (seq * 2) + if waiting then 1 else 0 in
  let seq_of s = s / 2 and waiting_of s = s mod 2 = 1 in
  let next s i =
    let seq = seq_of s and w = waiting_of s in
    match i with
    | 0 -> if w then s else state seq true (* transmit frame, start waiting *)
    | 1 -> if w && seq = 0 then state 1 false else s (* ack for bit 0 *)
    | _ -> if w && seq = 1 then state 0 false else s (* ack for bit 1 *)
  in
  let output s i =
    let seq = seq_of s and w = waiting_of s in
    let status = if observable then 100 + s else 0 in
    match i with
    | 0 -> status + if w then 20 + seq (* retransmit *) else 10 + seq (* frame(seq) *)
    | 1 -> status + if w && seq = 0 then 30 (* accept ack0 *) else 40 (* NAK *)
    | _ -> status + if w && seq = 1 then 31 (* accept ack1 *) else 40 (* NAK *)
  in
  Fsm.make ~n_states:4 ~n_inputs:3 ~next ~output
    ~state_name:(fun s ->
      Printf.sprintf "seq%d%s" (seq_of s) (if waiting_of s then "+wait" else ""))
    ~input_name:(fun i -> [| "send"; "ack0"; "ack1" |].(i))
    ()

let campaign m word =
  let faults =
    Simcov_coverage.Fault.all_transfer_faults m @ Simcov_coverage.Fault.all_output_faults m
  in
  Simcov_coverage.Detect.campaign m faults word

let () =
  let abp_observable = abp ~observable:true in
  let abp_terse = abp ~observable:false in
  Printf.printf "ABP sender: %d states, %d transitions\n"
    (Fsm.n_reachable abp_observable)
    (Fsm.n_transitions abp_observable);

  (* --- observable flavor: certified complete --- *)
  (match Fsm.min_forall_k abp_observable with
  | Ok k -> Printf.printf "observable: forall-k-distinguishability at k = %d\n" k
  | Error _ -> print_endline "observable: not distinguishable?!");
  let cert =
    match Simcov_core.Completeness.certify abp_observable with
    | Ok c -> c
    | Error _ -> failwith "certification failed"
  in
  let tour = Simcov_core.Completeness.padded_tour abp_observable cert in
  Printf.printf "observable: transition tour of %d inputs\n" (List.length tour);
  Printf.printf "  %s\n"
    (String.concat " " (List.map (fun i -> abp_observable.Fsm.input_name i) tour));
  let report = campaign abp_observable tour in
  Format.printf "observable: exhaustive fault campaign: %a@."
    Simcov_coverage.Detect.pp_report report;
  assert (Simcov_coverage.Detect.coverage_pct report = 100.0);
  print_endline "=> the tour is a complete conformance test (Theorem 1)";
  print_newline ();

  (* --- terse flavor: certification fails, and rightly so --- *)
  (match Fsm.min_forall_k ~bound:8 abp_terse with
  | Ok k -> Printf.printf "terse: forall-k at k = %d?!\n" k
  | Error _ ->
      print_endline
        "terse: no k makes all pairs forall-k-distinguishable (certification refused)");
  (match Simcov_core.Completeness.certify abp_terse with
  | Ok _ -> print_endline "terse: unexpectedly certified"
  | Error (Simcov_core.Completeness.Indistinguishable_pair (p, q)) ->
      Printf.printf "terse: certification fails on states %s / %s\n"
        (abp_terse.Fsm.state_name p) (abp_terse.Fsm.state_name q)
  | Error Simcov_core.Completeness.Not_strongly_connected ->
      print_endline "terse: not strongly connected");
  match Simcov_testgen.Tour.transition_tour abp_terse with
  | None -> print_endline "terse: no closed tour"
  | Some t ->
      let r = campaign abp_terse t.Simcov_testgen.Tour.word in
      Format.printf "terse: tour campaign: %a@." Simcov_coverage.Detect.pp_report r;
      if Simcov_coverage.Detect.coverage_pct r < 100.0 then
        print_endline "=> without observable status the tour is NOT complete"

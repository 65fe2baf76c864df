open Simcov_fsm
module Tour = Simcov_testgen.Tour

type certificate = {
  k : int;
  n_states : int;
  n_transitions : int;
  tour_length : int;
  word : int list;
}

type failure = Not_strongly_connected | Indistinguishable_pair of int * int

let certify ?(scope = `Reachable) ?(k_bound = 8) m =
  let forall_k = Fsm.min_forall_k ~scope ~bound:k_bound m in
  match (Tour.transition_tour m, forall_k) with
  | None, _ -> Error Not_strongly_connected
  | Some _, Error (p, q) -> Error (Indistinguishable_pair (p, q))
  | Some tour, Ok k ->
      Ok
        {
          k;
          n_states = Fsm.n_reachable m;
          n_transitions = tour.Tour.n_transitions;
          tour_length = tour.Tour.length;
          word = Tour.pad m ~k tour.Tour.word;
        }

let padded_tour (_ : Fsm.t) cert = cert.word

let check_empirically ?(n_transfer = 200) ?(n_output = 200) rng m cert =
  let n_outputs =
    List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 (Fsm.transitions m)
  in
  let faults =
    Simcov_coverage.Fault.sample_transfer_faults rng m ~count:n_transfer
    @ Simcov_coverage.Fault.sample_output_faults rng m ~n_outputs ~count:n_output
  in
  Simcov_coverage.Detect.campaign m faults cert.word

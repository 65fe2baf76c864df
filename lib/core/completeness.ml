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

let of_facts m (f : Tour.facts) =
  match (f.Tour.tour, f.Tour.forall_k) with
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

let certify ?scope ?k_bound m = of_facts m (Tour.facts ?scope ?k_bound m)

let padded_tour (_ : Fsm.t) cert = cert.word

let campaign_word m = function
  | Some cert -> cert.word
  | None -> (
      match Tour.greedy_transition_tour m with
      | Some t -> t.Tour.word
      | None -> (Tour.transition_cover m).Tour.word)

let check_empirically ?(count = 200) rng m cert =
  Simcov_coverage.Detect.campaign m
    (Simcov_coverage.Fault.sample_faults rng m ~count)
    cert.word

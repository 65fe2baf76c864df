open Simcov_fsm

let state_names = [| "1"; "2"; "3"; "3'"; "4"; "4'"; "5" |]
let input_names = [| "a"; "b"; "c"; "r"; "d" |]

(* indices: 0="1" 1="2" 2="3" 3="3'" 4="4" 5="4'" 6="5";
   inputs: 0=a 1=b 2=c 3=r 4=d.

   The [d] edge from state 1 straight to state 3 is the completion of
   the paper's fragment into a closed machine: it lets a transition
   tour cover the (3, b) transition without traversing the error-prone
   (2, a) transition a second time, so the tour that continues (2, a)
   with [c] really never sees the corrupted successor respond to
   [b]. *)
let table ~c_outputs_differ =
  [
    (0, 0, 1, 0) (* 1 -a-> 2 *);
    (0, 4, 2, 0) (* 1 -d-> 3 *);
    (1, 0, 2, 0) (* 2 -a-> 3: the transition the error corrupts *);
    (2, 1, 4, 1) (* 3 -b-> 4, output 1 *);
    (3, 1, 5, 2) (* 3' -b-> 4', output 2: b exposes *);
    (2, 2, 6, 3) (* 3 -c-> 5 *);
    (3, 2, 6, (if c_outputs_differ then 5 else 3)) (* 3' -c-> 5 *);
    (4, 3, 0, 4);
    (5, 3, 0, 6);
    (6, 3, 0, 7);
  ]

let build ~c_outputs_differ =
  let row s i =
    List.find_map
      (fun (s', i', n, o) -> if s' = s && i' = i then Some (n, o) else None)
      (table ~c_outputs_differ)
  in
  Fsm.make
    ~n_states:(Array.length state_names)
    ~n_inputs:(Array.length input_names)
    ~valid:(fun s i -> row s i <> None)
    ~next:(fun s i -> fst (Option.get (row s i)))
    ~output:(fun s i -> snd (Option.get (row s i)))
    ~state_name:(fun s -> state_names.(s))
    ~input_name:(fun i -> input_names.(i))
    ()

let original = build ~c_outputs_differ:false
let repaired = build ~c_outputs_differ:true

let transfer_error = Simcov_coverage.Fault.Transfer { state = 1; input = 0; wrong_next = 3 }

(* reachable transitions of the golden machine: (1,a) (1,d) (2,a) (3,b)
   (3,c) (4,r) (5,r) — seven; each word covers all of them and
   traverses the faulty (2,a) transition exactly once. *)
let tour_via_b = [ 0; 0; 1; 3; 4; 2; 3 ] (* a a b r d c r *)
let tour_via_c = [ 0; 0; 2; 3; 4; 1; 3 ] (* a a c r d b r *)

type row = { machine : string; tour : string; is_tour : bool; detected : bool }

let detects m word =
  (Simcov_coverage.Detect.campaign m [ transfer_error ] word).Simcov_coverage.Detect.detected
  = 1

let experiment () =
  let row name m tname tour =
    {
      machine = name;
      tour = tname;
      is_tour = Simcov_testgen.Tour.word_is_tour m tour;
      detected = detects m tour;
    }
  in
  [
    row "original" original "<a,b> first" tour_via_b;
    row "original" original "<a,c> first" tour_via_c;
    row "repaired" repaired "<a,b> first" tour_via_b;
    row "repaired" repaired "<a,c> first" tour_via_c;
  ]

let random_tour_detection rng ~n m =
  let detected = ref 0 in
  for _ = 1 to n do
    (* random walk until full transition coverage (bounded) *)
    let covered = Hashtbl.create 16 in
    let total = Fsm.n_transitions m in
    let word = ref [] in
    let s = ref m.Fsm.reset in
    let steps = ref 0 in
    while Hashtbl.length covered < total && !steps < 10_000 do
      let inputs = Array.of_list (Fsm.valid_inputs m !s) in
      let i = Simcov_util.Rng.pick rng inputs in
      Hashtbl.replace covered (!s, i) ();
      word := i :: !word;
      s := m.Fsm.next !s i;
      incr steps
    done;
    (* pad with k = 1 extra step so a transfer error excited on the
       final transition still has its exposure window (Theorem 1) *)
    (match Fsm.valid_inputs m !s with
    | i :: _ -> word := i :: !word
    | [] -> ());
    if detects m (List.rev !word) then incr detected
  done;
  !detected

open Simcov_fsm

type mapping = {
  n_abs_states : int;
  n_abs_inputs : int;
  state_map : int -> int;
  input_map : int -> int;
  output_map : int -> int;
}

type conflict = {
  abs_state : int;
  abs_input : int;
  first : int * int * int * int;
  second : int * int * int * int;
}

let quotient (m : Fsm.t) (a : mapping) =
  let tbl : (int * int, (int * int) * (int * int * int * int)) Hashtbl.t =
    Hashtbl.create 1024
  in
  let conflict = ref None in
  List.iter
    (fun (s, i, s', o) ->
      if !conflict = None then begin
        let key = (a.state_map s, a.input_map i) in
        let image = (a.state_map s', a.output_map o) in
        match Hashtbl.find_opt tbl key with
        | None -> Hashtbl.add tbl key (image, (s, i, s', o))
        | Some (image', witness) ->
            if image <> image' then
              conflict :=
                Some
                  {
                    abs_state = fst key;
                    abs_input = snd key;
                    first = witness;
                    second = (s, i, s', o);
                  }
      end)
    (Fsm.transitions m);
  match !conflict with
  | Some c -> Error c
  | None ->
      let abs =
        Fsm.make
          ~reset:(a.state_map m.Fsm.reset)
          ~valid:(fun s i -> Hashtbl.mem tbl (s, i))
          ~state_name:(fun s -> "a" ^ string_of_int s)
          ~n_states:a.n_abs_states ~n_inputs:a.n_abs_inputs
          ~next:(fun s i -> fst (fst (Hashtbl.find tbl (s, i))))
          ~output:(fun s i -> snd (fst (Hashtbl.find tbl (s, i))))
          ()
      in
      Ok abs

let is_transition_preserving (conc : Fsm.t) (abs : Fsm.t) (a : mapping) =
  List.for_all
    (fun (s, i, s', o) ->
      let sa = a.state_map s and ia = a.input_map i in
      abs.Fsm.valid sa ia
      && abs.Fsm.next sa ia = a.state_map s'
      && abs.Fsm.output sa ia = a.output_map o)
    (Fsm.transitions conc)

let identity_mapping (m : Fsm.t) =
  {
    n_abs_states = m.Fsm.n_states;
    n_abs_inputs = m.Fsm.n_inputs;
    state_map = Fun.id;
    input_map = Fun.id;
    output_map = Fun.id;
  }

let state_partition_by (m : Fsm.t) key =
  let classes = Hashtbl.create 64 in
  let assign = Array.make m.Fsm.n_states 0 in
  let count = ref 0 in
  for s = 0 to m.Fsm.n_states - 1 do
    let k = key s in
    match Hashtbl.find_opt classes k with
    | Some c -> assign.(s) <- c
    | None ->
        Hashtbl.add classes k !count;
        assign.(s) <- !count;
        incr count
  done;
  {
    n_abs_states = !count;
    n_abs_inputs = m.Fsm.n_inputs;
    state_map = (fun s -> assign.(s));
    input_map = Fun.id;
    output_map = Fun.id;
  }

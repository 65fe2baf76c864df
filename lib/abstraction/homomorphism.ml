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

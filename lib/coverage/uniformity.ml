open Simcov_fsm
open Simcov_abstraction

type classification = {
  abs_transition : int * int;
  faulty_members : int;
  clean_members : int;
}

let classify (m : Fsm.t) (a : Homomorphism.mapping) ~faulty =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (s, i, _, _) ->
      let key = (a.Homomorphism.state_map s, a.Homomorphism.input_map i) in
      let f, c = Option.value (Hashtbl.find_opt tbl key) ~default:(0, 0) in
      let entry = if faulty (s, i) then (f + 1, c) else (f, c + 1) in
      Hashtbl.replace tbl key entry)
    (Fsm.transitions m);
  Hashtbl.fold
    (fun abs_transition (faulty_members, clean_members) acc ->
      if faulty_members > 0 then { abs_transition; faulty_members; clean_members } :: acc
      else acc)
    tbl []
  |> List.sort compare

let is_uniform c = c.clean_members = 0

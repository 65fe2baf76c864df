open Simcov_netlist

type report = {
  n_regs : int;
  toggled : int;
  observed : int;
  toggled_and_observed : int;
  steps : int;
}

(* outputs produced over [horizon] steps from [state], driven by the
   tail of the word starting at [inputs]; stops early at word end or
   on an input the constraint rejects in the perturbed state *)
let window_outputs c state inputs horizon =
  let rec go state inputs h acc =
    if h = 0 then List.rev acc
    else
      match inputs with
      | [] -> List.rev acc
      | iv :: rest ->
          if not (Circuit.input_valid c state iv) then List.rev acc
          else
            let state', outs = Circuit.step c state iv in
            go state' rest (h - 1) (outs :: acc)
  in
  go state inputs horizon []

let analyze ?(horizon = 4) (c : Circuit.t) word =
  let n = Circuit.n_regs c in
  let toggled = Array.make n false in
  let observed = Array.make n false in
  (* trajectory of states *)
  let states =
    let rec go state acc = function
      | [] -> List.rev acc
      | iv :: rest ->
          let state', _ = Circuit.step c state iv in
          go state' (state' :: acc) rest
    in
    Array.of_list (go (Circuit.initial_state c) [ Circuit.initial_state c ] word)
  in
  let word_arr = Array.of_list word in
  let steps = Array.length word_arr in
  (* toggling: value changes along the trajectory *)
  for t = 1 to steps do
    for r = 0 to n - 1 do
      if states.(t).(r) <> states.(t - 1).(r) then toggled.(r) <- true
    done
  done;
  (* observability: flip register r in the state before step t and see
     whether any output differs within the horizon *)
  let tail_from t =
    let rec go k acc = if k < t then List.rev acc else go (k - 1) (word_arr.(k) :: acc) in
    go (steps - 1) []
  in
  for t = 0 to steps - 1 do
    let tail = tail_from t in
    let base = window_outputs c states.(t) tail horizon in
    for r = 0 to n - 1 do
      if not observed.(r) then begin
        let flipped = Array.copy states.(t) in
        flipped.(r) <- not flipped.(r);
        let alt = window_outputs c flipped tail horizon in
        (* a length difference means the constraint rejected an input
           in the perturbed run — observable as well *)
        if List.length alt <> List.length base || List.exists2 ( <> ) base alt then
          observed.(r) <- true
      end
    done
  done;
  let count a = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 a in
  let both = ref 0 in
  for r = 0 to n - 1 do
    if toggled.(r) && observed.(r) then incr both
  done;
  {
    n_regs = n;
    toggled = count toggled;
    observed = count observed;
    toggled_and_observed = !both;
    steps;
  }

let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b
let toggle_pct r = pct r.toggled r.n_regs
let observability_pct r = pct r.toggled_and_observed r.n_regs

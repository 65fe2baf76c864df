open Simcov_bdd
open Simcov_netlist
module Budget = Simcov_util.Budget
module Obs = Simcov_obs.Obs

let c_steps = Obs.counter "symtour.steps"
let tm_generate = Obs.timer "symtour.generate"

type progress = { steps : int; covered : float; total : float }

type result = {
  word : bool array list;
  complete : bool;
  progress : progress;
  truncated_by : Budget.resource option;
}

let count_pairs (sym : Symfsm.t) f =
  let total_vars = Bdd.num_vars sym.Symfsm.man in
  Bdd.sat_count sym.Symfsm.man ~nvars:total_vars f
  /. Float.pow 2.0 (Float.of_int (total_vars - sym.Symfsm.n_state_vars - sym.Symfsm.n_input_vars))

let input_cube (sym : Symfsm.t) iv =
  Bdd.conj sym.Symfsm.man
    (List.init sym.Symfsm.n_input_vars (fun j ->
         if iv.(j) then Bdd.var sym.Symfsm.man sym.Symfsm.inp.(j)
         else Bdd.nvar sym.Symfsm.man sym.Symfsm.inp.(j)))

(* extract a concrete input vector from a partial satisfying
   assignment; unassigned variables are input don't-cares and default
   to false *)
let inputs_of_assigns (sym : Symfsm.t) assigns =
  let iv = Array.make sym.Symfsm.n_input_vars false in
  List.iter
    (fun (v, b) ->
      if v >= 2 * sym.Symfsm.n_state_vars then iv.(v - (2 * sym.Symfsm.n_state_vars)) <- b)
    assigns;
  iv

let member (sym : Symfsm.t) set state =
  Bdd.eval sym.Symfsm.man set (fun v ->
      if v < 2 * sym.Symfsm.n_state_vars && v mod 2 = 0 then state.(v / 2) else false)

let generate ?(max_steps = 100_000) ?(budget = Budget.unlimited) (circuit : Circuit.t) =
  Obs.span tm_generate @@ fun () ->
  let sym = Symfsm.of_circuit ~budget circuit in
  let man = sym.Symfsm.man in
  let tr = Symfsm.reachable_stats ~budget sym in
  let truncated = ref tr.Symfsm.truncated in
  let target =
    Bdd.protect man (Bdd.band man tr.Symfsm.reached sym.Symfsm.valid)
  in
  let total = count_pairs sym target in
  let covered = ref (Bdd.bfalse man) in
  let r_covered = Bdd.add_root man !covered in
  let state = ref (Circuit.initial_state circuit) in
  let word = ref [] in
  let steps = ref 0 in
  let apply iv =
    let sc = Symfsm.state_cube sym !state in
    (* [sc] stays live across the input-cube build: pin it *)
    let pair = Bdd.pinned man sc (fun () -> Bdd.band man sc (input_cube sym iv)) in
    covered := Bdd.bor man !covered pair;
    Bdd.set_root man r_covered !covered;
    let state', _ = Circuit.step circuit !state iv in
    state := state';
    word := iv :: !word;
    incr steps;
    Obs.incr c_steps
  in
  let uncovered () = Bdd.band man target (Bdd.bnot man !covered) in
  (* an uncovered transition out of the current state, if any *)
  let local_input () =
    let u0 = uncovered () in
    (* [u0] stays live across the state-cube build: pin it *)
    let u =
      Bdd.pinned man u0 (fun () -> Bdd.band man u0 (Symfsm.state_cube sym !state))
    in
    if Bdd.is_false u then None else Some (inputs_of_assigns sym (Bdd.any_sat man u))
  in
  (* walk to the nearest state owning an uncovered transition via
     backward BFS layers; everything held across the layer-building
     preimages is pinned so a mid-walk GC cannot unshare it *)
  let walk_to_goal () =
    let goal =
      Bdd.and_exists man (Array.to_list sym.Symfsm.inp) (uncovered ()) (Bdd.btrue man)
    in
    if Bdd.is_false goal then false
    else begin
      let pins = ref [] in
      let pin b =
        pins := Bdd.add_root man b :: !pins;
        b
      in
      Fun.protect
        ~finally:(fun () -> List.iter (Bdd.remove_root man) !pins)
      @@ fun () ->
      ignore (pin goal);
      (* build layers until the current state is included *)
      let rec build layers frontier union =
        if member sym frontier !state then Some (frontier :: layers)
        else begin
          let pre = pin (Symfsm.preimage sym frontier) in
          let union' = pin (Bdd.bor man union pre) in
          if Bdd.equal union' union then None (* unreachable from here *)
          else
            build (frontier :: layers)
              (pin (Bdd.band man pre (Bdd.bnot man union)))
              union'
        end
      in
      match build [] goal goal with
      | None -> false
      | Some (_current_layer :: deeper) ->
          (* deeper = [next_layer; ...; goal]; step through them *)
          List.iter
            (fun layer ->
              let layer' =
                Bdd.rename man
                  (fun v -> if v < 2 * sym.Symfsm.n_state_vars then v + 1 else v)
                  layer
              in
              (* [layer'] stays live across the state-cube build *)
              let choices =
                Bdd.pinned man layer' (fun () ->
                    Symfsm.constrain_trans sym
                      (Bdd.band man (Symfsm.state_cube sym !state) layer'))
              in
              (* trans includes validity; choices is nonempty by
                 construction of the layers *)
              apply (inputs_of_assigns sym (Bdd.any_sat man choices)))
            deeper;
          true
      | Some [] -> assert false
    end
  in
  let running = ref true in
  (try
     while !running && !steps < max_steps do
       Budget.check budget;
       match local_input () with
       | Some iv -> apply iv
       | None -> if not (walk_to_goal ()) then running := false
     done
   with
  | Budget.Budget_exceeded r -> truncated := Some r
  | Bdd.Node_limit _ -> truncated := Some Budget.Nodes);
  let complete =
    !truncated = None
    && (try Bdd.is_false (uncovered ()) with Bdd.Node_limit _ -> false)
  in
  let covered_n = count_pairs sym !covered in
  Bdd.remove_root man r_covered;
  {
    word = List.rev !word;
    complete;
    progress = { steps = !steps; covered = covered_n; total };
    truncated_by = !truncated;
  }

open Simcov_fsm

type t =
  | Transfer of { state : int; input : int; wrong_next : int }
  | Output of { state : int; input : int; wrong_output : int }
  | Conditional_output of {
      state : int;
      input : int;
      wrong_output : int;
      prev : int * int;
    }

let pp ppf = function
  | Transfer { state; input; wrong_next } ->
      Format.fprintf ppf "transfer(s%d, i%d -> s%d)" state input wrong_next
  | Output { state; input; wrong_output } ->
      Format.fprintf ppf "output(s%d, i%d => %d)" state input wrong_output
  | Conditional_output { state; input; wrong_output; prev = ps, pi } ->
      Format.fprintf ppf "cond-output(s%d, i%d => %d after (s%d, i%d))" state input
        wrong_output ps pi

let equal = ( = )

let key = function
  | Transfer { state; input; wrong_next } ->
      Printf.sprintf "t:%d:%d:%d" state input wrong_next
  | Output { state; input; wrong_output } ->
      Printf.sprintf "o:%d:%d:%d" state input wrong_output
  | Conditional_output { state; input; wrong_output; prev = ps, pi } ->
      Printf.sprintf "c:%d:%d:%d:%d:%d" state input wrong_output ps pi

let to_json fault =
  let open Simcov_util.Json in
  match fault with
  | Transfer { state; input; wrong_next } ->
      Obj
        [
          ("kind", String "transfer");
          ("state", Int state);
          ("input", Int input);
          ("wrong_next", Int wrong_next);
        ]
  | Output { state; input; wrong_output } ->
      Obj
        [
          ("kind", String "output");
          ("state", Int state);
          ("input", Int input);
          ("wrong_output", Int wrong_output);
        ]
  | Conditional_output { state; input; wrong_output; prev = ps, pi } ->
      Obj
        [
          ("kind", String "conditional_output");
          ("state", Int state);
          ("input", Int input);
          ("wrong_output", Int wrong_output);
          ("prev_state", Int ps);
          ("prev_input", Int pi);
        ]

let apply (m : Fsm.t) fault =
  match fault with
  | Transfer { state; input; wrong_next } ->
      {
        m with
        Fsm.next = (fun s i -> if s = state && i = input then wrong_next else m.Fsm.next s i);
      }
  | Output { state; input; wrong_output } ->
      {
        m with
        Fsm.output =
          (fun s i -> if s = state && i = input then wrong_output else m.Fsm.output s i);
      }
  | Conditional_output { state; input; wrong_output; prev } ->
      (* enlarge the state space with one bit of history: was the
         previous transition [prev]? *)
      let proj s = s / 2 and hist s = s land 1 = 1 in
      {
        m with
        Fsm.n_states = 2 * m.Fsm.n_states;
        reset = 2 * m.Fsm.reset;
        valid = (fun s i -> m.Fsm.valid (proj s) i);
        next =
          (fun s i ->
            let base = m.Fsm.next (proj s) i in
            (2 * base) + if (proj s, i) = prev then 1 else 0);
        output =
          (fun s i ->
            if proj s = state && i = input && hist s then wrong_output
            else m.Fsm.output (proj s) i);
        state_name = (fun s -> m.Fsm.state_name (proj s) ^ if hist s then "^" else "");
      }

let apply_all m faults = List.fold_left apply m faults

let site = function
  | Transfer { state; input; _ }
  | Output { state; input; _ }
  | Conditional_output { state; input; _ } ->
      (state, input)

let is_uniform_kind = function
  | Transfer _ | Output _ -> true
  | Conditional_output _ -> false

let is_effective (m : Fsm.t) fault =
  match fault with
  | Transfer { state; input; wrong_next } ->
      m.Fsm.valid state input && m.Fsm.next state input <> wrong_next
  | Output { state; input; wrong_output } ->
      m.Fsm.valid state input && m.Fsm.output state input <> wrong_output
  | Conditional_output { state; input; wrong_output; prev = ps, pi } ->
      m.Fsm.valid state input
      && m.Fsm.output state input <> wrong_output
      && m.Fsm.valid ps pi
      && m.Fsm.next ps pi = state

let all_output_faults ?(wrong = succ) m =
  List.map
    (fun (s, i, _, o) -> Output { state = s; input = i; wrong_output = wrong o })
    (Fsm.transitions m)

let all_transfer_faults m =
  let seen = Fsm.reachable m in
  let states = ref [] in
  Array.iteri (fun s r -> if r then states := s :: !states) seen;
  let states = !states in
  List.concat_map
    (fun (s, i, s', _) ->
      List.filter_map
        (fun d -> if d = s' then None else Some (Transfer { state = s; input = i; wrong_next = d }))
        states)
    (Fsm.transitions m)

let sample_transfer_faults rng m ~count =
  let transitions = Array.of_list (Fsm.transitions m) in
  let seen = Fsm.reachable m in
  let states = ref [] in
  Array.iteri (fun s r -> if r then states := s :: !states) seen;
  let states = Array.of_list !states in
  if Array.length transitions = 0 || Array.length states < 2 then []
  else begin
    let picked = Hashtbl.create count in
    let budget = count * 20 in
    let rec go n attempts acc =
      if n >= count || attempts >= budget then List.rev acc
      else begin
        let s, i, s', _ = Simcov_util.Rng.pick rng transitions in
        let d = Simcov_util.Rng.pick rng states in
        if d <> s' && not (Hashtbl.mem picked (s, i, d)) then begin
          Hashtbl.add picked (s, i, d) ();
          go (n + 1) (attempts + 1)
            (Transfer { state = s; input = i; wrong_next = d } :: acc)
        end
        else go n (attempts + 1) acc
      end
    in
    go 0 0 []
  end

let sample_output_faults rng m ~n_outputs ~count =
  let transitions = Array.of_list (Fsm.transitions m) in
  if Array.length transitions = 0 || n_outputs < 2 then []
  else begin
    let picked = Hashtbl.create count in
    let budget = count * 20 in
    let rec go n attempts acc =
      if n >= count || attempts >= budget then List.rev acc
      else begin
        let s, i, _, o = Simcov_util.Rng.pick rng transitions in
        let w = Simcov_util.Rng.int rng n_outputs in
        if w <> o && not (Hashtbl.mem picked (s, i, w)) then begin
          Hashtbl.add picked (s, i, w) ();
          go (n + 1) (attempts + 1) (Output { state = s; input = i; wrong_output = w } :: acc)
        end
        else go n (attempts + 1) acc
      end
    in
    go 0 0 []
  end

(* [@] evaluates its right operand first, so output faults are drawn
   before transfer faults: every recorded fault list depends on it *)
let sample_faults rng m ~count =
  let n_outputs =
    List.fold_left (fun acc (_, _, _, o) -> max acc (o + 1)) 1 (Fsm.transitions m)
  in
  let outputs = sample_output_faults rng m ~n_outputs ~count in
  sample_transfer_faults rng m ~count @ outputs

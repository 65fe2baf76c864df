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

(* [tag:f1:f2:...] in decimal, written into one buffer: a campaign
   keys thousands of faults, and [string_of_int] is a C format call per
   field *)
let key_of tag fields =
  let b = Buffer.create 24 in
  Buffer.add_char b tag;
  List.iter
    (fun n ->
      Buffer.add_char b ':';
      Simcov_util.Json.add_int b n)
    fields;
  Buffer.contents b

let key = function
  | Transfer { state; input; wrong_next } -> key_of 't' [ state; input; wrong_next ]
  | Output { state; input; wrong_output } -> key_of 'o' [ state; input; wrong_output ]
  | Conditional_output { state; input; wrong_output; prev = ps, pi } ->
      key_of 'c' [ state; input; wrong_output; ps; pi ]

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

(* The samplers draw a reachable transition by its index in
   {!Fsm.transitions} order and read it off the compiled tables. *)
let sample_transfer_faults rng m ~count =
  let codes = Fsm.transition_codes m and tab = Fsm.tables m in
  let k = tab.Fsm.tab_inputs in
  let seen = Fsm.reachable m in
  let states = ref [] in
  Array.iteri (fun s r -> if r then states := s :: !states) seen;
  let states = Array.of_list !states in
  if Array.length codes = 0 || Array.length states < 2 then []
  else begin
    let picked = Hashtbl.create count in
    let budget = count * 20 in
    let rec go n attempts acc =
      if n >= count || attempts >= budget then List.rev acc
      else begin
        let c = Simcov_util.Rng.pick rng codes in
        let s = c / k and i = c mod k in
        let d = Simcov_util.Rng.pick rng states in
        if d <> tab.Fsm.tab_next.(c) && not (Hashtbl.mem picked (s, i, d)) then begin
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
  let codes = Fsm.transition_codes m and tab = Fsm.tables m in
  let k = tab.Fsm.tab_inputs in
  if Array.length codes = 0 || n_outputs < 2 then []
  else begin
    let picked = Hashtbl.create count in
    let budget = count * 20 in
    let rec go n attempts acc =
      if n >= count || attempts >= budget then List.rev acc
      else begin
        let c = Simcov_util.Rng.pick rng codes in
        let s = c / k and i = c mod k in
        let w = Simcov_util.Rng.int rng n_outputs in
        if w <> tab.Fsm.tab_output.(c) && not (Hashtbl.mem picked (s, i, w)) then begin
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
  let out = (Fsm.tables m).Fsm.tab_output in
  let n_outputs =
    Array.fold_left (fun acc c -> max acc (out.(c) + 1)) 1 (Fsm.transition_codes m)
  in
  let outputs = sample_output_faults rng m ~n_outputs ~count in
  sample_transfer_faults rng m ~count @ outputs

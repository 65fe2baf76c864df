open Simcov_bdd
module Budget = Simcov_util.Budget
module Obs = Simcov_obs.Obs
module Json = Simcov_util.Json

let c_iterations = Obs.counter "symfsm.iterations"
let c_images = Obs.counter "symfsm.images"
let tm_iteration = Obs.timer "symfsm.iteration"

type part = { rel : Bdd.t; supp : int list }

type iter_stat = {
  iteration : int;
  frontier_states : float;
  frontier_nodes : int;
  reached_nodes : int;
  live_nodes : int;
  time_s : float;
}

type traversal = {
  reached : Bdd.t;
  iterations : int;
  images : int;
  peak_live_nodes : int;
  total_time_s : float;
  iter_stats : iter_stat list;
  truncated : Budget.resource option;
  gc_runs : int;
}

type t = {
  man : Bdd.man;
  n_state_vars : int;
  n_input_vars : int;
  cur : int array;
  nxt : int array;
  inp : int array;
  parts : part list;
  valid : Bdd.t;
  init : Bdd.t;
  outputs : Bdd.t array;
  mutable mono : Bdd.t option;
  mutable reach : traversal option;
}

(* Variable layout: cur_i = 2i, nxt_i = 2i + 1 (interleaved), inputs
   after all state variables. *)
let layout ~n_state ~n_input =
  let cur = Array.init n_state (fun i -> 2 * i) in
  let nxt = Array.init n_state (fun i -> (2 * i) + 1) in
  let inp = Array.init n_input (fun j -> (2 * n_state) + j) in
  (cur, nxt, inp)

(* Conjunct ordering for early quantification, greedy over supports:
   repeatedly pick the part that kills the most still-pending
   quantifiable variables (variables of the image quantifier appearing
   in no other unpicked part get quantified out right after this part
   is folded in) while introducing the fewest variables not yet seen.
   O(parts^2 * support) — negligible at build time, and the resulting
   static order is reused by every image/preimage call. *)
let order_parts nvars parts ~quantified =
  let parts = Array.of_list parts in
  let n = Array.length parts in
  let chosen = Array.make n false in
  let introduced = Array.make nvars false in
  let occ = Array.make nvars 0 in
  Array.iter (fun p -> List.iter (fun v -> occ.(v) <- occ.(v) + 1) p.supp) parts;
  let result = ref [] in
  for _ = 1 to n do
    let best = ref (-1) and best_score = ref min_int in
    for i = 0 to n - 1 do
      if not chosen.(i) then begin
        let kills = ref 0 and news = ref 0 in
        List.iter
          (fun v ->
            if quantified.(v) && occ.(v) = 1 then incr kills;
            if not introduced.(v) then incr news)
          parts.(i).supp;
        let score = (2 * !kills) - !news in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    done;
    let p = parts.(!best) in
    chosen.(!best) <- true;
    List.iter
      (fun v ->
        occ.(v) <- occ.(v) - 1;
        introduced.(v) <- true)
      p.supp;
    result := p :: !result
  done;
  List.rev !result

(* Build the partitioned relation from raw conjuncts: drop trivial
   ones, attach supports, order for image computation (current-state
   and input variables quantified). *)
let mk_parts man ~n_state ~n_input rels =
  let nvars = Bdd.num_vars man in
  let quantified = Array.make nvars false in
  for i = 0 to n_state - 1 do
    quantified.(2 * i) <- true
  done;
  for j = 0 to n_input - 1 do
    quantified.((2 * n_state) + j) <- true
  done;
  rels
  |> List.filter_map (fun rel ->
         if Bdd.is_true rel then None else Some { rel; supp = Bdd.support man rel })
  |> order_parts nvars ~quantified

(* Pin the long-lived structure of a symbolic FSM — relation
   conjuncts, validity, initial state, outputs — so the manager's
   garbage collector can never sweep it out from under a traversal. *)
let register_roots t =
  let p = Bdd.protect t.man in
  List.iter (fun part -> ignore (p part.rel)) t.parts;
  ignore (p t.valid);
  ignore (p t.init);
  Array.iter (fun o -> ignore (p o)) t.outputs;
  t

type reorder_mode = [ `Off | `On | `Auto ]

(* Arm dynamic variable reordering on a freshly built machine. Pairs
   (cur_i, nxt_i) are glued into sifting groups — the interleaving is
   the one structural invariant worth preserving (and it keeps the
   image's shift-down rename on the fast structural path: glued pairs
   make the substitution level-monotone under any block order).
   [`On] additionally sifts once right away; a Node_limit abort just
   keeps the order reached, the traversal still runs. *)
let setup_reorder t (mode : reorder_mode) =
  (match mode with
  | `Off -> ()
  | (`On | `Auto) as mode ->
      Bdd.set_groups t.man
        (List.init t.n_state_vars (fun i -> [ 2 * i; (2 * i) + 1 ]));
      Bdd.set_auto_reorder t.man true;
      if mode = `On then ( try Bdd.reorder t.man with Bdd.Node_limit _ -> ()));
  t

(* Re-point an existing (cached) machine at a fresh budget: the
   manager's node ceiling and the budget's node probe both follow. *)
let attach_budget t budget =
  Bdd.set_max_nodes t.man (Budget.max_nodes budget);
  Budget.set_node_probe budget (Some (fun () -> (Bdd.gc_stats t.man).Bdd.live))

let man_for ~budget n =
  let man = Bdd.man ?max_nodes:(Budget.max_nodes budget) n in
  (* secondary node-budget enforcement (see budget.mli): the budget can
     now report Nodes from [exceeded]/[check] on behalf of this
     manager. Single slot, last wins — exactly right for the
     degradation ladder, where each tier abandons the previous
     manager. *)
  Budget.set_node_probe budget (Some (fun () -> (Bdd.gc_stats man).Bdd.live));
  man

let of_circuit ?(budget = Budget.unlimited) ?(reorder = `Off)
    (c : Simcov_netlist.Circuit.t) =
  let open Simcov_netlist in
  let n_state = Circuit.n_regs c and n_input = Circuit.n_inputs c in
  let cur, nxt, inp = layout ~n_state ~n_input in
  let man = man_for ~budget ((2 * n_state) + n_input) in
  (* a finished subterm is pinned while its sibling is built: a
     collection triggered mid-build must not sweep the half we hold
     (the rooting contract in bdd.mli) *)
  let rec expr_bdd (e : Expr.t) =
    match e with
    | Expr.Const b -> Bdd.of_bool man b
    | Expr.Input i -> Bdd.var man inp.(i)
    | Expr.Reg r -> Bdd.var man cur.(r)
    | Expr.Not a -> Bdd.bnot man (expr_bdd a)
    | Expr.And (a, b) -> expr_bin Bdd.band a b
    | Expr.Or (a, b) -> expr_bin Bdd.bor a b
    | Expr.Xor (a, b) -> expr_bin Bdd.bxor a b
    | Expr.Mux (s, h, l) ->
        let bs = expr_bdd s in
        Bdd.pinned man bs (fun () ->
            let bh = expr_bdd h in
            Bdd.pinned man bh (fun () -> Bdd.ite man bs bh (expr_bdd l)))
  and expr_bin op a b =
    let ba = expr_bdd a in
    Bdd.pinned man ba (fun () -> op man ba (expr_bdd b))
  in
  let valid = Bdd.protect man (expr_bdd c.Circuit.input_constraint) in
  let latch_rels =
    Array.to_list c.Circuit.regs
    |> List.mapi (fun i (r : Circuit.reg) ->
           Budget.check budget;
           let nx = Bdd.var man nxt.(i) in
           let f = expr_bdd r.Circuit.next in
           Bdd.protect man (Bdd.biff man nx f))
  in
  let parts = mk_parts man ~n_state ~n_input (valid :: latch_rels) in
  (* init and each finished output are protected as soon as they are
     built: they stay live across the remaining expr_bdd operations *)
  let init =
    Array.to_list c.Circuit.regs
    |> List.mapi (fun i (r : Circuit.reg) ->
           if r.Circuit.init then Bdd.var man cur.(i) else Bdd.nvar man cur.(i))
    |> Bdd.conj man |> Bdd.protect man
  in
  let outputs =
    Array.map
      (fun (o : Circuit.port) -> Bdd.protect man (expr_bdd o.Circuit.expr))
      c.Circuit.outputs
  in
  setup_reorder
    (register_roots
       {
         man;
         n_state_vars = n_state;
         n_input_vars = n_input;
         cur;
         nxt;
         inp;
         parts;
         valid;
         init;
         outputs;
         mono = None;
         reach = None;
       })
    reorder

let cur_and_inp t = Array.to_list t.cur @ Array.to_list t.inp
let part_rels t = List.map (fun p -> p.rel) t.parts

(* Monolithic transition relation — the fallback representation and
   the oracle the partitioned path is tested against. Built on first
   demand (it is the single most expensive BDD in the system) and
   cached. *)
let trans t =
  match t.mono with
  | Some r -> r
  | None ->
      let r = Bdd.protect t.man (Bdd.conj t.man (part_rels t)) in
      t.mono <- Some r;
      r

let constrain_trans t pred =
  List.fold_left (fun acc p -> Bdd.band t.man acc p.rel) pred t.parts

let shift_down t v = if v < 2 * t.n_state_vars then v - 1 else v
let shift_up t v = if v < 2 * t.n_state_vars then v + 1 else v

let image ?(budget = Budget.unlimited) t set =
  Budget.check budget;
  let img = Bdd.and_exists_list t.man (cur_and_inp t) (set :: part_rels t) in
  (* img is over nxt vars; shift them down to cur *)
  Bdd.rename t.man (shift_down t) img

let image_mono ?(budget = Budget.unlimited) t set =
  Budget.check budget;
  let img = Bdd.and_exists t.man (cur_and_inp t) set (trans t) in
  Bdd.rename t.man (shift_down t) img

let preimage ?(budget = Budget.unlimited) t set =
  Budget.check budget;
  let set' = Bdd.rename t.man (shift_up t) set in
  Bdd.and_exists_list t.man
    (Array.to_list t.nxt @ Array.to_list t.inp)
    (set' :: part_rels t)

let preimage_mono ?(budget = Budget.unlimited) t set =
  Budget.check budget;
  let set' = Bdd.rename t.man (shift_up t) set in
  Bdd.and_exists t.man (Array.to_list t.nxt @ Array.to_list t.inp) set' (trans t)

(* Count assignments of [f] over exactly [width] variables, given that
   support f is contained in those variables: total count divided by
   the free dimensions. *)
let count_over t f ~width =
  let total_vars = Bdd.num_vars t.man in
  Bdd.sat_count t.man ~nvars:total_vars f /. Float.ldexp 1.0 (total_vars - width)

let count_states t set = count_over t set ~width:t.n_state_vars

let traverse ?(partitioned = true) ?(frontier = true) ?(budget = Budget.unlimited) t
    =
  let img set = if partitioned then image t set else image_mono t set in
  let t0 = Unix.gettimeofday () in
  let gc0 = (Bdd.gc_stats t.man).Bdd.runs in
  let stats = ref [] in
  let images = ref 0 in
  let record ~iteration ~front ~reached ~dt =
    let stat =
      {
        iteration;
        frontier_states = count_states t front;
        frontier_nodes = Bdd.size front;
        reached_nodes = Bdd.size reached;
        live_nodes = Bdd.node_count t.man;
        time_s = dt;
      }
    in
    Obs.incr c_iterations;
    Obs.observe tm_iteration dt;
    Obs.event "symfsm.iteration" ~fields:(fun () ->
        [
          ("iteration", Json.Int stat.iteration);
          ("frontier_states", Json.Float stat.frontier_states);
          ("frontier_nodes", Json.Int stat.frontier_nodes);
          ("reached_nodes", Json.Int stat.reached_nodes);
          ("live_nodes", Json.Int stat.live_nodes);
          ("dur_s", Json.Float dt);
        ]);
    stats := stat :: !stats
  in
  let finish ?truncated reached iterations =
    {
      reached;
      iterations;
      images = !images;
      peak_live_nodes = Bdd.peak_node_count t.man;
      total_time_s = Unix.gettimeofday () -. t0;
      iter_stats = List.rev !stats;
      truncated;
      gc_runs = (Bdd.gc_stats t.man).Bdd.runs - gc0;
    }
  in
  (* the reached set and frontier must survive a mid-traversal sweep *)
  let r_reached = Bdd.add_root t.man t.init in
  let r_front = Bdd.add_root t.man t.init in
  Fun.protect
    ~finally:(fun () ->
      Bdd.remove_root t.man r_reached;
      Bdd.remove_root t.man r_front)
    (fun () ->
      if frontier then begin
        (* BFS imaging only the new frontier: states discovered in the
           previous iteration, not the whole reached set. The whole
           iteration body — image plus the band/bnot/bor combining
           steps — is guarded: a node-ceiling hit anywhere in it
           finishes with the sound under-approximation reached so
           far. *)
        let rec go reached front n =
          match Budget.step budget with
          | exception Budget.Budget_exceeded r -> finish ~truncated:r reached (n - 1)
          | () -> (
              let ti = Unix.gettimeofday () in
              match
                let im = img front in
                incr images;
                Obs.incr c_images;
                (* [im] stays live across the bnot below: pin it *)
                let fresh =
                  Bdd.pinned t.man im (fun () ->
                      Bdd.band t.man im (Bdd.bnot t.man reached))
                in
                if Bdd.is_false fresh then None
                else begin
                  Bdd.set_root t.man r_front fresh;
                  let reached' = Bdd.bor t.man reached fresh in
                  Bdd.set_root t.man r_reached reached';
                  Some (reached', fresh)
                end
              with
              | exception Bdd.Node_limit _ ->
                  finish ~truncated:Budget.Nodes reached (n - 1)
              | step ->
                  record ~iteration:n ~front ~reached ~dt:(Unix.gettimeofday () -. ti);
                  (match step with
                  | None -> finish reached n
                  | Some (reached', fresh) -> go reached' fresh (n + 1)))
        in
        go t.init t.init 1
      end
      else begin
        let rec go set n =
          match Budget.step budget with
          | exception Budget.Budget_exceeded r -> finish ~truncated:r set (n - 1)
          | () -> (
              let ti = Unix.gettimeofday () in
              match
                let im = img set in
                incr images;
                Obs.incr c_images;
                let next = Bdd.bor t.man set im in
                Bdd.set_root t.man r_reached next;
                Bdd.set_root t.man r_front next;
                next
              with
              | exception Bdd.Node_limit _ ->
                  finish ~truncated:Budget.Nodes set (n - 1)
              | next ->
                  record ~iteration:n ~front:set ~reached:set
                    ~dt:(Unix.gettimeofday () -. ti);
                  if Bdd.equal next set then finish set n else go next (n + 1))
        in
        go t.init 1
      end)

let reachable_stats ?budget t =
  match t.reach with
  | Some tr -> tr
  | None ->
      let tr = traverse ?budget t in
      (* only a complete fixpoint is worth memoizing: a later call with
         a fresh budget can still reach it *)
      if tr.truncated = None then begin
        ignore (Bdd.protect t.man tr.reached);
        t.reach <- Some tr
      end;
      tr

let reachable t =
  let tr = reachable_stats t in
  (tr.reached, tr.iterations)

let count_reachable t = count_states t (fst (reachable t))

let count_transitions t =
  let r, _ = reachable t in
  count_over t (Bdd.band t.man r t.valid) ~width:(t.n_state_vars + t.n_input_vars)

let count_valid_inputs t =
  let r, _ = reachable t in
  let v = Bdd.and_exists t.man (Array.to_list t.cur) r t.valid in
  count_over t v ~width:t.n_input_vars

let state_space_size t = Float.ldexp 1.0 t.n_state_vars
let input_space_size t = Float.ldexp 1.0 t.n_input_vars

let pick_state t set =
  if Bdd.is_false set then None
  else begin
    let assigns = Bdd.any_sat t.man set in
    let state = Array.make t.n_state_vars false in
    List.iter
      (fun (v, b) ->
        if v < 2 * t.n_state_vars && v mod 2 = 0 then state.(v / 2) <- b)
      assigns;
    Some state
  end

let state_cube t state =
  Bdd.conj t.man
    (List.init t.n_state_vars (fun i ->
         if state.(i) then Bdd.var t.man t.cur.(i) else Bdd.nvar t.man t.cur.(i)))

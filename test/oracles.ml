(* The references and fixtures tests compare against, kept beside the
   tests rather than in the library: scalar campaign oracles (one fault
   or one program at a time, no lanes, no shards) that the batched
   backends are tested against, and the plain forms of values the
   library computes another way or does not need (product-machine
   equivalence, monolithic images, table-built fixture machines, the
   Figure 2 words). *)

open Simcov_netlist
module Campaign = Simcov_campaign.Campaign

(* A machine as closures: how the references below read a machine,
   and how a closure mutant is built. A mutant is never compiled, and
   a reference that checks the compiled form itself reads the closures
   the machine was built from, never its tables. *)
module Machine = struct
  open Simcov_fsm

  type t = {
    n_states : int;
    n_inputs : int;
    reset : int;
    valid : int -> int -> bool;
    next : int -> int -> int;
    output : int -> int -> int;
  }

  (* a built machine, read through its table readers *)
  let of_fsm (m : Fsm.t) =
    {
      n_states = m.Fsm.n_states;
      n_inputs = m.Fsm.n_inputs;
      reset = m.Fsm.reset;
      valid = m.Fsm.valid;
      next = m.Fsm.next;
      output = m.Fsm.output;
    }

  let build m =
    Fsm.make ~reset:m.reset ~valid:m.valid ~n_states:m.n_states ~n_inputs:m.n_inputs
      ~next:m.next ~output:m.output ()
end

module Fault = struct
  include Simcov_coverage.Fault

  (* The closure mutant: validity is unchanged, and only the faulted
     [(state, input)] entry's next state or output differs. A
     [Conditional_output] fault depends on one transition of history,
     so its mutant's states are [s * 2 + h], where [h = 1] when the
     previous transition was [prev]; its reset is [reset * 2]. Outputs
     and validity project back onto the original machine's, so a
     lockstep comparison against the golden machine stays meaningful
     (but state comparisons do not). *)
  let apply (m : Machine.t) fault =
    match fault with
    | Transfer { state; input; wrong_next } ->
        {
          m with
          Machine.next =
            (fun s i -> if s = state && i = input then wrong_next else m.Machine.next s i);
        }
    | Output { state; input; wrong_output } ->
        {
          m with
          Machine.output =
            (fun s i -> if s = state && i = input then wrong_output else m.Machine.output s i);
        }
    | Conditional_output { state; input; wrong_output; prev } ->
        let proj s = s / 2 and hist s = s land 1 = 1 in
        {
          Machine.n_states = 2 * m.Machine.n_states;
          n_inputs = m.Machine.n_inputs;
          reset = 2 * m.Machine.reset;
          valid = (fun s i -> m.Machine.valid (proj s) i);
          next =
            (fun s i ->
              let base = m.Machine.next (proj s) i in
              (2 * base) + if (proj s, i) = prev then 1 else 0);
          output =
            (fun s i ->
              if proj s = state && i = input && hist s then wrong_output
              else m.Machine.output (proj s) i);
        }

  (* several simultaneous faults; a later fault wins on the same
     transition *)
  let apply_all m faults = List.fold_left apply m faults
end

module Detect = struct
  (* Definition 4, operationally: the maximal windows [(j, l)] in
     which the state trajectories diverge at step [j] and silently
     re-converge at step [l], with no observable difference inside. A
     window still open at the end of the word, or closed by an
     exposure, is not masked. *)
  let masked_windows (golden : Machine.t) (mutant : Machine.t) word =
    let rec go step sg sm window acc word =
      match word with
      | [] -> List.rev acc
      | i :: rest -> (
          let vg = golden.Machine.valid sg i and vm = mutant.Machine.valid sm i in
          if vg <> vm || not vg then List.rev acc
          else if golden.Machine.output sg i <> mutant.Machine.output sm i then List.rev acc
          else
            let sg' = golden.Machine.next sg i and sm' = mutant.Machine.next sm i in
            match window with
            | None ->
                let window = if sg' <> sm' then Some step else None in
                go (step + 1) sg' sm' window acc rest
            | Some j ->
                if sg' = sm' then go (step + 1) sg' sm' None ((j, step) :: acc) rest
                else go (step + 1) sg' sm' window acc rest)
    in
    go 0 golden.Machine.reset mutant.Machine.reset None [] word

  let has_masked_transfer golden faults word =
    let golden = Machine.of_fsm golden in
    masked_windows golden (Fault.apply_all golden faults) word <> []

  (* Golden and closure mutant in lockstep. An observable difference is
     a differing output or an input valid in one machine's current
     state and not the other's; the word stops at the first input
     invalid in both. Excitation is recorded whenever the golden run
     traverses the fault site, including on the step whose validity
     mismatch detects the fault. A transfer fault's masked step closes
     its first masking window, which opens where it is excited: the
     mutant is the golden machine until then. Conditional-output
     mutants number their states [2s + h], so their windows mean
     nothing and they carry none. *)
  let run_verdict golden fault word =
    let golden = Machine.of_fsm golden in
    let mutant = Fault.apply golden fault in
    let fsite = Fault.site fault in
    let rec go step sg sm excite detect word =
      match word with
      | [] -> (excite, detect)
      | i :: rest -> (
          let vg = golden.Machine.valid sg i and vm = mutant.Machine.valid sm i in
          let excite =
            if vg && (sg, i) = fsite && excite = None then Some step else excite
          in
          if vg <> vm then (excite, Some (Option.value detect ~default:step))
          else if not vg then (excite, detect)
          else
            let og = golden.Machine.output sg i and om = mutant.Machine.output sm i in
            if og <> om then (excite, Some step)
            else
              match detect with
              | Some _ -> (excite, detect)
              | None ->
                  go (step + 1) (golden.Machine.next sg i) (mutant.Machine.next sm i) excite
                    detect rest)
    in
    let excite_step, detect_step =
      go 0 golden.Machine.reset mutant.Machine.reset None None word
    in
    let masked_step =
      match fault with
      | Fault.Transfer _ -> (
          match masked_windows golden mutant word with
          | (j, l) :: _ ->
              assert (Some j = excite_step);
              Some l
          | [] -> None)
      | Fault.Output _ | Fault.Conditional_output _ -> None
    in
    {
      Campaign.detected = detect_step <> None;
      excited = excite_step <> None;
      detect_step;
      excite_step;
      masked_step;
    }

  (* The coverage walks {!Simcov_fsm.Fsm.replay} replaced: each steps
     the machine from reset on its own, up to the first invalid input. *)
  let transitions_covered (m : Simcov_fsm.Fsm.t) word =
    let seen = Hashtbl.create 256 in
    let rec go s = function
      | [] -> ()
      | i :: rest ->
          if m.Simcov_fsm.Fsm.valid s i then begin
            Hashtbl.replace seen (s, i) ();
            go (m.Simcov_fsm.Fsm.next s i) rest
          end
    in
    go m.Simcov_fsm.Fsm.reset word;
    Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

  let state_coverage (m : Simcov_fsm.Fsm.t) word =
    let seen = Hashtbl.create 64 in
    let rec go s = function
      | [] -> ()
      | i :: rest ->
          if m.Simcov_fsm.Fsm.valid s i then begin
            let s' = m.Simcov_fsm.Fsm.next s i in
            Hashtbl.replace seen s' ();
            go s' rest
          end
    in
    Hashtbl.replace seen m.Simcov_fsm.Fsm.reset ();
    go m.Simcov_fsm.Fsm.reset word;
    Hashtbl.length seen

  let transition_coverage m word = List.length (transitions_covered m word)

  (* one full mutant rerun per fault, through [run_verdict]; the QCheck
     suite pins the batched driver against it *)
  let campaign_scalar golden faults word =
    let total = List.length faults in
    let effective = ref 0 and excited = ref 0 and detected = ref 0 in
    let missed = ref [] and verdicts = ref [] in
    List.iter
      (fun f ->
        if Fault.is_effective golden f then begin
          incr effective;
          let v = run_verdict golden f word in
          if v.Campaign.excited then incr excited;
          if v.Campaign.detected then incr detected
          else if v.Campaign.excited then missed := f :: !missed;
          verdicts := (f, v) :: !verdicts
        end)
      faults;
    {
      Campaign.report =
        {
          backend = "fsm-fault";
          total;
          effective = !effective;
          excited = !excited;
          detected = !detected;
          missed = List.rev !missed;
          skipped = 0;
          truncated = None;
          shard_failures = [];
        };
      verdicts = List.rev !verdicts;
    }
end

module Wmethod = struct
  (* the W-method campaign one fault and one word at a time: a fault
     is excited (detected) when any word excites (detects) it *)
  let campaign m faults words =
    let total = List.length faults in
    let effective = ref 0 and excited = ref 0 and detected = ref 0 in
    let missed = ref [] in
    List.iter
      (fun f ->
        if Simcov_coverage.Fault.is_effective m f then begin
          incr effective;
          let verdicts = List.map (fun w -> Detect.run_verdict m f w) words in
          let ex = List.exists (fun (v : Campaign.verdict) -> v.excited) verdicts in
          let de = List.exists (fun (v : Campaign.verdict) -> v.detected) verdicts in
          if ex then incr excited;
          if de then incr detected else if ex then missed := f :: !missed
        end)
      faults;
    {
      Campaign.backend = "fsm-fault/wmethod";
      total;
      effective = !effective;
      excited = !excited;
      detected = !detected;
      missed = List.rev !missed;
      skipped = 0;
      truncated = None;
      shard_failures = [];
    }

  (* Chow's m-complete suite for implementations with up to [extra]
     more states than the specification: P·Σ^(≤extra)·W, every word
     run from reset *)
  let suite_extra ?scope ~extra (m : Simcov_fsm.Fsm.t) =
    let module W = Simcov_testgen.Wmethod in
    let w = match W.characterization_set ?scope m with [] -> [ [] ] | ws -> ws in
    let inputs = List.init m.Simcov_fsm.Fsm.n_inputs Fun.id in
    (* Σ^(≤extra), shortest first *)
    let rec upto k acc frontier =
      if k = 0 then acc
      else
        let next = List.concat_map (fun u -> List.map (fun i -> u @ [ i ]) inputs) frontier in
        upto (k - 1) (acc @ next) next
    in
    let mid = upto extra [ [] ] [ [] ] in
    List.concat_map
      (fun prefix ->
        List.concat_map (fun inner -> List.map (fun suffix -> prefix @ inner @ suffix) w) mid)
      (W.transition_cover m)
end

module Stuckat = struct
  open Simcov_coverage.Stuckat

  (* evaluate the faulty circuit one step: reads of the faulted signal
     see the pinned value; the register itself still updates (a stuck
     OUTPUT, not a stuck latch) which is the standard single-stuck-at
     model on the net *)
  let faulty_step (c : Circuit.t) fault state inputs =
    let read_input i =
      match fault.site with Primary_input j when j = i -> fault.stuck | _ -> inputs.(i)
    in
    let read_reg r =
      match fault.site with Reg_output j when j = r -> fault.stuck | _ -> state.(r)
    in
    if not (Expr.eval ~inputs:read_input ~regs:read_reg c.Circuit.input_constraint) then None
    else begin
      let next =
        Array.map (fun (r : Circuit.reg) -> Expr.eval ~inputs:read_input ~regs:read_reg r.Circuit.next) c.Circuit.regs
      in
      let outs =
        Array.map
          (fun (o : Circuit.port) -> Expr.eval ~inputs:read_input ~regs:read_reg o.Circuit.expr)
          c.Circuit.outputs
      in
      Some (next, outs)
    end

  (* the fault is excited when the faulted net carries the opposite of
     its pinned value in the GOLDEN circuit this step *)
  let site_differs fault (state : Circuit.state) (inputs : bool array) =
    match fault.site with
    | Reg_output r -> state.(r) <> fault.stuck
    | Primary_input i -> inputs.(i) <> fault.stuck

  (* lockstep good vs faulty circuit on the word; the faulty circuit
     sees the pinned value everywhere the signal is read, including in
     the input-constraint check (a combination turning invalid only
     when faulty counts as detection, mirroring Detect; one invalid
     only for the golden circuit is likewise a detection, and invalid
     for both ends the word) *)
  let run_verdict (c : Circuit.t) fault word =
    let rec go step good bad excite detect word =
      match word with
      | [] -> (excite, detect)
      | iv :: rest -> (
          if Circuit.input_valid c good iv then begin
            let excite =
              if excite = None && site_differs fault good iv then Some step
              else excite
            in
            match faulty_step c fault bad iv with
            | None -> (excite, Some step) (* constraint violated only when faulty *)
            | Some (bad', bout) ->
                let good', gout = Circuit.step c good iv in
                if gout <> bout then (excite, Some step)
                else go (step + 1) good' bad' excite detect rest
          end
          else
            (* the golden circuit rejects the vector: a faulty circuit
               that accepts it is exposed; otherwise the word ends here *)
            match faulty_step c fault bad iv with
            | Some _ -> (excite, Some step)
            | None -> (excite, detect))
    in
    let excite_step, detect_step =
      go 0 (Circuit.initial_state c) (Circuit.initial_state c) None None word
    in
    {
      Campaign.detected = detect_step <> None;
      excited = excite_step <> None;
      detect_step;
      excite_step;
      masked_step = None;
    }

  let detects c fault word = (run_verdict c fault word).Campaign.detected
end

module Validate = struct
  open Simcov_dlx

  (* The full-list comparison: run the spec to [max_steps] commits and
     the pipeline for four cycles per step, then compare the two commit
     lists. [Ok n] when both lists agree on all [n] commits. A pipeline
     commit past the spec's cut is a mismatch here (expected nothing),
     where the lockstep comparator passes the run as cut. The default
     bound is [Simcov_dlx.Validate.run_program]'s. *)
  let run_program ?(bugs = Pipeline.no_bugs) ?(max_steps = 1_000_000)
      ?(preload_regs = []) ?(preload_mem = []) program =
    let spec = Spec.create program in
    let pipe = Pipeline.create ~bugs program in
    List.iter (fun (r, v) -> Spec.set_reg spec r v) preload_regs;
    List.iter (fun (r, v) -> Pipeline.set_reg pipe r v) preload_regs;
    List.iter (fun (a, v) -> Spec.set_mem spec a v) preload_mem;
    List.iter (fun (a, v) -> Pipeline.set_mem pipe a v) preload_mem;
    let expected = Spec.run ~max_steps spec in
    let actual = Pipeline.run ~max_cycles:(max_steps * 4) pipe in
    let rec compare idx exp act =
      match (exp, act) with
      | [], [] -> Ok idx
      | e :: exp', a :: act' ->
          if e = a then compare (idx + 1) exp' act'
          else Error { Validate.index = idx; expected = Some e; actual = Some a }
      | e :: _, [] -> Error { Validate.index = idx; expected = Some e; actual = None }
      | [], a :: _ -> Error { Validate.index = idx; expected = None; actual = Some a }
    in
    compare 0 expected actual

  (* does this program expose the bug (a commit-stream mismatch)? *)
  let detects_bug ~program bugs = Result.is_error (run_program ~bugs program)
end

module Scc = struct
  open Simcov_graph

  (* one component holding every vertex; a graph of at most one vertex
     counts as strongly connected *)
  let is_strongly_connected g =
    let n = Digraph.n_vertices g in
    if n <= 1 then true
    else
      let _, k = Scc.components g in
      k = 1

  (* unit-cost distances from [source]; [max_int] when unreachable *)
  let bfs g ~source =
    let dist = Array.make (Digraph.n_vertices g) max_int in
    let queue = Queue.create () in
    dist.(source) <- 0;
    Queue.add source queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun e ->
          let w = e.Digraph.dst in
          if dist.(w) = max_int then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w queue
          end)
        (Digraph.out_edges g v)
    done;
    dist
end

module Fsm_lint = struct
  open Simcov_fsm

  (* SA640's Requirement 1 count, the direct way: per reachable
     transition, filter its source state's whole predecessor list
     against the (site, predecessor) contexts the word exercises.
     Returns (escaping errors, sites, first example (state, input,
     output, escaping predecessor)); the fsm-lint pass counts per site
     instead and must agree exactly. *)
  let r1_count (m : Fsm.t) word =
    let transitions = Fsm.transitions m in
    let contexts = Hashtbl.create 256 in
    let prev = ref None in
    let s = ref m.Fsm.reset in
    List.iter
      (fun i ->
        if m.Fsm.valid !s i then begin
          (match !prev with
          | Some p -> Hashtbl.replace contexts ((!s, i), p) ()
          | None -> ());
          prev := Some (!s, i);
          s := m.Fsm.next !s i
        end)
      word;
    let incoming = Hashtbl.create 64 in
    List.iter
      (fun (s, i, s', _) ->
        Hashtbl.replace incoming s'
          ((s, i) :: Option.value ~default:[] (Hashtbl.find_opt incoming s')))
      transitions;
    let r1 = ref 0 and sites = ref 0 and example = ref None in
    List.iter
      (fun (s, i, _, o) ->
        let preds = Option.value ~default:[] (Hashtbl.find_opt incoming s) in
        if List.length preds >= 2 then begin
          let escaping =
            List.filter (fun p -> not (Hashtbl.mem contexts ((s, i), p))) preds
          in
          if escaping <> [] then begin
            incr sites;
            r1 := !r1 + List.length escaping;
            if !example = None then example := Some (s, i, o, List.hd escaping)
          end
        end)
      transitions;
    (!r1, !sites, !example)

  (* SA640's verdict and SA641's masked transfer faults, each from its
     own scalar campaign. [escapes]: the witness fault goes undetected.
     [masked]: the population's excited, undetected faults with their
     verdicts, where the population is every transfer fault, or 200
     drawn from [seed] when there would be more than 2,000. *)
  let escapes m word witness =
    (Detect.campaign_scalar m [ witness ] word).Campaign.report.Campaign.detected = 0

  let masked (m : Fsm.t) word ~seed =
    let n_pop = Fsm.n_transitions m * max 0 (Fsm.n_reachable m - 1) in
    let faults =
      if n_pop <= 2000 then Fault.all_transfer_faults m
      else Fault.sample_transfer_faults (Simcov_util.Rng.create seed) m ~count:200
    in
    List.filter
      (fun (_, (v : Campaign.verdict)) -> v.Campaign.excited && not v.Campaign.detected)
      (Detect.campaign_scalar m faults word).Campaign.verdicts
end

module Fsm = struct
  module M = Simcov_fsm.Fsm

  (* A fixture machine from [(state, input, next, output)] rows: the
     state and input counts are inferred, and only listed pairs are
     valid. *)
  let of_table ?(reset = 0) rows =
    let n_states = List.fold_left (fun acc (s, _, n, _) -> max acc (max s n + 1)) 1 rows in
    let n_inputs = List.fold_left (fun acc (_, i, _, _) -> max acc (i + 1)) 1 rows in
    let tbl = Hashtbl.create (List.length rows) in
    List.iter
      (fun (s, i, n, o) ->
        assert (not (Hashtbl.mem tbl (s, i)));
        Hashtbl.add tbl (s, i) (n, o))
      rows;
    M.make ~reset
      ~valid:(fun s i -> Hashtbl.mem tbl (s, i))
      ~n_states ~n_inputs
      ~next:(fun s i -> fst (Hashtbl.find tbl (s, i)))
      ~output:(fun s i -> snd (Hashtbl.find tbl (s, i)))
      ()

  (* [(next, output)]; Invalid_argument when [i] is not valid in [s] *)
  let step (m : M.t) s i =
    if not (m.M.valid s i) then invalid_arg "Oracles.Fsm.step: invalid input";
    (m.M.next s i, m.M.output s i)

  (* the executed transitions [(state, input, next, output)] of a word
     run from reset *)
  let run (m : M.t) word =
    let rec go s acc = function
      | [] -> List.rev acc
      | i :: rest ->
          let s', o = step m s i in
          go s' ((s, i, s', o) :: acc) rest
    in
    go m.M.reset [] word

  (* The walks {!Simcov_fsm.Fsm.replay} replaced: outputs and final
     state by folding [step] from reset. *)
  let output_word (m : M.t) word =
    let _, outputs =
      List.fold_left
        (fun (s, acc) i ->
          let s', o = step m s i in
          (s', o :: acc))
        (m.M.reset, []) word
    in
    List.rev outputs

  let final_state (m : M.t) word = List.fold_left (fun s i -> fst (step m s i)) m.M.reset word

  (* a word's replay read off closures: the [(state, input)] steps from
     reset up to the first input outside the alphabet or invalid where
     it is applied, the state the walk ends in, and that input *)
  let walk (r : Machine.t) word =
    let rec go s acc = function
      | i :: rest when i >= 0 && i < r.Machine.n_inputs && r.Machine.valid s i ->
          go (r.Machine.next s i) ((s, i) :: acc) rest
      | rest -> (List.rev acc, s, match rest with i :: _ -> Some i | [] -> None)
    in
    go r.Machine.reset [] word

  (* Equivalence from the reset states by breadth-first search of the
     product machine: [Ok []] when equivalent, [Ok w] with a shortest
     word exposing a difference (an output or a validity mismatch),
     [Error] when the alphabets differ. *)
  let equivalent (a : M.t) (b : M.t) =
    if a.M.n_inputs <> b.M.n_inputs then Error "input alphabets differ"
    else begin
      let parent = Hashtbl.create 64 and queue = Queue.create () in
      let rec word_of p acc =
        match Hashtbl.find parent p with None -> acc | Some (p', i) -> word_of p' (i :: acc)
      in
      let start = (a.M.reset, b.M.reset) in
      Hashtbl.add parent start None;
      Queue.add start queue;
      let found = ref None in
      while !found = None && not (Queue.is_empty queue) do
        let ((s1, s2) as p) = Queue.pop queue in
        for i = 0 to a.M.n_inputs - 1 do
          if !found = None then begin
            let v1 = a.M.valid s1 i and v2 = b.M.valid s2 i in
            if v1 <> v2 || (v1 && a.M.output s1 i <> b.M.output s2 i) then
              found := Some (word_of p [ i ])
            else if v1 then begin
              let p' = (a.M.next s1 i, b.M.next s2 i) in
              if not (Hashtbl.mem parent p') then begin
                Hashtbl.add parent p' (Some (p, i));
                Queue.add p' queue
              end
            end
          end
        done
      done;
      Ok (Option.value !found ~default:[])
    end

  (* The structural queries read off a machine's closures: every input
     code of every state through [valid]/[next]/[output]. The queries
     of the machine built from the same closures must agree with them
     on every machine and every reset. *)

  let valid_inputs (m : Machine.t) s = List.filter (m.Machine.valid s) (List.init m.Machine.n_inputs Fun.id)

  let reachable (m : Machine.t) =
    let seen = Array.make m.Machine.n_states false in
    let queue = Queue.create () in
    seen.(m.Machine.reset) <- true;
    Queue.add m.Machine.reset queue;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      for i = 0 to m.Machine.n_inputs - 1 do
        if m.Machine.valid s i then begin
          let s' = m.Machine.next s i in
          if not seen.(s') then begin
            seen.(s') <- true;
            Queue.add s' queue
          end
        end
      done
    done;
    seen

  let transitions (m : Machine.t) =
    let seen = reachable m in
    let acc = ref [] in
    for s = m.Machine.n_states - 1 downto 0 do
      if seen.(s) then
        for i = m.Machine.n_inputs - 1 downto 0 do
          if m.Machine.valid s i then acc := (s, i, m.Machine.next s i, m.Machine.output s i) :: !acc
        done
    done;
    !acc

  (* [(valid, next, output)] per code; next/output are 0 where invalid *)
  let tables (m : Machine.t) =
    let k = m.Machine.n_inputs in
    Array.init (m.Machine.n_states * k) (fun idx ->
        let s = idx / k and i = idx mod k in
        if m.Machine.valid s i then (true, m.Machine.next s i, m.Machine.output s i) else (false, 0, 0))

  (* the transition graph's edges in id order: (src, dst, label) *)
  let graph_edges m = List.map (fun (s, i, s', _) -> (s, s', i)) (transitions m)

  (* one ∀k round over all input codes *)
  let forall_k_round (m : Machine.t) live cur =
    let n = m.Machine.n_states in
    let nxt = Array.make_matrix n n false in
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if p <> q && live.(p) && live.(q) then begin
          let all = ref true and some = ref false in
          for i = 0 to m.Machine.n_inputs - 1 do
            let vp = m.Machine.valid p i and vq = m.Machine.valid q i in
            if vp || vq then begin
              some := true;
              if vp = vq && m.Machine.output p i = m.Machine.output q i
                 && not cur.(m.Machine.next p i).(m.Machine.next q i)
              then all := false
            end
          done;
          nxt.(p).(q) <- !some && !all
        end
      done
    done;
    nxt

  let forall_k_matrix (m : Machine.t) ~k =
    let live = Array.make m.Machine.n_states true in
    let cur = ref (Array.make_matrix m.Machine.n_states m.Machine.n_states false) in
    for _ = 1 to k do
      cur := forall_k_round m live !cur
    done;
    !cur

  let min_forall_k ~scope ~bound (m : Machine.t) =
    let n = m.Machine.n_states in
    let live = match scope with `Reachable -> reachable m | `All -> Array.make n true in
    let first_bad mat =
      let r = ref None in
      for p = n - 1 downto 0 do
        for q = n - 1 downto p + 1 do
          if live.(p) && live.(q) && not mat.(p).(q) then r := Some (p, q)
        done
      done;
      !r
    in
    let rec search k cur =
      let nxt = forall_k_round m live cur in
      match first_bad nxt with
      | None -> Ok k
      | Some pair when k = bound || nxt = cur -> Error pair
      | Some _ -> search (k + 1) nxt
    in
    search 1 (Array.make_matrix n n false)

  (* Moore refinement over every input code: the state -> class map *)
  let minimize_classes (m : Machine.t) =
    let n = m.Machine.n_states in
    let seen = reachable m in
    let cls = Array.make n (-1) in
    let assign signature =
      let keys = Array.init n (fun s -> if seen.(s) then Some (signature s) else None) in
      let tbl = Hashtbl.create 64 and count = ref 0 in
      Array.iteri
        (fun s key ->
          Option.iter
            (fun key ->
              match Hashtbl.find_opt tbl key with
              | Some c -> cls.(s) <- c
              | None ->
                  Hashtbl.add tbl key !count;
                  cls.(s) <- !count;
                  incr count)
            key)
        keys;
      !count
    in
    let row s f = List.init m.Machine.n_inputs (fun i -> if m.Machine.valid s i then Some (f s i) else None) in
    let n_cls = ref (assign (fun s -> (-1, row s m.Machine.output))) in
    let stable = ref false in
    while not !stable do
      let n' = assign (fun s -> (cls.(s), row s (fun s i -> cls.(m.Machine.next s i)))) in
      if n' = !n_cls then stable := true else n_cls := n'
    done;
    cls
end

module Tour = struct
  (* The tour check {!Simcov_fsm.Fsm.replay} replaced: an invalid input
     anywhere rejects the word. *)
  let word_is_tour (m : Simcov_fsm.Fsm.t) word =
    let module M = Simcov_fsm.Fsm in
    let covered = Hashtbl.create 1024 in
    let rec go s = function
      | [] -> true
      | i :: rest ->
          m.M.valid s i
          && begin
               Hashtbl.replace covered (s, i) ();
               go (m.M.next s i) rest
             end
    in
    go m.M.reset word && Hashtbl.length covered = M.n_transitions m
end

module Cpp = struct
  open Simcov_graph

  (* every edge once: no tour costs less *)
  let lower_bound g = Digraph.fold_edges (fun e acc -> acc + e.Digraph.cost) g 0

  (* the postman solve with one min-cost-flow arc per edge *)
  let solve g ~start =
    match Scc.restrict_strongly_connected g ~root:start with
    | None -> None
    | Some _ ->
        let n = Digraph.n_vertices g and m = Digraph.n_edges g in
        if m = 0 then Some { Cpp.edges = []; length = 0; cost = 0; extra_cost = 0 }
        else begin
          let indeg = Array.make n 0 and outdeg = Array.make n 0 in
          Digraph.iter_edges
            (fun e ->
              outdeg.(e.Digraph.src) <- outdeg.(e.Digraph.src) + 1;
              indeg.(e.Digraph.dst) <- indeg.(e.Digraph.dst) + 1)
            g;
          let net = Mcmf.create (n + 2) in
          let source = n and sink = n + 1 in
          let handles = Array.make m (-1) in
          Digraph.iter_edges
            (fun e ->
              if e.Digraph.src <> e.Digraph.dst then
                handles.(e.Digraph.id) <-
                  Mcmf.add_arc net ~src:e.Digraph.src ~dst:e.Digraph.dst ~cap:(m + 1)
                    ~cost:e.Digraph.cost)
            g;
          for v = 0 to n - 1 do
            let d = indeg.(v) - outdeg.(v) in
            if d > 0 then ignore (Mcmf.add_arc net ~src:source ~dst:v ~cap:d ~cost:0)
            else if d < 0 then ignore (Mcmf.add_arc net ~src:v ~dst:sink ~cap:(-d) ~cost:0)
          done;
          let _, extra_cost = Mcmf.solve net ~source ~sink in
          let mult = Array.map (fun h -> if h >= 0 then 1 + Mcmf.flow_on net h else 1) handles in
          let extra = Array.fold_left (fun acc x -> acc + x - 1) 0 mult in
          Option.map
            (fun edges ->
              { Cpp.edges; length = m + extra; cost = lower_bound g + extra_cost; extra_cost })
            (Euler.circuit g ~start ~mult)
        end
end

module Covdb = struct
  module Covdb = Simcov_covdb.Covdb
  module Json = Simcov_util.Json
  module Crc32 = Simcov_util.Crc32

  (* each line rendered twice: once without its crc, to checksum it,
     and once with the crc member appended *)
  let line fields =
    let payload = Json.to_string ~indent:0 (Json.Obj fields) in
    Json.to_string ~indent:0
      (Json.Obj
         (fields @ [ ("crc", Json.String (Crc32.to_hex (Crc32.string payload))) ]))

  (* the bytes [Covdb.save] writes: equal databases (header, records,
     completeness and truncation) save equal bytes *)
  let bytes db =
    let path = Filename.temp_file "simcov_oracle" ".covdb" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Covdb.save db path;
        In_channel.with_open_bin path In_channel.input_all)

  let equal a b = bytes a = bytes b

  (* the snapshot bytes of a database holding [records], keys sorted *)
  let snapshot (h : Covdb.header) ~complete ~truncated records =
    let header =
      [
        ("schema", Json.String "simcov-covdb/1");
        ("backend", Json.String h.Covdb.backend);
        ("run", Json.String h.Covdb.run);
        ("config_hash", Json.String h.Covdb.config_hash);
        ("stim_hash", Json.String h.Covdb.stim_hash);
        ("word_length", Json.Int h.Covdb.word_length);
        ("total", Json.Int h.Covdb.total);
      ]
    in
    let record (k, s) =
      ("k", Json.String k)
      ::
      (match s with
      | Covdb.Undetected -> [ ("s", Json.String "u") ]
      | Covdb.Excited es -> [ ("s", Json.String "e"); ("es", Json.Int es) ]
      | Covdb.Detected { excite_step; detect_step } ->
          (("s", Json.String "d")
          :: (match excite_step with None -> [] | Some es -> [ ("es", Json.Int es) ]))
          @ [ ("ds", Json.Int detect_step) ])
    in
    let footer =
      [
        ("records", Json.Int (List.length records));
        ("complete", Json.Bool complete);
        ( "truncated",
          match truncated with None -> Json.Null | Some r -> Json.String r );
      ]
    in
    let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) records in
    String.concat ""
      (List.map
         (fun fields -> line fields ^ "\n")
         ((header :: List.map record sorted) @ [ footer ]))
end

module Circuit = struct
  module C = Simcov_netlist.Circuit

  (* outputs over time from the initial state, one [C.step] per input
     vector *)
  let simulate c inputs =
    List.rev
      (snd
         (List.fold_left
            (fun (state, acc) i ->
              let state', outs = C.step c state i in
              (state', outs :: acc))
            (C.initial_state c, [])
            inputs))

  (* a fixture register's index by name *)
  let reg_index (c : C.t) name =
    let rec go i = if c.C.regs.(i).C.name = name then i else go (i + 1) in
    go 0
end

module Symfsm = struct
  module Bdd = Simcov_bdd.Bdd
  module S = Simcov_symbolic.Symfsm

  (* Image and preimage against the monolithic relation [S.trans].
     Variables are laid out as the interleaved current/next pairs, then
     the inputs: a current-state variable [2k] has its next-state twin
     at [2k + 1]. *)
  let shift t d v = if v < 2 * t.S.n_state_vars then v + d else v

  let image_mono (t : S.t) set =
    let quantified = Array.to_list t.S.cur @ Array.to_list t.S.inp in
    Bdd.rename t.S.man (shift t (-1)) (Bdd.and_exists t.S.man quantified set (S.trans t))

  let preimage_mono (t : S.t) set =
    let quantified = Array.to_list t.S.nxt @ Array.to_list t.S.inp in
    Bdd.and_exists t.S.man quantified (Bdd.rename t.S.man (shift t 1) set) (S.trans t)
end

module Homomorphism = struct
  module M = Simcov_fsm.Fsm
  module H = Simcov_abstraction.Homomorphism

  (* Every reachable concrete transition [(s, i, s', o)] maps to an
     abstract one: [abs] accepts [input_map i] in [state_map s], steps
     to [state_map s'] and outputs [output_map o]. *)
  let is_transition_preserving (conc : M.t) (abs : M.t) (a : H.mapping) =
    List.for_all
      (fun (s, i, s', o) ->
        let sa = a.H.state_map s and ia = a.H.input_map i in
        abs.M.valid sa ia
        && abs.M.next sa ia = a.H.state_map s'
        && abs.M.output sa ia = a.H.output_map o)
      (M.transitions conc)

  let identity_mapping (m : M.t) =
    {
      H.n_abs_states = m.M.n_states;
      n_abs_inputs = m.M.n_inputs;
      state_map = Fun.id;
      input_map = Fun.id;
      output_map = Fun.id;
    }

  (* merges the states with equal keys, numbering the abstract states
     by first occurrence; inputs and outputs are kept *)
  let state_partition_by (m : M.t) key =
    let classes = Hashtbl.create 64 in
    let assign =
      Array.init m.M.n_states (fun s ->
          let k = key s in
          match Hashtbl.find_opt classes k with
          | Some c -> c
          | None ->
              let c = Hashtbl.length classes in
              Hashtbl.add classes k c;
              c)
    in
    {
      H.n_abs_states = Hashtbl.length classes;
      n_abs_inputs = m.M.n_inputs;
      state_map = (fun s -> assign.(s));
      input_map = Fun.id;
      output_map = Fun.id;
    }
end

(* The Figure 2 fixture: the 2 -a-> 3' transfer error and two
   transition tours, one continuing the faulty transition with [b]
   (exposes it) and one with [c] (masks it on the original machine). *)
module Fig2 = struct
  let transfer_error = Simcov_coverage.Fault.Transfer { state = 1; input = 0; wrong_next = 3 }
  let tour_via_b = [ 0; 0; 1; 3; 4; 2; 3 ] (* a a b r d c r *)
  let tour_via_c = [ 0; 0; 2; 3; 4; 1; 3 ] (* a a c r d b r *)
end

module Requirements = struct
  module R = Simcov_core.Requirements

  (* [Satisfied] or [Assumed] *)
  let is_ok = function R.Satisfied _ | R.Assumed _ -> true | R.Violated _ -> false

  let all_ok (r : R.report) =
    List.for_all is_ok
      [
        r.R.r1_uniform_output_errors;
        r.R.r2_bounded_processing;
        r.R.r3_unique_outputs;
        r.R.r4_no_masking;
        r.R.r5_observable_interaction;
      ]
end

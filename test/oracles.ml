(* Scalar reference oracles: one fault or one program at a time, no
   lanes, no shards. The batched campaign backends are tested against
   them, so they live beside the tests rather than in the library. *)

open Simcov_netlist
module Campaign = Simcov_campaign.Campaign

module Detect = struct
  open Simcov_coverage

  (* one full mutant rerun per fault, through [Detect.run_verdict]; the
     QCheck suite pins the batched driver against it *)
  let campaign_scalar golden faults word =
    let total = List.length faults in
    let effective = ref 0 and excited = ref 0 and detected = ref 0 in
    let missed = ref [] and verdicts = ref [] in
    List.iter
      (fun f ->
        if Fault.is_effective golden f then begin
          incr effective;
          let v = Detect.run_verdict golden f word in
          if v.excited then incr excited;
          if v.detected then incr detected
          else if v.excited then missed := f :: !missed;
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
    }

  let detects c fault word = (run_verdict c fault word).Campaign.detected
end

module Validate = struct
  open Simcov_dlx.Validate

  (* does this program expose the bug (a commit-stream mismatch)? *)
  let detects_bug ~program bugs =
    match run_program ~bugs program with Pass _ -> false | Fail _ -> true
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
end

open Simcov_fsm
module Campaign = Simcov_campaign.Campaign
module Obs = Simcov_obs.Obs

let c_lanes_diverged = Obs.counter "campaign.lanes_diverged"

type verdict = Campaign.verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;
  excite_step : int option;
}

let run_verdict (golden : Fsm.t) fault word =
  let mutant = Fault.apply golden fault in
  let fsite = Fault.site fault in
  let rec go step sg sm excite detect word =
    match word with
    | [] -> (excite, detect)
    | i :: rest -> (
        let vg = golden.Fsm.valid sg i and vm = mutant.Fsm.valid sm i in
        (* excitation is a property of the golden path alone, so it must
           be recorded even when this very step is the detecting
           validity mismatch *)
        let excite =
          if vg && (sg, i) = fsite && excite = None then Some step else excite
        in
        if vg <> vm then (excite, Some (Option.value detect ~default:step))
        else if not vg then (excite, detect) (* word invalid from here; stop *)
        else
          let og = golden.Fsm.output sg i and om = mutant.Fsm.output sm i in
          if og <> om then (excite, Some step)
          else
            match detect with
            | Some _ -> (excite, detect)
            | None ->
                go (step + 1) (golden.Fsm.next sg i) (mutant.Fsm.next sm i) excite detect
                  rest)
  in
  let excite_step, detect_step =
    go 0 golden.Fsm.reset mutant.Fsm.reset None None word
  in
  {
    detected = detect_step <> None;
    excited = excite_step <> None;
    detect_step;
    excite_step;
  }

let detects golden fault word = (run_verdict golden fault word).detected

type 'f campaign_report = 'f Campaign.report = {
  backend : string;
  total : int;
  effective : int;
  excited : int;
  detected : int;
  missed : 'f list;
  skipped : int;
  truncated : Simcov_util.Budget.resource option;
  shard_failures : Campaign.shard_failure list;
}

type report = Fault.t campaign_report

let backend_name = "fsm-fault"

(* The bit-parallel FSM-fault backend, over any lane representation.
   One golden pass per stimulus word evaluates a whole batch of
   mutants, one per lane. Mutant trajectories are tracked by
   difference from the golden trajectory:

   - output and conditional-output lanes never leave the golden
     trajectory, so they need no per-lane state at all — they detect
     the moment the golden run traverses their site (with the required
     history, for conditional lanes);
   - a transfer lane is "diverged" once its mutant's state differs from
     the golden state; only diverged lanes are stepped off the golden
     trajectory, grouped by mutant state, and they rejoin the cheap
     converged set on silent re-convergence (Definition 4's masking
     window closing). *)
module Fsm_backend (L : Simcov_util.Lanes.S) = struct
  module L = L

  type ctx = { m : Fsm.t; tab : Fsm.tables }
  type fault = Fault.t
  type stim = int

  let name = backend_name
  let max_lanes = L.width
  let effective ctx f = Fault.is_effective ctx.m f

  (* The batch's lanes faulted at one transition, split by kind:
     splitting up front means an excited step handles each population
     directly instead of re-deriving it from a combined site set with
     one full-width mask intersection per kind. *)
  type site = {
    mutable s_out : L.t;
    mutable s_tr : L.t;
    mutable s_cond : L.t;
  }

  (* The site of every transition no fault of the batch sits on. It is
     never written: pruning skips empty sets. *)
  let no_site = { s_out = L.zero; s_tr = L.zero; s_cond = L.zero }

  type batch = {
    k : int;  (* tab_inputs *)
    tvalid : bool array;  (* the flat transition tables, hoisted *)
    tnext : int array;
    tout : int array;
    wrong : int array;
    cprev : int array;
    sites : (int, site) Hashtbl.t;
        (* faulted transition (state * k + input) -> its lanes; sized by
           the batch, not by the machine's transition count *)
    groups : L.t array;  (* mutant state -> diverged lanes sitting there *)
    stage : L.t array;  (* same-step landing sets, merged after the sweep *)
    occ : int array;  (* states with a nonempty group, unordered *)
    mutable occ_n : int;
    stg : int array;  (* states with a nonempty stage entry *)
    mutable stg_n : int;
    mutable diverged : L.t;
    mutable det : L.t;  (* per-step detected accumulator, reset each step *)
    mutable sg : int;
    mutable gprev : int;
  }

  let start (ctx : ctx) faults =
    let tab = ctx.tab in
    let k = tab.Fsm.tab_inputs in
    let n = Array.length faults in
    let wrong = Array.make n 0 in
    let cprev = Array.make n (-1) in
    let sites = Hashtbl.create (2 * n) in
    Array.iteri
      (fun l f ->
        let s, i = Fault.site f in
        let idx = (s * k) + i in
        let site =
          match Hashtbl.find_opt sites idx with
          | Some site -> site
          | None ->
              let site = { s_out = L.zero; s_tr = L.zero; s_cond = L.zero } in
              Hashtbl.add sites idx site;
              site
        in
        match f with
        | Fault.Transfer { wrong_next; _ } ->
            wrong.(l) <- wrong_next;
            site.s_tr <- L.add site.s_tr l
        | Fault.Output { wrong_output; _ } ->
            wrong.(l) <- wrong_output;
            site.s_out <- L.add site.s_out l
        | Fault.Conditional_output { wrong_output; prev = ps, pi; _ } ->
            wrong.(l) <- wrong_output;
            cprev.(l) <- (ps * k) + pi;
            site.s_cond <- L.add site.s_cond l)
      faults;
    {
      k;
      tvalid = tab.Fsm.tab_valid;
      tnext = tab.Fsm.tab_next;
      tout = tab.Fsm.tab_output;
      wrong;
      cprev;
      sites;
      groups = Array.make tab.Fsm.tab_states L.zero;
      stage = Array.make tab.Fsm.tab_states L.zero;
      occ = Array.make tab.Fsm.tab_states 0;
      occ_n = 0;
      stg = Array.make tab.Fsm.tab_states 0;
      stg_n = 0;
      diverged = L.zero;
      det = L.zero;
      sg = tab.Fsm.tab_reset;
      gprev = -1;
    }

  let site_at b t =
    match Hashtbl.find_opt b.sites t with Some site -> site | None -> no_site

  (* The one preallocated "nothing happened this step" event — the
     overwhelmingly common outcome, kept allocation-free. *)
  let quiet = { Campaign.excited = L.zero; detected = L.zero; halt = false }

  (* A diverged lane enters the group of its mutant state; the
     occupancy list makes the per-step sweep touch only states that
     actually hold lanes. *)
  let enter_group b s l =
    if b.groups.(s) == L.zero then begin
      b.occ.(b.occ_n) <- s;
      b.occ_n <- b.occ_n + 1
    end;
    b.groups.(s) <- L.add b.groups.(s) l

  let stage_lane b s l =
    if b.stage.(s) == L.zero then begin
      b.stg.(b.stg_n) <- s;
      b.stg_n <- b.stg_n + 1
    end;
    b.stage.(s) <- L.add b.stage.(s) l

  let stage_set b s lanes =
    if b.stage.(s) == L.zero then begin
      b.stg.(b.stg_n) <- s;
      b.stg_n <- b.stg_n + 1;
      b.stage.(s) <- lanes
    end
    else b.stage.(s) <- L.union b.stage.(s) lanes

  (* Prune a site's lanes against the driver's active set and store the
     pruned sets back: a lane that retires never becomes active again
     within the batch, so the stored sets only ever tighten, and once a
     site's mutants are all retired every later golden visit reduces to
     physical-equality tests — without this, long batch tails re-scan
     full-width masks for lanes that were detected thousands of steps
     ago. The sweep's hitter lookup reads the same sites, which stays
     correct: group members are undetected, hence never pruned. *)
  let prune site active =
    if site.s_out != L.zero then site.s_out <- L.inter site.s_out active;
    if site.s_tr != L.zero then site.s_tr <- L.inter site.s_tr active;
    if site.s_cond != L.zero then site.s_cond <- L.inter site.s_cond active

  let step b ~active i =
    let k = b.k in
    (* out-of-alphabet stimuli are invalid in every state, golden and
       mutant alike: halt with no verdicts, exactly like the scalar
       reference. Indexing the flat tables with such an [i] would
       alias into the next state's row instead. *)
    if i < 0 || i >= k then
      { Campaign.excited = L.zero; detected = L.zero; halt = true }
    else
      let gi = (b.sg * k) + i in
      let vg = Array.unsafe_get b.tvalid gi in
      if not vg then begin
        (* golden rejects the stimulus: diverged mutants that accept it
           are exposed by the validity mismatch; everyone else stops *)
        b.det <- L.zero;
        for j = 0 to b.occ_n - 1 do
          let s = Array.unsafe_get b.occ j in
          if b.groups.(s) != L.zero && b.tvalid.((s * k) + i) then
            b.det <- L.union b.det b.groups.(s)
        done;
        { Campaign.excited = L.zero; detected = b.det; halt = true }
      end
      else begin
        let sg' = Array.unsafe_get b.tnext gi
        and og = Array.unsafe_get b.tout gi in
        let site = site_at b gi in
        prune site active;
        let s_out = site.s_out and s_tr = site.s_tr and s_cond = site.s_cond in
        b.det <- L.zero;
        (* [dv] snapshots the start-of-step diverged set, so lanes the
           sweep below re-converges this very step do not branch off
           again on the same stimulus. Lane sets are immutable — the
           sweep's removals rebind [b.diverged] to fresh sets — so the
           snapshot is one pointer copy, and because the site sets are
           pruned to active lanes the membership test below needs no
           [active] intersection. *)
        let dv = b.diverged in
        (* sweep the occupied mutant states: one table transition per
           state moves, detects, or re-converges its whole lane group —
           per-step divergence work is bounded by the number of FSM
           states the diverged mutants occupy, not by the number of
           diverged lanes. Mover sets land in [stage] so a group filled
           this step is not re-stepped by the same sweep; detected
           lanes leave [groups] / [diverged] at once (the driver
           intersects with its active set, so a detection reported for
           an already-retired lane is ignored anyway). *)
        if b.occ_n > 0 then begin
          let n0 = b.occ_n in
          b.occ_n <- 0;
          for j = 0 to n0 - 1 do
            let s = Array.unsafe_get b.occ j in
            let g = Array.unsafe_get b.groups s in
            if g != L.zero then begin
              let mi = (s * k) + i in
              Array.unsafe_set b.groups s L.zero;
              if (not (Array.unsafe_get b.tvalid mi))
                 || Array.unsafe_get b.tout mi <> og
              then begin
                b.det <- L.union b.det g;
                b.diverged <- L.diff b.diverged g
              end
              else begin
                let ns = Array.unsafe_get b.tnext mi in
                let mtr = (site_at b mi).s_tr in
                if L.disjoint g mtr then begin
                  (* no group member's own site is on this transition:
                     the whole group moves, and it is known nonempty *)
                  if ns = sg' then b.diverged <- L.diff b.diverged g
                  else stage_set b ns g
                end
                else begin
                  (* mutants whose own fault site is this transition
                     take their wrong next state individually *)
                  let hitters = L.inter g mtr in
                  L.iter hitters (fun l ->
                      let ms' = b.wrong.(l) in
                      if ms' = sg' then b.diverged <- L.remove b.diverged l
                      else stage_lane b ms' l);
                  let movers = L.diff g hitters in
                  if not (L.is_empty movers) then begin
                    if ns = sg' then b.diverged <- L.diff b.diverged movers
                    else stage_set b ns movers
                  end
                end
              end
            end
          done;
          (* merge: the sweep zeroed every group it visited, so each
             staged set moves in by pointer *)
          for j = 0 to b.stg_n - 1 do
            let s = Array.unsafe_get b.stg j in
            if b.groups.(s) == L.zero then begin
              b.occ.(b.occ_n) <- s;
              b.occ_n <- b.occ_n + 1;
              b.groups.(s) <- b.stage.(s)
            end
            else b.groups.(s) <- L.union b.groups.(s) b.stage.(s);
            b.stage.(s) <- L.zero
          done;
          b.stg_n <- 0
        end;
        (* an excited output-fault lane is detected on the spot; the
           per-kind site split makes this one pointer union *)
        if s_out != L.zero then b.det <- L.union b.det s_out;
        if s_cond != L.zero then
          L.iter s_cond (fun l ->
              if b.cprev.(l) = b.gprev then b.det <- L.add b.det l);
        if s_tr != L.zero then
          (* effectiveness guarantees wrong_next differs from the
             faulted transition's own golden successor, so a converged
             transfer lane excited here branches off unless its wrong
             state happens to coincide with [sg'] *)
          L.iter s_tr (fun l ->
              if (not (L.mem dv l)) && b.wrong.(l) <> sg' then begin
                b.diverged <- L.add b.diverged l;
                enter_group b b.wrong.(l) l;
                Obs.incr c_lanes_diverged
              end);
        b.gprev <- gi;
        b.sg <- sg';
        if s_out == L.zero && s_tr == L.zero && s_cond == L.zero then begin
          if L.is_empty b.det then quiet
          else { Campaign.excited = L.zero; detected = b.det; halt = false }
        end
        else
          { Campaign.excited = L.union s_out (L.union s_tr s_cond);
            detected = b.det;
            halt = false }
      end
end

(* [lanes] up to [Sys.int_size] (the default) pick the native-int lane
   set; wider values a bit-sliced one carrying that many mutants *)
let campaign_outcome ?budget ?(lanes = Sys.int_size) ?jobs ?max_workers
    ?on_batch ?resume ?checkpoint ?should_stop ?shard_retries ?retry_backoff_s
    golden faults word =
  let module B = Fsm_backend ((val Simcov_util.Lanes.make lanes)) in
  let module D = Campaign.Make (B) in
  D.run ?budget ?jobs ?max_workers ?on_batch ?resume ?checkpoint ?should_stop
    ?shard_retries ?retry_backoff_s
    { B.m = golden; tab = Fsm.tables golden }
    faults word

let campaign ?budget ?lanes ?jobs ?on_batch golden faults word =
  (campaign_outcome ?budget ?lanes ?jobs ?on_batch golden faults word)
    .Campaign.report

(* the retained scalar reference: one full mutant rerun per fault,
   through [run_verdict]; the QCheck suite pins the batched driver
   against it, and the bench quantifies the speedup *)
let campaign_scalar golden faults word =
  let total = List.length faults in
  let effective = ref 0 and excited = ref 0 and detected = ref 0 in
  let missed = ref [] and verdicts = ref [] in
  List.iter
    (fun f ->
      if Fault.is_effective golden f then begin
        incr effective;
        let v = run_verdict golden f word in
        if v.excited then incr excited;
        if v.detected then incr detected
        else if v.excited then missed := f :: !missed;
        verdicts := (f, v) :: !verdicts
      end)
    faults;
  {
    Campaign.report =
      {
        backend = backend_name;
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

let coverage_pct = Campaign.coverage_pct
let pp_report = Campaign.pp_report
let to_json ?extra r = Campaign.to_json ~fault:Fault.to_json ?extra r

(* Definition 4, operationally: windows where the two state
   trajectories diverge and silently re-converge. *)
let masked_windows (golden : Fsm.t) (mutant : Fsm.t) word =
  let rec go step sg sm window acc word =
    match word with
    | [] -> List.rev acc (* open window never closed: not masked *)
    | i :: rest -> (
        let vg = golden.Fsm.valid sg i and vm = mutant.Fsm.valid sm i in
        if vg <> vm then List.rev acc (* exposed; stop *)
        else if not vg then List.rev acc
        else
          let og = golden.Fsm.output sg i and om = mutant.Fsm.output sm i in
          if og <> om then List.rev acc (* exposed inside the window *)
          else
            let sg' = golden.Fsm.next sg i and sm' = mutant.Fsm.next sm i in
            match window with
            | None ->
                let window = if sg' <> sm' then Some step else None in
                go (step + 1) sg' sm' window acc rest
            | Some j ->
                if sg' = sm' then go (step + 1) sg' sm' None ((j, step) :: acc) rest
                else go (step + 1) sg' sm' window acc rest)
  in
  go 0 golden.Fsm.reset mutant.Fsm.reset None [] word

let has_masked_transfer golden faults word =
  let mutant = Fault.apply_all golden faults in
  masked_windows golden mutant word <> []

let transitions_covered (m : Fsm.t) word =
  let seen = Hashtbl.create 256 in
  let rec go s = function
    | [] -> ()
    | i :: rest ->
        if m.Fsm.valid s i then begin
          Hashtbl.replace seen (s, i) ();
          go (m.Fsm.next s i) rest
        end
  in
  go m.Fsm.reset word;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let is_transition_tour m word =
  List.length (transitions_covered m word) = Fsm.n_transitions m

let state_coverage (m : Fsm.t) word =
  let seen = Hashtbl.create 64 in
  let rec go s = function
    | [] -> ()
    | i :: rest ->
        if m.Fsm.valid s i then begin
          let s' = m.Fsm.next s i in
          Hashtbl.replace seen s' ();
          go s' rest
        end
  in
  Hashtbl.replace seen m.Fsm.reset ();
  go m.Fsm.reset word;
  Hashtbl.length seen

let transition_coverage m word = List.length (transitions_covered m word)

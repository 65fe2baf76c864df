open Simcov_fsm
module Campaign = Simcov_campaign.Campaign
module Obs = Simcov_obs.Obs

let c_lanes_diverged = Obs.counter "campaign.lanes_diverged"

type verdict = Campaign.verdict = {
  detected : bool;
  excited : bool;
  detect_step : int option;
  excite_step : int option;
  masked_step : int option;
}

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

(* The golden run over the campaign word, indexed once per campaign
   (before sharding, so every batch of every shard reads the same
   index). [gst.(t)] is the golden state before step [t] and [gtr.(t)]
   the transition (state * k + input) it takes, for every step before
   [halt]: the first input the golden machine rejects (out-of-alphabet
   inputs included), or the word's length. [first] maps each traversed
   transition to the first step that takes it, and [later.(t)] is the
   next step after [t] that takes [gtr.(t)]; [max_int] means never.
   [first] is a table rather than an array over every input code so
   that the index stays linear in the word. *)
type golden = {
  halt : int;
  gst : int array;
  gtr : int array;
  first : (int, int) Hashtbl.t;
  later : int array;
}

let golden_run (tab : Fsm.tables) word =
  let k = tab.Fsm.tab_inputs in
  let word = Array.of_list word in
  let n = Array.length word in
  let gst = Array.make (n + 1) tab.Fsm.tab_reset and gtr = Array.make n 0 in
  let halt = ref n and t = ref 0 in
  while !t < !halt do
    let s = gst.(!t) and i = word.(!t) in
    if i < 0 || i >= k || not tab.Fsm.tab_valid.((s * k) + i) then halt := !t
    else begin
      gtr.(!t) <- (s * k) + i;
      gst.(!t + 1) <- tab.Fsm.tab_next.((s * k) + i);
      incr t
    end
  done;
  let halt = !halt in
  let first = Hashtbl.create 1024 in
  let later = Array.make halt max_int in
  for t = halt - 1 downto 0 do
    Option.iter (fun t' -> later.(t) <- t') (Hashtbl.find_opt first gtr.(t));
    Hashtbl.replace first gtr.(t) t
  done;
  { halt; gst; gtr; first; later }

(* The bit-parallel FSM-fault backend: one batch evaluates up to 63
   mutants, one per bit of a native-int lane set. Mutant trajectories
   are tracked by difference from the golden trajectory:

   - output and conditional-output lanes never leave the golden
     trajectory, so they need no per-lane state at all — they detect
     the moment the golden run traverses their site (with the required
     history, for conditional lanes);
   - a transfer lane is "diverged" once its mutant's state differs from
     the golden state; only diverged lanes are stepped off the golden
     trajectory, grouped by mutant state, and they rejoin the cheap
     converged set on silent re-convergence (Definition 4's masking
     window closing), which the step reports as [rejoined].

   A mutant with no diverged lane is the golden machine until the
   golden run next traverses its site, so a batch with no diverged
   lane jumps straight to the next traversal of a live lane's site
   ([next]); while a lane is diverged it visits every step. *)
module Fsm_backend = struct
  type ctx = { m : Fsm.t; tab : Fsm.tables; g : golden }
  type fault = Fault.t
  type stim = int

  let name = backend_name
  let max_lanes = Simcov_util.Lanes.width
  let effective ctx f = Fault.is_effective ctx.m f

  (* The batch's lanes faulted at one transition, split by kind:
     splitting up front means an excited step handles each population
     directly instead of re-deriving it from a combined site set.
     [s_next] is the site's next golden traversal, a cursor into
     [golden.later] that only moves forward. *)
  type site = {
    mutable s_out : int;
    mutable s_tr : int;
    mutable s_cond : int;
    mutable s_next : int;
  }

  (* The site of every transition no fault of the batch sits on. It is
     never written: pruning skips empty sets. *)
  let no_site = { s_out = 0; s_tr = 0; s_cond = 0; s_next = max_int }

  type batch = {
    k : int;  (* tab_inputs *)
    g : golden;
    tvalid : bool array;  (* the flat transition tables, hoisted *)
    tnext : int array;
    tout : int array;
    wrong : int array;
    cprev : int array;
    sites : (int, site) Hashtbl.t;
        (* faulted transition (state * k + input) -> its lanes; sized by
           the batch, not by the machine's transition count *)
    site_list : site array;  (* the values of [sites] *)
    groups : int array;  (* mutant state -> diverged lanes sitting there *)
    stage : int array;  (* same-step landing sets, merged after the sweep *)
    occ : int array;  (* states with a nonempty group, unordered *)
    mutable occ_n : int;
    stg : int array;  (* states with a nonempty stage entry *)
    mutable stg_n : int;
    mutable diverged : int;
    mutable det : int;  (* per-step detected accumulator, reset each step *)
    mutable rej : int;  (* per-step rejoined accumulator, reset each step *)
    mutable at : int;  (* the step [next] positioned the batch at *)
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
              let s_next =
                Option.value (Hashtbl.find_opt ctx.g.first idx) ~default:max_int
              in
              let site = { s_out = 0; s_tr = 0; s_cond = 0; s_next } in
              Hashtbl.add sites idx site;
              site
        in
        let bit = 1 lsl l in
        match f with
        | Fault.Transfer { wrong_next; _ } ->
            wrong.(l) <- wrong_next;
            site.s_tr <- site.s_tr lor bit
        | Fault.Output { wrong_output; _ } ->
            wrong.(l) <- wrong_output;
            site.s_out <- site.s_out lor bit
        | Fault.Conditional_output { wrong_output; prev = ps, pi; _ } ->
            wrong.(l) <- wrong_output;
            cprev.(l) <- (ps * k) + pi;
            site.s_cond <- site.s_cond lor bit)
      faults;
    {
      k;
      g = ctx.g;
      tvalid = tab.Fsm.tab_valid;
      tnext = tab.Fsm.tab_next;
      tout = tab.Fsm.tab_output;
      wrong;
      cprev;
      sites;
      site_list = Array.of_seq (Hashtbl.to_seq_values sites);
      groups = Array.make tab.Fsm.tab_states 0;
      stage = Array.make tab.Fsm.tab_states 0;
      occ = Array.make tab.Fsm.tab_states 0;
      occ_n = 0;
      stg = Array.make tab.Fsm.tab_states 0;
      stg_n = 0;
      diverged = 0;
      det = 0;
      rej = 0;
      at = 0;
    }

  let site_at b t =
    match Hashtbl.find_opt b.sites t with Some site -> site | None -> no_site

  (* While a lane is diverged every step can expose it. Otherwise
     every live mutant is the golden machine until the golden run
     traverses its site, so the next event is the earliest pending
     traversal of a site with a live lane. *)
  let next b ~active t =
    let t =
      if b.diverged <> 0 then t
      else begin
        let best = ref max_int in
        Array.iter
          (fun site ->
            if (site.s_out lor site.s_tr lor site.s_cond) land active <> 0 then begin
              while site.s_next < t do
                site.s_next <- b.g.later.(site.s_next)
              done;
              if site.s_next < !best then best := site.s_next
            end)
          b.site_list;
        !best
      end
    in
    b.at <- t;
    t

  (* The one preallocated "nothing happened this step" event — the
     common outcome inside a divergence window, kept allocation-free. *)
  let quiet = { Campaign.excited = 0; detected = 0; rejoined = 0; halt = false }

  (* A diverged lane enters the group of its mutant state; the
     occupancy list makes the per-step sweep touch only states that
     actually hold lanes. *)
  let enter_group b s l =
    if b.groups.(s) = 0 then begin
      b.occ.(b.occ_n) <- s;
      b.occ_n <- b.occ_n + 1
    end;
    b.groups.(s) <- b.groups.(s) lor (1 lsl l)

  let stage_set b s lanes =
    if b.stage.(s) = 0 then begin
      b.stg.(b.stg_n) <- s;
      b.stg_n <- b.stg_n + 1
    end;
    b.stage.(s) <- b.stage.(s) lor lanes

  (* Prune a site's lanes against the driver's active set and store the
     pruned sets back: a lane that retires never becomes active again
     within the batch, so the stored sets only ever tighten, and a
     retired transfer lane is never branched off again. The sweep's
     hitter lookup reads the same sites, which stays correct: group
     members are undetected, hence never pruned. *)
  let prune site active =
    if site.s_out <> 0 then site.s_out <- site.s_out land active;
    if site.s_tr <> 0 then site.s_tr <- site.s_tr land active;
    if site.s_cond <> 0 then site.s_cond <- site.s_cond land active

  let step b ~active i =
    let k = b.k and at = b.at in
    if at >= b.g.halt then begin
      (* golden rejects the stimulus: diverged mutants that accept it
         are exposed by the validity mismatch; everyone else stops. An
         out-of-alphabet stimulus is invalid in every state, golden and
         mutant alike; indexing the flat tables with it would alias
         into the next state's row instead. *)
      b.det <- 0;
      if i >= 0 && i < k then
        for j = 0 to b.occ_n - 1 do
          let s = Array.unsafe_get b.occ j in
          if b.groups.(s) <> 0 && b.tvalid.((s * k) + i) then
            b.det <- b.det lor b.groups.(s)
        done;
      { Campaign.excited = 0; detected = b.det; rejoined = 0; halt = true }
    end
    else begin
      let gi = b.g.gtr.(at) in
      let sg' = b.g.gst.(at + 1) and og = Array.unsafe_get b.tout gi in
      let site = site_at b gi in
      prune site active;
      let s_out = site.s_out and s_tr = site.s_tr and s_cond = site.s_cond in
      b.det <- 0;
      b.rej <- 0;
      (* [dv] snapshots the start-of-step diverged set, so lanes the
         sweep below re-converges this very step do not branch off
         again on the same stimulus; because the site sets are pruned
         to active lanes the membership test below needs no [active]
         intersection. *)
      let dv = b.diverged in
      (* sweep the occupied mutant states: one table transition per
         state moves, detects, or re-converges its whole lane group —
         per-step divergence work is bounded by the number of FSM
         states the diverged mutants occupy, not by the number of
         diverged lanes. Mover sets land in [stage] so a group filled
         this step is not re-stepped by the same sweep; detected lanes
         leave [groups] / [diverged] at once. *)
      if b.occ_n > 0 then begin
        let n0 = b.occ_n in
        b.occ_n <- 0;
        for j = 0 to n0 - 1 do
          let s = Array.unsafe_get b.occ j in
          let g = Array.unsafe_get b.groups s in
          if g <> 0 then begin
            let mi = (s * k) + i in
            Array.unsafe_set b.groups s 0;
            if (not (Array.unsafe_get b.tvalid mi))
               || Array.unsafe_get b.tout mi <> og
            then begin
              b.det <- b.det lor g;
              b.diverged <- b.diverged land lnot g
            end
            else begin
              let ns = Array.unsafe_get b.tnext mi in
              (* mutants whose own fault site is this transition take
                 their wrong next state individually *)
              let hitters = g land (site_at b mi).s_tr in
              Simcov_util.Lanes.iter hitters (fun l ->
                  let ms' = b.wrong.(l) in
                  if ms' = sg' then b.rej <- b.rej lor (1 lsl l)
                  else stage_set b ms' (1 lsl l));
              let movers = g land lnot hitters in
              if movers <> 0 then begin
                if ns = sg' then b.rej <- b.rej lor movers
                else stage_set b ns movers
              end
            end
          end
        done;
        b.diverged <- b.diverged land lnot b.rej;
        (* merge: the sweep zeroed every group it visited *)
        for j = 0 to b.stg_n - 1 do
          let s = Array.unsafe_get b.stg j in
          if b.groups.(s) = 0 then begin
            b.occ.(b.occ_n) <- s;
            b.occ_n <- b.occ_n + 1
          end;
          b.groups.(s) <- b.groups.(s) lor b.stage.(s);
          b.stage.(s) <- 0
        done;
        b.stg_n <- 0
      end;
      (* an excited output-fault lane is detected on the spot *)
      b.det <- b.det lor s_out;
      if s_cond <> 0 then begin
        let gprev = if at = 0 then -1 else b.g.gtr.(at - 1) in
        Simcov_util.Lanes.iter s_cond (fun l ->
            if b.cprev.(l) = gprev then b.det <- b.det lor (1 lsl l))
      end;
      if s_tr <> 0 then
        (* effectiveness guarantees wrong_next differs from the
           faulted transition's own golden successor, so a converged
           transfer lane excited here branches off unless its wrong
           state happens to coincide with [sg'] *)
        Simcov_util.Lanes.iter s_tr (fun l ->
            if dv land (1 lsl l) = 0 && b.wrong.(l) <> sg' then begin
              b.diverged <- b.diverged lor (1 lsl l);
              enter_group b b.wrong.(l) l;
              Obs.incr c_lanes_diverged
            end);
      let excited = s_out lor s_tr lor s_cond in
      if excited = 0 && b.det = 0 && b.rej = 0 then quiet
      else { Campaign.excited; detected = b.det; rejoined = b.rej; halt = false }
    end
end

module Fsm_driver = Campaign.Make (Fsm_backend)

(* [lanes] is accepted and ignored: every batch is one native int *)
let campaign_outcome ?budget ?lanes:_ ?jobs ?max_workers ?on_batch ?resume
    ?checkpoint ?should_stop golden faults word =
  let tab = Fsm.tables golden in
  Fsm_driver.run ?budget ?jobs ?max_workers ?on_batch ?resume ?checkpoint
    ?should_stop
    { Fsm_backend.m = golden; tab; g = golden_run tab word }
    faults word

let campaign ?budget ?jobs ?on_batch golden faults word =
  (campaign_outcome ?budget ?jobs ?on_batch golden faults word).Campaign.report

(* a static check's engine run lands in a throwaway registry, so a
   job's campaign.* metrics count only the campaigns it reports *)
let unrecorded_outcome golden faults word =
  let reg = Obs.registry () in
  Fun.protect
    ~finally:(fun () -> Obs.release reg)
    (fun () -> Obs.with_registry reg (fun () -> campaign_outcome golden faults word))

let coverage_pct = Campaign.coverage_pct
let pp_report = Campaign.pp_report
let to_json ?extra r = Campaign.to_json ~fault:Fault.to_json ?extra r

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

open Simcov_netlist
module Campaign = Simcov_campaign.Campaign

type site = Reg_output of int | Primary_input of int
type fault = { site : site; stuck : bool }

let all_faults (c : Circuit.t) =
  let regs =
    List.init (Circuit.n_regs c) (fun r ->
        [ { site = Reg_output r; stuck = false }; { site = Reg_output r; stuck = true } ])
  in
  let inputs =
    List.init (Circuit.n_inputs c) (fun i ->
        [
          { site = Primary_input i; stuck = false };
          { site = Primary_input i; stuck = true };
        ])
  in
  List.concat (regs @ inputs)

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

(* The bit-parallel stuck-at backend: bit l of every packed int is the
   value of a net in faulty circuit l. One {!Expr.eval_lanes} pass per
   expression evaluates all lanes at once; a lane's reads of its
   faulted signal are pinned through per-signal (mask, ones) pairs.

   A batch is always one native word. Every step recomputes every
   lane's nets, so per-step work grows with the lane count and a wider
   batch would save only batch setups while adding allocation
   (DESIGN.md §8b has the measurement). *)
module Net_backend = struct
  module L = Simcov_util.Lanes.Native

  type ctx = Circuit.t
  type nonrec fault = fault
  type stim = bool array

  let name = "stuck-at"
  let max_lanes = Sys.int_size
  let effective _ _ = true

  type batch = {
    c : Circuit.t;
    full : int;  (* lane population mask *)
    lanes : int array;  (* per-register packed lane values *)
    mutable good : Circuit.state;
    pmr : int array;  (* per-register: lanes pinned on that register *)
    p1r : int array;  (* … of those, lanes pinned to 1 *)
    pmi : int array;  (* per-input: lanes pinned on that input *)
    p1i : int array;
  }

  let start (c : Circuit.t) (faults : fault array) =
    let nr = Circuit.n_regs c and ni = Circuit.n_inputs c in
    let full = L.ones (Array.length faults) in
    let pmr = Array.make nr 0 and p1r = Array.make nr 0 in
    let pmi = Array.make ni 0 and p1i = Array.make ni 0 in
    Array.iteri
      (fun l f ->
        let bit = 1 lsl l in
        match f.site with
        | Reg_output r ->
            pmr.(r) <- pmr.(r) lor bit;
            if f.stuck then p1r.(r) <- p1r.(r) lor bit
        | Primary_input i ->
            pmi.(i) <- pmi.(i) lor bit;
            if f.stuck then p1i.(i) <- p1i.(i) lor bit)
      faults;
    let good = Circuit.initial_state c in
    let lanes = Array.map (fun b -> if b then full else 0) good in
    { c; full; lanes; good; pmr; p1r; pmi; p1i }

  let step b ~active:_ iv =
    let c = b.c in
    let read_in i =
      ((if iv.(i) then b.full else 0) land lnot b.pmi.(i)) lor b.p1i.(i)
    in
    let read_reg r = (b.lanes.(r) land lnot b.pmr.(r)) lor b.p1r.(r) in
    let cm =
      Expr.eval_lanes ~inputs:read_in ~regs:read_reg c.Circuit.input_constraint
      land b.full
    in
    if Circuit.input_valid c b.good iv then begin
      (* excitation: the golden value of the faulted net differs from
         the pinned value *)
      let excited = ref 0 in
      Array.iteri
        (fun r gb ->
          excited :=
            !excited lor (if gb then b.pmr.(r) land lnot b.p1r.(r) else b.p1r.(r)))
        b.good;
      Array.iteri
        (fun i bit ->
          excited :=
            !excited lor (if bit then b.pmi.(i) land lnot b.p1i.(i) else b.p1i.(i)))
        iv;
      (* lanes whose pinned constraint fails are detected outright … *)
      let detected = ref (b.full land lnot cm) in
      let good', gout = Circuit.step c b.good iv in
      (* … the rest by comparing observable outputs per lane *)
      Array.iteri
        (fun oi (o : Circuit.port) ->
          let ow = Expr.eval_lanes ~inputs:read_in ~regs:read_reg o.Circuit.expr in
          let g = if gout.(oi) then b.full else 0 in
          detected := !detected lor (ow lxor g land cm))
        c.Circuit.outputs;
      let n = Array.length c.Circuit.regs in
      let next =
        Array.map
          (fun (r : Circuit.reg) ->
            Expr.eval_lanes ~inputs:read_in ~regs:read_reg r.Circuit.next land b.full)
          c.Circuit.regs
      in
      Array.blit next 0 b.lanes 0 n;
      b.good <- good';
      { Campaign.excited = !excited; detected = !detected; halt = false }
    end
    else
      (* golden rejects the vector: lanes whose faulty circuit still
         accepts it are exposed; the word ends for everyone else *)
      { Campaign.excited = 0; detected = cm; halt = true }
end

module Driver = Campaign.Make (Net_backend)

(* [lanes] is accepted for symmetry with {!Detect.campaign_outcome} and
   ignored: stuck-at batches are always one native word *)
let campaign_outcome ?budget ?lanes:_ ?jobs ?max_workers ?on_batch ?resume
    ?checkpoint ?should_stop ?shard_retries ?retry_backoff_s c faults word =
  Driver.run ?budget ?jobs ?max_workers ?on_batch ?resume ?checkpoint
    ?should_stop ?shard_retries ?retry_backoff_s c faults word

let campaign ?budget ?jobs ?on_batch c faults word =
  (campaign_outcome ?budget ?jobs ?on_batch c faults word).Campaign.report

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

type report = fault campaign_report

let coverage_pct = Campaign.coverage_pct
let pp_report = Campaign.pp_report

let fault_to_json f =
  let open Simcov_util.Json in
  let where =
    match f.site with
    | Reg_output r -> [ ("site", String "reg"); ("index", Int r) ]
    | Primary_input i -> [ ("site", String "input"); ("index", Int i) ]
  in
  Obj (where @ [ ("stuck", Int (if f.stuck then 1 else 0)) ])

let to_json ?extra r = Campaign.to_json ~fault:fault_to_json ?extra r

let fault_key f =
  let tag, i =
    match f.site with Reg_output r -> ("r", r) | Primary_input i -> ("i", i)
  in
  Printf.sprintf "%s:%d:%d" tag i (if f.stuck then 1 else 0)

let pp_fault ppf f =
  let where =
    match f.site with
    | Reg_output r -> Printf.sprintf "reg %d" r
    | Primary_input i -> Printf.sprintf "input %d" i
  in
  Format.fprintf ppf "%s stuck-at-%d" where (if f.stuck then 1 else 0)

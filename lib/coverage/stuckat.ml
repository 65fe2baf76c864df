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

(* The bit-parallel stuck-at backend: bit l of every packed int is the
   value of a net in faulty circuit l. One {!Expr.eval_lanes} pass per
   expression evaluates all lanes at once; a lane's reads of its
   faulted signal are pinned through per-signal (mask, ones) pairs. A
   batch is one native word. *)
module Net_backend = struct
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
    let full = Simcov_util.Lanes.ones (Array.length faults) in
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

  (* a site is excited wherever its golden value differs from the
     stuck value, and no index of the golden run records where: visit
     every step *)
  let next _ ~active:_ t = t

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
      { Campaign.excited = !excited; detected = !detected; rejoined = 0; halt = false }
    end
    else
      (* golden rejects the vector: lanes whose faulty circuit still
         accepts it are exposed; the word ends for everyone else *)
      { Campaign.excited = 0; detected = cm; rejoined = 0; halt = true }
end

module Driver = Campaign.Make (Net_backend)

(* [lanes] is accepted and ignored, as by {!Detect.campaign_outcome}:
   every batch is one native word *)
let campaign_outcome ?budget ?lanes:_ ?jobs ?max_workers ?on_batch ?resume
    ?checkpoint ?should_stop c faults word =
  Driver.run ?budget ?jobs ?max_workers ?on_batch ?resume ?checkpoint
    ?should_stop c faults word

type report = fault Campaign.report

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

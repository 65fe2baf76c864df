open Simcov_netlist
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json

type report = {
  name : string;
  n_inputs : int;
  n_regs : int;
  n_outputs : int;
  n_nets : int;
  passes : string list;
  skipped : string list;
  diags : Diag.t list;
  hints : Deadlogic.hint list;
  truncated : Budget.resource option;
}

let run ?(budget = Budget.unlimited) ?(name = "circuit") ?against (c : Circuit.t) =
  let diags = ref [] and passes = ref [] and hints = ref [] in
  let skipped = ref [] in
  let n_nets = ref 0 in
  let truncated = ref None in
  let pass id f =
    if !truncated <> None then skipped := id :: !skipped
    else
      try
        Budget.step budget;
        passes := id :: !passes;
        diags := !diags @ f ()
      with Budget.Budget_exceeded r ->
        (* this invocation did not complete: report it as skipped, not
           run (structural-lint runs twice, so drop only the head) *)
        truncated := Some r;
        (match !passes with p :: rest when p = id -> passes := rest | _ -> ());
        skipped := id :: !skipped
  in
  pass "structural-lint" (fun () -> Structural.check_circuit c);
  let malformed = List.exists (fun d -> d.Diag.code = "SA405") !diags in
  if not malformed then begin
    (* lower once; every graph-level pass shares it *)
    let lowered = ref None in
    let graph () =
      match !lowered with
      | Some gm -> gm
      | None ->
          let gm = Netgraph.of_circuit c in
          n_nets := Netgraph.n_nets (fst gm);
          lowered := Some gm;
          gm
    in
    pass "structural-lint" (fun () -> Structural.check_graph (fst (graph ())));
    pass "comb-cycle" (fun () -> Comb_cycle.check_graph (fst (graph ())));
    pass "ternary-const" (fun () -> Ternary.check ~budget c);
    pass "dead-logic" (fun () ->
        let a = Deadlogic.analyze_graph (graph ()) in
        hints := Deadlogic.hints_of c a;
        Deadlogic.check_of c a)
  end;
  (match against with
  | None -> ()
  | Some concrete ->
      pass "homo-precheck" (fun () ->
          Homo_precheck.check_circuits ~concrete ~abstract:c));
  (* structural-lint is stepped twice (circuit + graph level); list it once *)
  let passes = List.sort_uniq compare (List.rev !passes) in
  let skipped =
    (* a pass that partially ran stays in [passes]; don't double-list it *)
    List.sort_uniq compare (List.rev !skipped)
    |> List.filter (fun s -> not (List.mem s passes))
  in
  let order id =
    match id with
    | "structural-lint" -> 0
    | "comb-cycle" -> 1
    | "ternary-const" -> 2
    | "dead-logic" -> 3
    | _ -> 4
  in
  {
    name;
    n_inputs = Circuit.n_inputs c;
    n_regs = Circuit.n_regs c;
    n_outputs = Array.length c.Circuit.outputs;
    n_nets = !n_nets;
    passes = List.sort (fun a b -> Int.compare (order a) (order b)) passes;
    skipped = List.sort (fun a b -> Int.compare (order a) (order b)) skipped;
    diags = List.sort Diag.compare !diags;
    hints = !hints;
    truncated = !truncated;
  }

let schema_id = "simcov-lint/1"

let to_json r =
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ( "model",
        Json.Obj
          [
            ("name", Json.String r.name);
            ("inputs", Json.Int r.n_inputs);
            ("registers", Json.Int r.n_regs);
            ("outputs", Json.Int r.n_outputs);
            ("nets", Json.Int r.n_nets);
          ] );
      ("passes", Json.List (List.map (fun p -> Json.String p) r.passes));
      ("skipped", Json.List (List.map (fun p -> Json.String p) r.skipped));
      ("diagnostics", Json.List (List.map Diag.to_json r.diags));
      ("hints", Json.List (List.map Deadlogic.hint_to_json r.hints));
      ( "truncated",
        match r.truncated with
        | None -> Json.Null
        | Some res -> Json.String (Budget.resource_name res) );
    ]

let pp fmt r =
  Format.fprintf fmt "@[<v>lint %s: %d inputs, %d registers, %d outputs%s@,"
    r.name r.n_inputs r.n_regs r.n_outputs
    (if r.n_nets > 0 then Printf.sprintf ", %d nets" r.n_nets else "");
  List.iter (fun d -> Format.fprintf fmt "%a@," Diag.pp d) r.diags;
  List.iter
    (fun (h : Deadlogic.hint) ->
      Format.fprintf fmt "hint: latch '%s' (index %d, group '%s') is abstraction candidate%s@,"
        h.Deadlogic.reg_name h.Deadlogic.reg_index h.Deadlogic.group
        (if h.Deadlogic.feeds_constraint then " [feeds constraint]" else ""))
    r.hints;
  (match r.truncated with
  | Some res ->
      Format.fprintf fmt "analysis truncated: %s budget exhausted%s@,"
        (Budget.resource_name res)
        (if r.skipped = [] then ""
         else Printf.sprintf " (skipped: %s)" (String.concat ", " r.skipped))
  | None -> ());
  Format.fprintf fmt "%d error%s, %d warning%s, %d info@]"
    (Diag.count r.diags Diag.Error)
    (if Diag.count r.diags Diag.Error = 1 then "" else "s")
    (Diag.count r.diags Diag.Warning)
    (if Diag.count r.diags Diag.Warning = 1 then "" else "s")
    (Diag.count r.diags Diag.Info)

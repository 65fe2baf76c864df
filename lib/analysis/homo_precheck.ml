open Simcov_fsm
open Simcov_abstraction
open Simcov_netlist

let pass = "homo-precheck"

let check_mapping m (map : Homomorphism.mapping) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let range_errors = ref 0 in
  let check_range what v bound ctx =
    if v < 0 || v >= bound then begin
      incr range_errors;
      if !range_errors <= 5 then
        add
          (Diag.make ~code:"SA501" ~severity:Diag.Error ~pass ~loc:Diag.Whole_circuit
             (Printf.sprintf
                "%s maps %s to %d, outside the declared abstract range [0, %d)"
                what ctx v bound))
    end
  in
  let reachable = Fsm.reachable m in
  let state_hit = Array.make map.Homomorphism.n_abs_states false in
  let input_hit = Array.make map.Homomorphism.n_abs_inputs false in
  (* signature of each abstract (state, input): the abstract output,
     with the first concrete witness *)
  let sig_tbl : (int * int, int * (int * int)) Hashtbl.t = Hashtbl.create 256 in
  let conflict_reported = ref 0 in
  for s = 0 to m.Fsm.n_states - 1 do
    if reachable.(s) then begin
      let a_s = map.Homomorphism.state_map s in
      check_range "state map" a_s map.Homomorphism.n_abs_states
        (Printf.sprintf "state %s" (m.Fsm.state_name s));
      if a_s >= 0 && a_s < map.Homomorphism.n_abs_states then state_hit.(a_s) <- true;
      List.iter
        (fun i ->
          let a_i = map.Homomorphism.input_map i in
          check_range "input map" a_i map.Homomorphism.n_abs_inputs
            (Printf.sprintf "input %s" (m.Fsm.input_name i));
          if a_i >= 0 && a_i < map.Homomorphism.n_abs_inputs then input_hit.(a_i) <- true;
          let o = m.Fsm.output s i in
          let a_o = map.Homomorphism.output_map o in
          if a_s >= 0 && a_s < map.Homomorphism.n_abs_states && a_i >= 0
             && a_i < map.Homomorphism.n_abs_inputs
          then
            match Hashtbl.find_opt sig_tbl (a_s, a_i) with
            | None -> Hashtbl.add sig_tbl (a_s, a_i) (a_o, (s, i))
            | Some (a_o', (s', i')) ->
                if a_o <> a_o' then begin
                  incr conflict_reported;
                  if !conflict_reported <= 5 then
                    add
                      (Diag.make ~code:"SA504" ~severity:Diag.Error ~pass
                         ~loc:Diag.Whole_circuit
                         ~related:
                           [ m.Fsm.state_name s'; m.Fsm.state_name s ]
                         (Printf.sprintf
                            "states %s and %s are merged into abstract state %d \
                             but disagree on the abstract output under abstract \
                             input %d (concrete inputs %s vs %s map to outputs \
                             %d vs %d): no quotient machine can exist"
                            (m.Fsm.state_name s') (m.Fsm.state_name s) a_s a_i
                            (m.Fsm.input_name i') (m.Fsm.input_name i) a_o' a_o))
                end)
        (Fsm.valid_inputs m s)
    end
  done;
  if !range_errors = 0 then begin
    let missing hit =
      let acc = ref [] in
      Array.iteri (fun a h -> if not h then acc := a :: !acc) hit;
      List.rev !acc
    in
    (match missing state_hit with
    | [] -> ()
    | states ->
        add
          (Diag.make ~code:"SA502" ~severity:Diag.Warning ~pass ~loc:Diag.Whole_circuit
             (Printf.sprintf
                "state map is not surjective: abstract state%s %s ha%s no \
                 reachable concrete preimage"
                (if List.length states = 1 then "" else "s")
                (String.concat ", " (List.map string_of_int states))
                (if List.length states = 1 then "s" else "ve"))));
    match missing input_hit with
    | [] -> ()
    | inputs ->
        add
          (Diag.make ~code:"SA503" ~severity:Diag.Warning ~pass ~loc:Diag.Whole_circuit
             (Printf.sprintf
                "input map is not surjective: abstract input%s %s never occur%s \
                 on a reachable, valid transition"
                (if List.length inputs = 1 then "" else "s")
                (String.concat ", " (List.map string_of_int inputs))
                (if List.length inputs = 1 then "s" else "")))
  end;
  List.rev !diags

let closure_names (c : Circuit.t) seed_index =
  let closure = Circuit.reg_support_closure c [ seed_index ] in
  List.fold_left
    (fun set r -> c.Circuit.regs.(r).Circuit.name :: set)
    [] closure

let check_circuits ~(concrete : Circuit.t) ~(abstract : Circuit.t) =
  let conc_index = Hashtbl.create 64 in
  Array.iteri
    (fun i (r : Circuit.reg) -> Hashtbl.replace conc_index r.Circuit.name i)
    concrete.Circuit.regs;
  let matched name = Hashtbl.mem conc_index name in
  let diags = ref [] in
  Array.iteri
    (fun a_i (a_reg : Circuit.reg) ->
      match Hashtbl.find_opt conc_index a_reg.Circuit.name with
      | None -> () (* renamed or re-encoded state: nothing to compare *)
      | Some c_i ->
          let abs_cone =
            List.filter matched (closure_names abstract a_i)
          in
          let conc_cone = closure_names concrete c_i in
          let extra = List.filter (fun n -> not (List.mem n conc_cone)) abs_cone in
          if extra <> [] then
            diags :=
              Diag.make ~code:"SA505" ~severity:Diag.Warning ~pass
                ~loc:(Diag.Register a_reg.Circuit.name)
                ~related:extra
                (Printf.sprintf
                   "abstract register '%s' transitively depends on %s, which its \
                    concrete counterpart does not: the abstraction introduced a \
                    dependency, so it cannot be a projection of the concrete \
                    model"
                   a_reg.Circuit.name
                   (String.concat ", "
                      (List.map (fun n -> "'" ^ n ^ "'") extra)))
              :: !diags)
    abstract.Circuit.regs;
  List.rev !diags

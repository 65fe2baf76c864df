open Simcov_netlist

let kind_name = function
  | Netgraph.Pi -> "primary input"
  | Netgraph.Cst b -> Printf.sprintf "constant %d" (if b then 1 else 0)
  | Netgraph.Gate op -> op ^ " gate"
  | Netgraph.Latch _ -> "latch"

let check_graph g =
  let fanout = Netgraph.fanout_count g in
  let po = Array.make (Netgraph.n_nets g) false in
  List.iter (fun id -> po.(id) <- true) (Netgraph.pos g);
  let diags = ref [] in
  for net = 0 to Netgraph.n_nets g - 1 do
    let ds = Netgraph.drivers g net in
    (match ds with
    | [] when fanout.(net) > 0 || po.(net) ->
        diags :=
          Diag.make ~code:"SA401" ~severity:Diag.Error ~pass:"structural-lint"
            ~loc:(Diag.Net (Netgraph.name g net))
            (Printf.sprintf
               "floating net: %s but has no driver"
               (if po.(net) then "marked as a primary output"
                else Printf.sprintf "read by %d fanin slot%s" fanout.(net)
                    (if fanout.(net) = 1 then "" else "s")))
          :: !diags
    | [] | [ _ ] -> ()
    | ds ->
        diags :=
          Diag.make ~code:"SA402" ~severity:Diag.Error ~pass:"structural-lint"
            ~loc:(Diag.Net (Netgraph.name g net))
            ~related:(List.map (fun (k, _) -> kind_name k) ds)
            (Printf.sprintf "multiply-driven net: %d drivers contend for it"
               (List.length ds))
          :: !diags)
  done;
  List.rev !diags

(* names of the shape base[idx]; [None] otherwise *)
let split_indexed name =
  let n = String.length name in
  if n < 4 || name.[n - 1] <> ']' then None
  else
    match String.rindex_opt name '[' with
    | None | Some 0 -> None
    | Some l -> (
        match int_of_string_opt (String.sub name (l + 1) (n - l - 2)) with
        | Some idx when idx >= 0 -> Some (String.sub name 0 l, idx)
        | _ -> None)

let family_diags kind names =
  let families = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      match split_indexed name with
      | None -> ()
      | Some (base, idx) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt families base) in
          Hashtbl.replace families base (idx :: prev))
    names;
  Hashtbl.fold
    (fun base indices acc ->
      let sorted = List.sort Int.compare indices in
      let distinct = List.sort_uniq Int.compare indices in
      let width = List.length sorted in
      let contiguous =
        distinct = List.init (List.length distinct) Fun.id && width = List.length distinct
      in
      if contiguous then acc
      else
        Diag.make ~code:"SA406" ~severity:Diag.Warning ~pass:"structural-lint"
          ~loc:(Diag.Net (base ^ "[]"))
          ~related:(List.map (fun i -> Printf.sprintf "%s[%d]" base i) sorted)
          (Printf.sprintf
             "%s vector '%s' is mis-wired: %d element%s with %s (a width/arity \
              mismatch in the netlist description)"
             kind base width
             (if width = 1 then "" else "s")
             (if List.length distinct < width then "duplicate indices"
              else "index gaps"))
        :: acc)
    families []

let check_circuit (c : Circuit.t) =
  let ni = Circuit.n_inputs c and nr = Circuit.n_regs c in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* --- SA403: unused primary inputs --- *)
  let used = Array.make ni false in
  let bad_leaves = ref [] in
  let scan where e =
    let ins, rgs = Expr.support e in
    List.iter (fun i -> if i < ni then used.(i) <- true else bad_leaves := (where, "input", i) :: !bad_leaves) ins;
    List.iter (fun r -> if r >= nr then bad_leaves := (where, "register", r) :: !bad_leaves) rgs
  in
  Array.iter (fun (r : Circuit.reg) -> scan (Diag.Register r.Circuit.name) r.Circuit.next) c.Circuit.regs;
  Array.iter (fun (o : Circuit.port) -> scan (Diag.Output_port o.Circuit.port_name) o.Circuit.expr) c.Circuit.outputs;
  scan Diag.Whole_circuit c.Circuit.input_constraint;
  Array.iteri
    (fun i name ->
      if not used.(i) then
        add
          (Diag.make ~code:"SA403" ~severity:Diag.Warning ~pass:"structural-lint"
             ~loc:(Diag.Primary_input name)
             (Printf.sprintf
                "unused primary input: '%s' is read by no next-state function, \
                 output or constraint"
                name)))
    c.Circuit.input_names;
  (* --- SA405: out-of-range leaves --- *)
  List.iter
    (fun (where, what, idx) ->
      add
        (Diag.make ~code:"SA405" ~severity:Diag.Error ~pass:"structural-lint" ~loc:where
           (Printf.sprintf
              "expression references %s index %d, but the circuit declares only \
               %d %ss"
              what idx
              (if what = "input" then ni else nr)
              what)))
    (List.rev !bad_leaves);
  (* --- SA404: duplicate declaration names --- *)
  let seen = Hashtbl.create 32 in
  let declare kind name loc =
    match Hashtbl.find_opt seen name with
    | Some prior_kind ->
        add
          (Diag.make ~code:"SA404" ~severity:Diag.Error ~pass:"structural-lint" ~loc
             (Printf.sprintf
                "duplicate name: '%s' already declared as a %s — name-based \
                 tooling (reg_index, serialization, abstraction traces) becomes \
                 ambiguous"
                name prior_kind))
    | None -> Hashtbl.add seen name kind
  in
  Array.iter (fun n -> declare "primary input" n (Diag.Primary_input n)) c.Circuit.input_names;
  Array.iter
    (fun (r : Circuit.reg) -> declare "register" r.Circuit.name (Diag.Register r.Circuit.name))
    c.Circuit.regs;
  (* --- SA406: indexed families with gaps/duplicates --- *)
  List.iter add (family_diags "input" c.Circuit.input_names);
  List.iter add
    (family_diags "register" (Array.map (fun (r : Circuit.reg) -> r.Circuit.name) c.Circuit.regs));
  List.iter add
    (family_diags "output"
       (Array.map (fun (o : Circuit.port) -> o.Circuit.port_name) c.Circuit.outputs));
  List.rev !diags

open Simcov_fsm

type config = { n_regs : int; track_dest : bool; observable_dest : bool }

let default = { n_regs = 4; track_dest = true; observable_dest = true }

let addr_bits cfg =
  assert (cfg.n_regs >= 2 && cfg.n_regs land (cfg.n_regs - 1) = 0);
  let rec go k acc = if k <= 1 then acc else go (k lsr 1) (acc + 1) in
  go cfg.n_regs 0

type abs_input = { cls : Isa.iclass; rd : int; rs1 : int; rs2 : int; taken : bool }

let input_decode cfg code =
  let w = addr_bits cfg in
  let mask = (1 lsl w) - 1 in
  {
    cls = Isa.class_of_index (code land 7);
    rd = (code lsr 3) land mask;
    rs1 = (code lsr (3 + w)) land mask;
    rs2 = (code lsr (3 + (2 * w))) land mask;
    taken = (code lsr (3 + (3 * w))) land 1 = 1;
  }

let n_input_codes cfg = 1 lsl (4 + (3 * addr_bits cfg))

let uses_rd cls = match cls with Isa.Alu_rr | Isa.Alu_ri | Isa.Load -> true | _ -> false

let uses_rs1 cls =
  match cls with
  | Isa.Alu_rr | Isa.Alu_ri | Isa.Load | Isa.Store | Isa.Branch -> true
  | Isa.Jump | Isa.Nopc -> false

let uses_rs2 cls = match cls with Isa.Alu_rr | Isa.Store -> true | _ -> false

let input_is_valid _cfg i =
  let ok_field used v = used || v = 0 in
  ok_field (uses_rd i.cls) i.rd
  && ok_field (uses_rs1 i.cls) i.rs1
  && ok_field (uses_rs2 i.cls) i.rs2
  && ((not i.taken) || i.cls = Isa.Branch)

(* ---- state encoding ----
   With dest tracking: p1 in [0, 2R-1): 0 = nothing in the EX/MEM
   neighbor slot, 1..R-1 = ALU write to that register, R..2R-2 = load
   write to register (p1 - R + 1). p2 in [0, R): 0 = nothing at
   MEM/WB distance, 1..R-1 = a write to that register.
   Without: p1 in {0 none, 1 alu, 2 load}, p2 in {0, 1}. *)

type p1 = P1_none | P1_alu of int | P1_load of int

let p1_size cfg = if cfg.track_dest then (2 * cfg.n_regs) - 1 else 3
let p2_size cfg = if cfg.track_dest then cfg.n_regs else 2

let p1_encode cfg = function
  | P1_none -> 0
  | P1_alu rd -> if cfg.track_dest then rd else 1
  | P1_load rd -> if cfg.track_dest then cfg.n_regs - 1 + rd else 2

let p1_decode cfg v =
  if cfg.track_dest then
    if v = 0 then P1_none
    else if v < cfg.n_regs then P1_alu v
    else P1_load (v - cfg.n_regs + 1)
  else match v with 0 -> P1_none | 1 -> P1_alu 0 | _ -> P1_load 0

let state_code cfg p1v p2v = (p1_encode cfg p1v * p2_size cfg) + p2v

(* bits that hold the codes [0, n) *)
let code_width n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  max 1 (go 0)

(* The observable digest puts p1's code at bit 6 and p2's above it, at
   bit 11 or, once p1's codes need more than 5 bits (32 registers),
   right after them. *)
let digest_shift cfg = max 11 (6 + code_width (p1_size cfg))

let decompose cfg s = (p1_decode cfg (s / p2_size cfg), s mod p2_size cfg)
let n_states cfg = p1_size cfg * p2_size cfg
let valid cfg _s code = code land 7 < 7 && input_is_valid cfg (input_decode cfg code)

let stall_of cfg s i =
  let p1v, _ = decompose cfg s in
  match p1v with
  | P1_load rd when cfg.track_dest ->
      (uses_rs1 i.cls && i.rs1 = rd && rd <> 0)
      || (uses_rs2 i.cls && i.rs2 = rd && rd <> 0)
  | P1_load _ (* dest unknown: optimistic resolution *) | P1_alu _ | P1_none -> false

let fwd_of cfg s i ~uses ~field =
  (* 0 = register file, 1 = EX/MEM bypass, 2 = MEM/WB bypass *)
  if not (uses i.cls) || field = 0 then 0
  else
    let p1v, p2v = decompose cfg s in
    let stall = stall_of cfg s i in
    let p1_match =
      cfg.track_dest
      && (match p1v with P1_alu rd | P1_load rd -> rd = field | P1_none -> false)
    in
    if p1_match then if stall then 2 else 1
    else if cfg.track_dest && p2v = field then if stall then 0 else 2
    else 0

let squash_of i = (i.cls = Isa.Branch && i.taken) || i.cls = Isa.Jump

let output cfg =
  let shift = digest_shift cfg in
  fun s code ->
    let i = input_decode cfg code in
    let stall = stall_of cfg s i in
    let fa = fwd_of cfg s i ~uses:uses_rs1 ~field:i.rs1 in
    let fb = fwd_of cfg s i ~uses:uses_rs2 ~field:i.rs2 in
    let base =
      (if stall then 1 else 0)
      lor (fa lsl 1) lor (fb lsl 3)
      lor (if squash_of i then 1 lsl 5 else 0)
    in
    if cfg.observable_dest then
      let p1v, p2v = decompose cfg s in
      base lor (p1_encode cfg p1v lsl 6) lor (p2v lsl shift)
    else base

let next cfg s code =
  let i = input_decode cfg code in
  if squash_of i then state_code cfg P1_none 0
  else begin
    let p1v, _ = decompose cfg s in
    let stall = stall_of cfg s i in
    let p2' =
      if stall then 0
      else if cfg.track_dest then
        match p1v with P1_alu rd | P1_load rd -> rd | P1_none -> 0
      else match p1v with P1_none -> 0 | P1_alu _ | P1_load _ -> 1
    in
    let p1' =
      if uses_rd i.cls && (i.rd <> 0 || not cfg.track_dest) then
        match i.cls with
        | Isa.Load -> P1_load i.rd
        | Isa.Alu_rr | Isa.Alu_ri -> P1_alu i.rd
        | _ -> P1_none
      else P1_none
    in
    (p1_encode cfg p1' * p2_size cfg) + p2'
  end

let build cfg =
  Fsm.make ~n_states:(n_states cfg) ~n_inputs:(n_input_codes cfg) ~valid:(valid cfg)
    ~next:(next cfg) ~output:(output cfg)
    ~state_name:(fun s ->
      let p1v, p2v = decompose cfg s in
      let p1s =
        match p1v with
        | P1_none -> "-"
        | P1_alu r -> Printf.sprintf "alu:r%d" r
        | P1_load r -> Printf.sprintf "ld:r%d" r
      in
      Printf.sprintf "(%s|%s)" p1s (if p2v = 0 then "-" else Printf.sprintf "w:r%d" p2v))
    ~input_name:(fun code ->
      if code land 7 >= 7 then Printf.sprintf "inv%d" code
      else
        let i = input_decode cfg code in
        Printf.sprintf "%s d%d s%d t%d%s" (Isa.class_name i.cls) i.rd i.rs1 i.rs2
          (if i.taken then " T" else ""))
    ()

(* The same machine as a circuit. p1's destination register is the
   code itself for an ALU write and code - R + 1 for a load (codes R
   and up, so the top bit marks a load), which one ripple increment
   of the low bits recovers; a new load's code takes the decrement.
   Every output and next-state bit below mirrors the matching line of
   [build]. *)
let netlist cfg =
  let open Simcov_netlist in
  let open Circuit.Build in
  let ( !! ) = Expr.( !! ) and ( &&& ) = Expr.( &&& ) and ( ||| ) = Expr.( ||| ) in
  let w = addr_bits cfg in
  let ctx = create "dlx-test-model" in
  let cls = input_vec ctx "class" 3 in
  let rd = input_vec ctx "rd" w in
  let rs1 = input_vec ctx "rs1" w in
  let rs2 = input_vec ctx "rs2" w in
  let taken = input ctx "taken" in
  let p1 = reg_vec ctx ~group:"p1" "p1" (code_width (p1_size cfg)) in
  let p2 = reg_vec ctx ~group:"p2" "p2" (code_width (p2_size cfg)) in
  let any used =
    Expr.disj
      (List.filter_map
         (fun k ->
           if used (Isa.class_of_index k) then Some (Expr.Vec.eq_const cls k) else None)
         (List.init 7 Fun.id))
  in
  let is c = any (( = ) c) in
  let zero v = Expr.Vec.eq_const v 0 in
  (* [v + 1], or [v - 1] when [down], modulo 2^width *)
  let add_one ?(down = false) v =
    let carry = ref Expr.tru in
    Array.init (Array.length v) (fun b ->
        let s = Expr.( ^^^ ) v.(b) !carry in
        carry := (if down then !!(v.(b)) else v.(b)) &&& !carry;
        s)
  in
  (* code 7 names no class *)
  constrain ctx (any (fun _ -> true));
  let ok_field used v = any used ||| zero v in
  constrain ctx
    (ok_field uses_rd rd &&& ok_field uses_rs1 rs1 &&& ok_field uses_rs2 rs2
    &&& (!!taken ||| is Isa.Branch));
  let squash = (is Isa.Branch &&& taken) ||| is Isa.Jump in
  let load = is Isa.Load in
  let writes = any uses_rd &&& if cfg.track_dest then !!(zero rd) else Expr.tru in
  let stall, fwd_a, fwd_b, p1', p2' =
    if cfg.track_dest then begin
      let p1_load = p1.(w) and lo = Array.sub p1 0 w in
      let dest = Expr.Vec.mux p1_load (add_one lo) lo in
      let hazard used field =
        any used &&& Expr.Vec.eq field dest &&& !!(zero dest)
      in
      let stall = p1_load &&& (hazard uses_rs1 rs1 ||| hazard uses_rs2 rs2) in
      (* 0 = register file, 1 = EX/MEM bypass, 2 = MEM/WB bypass *)
      let fwd used field =
        let live = any used &&& !!(zero field) in
        let p1_match = Expr.Vec.eq field dest and p2_match = Expr.Vec.eq field p2 in
        [|
          live &&& p1_match &&& !!stall;
          live &&& ((p1_match &&& stall) ||| (!!p1_match &&& p2_match &&& !!stall));
        |]
      in
      let code = Array.append (Expr.Vec.mux load (add_one ~down:true rd) rd) [| load |] in
      ( stall,
        fwd uses_rs1 rs1,
        fwd uses_rs2 rs2,
        Array.map (( &&& ) writes) code,
        Array.map (fun d -> !!squash &&& !!stall &&& d) dest )
    end
    else
      (* dest unknown: no stall and no bypass (the optimistic resolution) *)
      ( Expr.fls,
        [| Expr.fls; Expr.fls |],
        [| Expr.fls; Expr.fls |],
        [| writes &&& !!load; writes &&& load |],
        [| !!squash &&& !!(zero p1) |] )
  in
  Array.iteri (fun b r -> assign ctx r p1'.(b)) p1;
  Array.iteri (fun b r -> assign ctx r p2'.(b)) p2;
  output ctx "stall" stall;
  output_vec ctx "fwd_a" fwd_a;
  output_vec ctx "fwd_b" fwd_b;
  output ctx "squash" squash;
  if cfg.observable_dest then begin
    let gap = digest_shift cfg - 6 in
    output_vec ctx "digest"
      (Array.init
         (gap + Array.length p2)
         (fun k ->
           if k < Array.length p1 then p1.(k)
           else if k >= gap then p2.(k - gap)
           else Expr.fls))
  end;
  finish ctx

let dest_merge_mapping cfg =
  assert cfg.track_dest;
  let dcfg = { cfg with track_dest = false } in
  let full_p2 = p2_size cfg in
  {
    Simcov_abstraction.Homomorphism.n_abs_states = p1_size dcfg * p2_size dcfg;
    n_abs_inputs = n_input_codes cfg;
    state_map =
      (fun s ->
        let p1v = p1_decode cfg (s / full_p2) and p2v = s mod full_p2 in
        let p1a =
          match p1v with P1_none -> 0 | P1_alu _ -> 1 | P1_load _ -> 2
        in
        (p1a * 2) + if p2v = 0 then 0 else 1);
    input_map = Fun.id;
    output_map =
      (fun o ->
        (* strip the observable destination digest; keep control actions *)
        o land 0x3F);
  }

(* ---------- concretization ---------- *)

type concrete = {
  program : Isa.t array;
  preload_regs : (int * int32) list;
  preload_mem : (int * int32) list;
  issue_map : int array;
}

let concretize cfg word =
  let r = cfg.n_regs in
  let preload_regs = List.init (r - 1) (fun k -> (k + 1, Int32.of_int ((17 * (k + 1)) + 3))) in
  let preload_mem = List.init 64 (fun k -> (k, Int32.of_int ((7 * k) + 11))) in
  (* architectural shadow: track register values so branch directions
     demanded by the abstract inputs can be realized *)
  let regs = Array.make 32 0l in
  List.iter (fun (k, v) -> regs.(k) <- v) preload_regs;
  let memory = Array.make 256 0l in
  List.iter (fun (a, v) -> memory.(a) <- v) preload_mem;
  let mem_index a = ((a mod 256) + 256) mod 256 in
  let program = ref [] in
  let issue_map = ref [] in
  let pc = ref 0 in
  let counter = ref 0 in
  let jump_count = ref 0 in
  let emit ?(junk = false) instr =
    program := instr :: !program;
    if not junk then issue_map := !pc :: !issue_map;
    incr pc
  in
  let apply (i : Isa.t) =
    (* shadow semantics for the instructions the concretizer emits *)
    match i.Isa.op with
    | Isa.Add | Isa.Sub | Isa.Xor | Isa.And | Isa.Or | Isa.Slt ->
        if i.Isa.rd <> 0 then regs.(i.Isa.rd) <- Spec.alu i.Isa.op regs.(i.Isa.rs1) regs.(i.Isa.rs2)
    | Isa.Addi | Isa.Xori | Isa.Ori | Isa.Andi | Isa.Slti ->
        if i.Isa.rd <> 0 then
          regs.(i.Isa.rd) <- Spec.alu i.Isa.op regs.(i.Isa.rs1) (Int32.of_int i.Isa.imm)
    | Isa.Lw ->
        if i.Isa.rd <> 0 then
          regs.(i.Isa.rd) <- memory.(mem_index (Int32.to_int regs.(i.Isa.rs1) + i.Isa.imm))
    | Isa.Sw ->
        memory.(mem_index (Int32.to_int regs.(i.Isa.rs1) + i.Isa.imm)) <- regs.(i.Isa.rs2)
    | Isa.Jal -> regs.(31) <- Int32.of_int !pc (* pc already advanced past jal *)
    | _ -> ()
  in
  List.iter
    (fun code ->
      let i = input_decode cfg code in
      incr counter;
      match i.cls with
      | Isa.Alu_rr ->
          (* rotate through ALU ops for output diversity (Requirement 3) *)
          let ops = [| Isa.Add; Isa.Sub; Isa.Xor; Isa.Or |] in
          let instr =
            Isa.make ~rd:i.rd ~rs1:i.rs1 ~rs2:i.rs2 ops.(!counter mod Array.length ops)
          in
          emit instr;
          apply instr
      | Isa.Alu_ri ->
          let instr = Isa.make ~rd:i.rd ~rs1:i.rs1 ~imm:((!counter mod 97) + 1) Isa.Addi in
          emit instr;
          apply instr
      | Isa.Load ->
          let instr = Isa.make ~rd:i.rd ~rs1:i.rs1 ~imm:(!counter mod 8) Isa.Lw in
          emit instr;
          apply instr
      | Isa.Store ->
          let instr = Isa.make ~rs1:i.rs1 ~rs2:i.rs2 ~imm:(!counter mod 8) Isa.Sw in
          emit instr;
          apply instr
      | Isa.Branch ->
          (* choose the opcode whose runtime outcome matches [taken] *)
          let z = regs.(i.rs1) = 0l in
          let op = if z = i.taken then Isa.Beqz else Isa.Bnez in
          let instr = Isa.make ~rs1:i.rs1 ~imm:1 op in
          emit instr;
          if i.taken then emit ~junk:true Isa.nop
      | Isa.Jump ->
          incr jump_count;
          (* [Jal] links r31, a write the Jump class does not model: a
             32-register model tracks r31, so it only ever gets [J] *)
          let op = if r < 32 && !jump_count land 1 = 0 then Isa.Jal else Isa.J in
          (* absolute target: skip exactly one junk slot *)
          let instr = Isa.make ~imm:(!pc + 2) op in
          emit instr;
          (if op = Isa.Jal then apply instr);
          emit ~junk:true Isa.nop
      | Isa.Nopc -> emit Isa.nop)
    word;
  {
    program = Array.of_list (List.rev !program);
    preload_regs;
    preload_mem;
    issue_map = Array.of_list (List.rev !issue_map);
  }

type bugs = {
  pair_despite_raw : bool;
  pair_despite_waw : bool;
  pair_after_branch : bool;
  pair_two_mem : bool;
}

let no_bugs =
  {
    pair_despite_raw = false;
    pair_despite_waw = false;
    pair_after_branch = false;
    pair_two_mem = false;
  }

let bug_catalog =
  [
    ("pair_despite_raw", { no_bugs with pair_despite_raw = true });
    ("pair_despite_waw", { no_bugs with pair_despite_waw = true });
    ("pair_after_branch", { no_bugs with pair_after_branch = true });
    ("pair_two_mem", { no_bugs with pair_two_mem = true });
  ]

type t = {
  program : Isa.t array;
  regs : int32 array;
  memory : int32 array;
  bugs : bugs;
  mutable pc : int;
  mutable cycles : int;
  mutable duals : int;
  mutable singles : int;
}

let create ?(mem_words = 256) ?(bugs = no_bugs) program =
  {
    program;
    regs = Array.make 32 0l;
    memory = Array.make mem_words 0l;
    bugs;
    pc = 0;
    cycles = 0;
    duals = 0;
    singles = 0;
  }

let set_reg t r v = if r <> 0 then t.regs.(r) <- v
let mem_index t a = ((a mod Array.length t.memory) + Array.length t.memory) mod Array.length t.memory

let reg_file regs r = if r = 0 then 0l else regs.(r)

let is_mem (i : Isa.t) = i.Isa.op = Isa.Lw || i.Isa.op = Isa.Sw
let is_control (i : Isa.t) = Isa.class_of i.Isa.op = Isa.Branch || Isa.class_of i.Isa.op = Isa.Jump

let raw_dep (a : Isa.t) (b : Isa.t) =
  match Isa.writes_reg a with
  | Some rd -> List.mem rd (Isa.reads_regs b)
  | None -> false

let waw_dep (a : Isa.t) (b : Isa.t) =
  match (Isa.writes_reg a, Isa.writes_reg b) with
  | Some ra, Some rb -> ra = rb
  | _ -> false

(* execute one instruction against explicit register/memory views;
   returns (commit, taken_next_pc option) *)
let exec t ~read_reg ~read_mem at_pc (i : Isa.t) =
  let rs1 = read_reg i.Isa.rs1 and rs2 = read_reg i.Isa.rs2 in
  let immv = Int32.of_int i.Isa.imm in
  let reg_write = ref None and mem_write = ref None in
  let next_pc = ref (at_pc + 1) in
  (match Isa.class_of i.Isa.op with
  | Isa.Alu_rr -> if i.Isa.rd <> 0 then reg_write := Some (i.Isa.rd, Spec.alu i.Isa.op rs1 rs2)
  | Isa.Alu_ri ->
      if i.Isa.rd <> 0 then
        if i.Isa.op = Isa.Lhi then reg_write := Some (i.Isa.rd, Int32.shift_left immv 16)
        else reg_write := Some (i.Isa.rd, Spec.alu i.Isa.op rs1 immv)
  | Isa.Load ->
      let addr = Int32.to_int (Int32.add rs1 immv) in
      if i.Isa.rd <> 0 then reg_write := Some (i.Isa.rd, read_mem addr)
  | Isa.Store ->
      let addr = Int32.to_int (Int32.add rs1 immv) in
      mem_write := Some (mem_index t addr, rs2)
  | Isa.Branch ->
      let cond = if i.Isa.op = Isa.Beqz then rs1 = 0l else rs1 <> 0l in
      if cond then next_pc := at_pc + 1 + i.Isa.imm
  | Isa.Jump -> (
      match i.Isa.op with
      | Isa.J -> next_pc := i.Isa.imm
      | Isa.Jal ->
          reg_write := Some (31, Int32.of_int (at_pc + 1));
          next_pc := i.Isa.imm
      | Isa.Jr -> next_pc := Int32.to_int rs1
      | Isa.Jalr ->
          reg_write := Some (31, Int32.of_int (at_pc + 1));
          next_pc := Int32.to_int rs1
      | _ -> ())
  | Isa.Nopc -> ());
  ( {
      Spec.at_pc;
      instr = i;
      reg_write = !reg_write;
      mem_write = !mem_write;
      next_pc = !next_pc;
    },
    !next_pc )

let apply_commit t (c : Spec.commit) =
  (match c.Spec.reg_write with Some (r, v) -> set_reg t r v | None -> ());
  match c.Spec.mem_write with Some (a, v) -> t.memory.(a) <- v | None -> ()

let can_pair t a b =
  (not (is_control a) || t.bugs.pair_after_branch)
  && ((not (raw_dep a b)) || t.bugs.pair_despite_raw)
  && ((not (waw_dep a b)) || t.bugs.pair_despite_waw)
  && ((not (is_mem a && is_mem b)) || t.bugs.pair_two_mem)

let halted t = t.pc < 0 || t.pc >= Array.length t.program

(* one issue cycle of a machine that has not halted: its commits, in
   program order *)
let cycle t =
  let n = Array.length t.program in
  t.cycles <- t.cycles + 1;
  let a = t.program.(t.pc) in
  let b = if t.pc + 1 < n then Some t.program.(t.pc + 1) else None in
  match b with
  | Some b when can_pair t a b ->
      t.duals <- t.duals + 1;
      (* both read the register file and memory as of the start of
         the cycle — that is precisely why illegal pairings are
         wrong *)
      let snapshot_regs = Array.copy t.regs in
      let snapshot_mem = Array.copy t.memory in
      let read_reg_snap r = reg_file snapshot_regs r in
      let read_mem_snap addr = snapshot_mem.(mem_index t addr) in
      let ca, next_a = exec t ~read_reg:read_reg_snap ~read_mem:read_mem_snap t.pc a in
      let cb, next_b =
        exec t ~read_reg:read_reg_snap ~read_mem:read_mem_snap (t.pc + 1) b
      in
      let taken_a = next_a <> t.pc + 1 in
      (* write-back: program order, except that a WAW pair issued by
         the [pair_despite_waw] bug resolves the write-port conflict
         the wrong way around, leaving the OLDER value architected *)
      if t.bugs.pair_despite_waw && waw_dep a b then begin
        apply_commit t cb;
        apply_commit t ca
      end
      else begin
        apply_commit t ca;
        apply_commit t cb
      end;
      (* program order: a taken transfer in the older slot wins *)
      t.pc <- (if taken_a then next_a else next_b);
      [ ca; cb ]
  | _ ->
      t.singles <- t.singles + 1;
      let read_reg r = reg_file t.regs r in
      let read_mem addr = t.memory.(mem_index t addr) in
      let ca, next_a = exec t ~read_reg ~read_mem t.pc a in
      apply_commit t ca;
      t.pc <- next_a;
      [ ca ]

let run ?(max_cycles = 100_000) t =
  let commits = ref [] in
  while (not (halted t)) && t.cycles < max_cycles do
    commits := List.rev_append (cycle t) !commits
  done;
  List.rev !commits

let stats t = (t.cycles, t.duals, t.singles)

(* ---------- pair coverage ---------- *)

type pair_class = { older : Isa.iclass; younger : Isa.iclass; raw : bool; waw : bool }

let classes = [ Isa.Alu_rr; Isa.Alu_ri; Isa.Load; Isa.Store; Isa.Branch; Isa.Jump; Isa.Nopc ]

let writes cls = match cls with Isa.Alu_rr | Isa.Alu_ri | Isa.Load -> true | _ -> false

(* classes whose concrete representative reads a general register in
   the younger slot; branches are kept in never-taken r0 form so the
   pair program's control flow stays deterministic, hence RAW pairs
   with a branch younger are not concretizable here and are excluded
   from the feasible class list *)
let reads cls =
  match cls with
  | Isa.Alu_rr | Isa.Alu_ri | Isa.Load | Isa.Store -> true
  | Isa.Branch | Isa.Jump | Isa.Nopc -> false

let pair_classes () =
  List.concat_map
    (fun older ->
      List.concat_map
        (fun younger ->
          List.concat_map
            (fun raw ->
              List.filter_map
                (fun waw ->
                  (* feasibility: RAW needs older to write and younger
                     to read; WAW needs both to write; a pair cannot be
                     both RAW and WAW here because the concretizer uses
                     distinct source and destination registers *)
                  if raw && not (writes older && reads younger) then None
                  else if waw && not (writes older && writes younger) then None
                  else if raw && waw then None
                  else Some { older; younger; raw; waw })
                [ false; true ])
            [ false; true ])
        classes)
    classes

(* One concrete pair per class. The machine pairs (pc, pc+1) wherever
   pc lands, so a split pair would shift the alignment of everything
   after it; each pair therefore lives in a 3-slot "island"
   [A; B; j next-island]: whether the pair issues together or splits,
   the jump separator puts the next island's A back at the fetch head
   (a jump in the younger slot pairs fine and transfers control; a
   jump in the older slot never pairs on a correct machine).

   r1/r2/r3 are working registers kept loaded with nonzero values;
   each island uses its own scratch memory cell, except that islands
   pairing two memory operations share one cell so the single-port
   violation is observable (the younger load must see the older
   store). *)
let concretize_pairs pcs =
  let preamble = 4 in
  let island k = preamble + (3 * k) in
  let n_islands = List.length pcs in
  let finish = island n_islands in
  let is_memc cls = cls = Isa.Load || cls = Isa.Store in
  let arr = Array.make finish Isa.nop in
  (* preamble: distinct register values, even-aligned with a nop *)
  arr.(0) <- Isa.make ~rd:1 ~rs1:0 ~imm:21 Isa.Addi;
  arr.(1) <- Isa.make ~rd:2 ~rs1:0 ~imm:33 Isa.Addi;
  arr.(2) <- Isa.make ~rd:3 ~rs1:0 ~imm:45 Isa.Addi;
  arr.(3) <- Isa.nop;
  List.iteri
    (fun k pc ->
      let base = island k in
      let next = island (k + 1) in
      let v = 100 + k in
      let shared_mem = is_memc pc.older && is_memc pc.younger in
      let rd_a = 1 + (k mod 3) in
      let other = 1 + ((k + 1) mod 3) in
      let inst_of cls ~slot =
        let my_rd = if slot = `A then rd_a else if pc.waw then rd_a else other in
        let my_rs =
          if slot = `B && pc.raw then rd_a else if slot = `A then other else 3
        in
        let c =
          if shared_mem then 200 + (k mod 50)
          else (2 * k) + (match slot with `A -> 0 | `B -> 1) mod 200
        in
        match cls with
        | Isa.Alu_rr -> Isa.make ~rd:my_rd ~rs1:my_rs ~rs2:3 Isa.Add
        | Isa.Alu_ri -> Isa.make ~rd:my_rd ~rs1:my_rs ~imm:v Isa.Addi
        | Isa.Load ->
            (* a RAW younger load takes the dependence through its
               address register (the classic address-generation
               interlock shape) *)
            Isa.make ~rd:my_rd ~rs1:(if slot = `B && pc.raw then rd_a else 0) ~imm:c Isa.Lw
        | Isa.Store ->
            Isa.make ~rs1:0 ~rs2:(if slot = `B && pc.raw then rd_a else my_rd) ~imm:c Isa.Sw
        | Isa.Branch ->
            (* never taken: deterministic fall-through on the golden
               machine; taken control is exercised by the Jump class *)
            Isa.make ~rs1:0 ~imm:1 Isa.Bnez
        | Isa.Jump ->
            (* an older-slot jump lands on this island's separator (so
               a correct machine, which never pairs past control,
               continues identically); a younger-slot jump lands on
               the next island directly *)
            Isa.make ~imm:(match slot with `A -> base + 2 | `B -> next) Isa.J
        | Isa.Nopc -> Isa.nop
      in
      arr.(base) <- inst_of pc.older ~slot:`A;
      arr.(base + 1) <- inst_of pc.younger ~slot:`B;
      (* the separator realigns the fetch head on the next island
         whether or not the pair issued together *)
      arr.(base + 2) <- Isa.make ~imm:next Isa.J)
    pcs;
  arr

(* the machine's commits one at a time, cycle by cycle, against the
   program's reference *)
let check ~bugs reference program =
  let t = create ~bugs program in
  let pending = ref [] in
  let rec next () =
    match !pending with
    | c :: rest ->
        pending := rest;
        Some c
    | [] ->
        if halted t then None
        else begin
          pending := cycle t;
          next ()
        end
  in
  Validate.check reference next

let reference_of program = Validate.reference (Validate.test_program program)

let validate ?(bugs = no_bugs) program = check ~bugs (reference_of program) program

let bug_campaign program =
  let reference = reference_of program in
  List.map
    (fun (name, bugs) ->
      ( name,
        match check ~bugs reference program with
        | Validate.Fail _ -> true
        | Validate.Pass _ -> false ))
    bug_catalog

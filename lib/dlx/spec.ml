type commit = {
  at_pc : int;
  instr : Isa.t;
  reg_write : (int * int32) option;
  mem_write : (int * int32) option;
  next_pc : int;
}

type t = {
  program : Isa.t array;
  regs : int32 array;
  memory : int32 array;
  mutable pc_ : int;
}

let create ?(mem_words = 256) program =
  { program; regs = Array.make 32 0l; memory = Array.make mem_words 0l; pc_ = 0 }

let reg t r = if r = 0 then 0l else t.regs.(r)

let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let mem_index t a = ((a mod Array.length t.memory) + Array.length t.memory) mod Array.length t.memory
let mem t a = t.memory.(mem_index t a)
let set_mem t a v = t.memory.(mem_index t a) <- v

let halted t = t.pc_ < 0 || t.pc_ >= Array.length t.program

(* ALU semantics on 32-bit two's-complement values. *)
let alu (op : Isa.opcode) (a : int32) (b : int32) =
  let open Int32 in
  match op with
  | Isa.Add | Isa.Addi -> add a b
  | Isa.Sub -> sub a b
  | Isa.And | Isa.Andi -> logand a b
  | Isa.Or | Isa.Ori -> logor a b
  | Isa.Xor | Isa.Xori -> logxor a b
  | Isa.Slt | Isa.Slti -> if compare a b < 0 then 1l else 0l
  | Isa.Seq | Isa.Seqi -> if a = b then 1l else 0l
  | Isa.Sne | Isa.Snei -> if a <> b then 1l else 0l
  | Isa.Sge | Isa.Sgei -> if compare a b >= 0 then 1l else 0l
  | Isa.Sgt -> if compare a b > 0 then 1l else 0l
  | Isa.Sle -> if compare a b <= 0 then 1l else 0l
  | Isa.Sll | Isa.Slli -> shift_left a (to_int (logand b 31l))
  | Isa.Srl | Isa.Srli -> shift_right_logical a (to_int (logand b 31l))
  | Isa.Sra | Isa.Srai -> shift_right a (to_int (logand b 31l))
  | _ -> invalid_arg "Spec.alu: not an ALU opcode"

let step t =
  if halted t then None
  else begin
    let at_pc = t.pc_ in
    let i = t.program.(at_pc) in
    let rs1 = reg t i.Isa.rs1 and rs2 = reg t i.Isa.rs2 in
    let immv = Int32.of_int i.Isa.imm in
    let reg_write = ref None and mem_write = ref None in
    let next_pc = ref (at_pc + 1) in
    (match i.Isa.op with
    | Isa.Add | Isa.Sub | Isa.And | Isa.Or | Isa.Xor | Isa.Slt | Isa.Seq | Isa.Sne
    | Isa.Sge | Isa.Sgt | Isa.Sle | Isa.Sll | Isa.Srl | Isa.Sra ->
        if i.Isa.rd <> 0 then reg_write := Some (i.Isa.rd, alu i.Isa.op rs1 rs2)
    | Isa.Addi | Isa.Andi | Isa.Ori | Isa.Xori | Isa.Slti | Isa.Seqi | Isa.Snei
    | Isa.Sgei | Isa.Slli | Isa.Srli | Isa.Srai ->
        if i.Isa.rd <> 0 then reg_write := Some (i.Isa.rd, alu i.Isa.op rs1 immv)
    | Isa.Lhi ->
        if i.Isa.rd <> 0 then
          reg_write := Some (i.Isa.rd, Int32.shift_left immv 16)
    | Isa.Lw ->
        let addr = Int32.to_int (Int32.add rs1 immv) in
        if i.Isa.rd <> 0 then reg_write := Some (i.Isa.rd, mem t addr)
    | Isa.Sw ->
        let addr = Int32.to_int (Int32.add rs1 immv) in
        mem_write := Some (mem_index t addr, rs2)
    | Isa.Beqz -> if rs1 = 0l then next_pc := at_pc + 1 + i.Isa.imm
    | Isa.Bnez -> if rs1 <> 0l then next_pc := at_pc + 1 + i.Isa.imm
    | Isa.J -> next_pc := i.Isa.imm
    | Isa.Jal ->
        reg_write := Some (31, Int32.of_int (at_pc + 1));
        next_pc := i.Isa.imm
    | Isa.Jr -> next_pc := Int32.to_int rs1
    | Isa.Jalr ->
        reg_write := Some (31, Int32.of_int (at_pc + 1));
        next_pc := Int32.to_int rs1
    | Isa.Nop -> ());
    (match !reg_write with Some (r, v) -> set_reg t r v | None -> ());
    (match !mem_write with Some (a, v) -> t.memory.(a) <- v | None -> ());
    t.pc_ <- !next_pc;
    Some { at_pc; instr = i; reg_write = !reg_write; mem_write = !mem_write; next_pc = !next_pc }
  end

let run ?(max_steps = 10_000) t =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match step t with
      | None -> List.rev acc
      | Some c -> go (n - 1) (c :: acc)
  in
  go max_steps []

let pp_commit ppf c =
  Format.fprintf ppf "@[%04d: %-24s" c.at_pc (Isa.to_string c.instr);
  (match c.reg_write with
  | Some (r, v) -> Format.fprintf ppf " r%d <- %ld" r v
  | None -> ());
  (match c.mem_write with
  | Some (a, v) -> Format.fprintf ppf " mem[%d] <- %ld" a v
  | None -> ());
  if c.next_pc <> c.at_pc + 1 then Format.fprintf ppf " -> pc %d" c.next_pc;
  Format.fprintf ppf "@]"

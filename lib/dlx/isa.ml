type opcode =
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Slt
  | Seq
  | Sne
  | Sge
  | Sgt
  | Sle
  | Sll
  | Srl
  | Sra
  | Addi
  | Andi
  | Ori
  | Xori
  | Slti
  | Seqi
  | Snei
  | Sgei
  | Slli
  | Srli
  | Srai
  | Lhi
  | Lw
  | Sw
  | Beqz
  | Bnez
  | J
  | Jal
  | Jr
  | Jalr
  | Nop

type t = { op : opcode; rd : int; rs1 : int; rs2 : int; imm : int }

let nop = { op = Nop; rd = 0; rs1 = 0; rs2 = 0; imm = 0 }
let make ?(rd = 0) ?(rs1 = 0) ?(rs2 = 0) ?(imm = 0) op = { op; rd; rs1; rs2; imm }

type iclass = Alu_rr | Alu_ri | Load | Store | Branch | Jump | Nopc

let class_of = function
  | Add | Sub | And | Or | Xor | Slt | Seq | Sne | Sge | Sgt | Sle | Sll | Srl | Sra ->
      Alu_rr
  | Addi | Andi | Ori | Xori | Slti | Seqi | Snei | Sgei | Slli | Srli | Srai | Lhi ->
      Alu_ri
  | Lw -> Load
  | Sw -> Store
  | Beqz | Bnez -> Branch
  | J | Jal | Jr | Jalr -> Jump
  | Nop -> Nopc

let class_of_index = function
  | 0 -> Alu_rr
  | 1 -> Alu_ri
  | 2 -> Load
  | 3 -> Store
  | 4 -> Branch
  | 5 -> Jump
  | 6 -> Nopc
  | n -> invalid_arg (Printf.sprintf "Isa.class_of_index: %d" n)

let class_name = function
  | Alu_rr -> "ALU-RR"
  | Alu_ri -> "ALU-RI"
  | Load -> "LOAD"
  | Store -> "STORE"
  | Branch -> "BRANCH"
  | Jump -> "JUMP"
  | Nopc -> "NOP"

let writes_reg i =
  match class_of i.op with
  | Alu_rr | Alu_ri | Load -> if i.rd = 0 then None else Some i.rd
  | Jump -> if i.op = Jal || i.op = Jalr then Some 31 else None
  | Store | Branch | Nopc -> None

let reads_regs i =
  let srcs =
    match class_of i.op with
    | Alu_rr -> [ i.rs1; i.rs2 ]
    | Alu_ri -> if i.op = Lhi then [] else [ i.rs1 ]
    | Load -> [ i.rs1 ]
    | Store -> [ i.rs1; i.rs2 ] (* address base; data *)
    | Branch -> [ i.rs1 ]
    | Jump -> if i.op = Jr || i.op = Jalr then [ i.rs1 ] else []
    | Nopc -> []
  in
  List.filter (fun r -> r <> 0) srcs

let canon i =
  let z = { i with rd = 0; rs1 = 0; rs2 = 0; imm = 0 } in
  match class_of i.op with
  | Alu_rr -> { z with rd = i.rd; rs1 = i.rs1; rs2 = i.rs2 }
  | Alu_ri ->
      if i.op = Lhi then { z with rd = i.rd; imm = i.imm }
      else { z with rd = i.rd; rs1 = i.rs1; imm = i.imm }
  | Load -> { z with rd = i.rd; rs1 = i.rs1; imm = i.imm }
  | Store -> { z with rs1 = i.rs1; rs2 = i.rs2; imm = i.imm }
  | Branch -> { z with rs1 = i.rs1; imm = i.imm }
  | Jump ->
      if i.op = Jr || i.op = Jalr then { z with rs1 = i.rs1 } else { z with imm = i.imm }
  | Nopc -> z

let mnemonic = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Slt -> "slt"
  | Sll -> "sll"
  | Srl -> "srl"
  | Addi -> "addi"
  | Andi -> "andi"
  | Ori -> "ori"
  | Xori -> "xori"
  | Slti -> "slti"
  | Lhi -> "lhi"
  | Lw -> "lw"
  | Sw -> "sw"
  | Beqz -> "beqz"
  | Bnez -> "bnez"
  | J -> "j"
  | Jal -> "jal"
  | Jr -> "jr"
  | Jalr -> "jalr"
  | Nop -> "nop"
  | Seq -> "seq"
  | Sne -> "sne"
  | Sge -> "sge"
  | Sgt -> "sgt"
  | Sle -> "sle"
  | Sra -> "sra"
  | Seqi -> "seqi"
  | Snei -> "snei"
  | Sgei -> "sgei"
  | Slli -> "slli"
  | Srli -> "srli"
  | Srai -> "srai"

let opcode_of_mnemonic s =
  let all =
    [
      Add; Sub; And; Or; Xor; Slt; Seq; Sne; Sge; Sgt; Sle; Sll; Srl; Sra; Addi; Andi;
      Ori; Xori; Slti; Seqi; Snei; Sgei; Slli; Srli; Srai; Lhi; Lw; Sw; Beqz; Bnez; J;
      Jal; Jr; Jalr; Nop;
    ]
  in
  List.find_opt (fun op -> mnemonic op = s) all

let to_string i =
  let i = canon i in
  match class_of i.op with
  | Alu_rr -> Printf.sprintf "%s r%d, r%d, r%d" (mnemonic i.op) i.rd i.rs1 i.rs2
  | Alu_ri ->
      if i.op = Lhi then Printf.sprintf "lhi r%d, %d" i.rd i.imm
      else Printf.sprintf "%s r%d, r%d, %d" (mnemonic i.op) i.rd i.rs1 i.imm
  | Load -> Printf.sprintf "lw r%d, %d(r%d)" i.rd i.imm i.rs1
  | Store -> Printf.sprintf "sw r%d, %d(r%d)" i.rs2 i.imm i.rs1
  | Branch -> Printf.sprintf "%s r%d, %d" (mnemonic i.op) i.rs1 i.imm
  | Jump -> (
      match i.op with
      | Jr -> Printf.sprintf "jr r%d" i.rs1
      | Jalr -> Printf.sprintf "jalr r%d" i.rs1
      | _ -> Printf.sprintf "%s %d" (mnemonic i.op) i.imm)
  | Nopc -> "nop"

(* --- parsing --- *)

let parse_reg s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some r when r >= 0 && r < 32 -> Ok r
    | _ -> Error ("bad register: " ^ s)
  else Error ("bad register: " ^ s)

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> Error ("bad immediate: " ^ s)

(* "imm(rN)" *)
let parse_mem_operand s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> Error ("bad memory operand: " ^ s)
  | Some i ->
      if String.length s = 0 || s.[String.length s - 1] <> ')' then
        Error ("bad memory operand: " ^ s)
      else
        let imm_s = String.sub s 0 i in
        let reg_s = String.sub s (i + 1) (String.length s - i - 2) in
        Result.bind (parse_int (if imm_s = "" then "0" else imm_s)) (fun imm ->
            Result.map (fun r -> (imm, r)) (parse_reg reg_s))

let ( let* ) = Result.bind

let of_string line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (
      match opcode_of_mnemonic line with
      | Some Nop -> Ok nop
      | _ -> Error ("cannot parse: " ^ line))
  | Some sp -> (
      let mn = String.sub line 0 sp in
      let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
      let args = String.split_on_char ',' rest |> List.map String.trim in
      match opcode_of_mnemonic mn with
      | None -> Error ("unknown mnemonic: " ^ mn)
      | Some op -> (
          match (class_of op, args) with
          | Alu_rr, [ a; b; c ] ->
              let* rd = parse_reg a in
              let* rs1 = parse_reg b in
              let* rs2 = parse_reg c in
              Ok (make ~rd ~rs1 ~rs2 op)
          | Alu_ri, [ a; b ] when op = Lhi ->
              let* rd = parse_reg a in
              let* imm = parse_int b in
              Ok (make ~rd ~imm op)
          | Alu_ri, [ a; b; c ] ->
              let* rd = parse_reg a in
              let* rs1 = parse_reg b in
              let* imm = parse_int c in
              Ok (make ~rd ~rs1 ~imm op)
          | Load, [ a; b ] ->
              let* rd = parse_reg a in
              let* imm, rs1 = parse_mem_operand b in
              Ok (make ~rd ~rs1 ~imm op)
          | Store, [ a; b ] ->
              let* rs2 = parse_reg a in
              let* imm, rs1 = parse_mem_operand b in
              Ok (make ~rs1 ~rs2 ~imm op)
          | Branch, [ a; b ] ->
              let* rs1 = parse_reg a in
              let* imm = parse_int b in
              Ok (make ~rs1 ~imm op)
          | Jump, [ a ] when op = Jr || op = Jalr ->
              let* rs1 = parse_reg a in
              Ok (make ~rs1 op)
          | Jump, [ a ] ->
              let* imm = parse_int a in
              Ok (make ~imm op)
          | _ -> Error ("wrong operands for " ^ mn ^ ": " ^ rest)))

let parse_program text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" then go (n + 1) acc rest
        else
          match of_string line with
          | Ok i -> go (n + 1) (i :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

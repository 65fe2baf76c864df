(** The DLX instruction set (integer subset).

    Mirrors the scope of the paper's case study: "this design
    implements the DLX instruction set (except the floating-point and
    exception-handling instructions)" — register-register ALU ops,
    immediate ALU ops, loads/stores, branches and jumps. Words are 32
    bits; there are 32 architectural registers with [r0] hardwired to
    zero. *)

type opcode =
  (* R-type *)
  | Add
  | Sub
  | And
  | Or
  | Xor
  | Slt  (** set on less-than (signed) *)
  | Seq
  | Sne
  | Sge
  | Sgt
  | Sle
  | Sll
  | Srl
  | Sra
  (* I-type ALU *)
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
  | Lhi  (** load 16-bit immediate into the upper half of rd *)
  (* memory *)
  | Lw
  | Sw
  (* control *)
  | Beqz
  | Bnez
  | J
  | Jal
  | Jr
  | Jalr  (** jump through register, linking r31 *)
  | Nop

type t = { op : opcode; rd : int; rs1 : int; rs2 : int; imm : int }
(** [imm] is a signed 16-bit value for I-types and branches (word
    offset relative to the next instruction), and a 26-bit absolute
    word address for [J]/[Jal]. *)

val nop : t
val make : ?rd:int -> ?rs1:int -> ?rs2:int -> ?imm:int -> opcode -> t

(** {1 Instruction classes}

    The abstraction the test model uses: only the class and the
    register addresses matter to the pipeline control. *)

type iclass = Alu_rr | Alu_ri | Load | Store | Branch | Jump | Nopc

val class_of : opcode -> iclass
val class_of_index : int -> iclass
val class_name : iclass -> string

val writes_reg : t -> int option
(** Destination register actually written ([None] for [r0], stores,
    branches, plain jumps; [Jal] writes r31). *)

val reads_regs : t -> int list
(** Source registers actually read (excluding [r0]). *)

(** {1 Encoding} *)

(** {1 Text} *)

val to_string : t -> string

val parse_program : string -> (t array, string) result
(** Parse a newline-separated program; ['#'] starts a comment. *)

(** Architectural (ISA-level) DLX simulator — the golden specification.

    Executes one instruction per step, maintaining the architectural
    state (PC, 32 registers with r0 = 0, data memory). The observable
    checkpoint stream is the sequence of {!commit} records, one per
    executed instruction — the "comparison at special checkpointing
    steps, e.g. at the completion of each instruction" of Section 2. *)

type commit = {
  at_pc : int;
  instr : Isa.t;
  reg_write : (int * int32) option;  (** register and value written *)
  mem_write : (int * int32) option;  (** word address and value written *)
  next_pc : int;
}

type t

val create : ?mem_words:int -> Isa.t array -> t
(** Fresh machine at PC 0 with zeroed registers and memory (default
    256 memory words). Memory addresses are word-granular and wrap
    modulo the memory size. *)

val set_reg : t -> int -> int32 -> unit
(** Pre-loading registers for directed tests (writes to r0 are
    ignored). *)

val set_mem : t -> int -> int32 -> unit

val alu : Isa.opcode -> int32 -> int32 -> int32
(** ALU semantics shared with the pipelined implementation's EX stage.
    @raise Invalid_argument on non-ALU opcodes. *)

val step : t -> commit option
(** Execute the instruction at PC; [None] when already halted. *)

val run : ?max_steps:int -> t -> commit list
(** Step until halt or the budget is exhausted. *)

val pp_commit : Format.formatter -> commit -> unit

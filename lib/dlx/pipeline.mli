(** Cycle-accurate 5-stage pipelined DLX implementation.

    The implementation under validation: IF / ID / EX / MEM / WB with
    the features of the paper's case-study design — "interlock
    detection, bypassing, squashing and stalling":

    - load-use {e interlock}: a one-cycle stall when the instruction in
      ID reads the destination of a load in EX;
    - {e bypassing}: EX/MEM -> EX and MEM/WB -> EX operand forwarding
      (including store-data);
    - {e squashing}: branches and jumps resolve in EX; on a taken
      branch the two younger instructions are squashed;
    - register file write-before-read within a cycle.

    Commits are produced at WB in program order and are directly
    comparable with {!Spec.commit} records — that comparison at
    instruction completion is the validation checkpoint of Section 2.

    The {!bugs} record injects realistic control errors (disabled
    bypass paths, missing interlock, missing squash, ...), the
    implementation-error population for the coverage experiments. *)

type bugs = {
  no_exmem_forward : bool;  (** EX/MEM -> EX bypass disabled *)
  no_memwb_forward : bool;  (** MEM/WB -> EX bypass disabled *)
  no_load_interlock : bool;  (** load-use stall never inserted *)
  no_branch_squash : bool;  (** taken branch fails to kill younger slots *)
  forward_rs2_as_rs1 : bool;  (** operand-B bypass compares the wrong field *)
  interlock_ignores_rs2 : bool;  (** load-use detect checks rs1 only *)
  branch_polarity : bool;  (** beqz/bnez decided with inverted condition *)
  lost_store_forward : bool;  (** store data misses the MEM/WB bypass *)
  jal_no_link : bool;  (** jal does not write r31 *)
  bypass_fails_rd3 : bool;
      (** corner case: the EX/MEM bypass ignores producers whose
          destination is r3 — exposed only by specific register
          pairings, the kind of error Section 6.3 argues needs
          destination-aware test models *)
  interlock_fails_rd2 : bool;
      (** corner case: the load-use stall is skipped when the load's
          destination is r2 *)
  storedata_exmem_fails : bool;
      (** corner case: store data misses the EX/MEM bypass *)
}

val no_bugs : bugs
val bug_catalog : (string * bugs) list
(** Named single-bug variants, the standard error population. *)

type t

val create : ?mem_words:int -> ?bugs:bugs -> Isa.t array -> t

val set_reg : t -> int -> int32 -> unit
(** Pre-load a register (architectural and bypass-visible). *)

val set_mem : t -> int -> int32 -> unit

val cycle : t -> Spec.commit option
(** Advance one clock cycle; the commit that left WB in it, if any.
    While the pipeline has not drained it commits within a few cycles
    (a stall lasts one cycle, a squash empties two slots), so a caller
    that stops at a bounded number of commits needs no cycle bound. *)

val drained : t -> bool
(** Every slot is empty and the PC has left the program: no further
    cycle can commit. *)

val run : ?max_cycles:int -> t -> Spec.commit list
(** {!cycle} until the pipeline drains after the program ends (or the
    cycle budget is exhausted). *)

val stats : t -> int * int * int
(** [(cycles, stalls, squashed_slots)] so far. *)

val trace : ?max_cycles:int -> t -> string
(** Run to completion while rendering a classic pipeline diagram: one
    line per cycle with the four pipeline-register slots, annotated
    with stalls and squashes. *)

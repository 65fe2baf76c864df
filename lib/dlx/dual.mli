(** Dual-issue (2-wide, in-order) DLX implementation.

    Section 5 of the paper singles out issue parallelism as what makes
    processor validation hard ("an implementation may introduce
    parallelism in the processing of instructions in the form of
    pipelined or superscalar execution"), and the work it builds on
    (Ho et al.) validated a dual-issue pipelined processor. This
    module scales the methodology to that case: a 2-wide in-order
    machine whose {e pairing rules} are the control under validation.

    A younger instruction issues in the same cycle as its older
    neighbor only when:
    - it has no RAW dependence on the older one,
    - they do not write the same register (WAW),
    - the older one is not a control transfer (a branch or jump ends
      the issue group), and
    - at most one of the two accesses memory (single data port).

    The seeded bugs break exactly these rules, with the realistic
    microarchitectural consequence: an illegally paired younger
    instruction reads the register file and data memory {e before} its
    older neighbor's results are written.

    Commits are {!Spec.commit} records in program order, so validation
    against the architectural simulator works unchanged. *)

type bugs = {
  pair_despite_raw : bool;  (** RAW pairs issue; the younger reads stale registers *)
  pair_despite_waw : bool;  (** WAW pairs issue; the older write lands last *)
  pair_after_branch : bool;
      (** issue groups ignore control transfers: the younger commits
          even when the older branch/jump takes *)
  pair_two_mem : bool;
      (** two memory operations share the cycle; the younger reads
          memory before the older store lands *)
}

type t

val create : ?mem_words:int -> ?bugs:bugs -> Isa.t array -> t

val run : ?max_cycles:int -> t -> Spec.commit list
val stats : t -> int * int * int
(** [(cycles, dual_issues, single_issues)]. *)

(** {1 Pair coverage}

    The pairing control is memoryless, so its "transition tour" is a
    single pass over the abstract pair classes: (older class, younger
    class, RAW?, WAW?, both-memory?) with impossible combinations
    excluded. *)

type pair_class = {
  older : Isa.iclass;
  younger : Isa.iclass;
  raw : bool;
  waw : bool;
}

val pair_classes : unit -> pair_class list
(** All feasible pair classes. *)

val concretize_pairs : pair_class list -> Isa.t array
(** A program exercising each pair class once, with data chosen so
    that every illegal pairing would be observable (Requirement 3). *)

val validate : ?bugs:bugs -> Isa.t array -> Validate.outcome
(** Commit-stream comparison against {!Spec}: the machine issues cycle
    by cycle against the program's {!Validate.reference} and stops at
    the first mismatching, missing or extra commit. A program still
    running at the reference's step bound (1,000,000) is cut there and
    passes as [Pass { cut = true; _ }] when its first commits match:
    nothing past the cut is compared. *)

val bug_campaign : Isa.t array -> (string * bool) list
(** Each catalog bug against one reference of the program, run once;
    a bug is detected by its first mismatch. *)

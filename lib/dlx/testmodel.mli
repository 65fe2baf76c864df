(** Issue-level explicit test model of the pipelined DLX control.

    One transition per {e issued instruction}: the input is the
    abstracted instruction (class + register addresses + the
    PSW-derived branch outcome, the paper's reduced "18-bit
    instruction format"), the state is the interaction state the
    paper's guidelines call out — the destination registers of the
    instructions still in flight ("addresses of destination registers
    from the current, and two previous, instructions" plus their
    write kinds) — and the outputs are the control actions (stall,
    forwarding selects, squash), optionally extended with the
    interaction state itself (Requirement 5).

    Two knobs reproduce the paper's ablations:
    - [track_dest = false] drops destination addresses from the state,
      the Section 6.3 "abstracting too much" scenario: the quotient is
      no longer a function of (state, input), and the forced-
      deterministic model misses interlock errors;
    - [observable_dest = false] hides the interaction state from the
      outputs, violating Requirement 5 and breaking
      ∀k-distinguishability. *)

open Simcov_fsm

type config = {
  n_regs : int;  (** power of two, ≥ 2; the paper's reduced file has 4 *)
  track_dest : bool;
  observable_dest : bool;
}

val default : config
(** 4 registers, destinations tracked and observable. *)

(** {1 Abstract inputs} *)

type abs_input = {
  cls : Isa.iclass;
  rd : int;
  rs1 : int;
  rs2 : int;
  taken : bool;
}

val input_decode : config -> int -> abs_input

val n_input_codes : config -> int

(** {1 The model} *)

val n_states : config -> int
(** [(2R - 1) R] with destinations tracked, 6 without; the reset is
    state 0 (no write in flight). *)

val valid : config -> int -> int -> bool
val next : config -> int -> int -> int

val output : config -> int -> int -> int
(** [valid], [next] and [output] take a state and an input code in
    [\[0, n_input_codes)]. With [track_dest = false] the stall/forward
    outputs use the optimistic (assume-no-hazard) resolution — see
    above. The output packs stall (bit 0), the two forwarding selects
    (bits 1–2 and 3–4) and squash (bit 5); with [observable_dest] the
    digest adds p1's code at bit 6 and p2's at bit [max 11 (6 + width
    of p1's codes)], so the digest stays injective at 32 registers,
    where p1's codes need 6 bits. They build no table, so they reach
    the 16- and 32-register models, where {!build} takes 744 MB or does
    not fit. *)

val build : config -> Fsm.t
(** The deterministic Mealy machine of [valid], [next] and [output],
    compiled into its tables (one [fsm.tabulations]): 0.04 s at 8
    registers, 1.2 s and 744 MB at 16; at 32 registers the tables
    would hold 1.06 × 10{^9} entries. *)

val netlist : config -> Simcov_netlist.Circuit.t
(** [build config] as a circuit, so its figures can be counted
    symbolically without a table (as the paper counts its model,
    Section 7.2). The p1 and p2 slots are latches holding their codes
    (p1's bits first, little-endian, reset 0). The instruction fields
    are the primary inputs in input-code bit order (class, rd, rs1,
    rs2, taken), so an input valuation packed little-endian is the
    input code. Validity is the [input_constraint], and output bit k
    is bit k of [build]'s output. From reset, the latch valuation
    holding codes p1 and p2 behaves as [build]'s state with those
    codes, under every [track_dest]/[observable_dest] setting. *)

val dest_merge_mapping : config -> Simcov_abstraction.Homomorphism.mapping
(** The state abstraction from the dest-tracking model onto the
    dest-less one. [Homomorphism.quotient] of the full model under
    this mapping reports a conflict — the formal witness that dropping
    destination addresses abstracts too much (Section 6.3). *)

(** {1 Concretization}

    "A test sequence for the test model needs to be converted to a
    test sequence for the implementation simulation model" (Section
    4.3): abstract input words become real DLX programs. Branch
    directions demanded by the abstract input are realized by choosing
    [beqz]/[bnez] according to the architectural value of the source
    register at that point (the concretizer runs the specification
    alongside); taken branches and jumps get one never-issued filler
    slot so the redirect is a real squash. *)

type concrete = {
  program : Isa.t array;
  preload_regs : (int * int32) list;
  preload_mem : (int * int32) list;
  issue_map : int array;  (** issue index -> program counter *)
}

val concretize : config -> int list -> concrete
(** The input word must be valid for [build config]. Below 32
    registers every second [Jump] becomes [jal], which links r31; at
    32 registers the model tracks r31 but the Jump class does not model
    that write, so every [Jump] becomes [j]. *)

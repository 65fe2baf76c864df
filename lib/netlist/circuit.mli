(** Sequential circuits: registers + combinational logic + primary I/O.

    This is the structural-RTL substitute for the paper's Verilog
    models. Registers carry a [group] tag (e.g. ["fetch"],
    ["interlock"], ["dest_ex"]) so abstraction passes can select the
    state variables a derivation step removes or re-encodes — the
    paper's "abstraction over state variables" (Section 6.1).

    An optional [input_constraint] expression (over inputs and current
    state) encodes which input combinations are valid — the paper's
    "of the 2^25 possible input combinations, only 8228 are valid"
    (Section 7.2). *)

type reg = { name : string; group : string; init : bool; next : Expr.t }
type port = { port_name : string; expr : Expr.t }

type t = {
  name : string;
  input_names : string array;
  regs : reg array;
  outputs : port array;
  input_constraint : Expr.t;  (** [tru] when unconstrained *)
}

val n_inputs : t -> int
val n_regs : t -> int
val n_outputs : t -> int
val gate_count : t -> int
(** Total AST nodes across next-state and output logic. *)

val regs_in_group : t -> string -> int list

(** {1 Simulation} *)

type state = bool array

val initial_state : t -> state

val step : t -> state -> bool array -> state * bool array
(** [step c s inputs] is [(next_state, outputs)].
    @raise Invalid_argument if the input vector violates
    [input_constraint] under [s]. *)

val input_valid : t -> state -> bool array -> bool

(** {1 Structural analysis} *)

val reg_support_closure : t -> int list -> int list
(** Transitive closure of register-to-register dependencies: the
    registers (sorted) whose values can influence the given seed
    registers' next-state logic, including the seeds. Applied to a
    circuit alone, it reads each register's direct support once; the
    closure it returns then serves any number of seed lists. *)

val output_cone : t -> int list
(** Registers in the cone of influence of the outputs (fixpoint over
    next-state dependencies). *)

(** {1 Conversion} *)

val to_fsm : ?max_state_bits:int -> t -> Simcov_fsm.Fsm.t
(** Enumerate the circuit as an explicit Mealy machine: states are
    register valuations (packed little-endian), inputs are input
    valuations, outputs are packed output vectors. Input validity
    follows [input_constraint].
    @raise Invalid_argument when the circuit has more than
    [max_state_bits] (default 20) registers or more than 20 inputs. *)

(** {1 Construction DSL} *)

module Build : sig
  type build_error = {
    circuit : string;  (** name passed to {!create} *)
    doubly_assigned : string list;
        (** registers assigned more than once, in offense order *)
    never_assigned : string list;
        (** registers with no next-state function, in declaration order *)
  }

  exception Build_error of build_error

  val build_error_to_string : build_error -> string

  type ctx

  val create : string -> ctx

  val input : ctx -> string -> Expr.t
  val input_vec : ctx -> string -> int -> Expr.Vec.t

  val reg : ctx -> ?group:string -> ?init:bool -> string -> Expr.t
  (** Declare a register, returning its current-value expression; the
      next-state function must be assigned later with {!assign}. *)

  val reg_vec : ctx -> ?group:string -> ?init:int -> string -> int -> Expr.Vec.t

  val assign : ctx -> Expr.t -> Expr.t -> unit
  (** [assign ctx r next] sets the next-state function of the register
      whose current-value expression is [r] (must be a [Reg] leaf
      returned by {!reg}/{!reg_vec}). Assigning a register twice is
      recorded (the first assignment stands) and reported by
      {!finish}, so one pass surfaces every offender. *)

  val output : ctx -> string -> Expr.t -> unit
  val output_vec : ctx -> string -> Expr.Vec.t -> unit

  val constrain : ctx -> Expr.t -> unit
  (** Conjoin a clause onto the input-validity constraint. *)

  val finish : ctx -> t
  (** @raise Build_error listing {e all} doubly-assigned and
      never-assigned registers at once. *)
end

val pp_stats : Format.formatter -> t -> unit

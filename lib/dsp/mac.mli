(** The second design class of Section 5: a fixed-program processor
    ("e.g. a signal processing ASIC") whose input sequence is simply a
    sequence of data values.

    The device is a saturating multiply-accumulate unit with four
    commands — load coefficient, MAC a sample, clear, read the
    accumulator. The pipelined implementation has a two-cycle
    multiplier and a one-cycle accumulator, so it exhibits the same
    control phenomena as the DLX pipeline at a smaller scale:

    - a {e read} racing a MAC still in the multiplier must {e stall};
    - a read racing a MAC in the accumulate stage is served by a
      {e bypass} from the adder;
    - {e clear} must {e squash} in-flight products;
    - the coefficient used by a MAC is the one at issue time, even if
      a later [Setc] overtakes it in the pipeline.

    [Spec] is the sample-per-step behavioral model, [Pipe] the
    cycle-accurate pipeline with a seeded-bug catalog, [Testmodel] the
    issue-level control FSM with its command-stream concretizer, and
    [Validate] the checkpoint comparison. *)

type cmd = Setc of int32 | Mac of int32 | Clear | Read

type response = Ack | Value of int32

val pp_cmd : Format.formatter -> cmd -> unit
val pp_response : Format.formatter -> response -> unit

module Spec : sig
  type t

  val create : unit -> t
  val coefficient : t -> int32
  val accumulator : t -> int32
  val step : t -> cmd -> response
  val run : t -> cmd list -> response list
end

module Pipe : sig
  type bugs = {
    read_no_stall : bool;  (** read ignores a product still in the multiplier *)
    read_no_forward : bool;  (** read misses the accumulate-stage bypass *)
    clear_no_squash : bool;  (** clear lets in-flight products land afterwards *)
    setc_leaks : bool;  (** a MAC in flight picks up a newer coefficient *)
    saturation_wraps : bool;  (** the accumulator wraps instead of saturating *)
  }

  val no_bugs : bugs
  val bug_catalog : (string * bugs) list

  type t

  val create : ?bugs:bugs -> unit -> t

  val issue : t -> cmd -> response
  (** Issue one command (internally advancing the clock through any
      stall cycles) and return its response. Responses are produced in
      issue order, directly comparable with {!Spec.step}. *)

  val run : t -> cmd list -> response list
  val stats : t -> int * int * int
  (** (cycles, stalls, squashed products). *)
end

module Testmodel : sig
  open Simcov_fsm

  val build : ?observable:bool -> unit -> Fsm.t
  (** Issue-level control model: state = which of the two previous
      commands were MACs (their products still in flight); inputs =
      the four command classes; outputs = stall / forward / squash
      controls, plus the in-flight state when [observable] (default
      true — Requirement 5). *)

  val input_setc : int
  val input_mac : int
  val input_clear : int
  val input_read : int

  val concretize : int list -> cmd list
  (** Abstract input word -> command stream with distinct data values
      (Requirement 3). *)
end

module Validate : sig
  type outcome = Pass of int | Fail of { index : int; expected : response; actual : response }

  val run : ?bugs:Pipe.bugs -> cmd list -> outcome
  val bug_campaign : cmd list -> (string * bool) list
  val pp_outcome : Format.formatter -> outcome -> unit
end

(** Machine-checkable forms of the paper's Requirements 1–5.

    - {b R1} (Section 4.3): all output errors are uniform. Checked
      through an abstraction: every abstract transition whose concrete
      pre-image contains a misbehaving transition must have {e only}
      misbehaving members.
    - {b R2} (Section 5): the processing of each input completes in at
      most [k] transitions. On a test model this is the existence of a
      finite [k] for the ∀k-distinguishability construction; it is an
      assumption about the design (pipeline depth) that we take as a
      bound to search under.
    - {b R3}: each unique input yields a unique output — discharged by
      data selection during concretization (the concretizer emits
      checkpoint records carrying the instruction identity and distinct
      data); the checker validates a concrete run's checkpoint
      injectivity.
    - {b R4}: transfer errors are not masked — an assumption; checked
      empirically by looking for masked windows under sampled transfer
      faults.
    - {b R5}: interaction state is observable — checked as
      ∀1-distinguishability: distinct reachable states must disagree
      on some output for every applicable input.

    R2 reads the ∀k verdict of the model's Theorem 1 facts ([facts],
    default {!Simcov_testgen.Tour.facts}) and R4 their tour; R5 reads
    the verdict when it certifies [k = 1], else runs the ∀1 search
    that names the first failing pair. *)

open Simcov_fsm

type status =
  | Satisfied of string  (** evidence description *)
  | Violated of string
  | Assumed of string  (** taken as a design assumption, not checked *)

val is_ok : status -> bool
(** [Satisfied] or [Assumed]. *)

type report = {
  r1_uniform_output_errors : status;
  r2_bounded_processing : status;
  r3_unique_outputs : status;
  r4_no_masking : status;
  r5_observable_interaction : status;
}

val all_ok : report -> bool
val pp_report : Format.formatter -> report -> unit

val check :
  ?concrete:
    (Fsm.t * Simcov_abstraction.Homomorphism.mapping * (int * int -> bool)) ->
  ?facts:Simcov_testgen.Tour.facts ->
  ?rng:Simcov_util.Rng.t ->
  ?masking_samples:int ->
  Fsm.t ->
  report
(** [check model] evaluates the requirements on a test model.

    [concrete] supplies the concrete machine, the abstraction mapping
    and a predicate marking misbehaving concrete transitions, enabling
    the real R1 check; without it R1 is [Assumed].

    [rng] enables the empirical R4 masking scan (sampled transfer
    faults against the optimal tour); without it R4 is [Assumed]. *)

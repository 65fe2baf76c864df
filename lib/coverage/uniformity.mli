(** Uniform vs. non-uniform output errors (Definition 2) through an
    abstraction.

    On a concrete Mealy machine, a single output fault is trivially
    uniform: the faulted transition itself always misbehaves. Non-
    uniformity appears at the {e test model} level: an abstract
    transition is the image of many concrete transitions, and an error
    is uniform on the abstract transition only if {e every} concrete
    pre-image transition misbehaves. Section 6.3's interlock example is
    exactly this: without the destination-register address in the test
    model state, the abstract "issue dependent instruction" transition
    mixes hazard and no-hazard concrete transitions, so the error shows
    only for some histories.

    Requirement 1 demands all output errors be uniform: it holds for a
    fault set when every {!classify} result {!is_uniform}. *)

open Simcov_fsm
open Simcov_abstraction

type classification = {
  abs_transition : int * int;  (** abstract (state, input) *)
  faulty_members : int;  (** concrete pre-image transitions that misbehave *)
  clean_members : int;  (** pre-image transitions that behave *)
}

val classify :
  Fsm.t -> Homomorphism.mapping -> faulty:(int * int -> bool) -> classification list
(** For each abstract transition with at least one faulty concrete
    member, count faulty and clean members. [faulty (s, i)] says
    whether the concrete transition misbehaves (e.g. an output fault
    was injected there, or a bug predicate holds). *)

val is_uniform : classification -> bool
(** No clean members: the error is exposed by every history reaching
    the abstract transition. *)

(** Homomorphic abstractions between explicit Mealy machines.

    Section 6.1 of the paper: "we use a homomorphic abstraction which
    is a many-to-one mapping A from states in the set Sc (concrete
    states) to states in the set Sa (abstract states) [...] this
    mapping preserves the transition relation."

    A mapping here also covers the input and output alphabets, since
    test models abstract instruction fields and merge output values.
    The quotient of a concrete machine may be nondeterministic (the
    paper notes the test model "may have non-deterministic outputs");
    {!quotient} reports the offending transitions so the caller can
    refine the state map — which is exactly the §6.3 "abstracting too
    much" loop. *)

open Simcov_fsm

type mapping = {
  n_abs_states : int;
  n_abs_inputs : int;
  state_map : int -> int;
  input_map : int -> int;
  output_map : int -> int;
}

type conflict = {
  abs_state : int;
  abs_input : int;
  first : int * int * int * int;  (** concrete (s, i, s', o) *)
  second : int * int * int * int;  (** concrete transition that disagrees *)
}

val quotient : Fsm.t -> mapping -> (Fsm.t, conflict) result
(** Build the abstract machine whose transitions are the images of the
    concrete machine's reachable transitions. [Error c] when two
    concrete transitions map to the same abstract (state, input) but
    disagree on the abstract (next, output) — the abstraction is not a
    function and must be refined. *)

val is_transition_preserving : Fsm.t -> Fsm.t -> mapping -> bool
(** Check that every reachable concrete transition [(s, i, s', o)] maps
    to an abstract transition: [abs] accepts [input_map i] in
    [state_map s], steps to [state_map s'] and outputs
    [output_map o]. This is the defining property of the abstraction
    (it holds by construction for {!quotient} results). *)

val identity_mapping : Fsm.t -> mapping

val state_partition_by : Fsm.t -> (int -> 'a) -> mapping
(** Mapping that merges states with equal keys (inputs and outputs kept
    identical). Abstract state numbering follows first occurrence among
    [0 .. n_states - 1]. *)

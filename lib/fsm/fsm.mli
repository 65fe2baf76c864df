(** Finite-state Mealy machines with partial input alphabets.

    This is the representation used for test models (Section 4.1 of the
    paper): deterministic Mealy machines whose input alphabet may be
    state-dependent ("invalid instructions and relationships between
    datapath outputs" make only 8228 of 2^25 input combinations valid
    in the paper's DLX model, Section 7.2).

    States and inputs are dense integers. A machine is compiled when
    it is built: {!make} calls the given functions once per
    (state, input) pair and keep only flat tables, each state's
    valid inputs and the states and transitions reachable from the
    reset. The type is private, so no machine can be derived from
    another without being built afresh, and every query below reads
    the one compiled form. Nothing is written after construction, so a
    machine can be shared across domains. *)

type compiled
(** A machine's tabulated form (see {!tables}). *)

type t = private {
  n_states : int;
  n_inputs : int;
  reset : int;
  valid : int -> int -> bool;
      (** [valid s i]: may input [i] occur in state [s]? An input
          outside [\[0, n_inputs)] is invalid in every state. *)
  next : int -> int -> int;  (** transition function, defined when valid *)
  output : int -> int -> int;  (** output function, defined when valid *)
  state_name : int -> string;
  input_name : int -> string;
  compiled : compiled;
}
(** [valid], [next] and [output] are O(1) reads of the compiled
    tables. *)

val make :
  ?reset:int ->
  ?valid:(int -> int -> bool) ->
  ?state_name:(int -> string) ->
  ?input_name:(int -> string) ->
  n_states:int ->
  n_inputs:int ->
  next:(int -> int -> int) ->
  output:(int -> int -> int) ->
  unit ->
  t
(** Build and compile a machine; by default every input is valid
    everywhere and the reset state is 0. [valid] is called once per
    (state, input) pair, [next] and [output] once per valid pair, and
    none of them is kept. The compilation is counted on the
    [fsm.tabulations] metric, once per machine built. *)

type tables = {
  tab_states : int;
  tab_inputs : int;
  tab_reset : int;
  tab_valid : bool array;  (** indexed [state * tab_inputs + input] *)
  tab_next : int array;
  tab_output : int array;
}

val tables : t -> tables
(** The flat transition tables of the compiled form, for engines (e.g.
    bit-parallel fault simulation) that index them directly instead of
    going through closures. Shared, not copied: read them, never write
    them. [tab_reset] is the machine's [reset]. Entries at invalid
    [(state, input)] pairs are unspecified in [tab_next]/[tab_output]. *)

val compiled_bytes : t -> int
(** Bytes the compiled form holds: the three tables, the valid-input
    index and the reachability index. *)

(** {1 Execution} *)

val output_word : t -> int list -> int list
(** [output_word m word] runs [word] from reset and returns its
    outputs in order.
    @raise Invalid_argument on the first input that is not valid. *)

val final_state : t -> int list -> int

(** {1 Structure} *)

val valid_inputs : t -> int -> int list
(** The inputs valid in a state, ascending. *)

val reachable : t -> bool array
(** Characteristic vector of states reachable from reset (a fresh
    copy). A successor outside [\[0, n_states)] (a malformed machine)
    is not followed. *)

val n_reachable : t -> int

val transitions : t -> (int * int * int * int) list
(** All [(state, input, next, output)] with [state] reachable and
    [input] valid, sorted by state then input. *)

val transition_codes : t -> int array
(** The same transitions as codes [state * n_inputs + input], in the
    same order, for indexing {!tables}. Shared with the compiled form:
    read it, never write it. *)

val n_transitions : t -> int

val transition_graph : t -> Simcov_graph.Digraph.t
(** One vertex per state, one edge per reachable valid transition,
    labeled with the input symbol and unit cost. This is the graph
    tours are computed on. *)

(** {1 Comparison} *)

val distinguish : t -> int -> int -> int list option
(** Shortest input word telling two states of the same machine apart
    ([None] if the states are equivalent). A word distinguishes if some
    prefix step produces differing outputs, or an input is valid in one
    state and not the other. *)

(** {1 ∀k-distinguishability (Definition 5)} *)

val forall_k_distinguishable : t -> k:int -> int -> int -> bool
(** [forall_k_distinguishable m ~k s1 s2]: does {e every} input sequence
    of length [k] (valid from both states; validity mismatch counts as
    an observable difference) distinguish [s1] from [s2]? *)

val forall_k_matrix : t -> k:int -> bool array array
(** The relation over all state pairs, [result.(s1).(s2)], after [k]
    rounds of the recurrence {!min_forall_k} runs. Quadratic in states
    — intended for test models, not full designs. *)

val min_forall_k :
  ?scope:[ `Reachable | `All ] -> ?bound:int -> t -> (int, int * int) result
(** The one ∀k search: Theorem 1's certificate
    ([Simcov_core.Completeness.certify]), the fsm-lint SA630/SA631
    verdict and Requirements R2/R5 all read it.

    [Ok k]: the smallest [k <= bound] (default 16) such that every pair
    of distinct in-scope states is ∀k-distinguishable. [Error (p, q)]:
    the first in-scope pair, [p < q] in row-major order, that is not
    ∀[bound]-distinguishable. Two equivalent states are never
    ∀k-distinguishable, whatever the bound.

    [scope] (default [`Reachable]) selects the states whose pairs must
    be told apart: the reachable ones, or [`All] when implementation
    faults can land in states the correct machine never reaches.

    One matrix round per k. The relation only grows with k, so the
    search also stops at the first round that changes nothing: no
    larger bound could certify from there.
    @raise Invalid_argument if [bound < 1]. *)

(** {1 Minimization} *)

val classes : t -> int array
(** Partition refinement (Moore splitting on Mealy outputs, restricted
    to reachable states): the state -> class map, classes numbered
    from 0, unreachable states mapped to [-1]. Two states sharing a
    class are equivalent. *)

val minimize : t -> t * int array
(** The quotient machine over {!classes}, built with {!make}, and the
    class map. *)

(** {1 Generators (for tests and benchmarks)} *)

val random_connected :
  Simcov_util.Rng.t -> n_states:int -> n_inputs:int -> n_outputs:int -> t
(** Random total machine whose transition graph is strongly connected
    (a random cycle through all states is seeded first, then the
    remaining transitions are drawn uniformly). *)

val pp : Format.formatter -> t -> unit

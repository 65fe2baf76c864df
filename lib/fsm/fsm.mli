(** Finite-state Mealy machines with partial input alphabets.

    This is the representation used for test models (Section 4.1 of the
    paper): deterministic Mealy machines whose input alphabet may be
    state-dependent ("invalid instructions and relationships between
    datapath outputs" make only 8228 of 2^25 input combinations valid
    in the paper's DLX model, Section 7.2).

    States and inputs are dense integers. The machine is represented
    behaviorally (functions), so fault-injected mutants (see
    {!Simcov_coverage}) can wrap a machine without copying its
    transition table. {!tabulate} compiles a machine once; every
    structural query below reads that compiled form. *)

type compiled
(** A machine's tabulated form: flat transition tables, each state's
    valid inputs in ascending order, and the states and transitions
    reachable from the reset it was built under. Built by {!tabulate}
    and never written afterwards, so a tabulated machine can be shared
    across domains. *)

type t = {
  n_states : int;
  n_inputs : int;
  reset : int;
  valid : int -> int -> bool;  (** [valid s i]: may input [i] occur in state [s]? *)
  next : int -> int -> int;  (** transition function, defined when valid *)
  output : int -> int -> int;  (** output function, defined when valid *)
  state_name : int -> string;
  input_name : int -> string;
  compiled : compiled option;
      (** set by {!tabulate}. It answers only while [valid], [next] and
          [output] are the closures {!tabulate} installed beside it (and
          the sizes are unchanged): a machine derived with
          [{ m with next = f }], such as a closure mutant, carries a
          stale form that every query ignores. A derived machine with
          another [reset] keeps the tables, and its reachable set is
          searched afresh. *)
}

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
(** Build a machine; by default every input is valid everywhere and the
    reset state is 0. *)

val of_table : ?reset:int -> (int * int * int * int) list -> t
(** [of_table rows] builds a machine from [(state, input, next, output)]
    rows; state/input counts are inferred, and only listed pairs are
    valid. Duplicate [(state, input)] rows are a programming error. *)

val tabulate : t -> t
(** The compiled machine: [valid]/[next]/[output] become O(1) reads of
    flat tables, and the {!compiled} form (tables, valid-input index,
    reachable set) is built once, here, and counted on the
    [fsm.tabulations] metric. Semantics are unchanged, except that an
    out-of-alphabet input reads as invalid. Tabulating a machine whose
    compiled form is current returns it unchanged. Every query below
    reads the compiled form; on a machine without a current one it
    tabulates a throwaway copy first, so a caller that queries a
    machine repeatedly should tabulate it once. *)

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
    them. [tab_reset] is the machine's own [reset]. Entries at invalid
    [(state, input)] pairs are unspecified in [tab_next]/[tab_output]. *)

val compiled_bytes : t -> int
(** Bytes the compiled form holds: the three tables, the valid-input
    index and the reachability index. *)

(** {1 Execution} *)

val step : t -> int -> int -> int * int
(** [step m s i] is [(next, output)]. @raise Invalid_argument if [i] is
    not valid in [s]. *)

val run : t -> int list -> (int * int * int * int) list
(** [run m word] executes from reset, returning the executed transitions
    [(state, input, next, output)] in order.
    @raise Invalid_argument on the first invalid input. *)

val output_word : t -> int list -> int list
(** Outputs only. *)

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

val equivalent : t -> t -> (int list, string) result
(** Product-machine equivalence from the reset states. [Ok ce] with a
    nonempty [ce] means the machines disagree and [ce] is a shortest
    input word exposing it (differing output, or validity mismatch);
    [Ok \[\]] means equivalent; [Error msg] when alphabets differ. *)

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

val minimize : t -> t * int array
(** Partition-refinement minimization (Moore splitting on Mealy
    outputs, restricted to reachable states). Returns the quotient
    machine and the state -> class map (unreachable states map to
    [-1]). Two states sharing a class are equivalent. *)

(** {1 Generators (for tests and benchmarks)} *)

val random_connected :
  Simcov_util.Rng.t -> n_states:int -> n_inputs:int -> n_outputs:int -> t
(** Random total machine whose transition graph is strongly connected
    (a random cycle through all states is seeded first, then the
    remaining transitions are drawn uniformly). *)

val pp : Format.formatter -> t -> unit

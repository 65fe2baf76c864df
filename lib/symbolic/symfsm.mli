(** Symbolic (BDD-based) finite state machines.

    The implicit transition-relation representation the paper builds
    inside SIS (Section 7.2): current-state variables, next-state
    variables and input variables, with the transition relation
    T(s, x, s') = AND_i (s'_i <-> delta_i(s, x)), an input-validity
    constraint V(s, x), and an initial-state predicate. Current and
    next state variables are interleaved in the variable order, the
    standard heuristic for relation BDDs.

    The relation is kept {e partitioned}: one conjunct per latch plus
    the validity constraint, each with its support, ordered at build
    time by a greedy clustering heuristic. Image and preimage fold the
    conjuncts with early quantification (Burch–Clarke–Long style)
    instead of ever building the monolithic product; the monolithic
    relation remains available through {!trans} as a fallback and as
    the test oracle for the partitioned path.

    Used to reproduce the paper's counts: reachable states (13,720 of
    2^22 there), valid input combinations (8228 of 2^25), and the
    number of distinct transitions (123 million). Machines come from
    netlists only: an explicit machine is counted through a netlist
    of it (the DLX test model's is [Testmodel.netlist]), never by
    enumerating its transitions into the relation. *)

open Simcov_bdd
module Budget = Simcov_util.Budget

type part = {
  rel : Bdd.t;  (** one conjunct of the transition relation *)
  supp : int list;  (** its support, ascending *)
}

type iter_stat = {
  iteration : int;  (** 1-based breadth-first layer *)
  frontier_states : float;  (** states imaged this iteration *)
  frontier_nodes : int;  (** BDD nodes of the imaged set *)
  reached_nodes : int;  (** BDD nodes of the reached set before the step *)
  live_nodes : int;  (** manager unique-table size after the step *)
  time_s : float;  (** wall time of this image step *)
}

type traversal = {
  reached : Bdd.t;
      (** the least fixpoint — or, when [truncated] is set, the sound
          under-approximation reached before resources ran out — over
          [cur] vars *)
  iterations : int;  (** sequential depth + 1 (completed iterations) *)
  images : int;  (** image computations performed *)
  peak_live_nodes : int;  (** manager live-node high-water mark *)
  total_time_s : float;
  iter_stats : iter_stat list;  (** per-iteration, in order *)
  truncated : Budget.resource option;
      (** [None] = exact fixpoint; [Some r] = traversal stopped early
          because resource [r] (time, steps, or BDD nodes) ran out *)
  gc_runs : int;  (** BDD garbage collections during this traversal *)
}

type t = {
  man : Bdd.man;
  n_state_vars : int;
  n_input_vars : int;
  cur : int array;  (** current-state BDD variables *)
  nxt : int array;  (** next-state BDD variables *)
  inp : int array;  (** input BDD variables *)
  parts : part list;  (** partitioned T(cur, inp, nxt) · V, in fold order *)
  valid : Bdd.t;  (** V(cur, inp) *)
  init : Bdd.t;  (** I(cur) *)
  outputs : Bdd.t array;  (** O_k(cur, inp) per output bit *)
  mutable mono : Bdd.t option;  (** cached monolithic relation *)
  mutable reach : traversal option;  (** cached default traversal *)
}

type reorder_mode = [ `Off | `On | `Auto ]
(** Dynamic-variable-reordering policy for a machine's BDD manager.
    [`Off] (the default) keeps the build-time interleaved order —
    bit-for-bit the historical behavior. [`Auto] arms growth-ratio
    triggered sifting with (cur, nxt) pairs glued as groups. [`On]
    additionally runs one sifting pass as soon as the machine is
    built. *)

val of_circuit :
  ?budget:Budget.t -> ?reorder:reorder_mode -> Simcov_netlist.Circuit.t -> t
(** Compile a netlist: one state variable per register, one input
    variable per primary input; one relation conjunct per register.
    [budget] caps the build: its node allowance becomes the manager's
    live-node ceiling and its deadline is checked between conjuncts
    (@raise Budget.Budget_exceeded / @raise Bdd.Node_limit when the
    relation itself does not fit). The long-lived structure (relation
    conjuncts, validity, init, outputs) is registered as GC roots —
    which is also what makes [reorder] (default [`Off]) safe: a
    sifting pass sweeps from exactly those roots. *)

val attach_budget : t -> Budget.t -> unit
(** Re-point a (possibly cached) machine at a fresh budget: the
    budget's node allowance becomes the manager's ceiling and the
    budget's node probe reads this manager — what a daemon does when
    it serves a cache-hit model under a new job's budget. *)

(** {1 The transition relation} *)

val trans : t -> Bdd.t
(** The monolithic conjunction of all partition conjuncts — built on
    first use and cached. This is the representation the partitioned
    image/preimage path is validated against, and the fallback for
    consumers that need the whole relation. *)

val constrain_trans : t -> Bdd.t -> Bdd.t
(** [constrain_trans t pred] is [pred ∧ T] computed by folding the
    partition into [pred], without ever building the monolithic
    relation — cheap when [pred] fixes most state variables. *)

(** {1 Traversal} *)

val image : ?budget:Budget.t -> t -> Bdd.t -> Bdd.t
(** Forward image over valid transitions: the set (over [cur] vars) of
    successors of the given set (over [cur] vars). Partitioned, with
    early quantification. [budget]'s deadline is checked on entry
    (@raise Budget.Budget_exceeded). *)

val preimage : ?budget:Budget.t -> t -> Bdd.t -> Bdd.t
(** States with a valid transition into the given set. Partitioned. *)

val image_mono : ?budget:Budget.t -> t -> Bdd.t -> Bdd.t
(** [image] against the monolithic relation (forces {!trans}); kept as
    the oracle. *)

val preimage_mono : ?budget:Budget.t -> t -> Bdd.t -> Bdd.t

val traverse :
  ?partitioned:bool -> ?frontier:bool -> ?budget:Budget.t -> t -> traversal
(** Least fixpoint of the image from [init], with per-iteration
    statistics. [partitioned] selects the partitioned vs. monolithic
    image; [frontier] selects frontier-based BFS (image only the
    states discovered in the previous iteration) vs. imaging the full
    reached set each round. Both default to [true] — the fast path.
    All four combinations compute the same fixpoint in the same number
    of iterations; the flags exist for benchmarks and as oracles.

    Never raises on exhaustion: one budget step is consumed per
    iteration, and when the deadline, the step budget, or the
    manager's node ceiling runs out the traversal returns the reached
    set so far with [truncated = Some resource] — a sound
    under-approximation of the fixpoint. The reached set and frontier
    are pinned as GC roots for the duration. *)

val reachable : t -> Bdd.t * int
(** Least fixpoint of [image] from [init]; also returns the number of
    iterations (the sequential depth + 1). Memoized: repeated calls
    (e.g. from the counting helpers) reuse the first traversal. *)

val reachable_stats : ?budget:Budget.t -> t -> traversal
(** Like {!reachable} with the full per-iteration statistics. Only an
    exact (non-truncated) traversal is memoized — a truncated one is
    returned as-is so a later call under a fresh budget can still
    complete the fixpoint. *)

(** {1 Counting} *)

val count_states : t -> Bdd.t -> float
(** Number of states in a set over [cur] vars. *)

val count_reachable : t -> float

val count_transitions : t -> float
(** Number of distinct (reachable state, valid input) pairs — for a
    deterministic machine, the number of transitions a tour must
    cover. *)

val count_valid_inputs : t -> float
(** Number of input combinations valid in at least one reachable state
    (the paper's "only 8228 of 2^25 are valid"). *)

val state_space_size : t -> float
(** [2^n_state_vars]. *)

val input_space_size : t -> float

(** {1 Concretization} *)

val pick_state : t -> Bdd.t -> bool array option
(** Some concrete state in the set (arbitrary but deterministic). *)

val state_cube : t -> bool array -> Bdd.t
(** Characteristic function (over [cur] vars) of one concrete state. *)

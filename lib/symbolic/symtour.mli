(** Transition-tour generation over the implicit (BDD) representation.

    The paper generates its tour "by traversal of this implicit
    representation, along with consideration of input don't-cares"
    (Section 6.5) — no explicit state enumeration. This module does
    the same: it tracks the set of covered (state, input) pairs as a
    BDD and repeatedly walks (concretely, one cycle at a time) to the
    nearest state owning an uncovered valid transition, found through
    backward symbolic breadth-first layers.

    The resulting tours are not optimal (neither was the paper's:
    1069 M traversals over 123 M transitions); they exist to exercise
    models whose state spaces are far beyond explicit methods. Use
    {!Simcov_testgen.Tour} when the model fits in arrays. *)

open Simcov_netlist
module Budget = Simcov_util.Budget

type progress = {
  steps : int;  (** inputs applied so far *)
  covered : float;  (** transitions covered *)
  total : float;  (** reachable valid transitions *)
}

type result = {
  word : bool array list;  (** input vectors, in order, from the initial state *)
  complete : bool;  (** all reachable valid transitions covered *)
  progress : progress;
  truncated_by : Budget.resource option;
      (** [Some r] when the tour (or the reachability pass feeding it)
          was cut short by resource [r]; the word and coverage figures
          then describe a sound partial tour. [None] otherwise. *)
}

val generate : ?max_steps:int -> ?budget:Budget.t -> Circuit.t -> result
(** Greedy symbolic tour from the initial state. Stops when complete,
    after [max_steps] (default 100_000) inputs, or when [budget] runs
    out — budget exhaustion (deadline, steps, or the manager node
    ceiling) never raises; it yields the partial word generated so far
    with [truncated_by] set and [complete = false]. If the budgeted
    reachability pass is itself truncated, the tour targets the
    under-approximate reached set and is likewise marked truncated.
    The word is replayable with {!Simcov_netlist.Circuit.step} from
    the initial state. *)

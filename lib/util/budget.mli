(** Resource budgets for long-running symbolic computations.

    A budget bundles the three resources a symbolic traversal can
    exhaust — wall-clock time, iteration/step count, and BDD nodes —
    into one mutable accounting object that is threaded through the
    pipeline (bdd → symbolic → core → bin). Exhaustion is reported
    either as the {!Budget_exceeded} exception (for callers that want
    non-local exit) or by polling {!exceeded} (for callers that return
    partial results tagged with the {!resource} that cut them short,
    as campaign and lint reports do in their [truncated] field).

    Deadlines are measured against a monotonically sampled wall clock:
    the deadline is stored as an absolute instant computed once at
    {!create} time, so repeated checks never extend it. *)

type resource = Time | Steps | Nodes

exception Budget_exceeded of resource
(** Raised by {!check} / {!step} when the corresponding limit is hit. *)

type t

val unlimited : t
(** The no-op budget: never exhausted, shared freely. It keeps no
    state — {!step} on it is a no-op and {!steps_used} stays [0], so
    sharing it cannot leak counts across computations. *)

val create : ?timeout_s:float -> ?max_steps:int -> ?max_nodes:int -> unit -> t
(** [create ()] with no limits behaves like {!unlimited} but owns its
    own step counter. [timeout_s] is a relative wall-clock allowance
    converted to an absolute deadline immediately. Front ends validate
    user input before it gets here (a job's [timeout_s] must be finite
    and [>= 0], its [max_nodes] [>= 1]).
    @raise Invalid_argument if [timeout_s < 0], [max_steps < 0] or
    [max_nodes <= 0]. *)

val max_nodes : t -> int option
(** The node allowance, for wiring into a BDD manager. *)

val steps_used : t -> int

(** {1 The node-budget enforcement split}

    Unlike time and steps, which this module measures itself, live BDD
    nodes are a resource the budget cannot see on its own. Enforcement
    is therefore split:

    - {e Primary}: the engine that allocates nodes caps itself. A BDD
      manager created with [?max_nodes:(max_nodes budget)] enforces
      the allowance in-kernel — collect-and-retry at the ceiling, then
      [Node_limit] / graceful degradation. Under this regime the live
      count never {e exceeds} the allowance, so the budget's own check
      stays quiet.
    - {e Secondary}: the engine registers a live-node probe with
      {!set_node_probe}; {!exceeded} / {!check} then also report
      [Nodes] whenever the probe reads {e strictly above} the
      allowance. This catches engines that track nodes without
      enforcing the cap themselves, and makes [exceeded] an accurate
      oracle for loops (campaign batches, tour steps) that poll the
      budget but never touch BDDs.
    - A command with no node-bearing engine never registers a probe;
      a node allowance passed to it is inert, which the CLI surfaces
      as a warning rather than silently accepting the flag. *)

val set_node_probe : t -> (unit -> int) option -> unit
(** Install (or clear, with [None]) the live-node probe. A single
    slot: the engine registered last wins, which is what the
    degradation ladder wants — an abandoned tier's manager must stop
    being consulted. No-op on {!unlimited} (the shared singleton stays
    stateless). *)

val check : t -> unit
(** @raise Budget_exceeded if the deadline has passed or the step
    budget is already spent. Cheap enough to call per iteration. *)

val step : t -> unit
(** Consume one step, then {!check}. *)

val exceeded : t -> resource option
(** [Some r] if a limit is currently hit, without raising. *)

(** {1 Sub-budgets}

    Domain-sharded computations cannot share one mutable budget: the
    step counter would race. [split] instead carves the parent's
    remaining step allowance into disjoint child slices that each
    domain owns exclusively. *)

val split : t -> n:int -> t array
(** [split t ~n] returns [n] fresh child budgets:

    - each child inherits the parent's {e absolute} deadline (so a
      wall-clock timeout stays a single global instant, not [n]
      restarted ones) and its node allowance;
    - the parent's remaining step allowance ([max_steps - steps_used])
      is divided into [n] near-equal disjoint slices (the first
      [remaining mod n] children get one extra step), and the parent
      is charged for all of it up front — after [split], the parent's
      own [step] raises immediately. Use {!reclaim} to return a
      finished child's unspent steps;
    - children start with no node probe (each sharded engine registers
      its own, if any);
    - splitting an exhausted parent yields children with a zero step
      allowance, which are truncated on their first {!step} — parent
      exhaustion propagates to every child;
    - splitting {!unlimited} yields fresh unconstrained budgets.

    @raise Invalid_argument if [n < 1]. *)

val reclaim : t -> t -> unit
(** [reclaim parent child] returns the [child]'s unspent step
    allowance to [parent] (no-op when either side has no step limit).
    Call it once per child, after the child's domain has been joined. *)

val resource_name : resource -> string
(** ["time"], ["steps"] or ["nodes"]: the name reports record in their
    [truncated] field. *)

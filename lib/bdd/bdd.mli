(** Reduced Ordered Binary Decision Diagrams.

    A from-scratch ROBDD package in the style of Bryant (1986) with a
    shared unique table and per-operation computed caches. It is the
    substitute for the SIS/VIS BDD machinery the paper used to build
    implicit transition-relation representations of test models
    (Sections 2 and 6.5).

    A BDD is a handle into the node store of the manager that built
    it; a handle means nothing to another manager. Variables are
    integers [0 .. num_vars - 1]. The {e order} the
    diagram descends in is a separate notion, the {e level}: a manager
    starts with level = variable index, and dynamic reordering
    ({!reorder}, {!set_auto_reorder}, {!set_order}) permutes the
    var↔level map while preserving every held handle's identity and
    boolean function. Functions documented "by index" ({!topvar},
    {!support}, {!sat_count}, {!eval}) are insensitive to the order;
    {!any_sat} lists its cube in level order, and {!rename}'s fast
    path depends on levels. *)

type man
(** A BDD manager: unique table, caches, variable count, and the
    var↔level order map. *)

type t
(** A BDD: a handle naming one node slot of its manager. Nodes are
    hash-consed, so two handles of one manager are {!equal} exactly
    when they denote the same boolean function. A handle is stable
    across reordering, and valid for as long as its node is live (see
    the rooting contract below). *)

exception Node_limit of int
(** Raised (with the current live-node count) when an operation needs
    a new node, the manager's node ceiling is reached, and garbage
    collection cannot reclaim enough space — or when a reordering pass
    had to abort for the same reason. The operation's partial work is
    discarded; the manager remains usable. *)

val man : ?cache_size:int -> ?max_nodes:int -> int -> man
(** [man nvars] creates a manager for variables [0 .. nvars - 1] with
    the identity order. [max_nodes] bounds the number of {e live}
    nodes (default: the 2^26 packing limit); when the bound is hit the
    manager garbage-collects from the registered roots and retries
    before raising {!Node_limit}. *)

val num_vars : man -> int
val node_count : man -> int
(** Number of currently live nodes (unique-table size); decreases
    after a {!gc}. *)

val peak_node_count : man -> int
(** High-water mark of {!node_count} over the manager's lifetime. *)

val set_max_nodes : man -> int option -> unit
(** Adjust the live-node ceiling; [None] removes it. *)

(** {1 Roots and garbage collection}

    The manager's garbage collector is mark-and-sweep over the unique
    table: nodes reachable from registered roots (and from the
    arguments of the operation in flight) survive, all other table
    entries are dropped and their slots freed for reuse, and every
    operation cache is invalidated. It runs when {!gc} is called
    explicitly, or automatically when the node ceiling is reached
    mid-operation (the operation is then retried from its pinned
    arguments).

    {b Contract}: on a manager with a node ceiling, or when calling
    {!gc} directly, every BDD held across public operations must be
    reachable from a registered root. Two cases are pinned
    automatically: the arguments of every operation in flight (at any
    nesting depth), and literal nodes ({!var} / {!nvar}), which live
    for the manager's lifetime. Everything else held across an
    operation needs {!add_root} / {!protect} / {!pinned}.

    A handle left unrooted across a collection is {e dangling}: the
    collection frees its slot, and a later node may take the slot
    over. While the slot is free, every operation below that takes a
    BDD (all but {!is_true}, {!is_false} and {!equal}) refuses
    the handle with [Invalid_argument]; once the slot is reused the
    handle silently names the new node. A handle from another manager
    is refused the same way when its slot lies beyond this manager's
    store, and is otherwise equally meaningless.

    Reordering operates under the same contract: a sifting pass first
    garbage-collects (the sweep set above), then rewrites the
    surviving table. Enabling {!set_auto_reorder} therefore opts the
    manager into the contract exactly as setting a node ceiling
    does. *)

type root
(** A registration handle; updatable, so a traversal can keep exactly
    its current frontier pinned. *)

val add_root : man -> t -> root
val set_root : man -> root -> t -> unit
val remove_root : man -> root -> unit

val protect : man -> t -> t
(** [protect m t] registers [t] as a root for the manager's lifetime
    and returns it — for long-lived structures (transition-relation
    conjuncts, initial states) that are never unpinned. *)

val pinned : man -> t -> (unit -> 'a) -> 'a
(** [pinned m t f] runs [f] with [t] registered as a root and
    unregisters it on the way out (normal return or exception) — the
    scoped pin for an intermediate that must stay live across the
    operations [f] performs. *)

val gc : man -> int
(** Collect now; returns the number of nodes reclaimed. *)

type gc_stats = {
  runs : int;  (** collections performed *)
  reclaimed : int;  (** total nodes reclaimed across all runs *)
  live : int;  (** current live nodes *)
  peak_live : int;  (** lifetime high-water mark *)
}

val gc_stats : man -> gc_stats

(** {1 Dynamic variable reordering}

    Rudell-style sifting: each variable (or glued group) is moved
    through every level by adjacent-level swaps and left at the
    position minimising the total live-node count. Node slots are
    rewritten in place, so every held [t] keeps denoting the same
    boolean function through the same handle; all operation caches
    are invalidated. *)

val reorder : man -> unit
(** Run one sifting pass now, under the GC rooting contract (a
    collection happens first — unrooted nodes are swept).
    @raise Invalid_argument if called while an operation is in flight
    (from a {!rename} substitution, say).
    @raise Node_limit if the node ceiling forced the pass to abort;
    the manager is left consistent and usable, at whatever order the
    completed swaps produced. *)

val set_auto_reorder : man -> ?ratio:float -> ?min_nodes:int -> bool -> unit
(** [set_auto_reorder m true] arms automatic sifting: a pass runs
    before a public operation whenever the live count exceeds [ratio]
    (default 2.0, must be > 1.0) times the live count after the
    previous pass, and at least [min_nodes] (default 4096) nodes are
    live. Auto passes never raise: an abort simply leaves the manager
    at the order reached. Enabling this opts into the GC rooting
    contract (see above). *)

val set_groups : man -> int list list -> unit
(** Declare glued variable groups (e.g. current/next-state pairs):
    each group moves as one block during sifting, preserving the
    relative order inside it. Groups must be disjoint, non-empty, and
    occupy contiguous levels at declaration time.
    @raise Invalid_argument otherwise. *)

val set_order : man -> int array -> unit
(** [set_order m perm] forces the order to [perm] (a permutation of
    [0 .. num_vars - 1]; [perm.(l)] becomes the variable at level
    [l]), by adjacent swaps under the rooting contract.
    @raise Node_limit as for {!reorder}. *)

val order : man -> int array
(** The current order: element [l] is the variable at level [l]. *)

type reorder_stats = {
  reorder_runs : int;  (** sifting passes completed *)
  reorder_swaps : int;  (** total adjacent-level swaps *)
  last_nodes_before : int;  (** live nodes entering the last pass *)
  last_nodes_after : int;  (** live nodes leaving the last pass *)
}

val reorder_stats : man -> reorder_stats

(** {1 Constants and literals} *)

val bfalse : man -> t
val btrue : man -> t
val var : man -> int -> t
(** Positive literal. Created on first use and pinned for the
    manager's lifetime, so a bare literal is always safe to hold
    across other operations. @raise Invalid_argument out of range. *)

val nvar : man -> int -> t
(** Negative literal; same lifetime guarantee as {!var}. *)

val of_bool : man -> bool -> t

(** {1 Structure} *)

val is_true : t -> bool
val is_false : t -> bool
val equal : t -> t -> bool
(** Same node, hence same function (within one manager). *)

val topvar : man -> t -> int
(** The {e variable index} tested at this node — under a non-identity
    order this need not be the minimum of {!support}; the node merely
    sits at the outermost {e level} of the diagram.
    @raise Invalid_argument on constants. *)

val low : man -> t -> t
val high : man -> t -> t
(** The else- and then-children; a constant is its own child. *)

val size : man -> t -> int
(** Number of distinct nodes reachable from this root (including
    constants). *)

(** {1 Boolean connectives} *)

val bnot : man -> t -> t
val band : man -> t -> t -> t
val bor : man -> t -> t -> t
val bxor : man -> t -> t -> t
val biff : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val conj : man -> t list -> t

(** {1 Quantification and substitution} *)

val and_exists : man -> int list -> t -> t -> t
(** Fused relational product: the existential quantification of
    [vars] from [band f g], without building the full conjunction —
    the workhorse of image computation. *)

val and_exists_list : man -> int list -> t list -> t
(** [and_exists_list m vars conjuncts] quantifies [vars] out of
    [conj m conjuncts] with early
    quantification: conjuncts are folded in the given order and each
    variable of [vars] is quantified out together with the last
    conjunct whose support mentions it, so intermediate products never
    carry dead variables. The conjunct order is the caller's
    clustering/ordering heuristic; the result does not depend on it.
    [and_exists_list m vars []] is [btrue m]. *)

val rename : man -> (int -> int) -> t -> t
(** Variable renaming: the function mapping assignment [a] to
    [f (a ∘ subst)]. The mapping must be injective on the support
    ({!Invalid_argument} otherwise — a non-injective substitution has
    no well-defined renamed function). When the substitution is
    monotone {e in the current level order} on the support, the
    renaming is a fast structural rewrite; otherwise it falls back to
    a (correct, slower) ITE composition. Note the precondition for the
    fast path is about {e levels}, not indices: after reordering, an
    index-monotone map may be level-non-monotone — the dispatcher
    checks and picks the right path, callers need not care. *)

(** {1 Satisfiability} *)

val any_sat : man -> t -> (int * bool) list
(** One satisfying partial assignment (don't-care variables omitted),
    in descent order — i.e. sorted by current level, not necessarily
    by variable index.
    @raise Not_found on the false BDD. *)

val sat_count : man -> nvars:int -> t -> float
(** Number of satisfying assignments over a space of [nvars] variables
    (as a float: the paper's models have up to 2^25 assignments). The
    counted space is variable {e indices} [0 .. nvars - 1]; the result
    is independent of the current order.
    @raise Invalid_argument if [nvars] is negative or smaller than some
    variable in the BDD's support (the count would silently be wrong
    otherwise). *)

val support : man -> t -> int list
(** Variable indices the function depends on, ascending by index
    (independent of the current order). *)

val eval : man -> t -> (int -> bool) -> bool
(** Evaluate under a total assignment. *)

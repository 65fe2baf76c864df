(** Primary-output cone analysis (pass [dead-logic], codes
    [SA301]/[SA302]).

    Finds latches and gates outside {e every} primary-output fanin
    cone — state that can never affect anything observable. These are
    exactly the paper's "state elements that do not affect outputs"
    (test-model guidelines, §5 / Requirement 2): sound candidates for
    the topological state-variable abstraction that
    {!Simcov_abstraction.Netabs.cone_reduce} implements. The pass
    therefore doubles as a hint generator: {!hints} is the
    machine-readable list the abstraction workflow consumes, and
    {!free_list} turns it into the index list
    {!Simcov_abstraction.Netabs.free_regs} /
    [cone_reduce] would remove.

    Cone membership is computed on the lowered {!Netgraph} (shared
    logic counted once). The input constraint is {e not} an output:
    a latch read only by the constraint is still reported dead — the
    paper measures observability against outputs — but the hint
    records [feeds_constraint] so the caller knows that removing it
    also relaxes the input space. *)

type hint = {
  reg_name : string;
  reg_index : int;
  group : string;
  feeds_constraint : bool;
      (** the latch can reach the input-constraint root *)
  next_gates : int;  (** AST size of its next-state logic *)
}

(** Reusable cone analysis over an already-lowered graph, so an
    orchestrator lowers once and shares it across passes. *)
type analysis = {
  graph : Netgraph.t;
  map : Netgraph.circuit_map;
  observable : bool array;
  feeds_constraint : bool array;
}

val analyze : Simcov_netlist.Circuit.t -> analysis
val analyze_graph : Netgraph.t * Netgraph.circuit_map -> analysis
val hints_of : Simcov_netlist.Circuit.t -> analysis -> hint list
val check_of : Simcov_netlist.Circuit.t -> analysis -> Diag.t list

val hints : Simcov_netlist.Circuit.t -> hint list
(** Dead latches in register-index order. *)

val free_list : hint list -> int list
(** Register indices, ascending — the argument
    {!Simcov_abstraction.Netabs.free_regs} expects, and the set
    {!Simcov_abstraction.Netabs.cone_reduce} deletes. *)

val hint_to_json : hint -> Simcov_util.Json.t

val check : Simcov_netlist.Circuit.t -> Diag.t list
(** [SA301] (warning) per dead latch; one [SA302] (info) totalling the
    dead gate nets when any exist. *)

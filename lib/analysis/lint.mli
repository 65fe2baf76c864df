(** Pass orchestrator: runs every analysis over a circuit and bundles
    the findings into one {!report}.

    Pass order matters only once: {!Structural.check_circuit} runs
    first, and when it reports an out-of-range leaf ([SA405]) the
    lowering-dependent passes (comb-cycle, graph-structural, ternary,
    dead-logic) are skipped — lowering such a circuit would crash, and
    any further finding would be noise next to a malformed netlist.

    The whole run is budget-aware: the {!Simcov_util.Budget.t} is
    stepped once per pass and threaded into the ternary fixpoint; on
    {!Simcov_util.Budget.Budget_exceeded} the report carries the
    partial findings with {!report.truncated} set, never an
    exception. *)

type report = {
  name : string;  (** model name, for headers and JSON *)
  n_inputs : int;
  n_regs : int;
  n_outputs : int;
  n_nets : int;
      (** hash-consed nets in the lowered graph; [0] when lowering was
          skipped because of [SA405] *)
  passes : string list;  (** pass ids actually run, in order *)
  skipped : string list;
      (** pass ids scheduled but not run (budget truncation); a pass
          that completed one of its two phases stays in [passes] only *)
  diags : Diag.t list;  (** sorted with {!Diag.compare} *)
  hints : Deadlogic.hint list;
      (** dead-latch abstraction hints (empty when dead-logic was
          skipped) *)
  truncated : Simcov_util.Budget.resource option;
}

val run :
  ?budget:Simcov_util.Budget.t ->
  ?name:string ->
  ?against:Simcov_netlist.Circuit.t ->
  Simcov_netlist.Circuit.t ->
  report
(** [run c] lints [c]. [against] is the {e concrete} model [c] was
    abstracted from; when given, the homo-precheck cone-compatibility
    pass ({!Homo_precheck.check_circuits}) runs too. *)

val to_json : report -> Simcov_util.Json.t
(** The documented schema (DESIGN.md §7): an object with [schema]
    (["simcov-lint/1"]), [model] stats, [passes], [skipped],
    [diagnostics] (see {!Diag.to_json}), [hints] and [truncated]. *)

val pp : Format.formatter -> report -> unit
(** Human rendering: header, one line per diagnostic, hint lines, and
    a severity tally. *)

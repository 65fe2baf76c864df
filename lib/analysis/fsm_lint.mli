(** FSM-level static analysis: certify Theorem 1's preconditions
    before trusting a transition tour.

    The paper's completeness result (a transition tour detects every
    error in the model's fault class) is conditional on facts about the
    {e machine}: strong connectivity (a closed tour must exist),
    minimality (equivalent states void the state-counting argument),
    ∀k-distinguishability (Definition 5 — the exposure window that
    turns excitation into detection), uniform output errors
    (Definition 2 / Requirement 1) and the absence of masked transfer
    errors (Definition 4 / Requirement 4). Nothing in a coverage
    number says whether those hold; this pass suite checks them
    statically on the explicit Mealy machine and reports findings
    through the shared {!Diag} core under the [SA6xx] block:

    - [well-formed] — SA601 dead-end reachable state, SA602
      unreachable state, SA603 dead input symbol, SA604 out-of-range
      transition target, SA605 partial specification (Info).
      Determinism needs no check: {!Simcov_fsm.Fsm.t} is functional,
      hence deterministic by construction, and
      {!Simcov_fsm.Fsm.of_table} rejects duplicate rows.
    - [connectivity] — SA610 when the reachable transition graph is
      not strongly connected, with the SCC condensation cut edges as
      the witness (shared Tarjan via {!Simcov_graph.Scc}).
    - [minimality] — SA620 per equivalent state pair (partition
      refinement via {!Simcov_fsm.Fsm.minimize}), witnessed by a merge
      word driving both states to a common successor.
    - [distinguishability] — SA630 (Info) with the smallest [k] such
      that every reachable pair is ∀k-distinguishable, or SA631 naming
      the first offending pair and a masking word of length [k_bound]
      on which their outputs agree; both read the ∀k verdict of the
      shared {!Simcov_testgen.Tour.facts}.
    - [fault-structural] — SA640 when a non-uniform
      ({!Simcov_coverage.Fault.Conditional_output}) error escapes the
      transition tour (Requirement 1), counted per site; SA641 when a
      transfer error is masked on the tour (Requirement 4), replayed
      through the campaign engine (so [lint --fsm] metrics carry
      [campaign.*] counters) and windowed by
      {!Simcov_coverage.Detect.masked_windows}. Both carry concrete
      fault + word witnesses, found on the shared tour padded by the
      certified [k] ({!Simcov_testgen.Tour.pad}).
    - [suite-cover] — static prediction of state/transition coverage
      of a word list by graph walk (no fault simulation): SA650 word
      applies an invalid input, SA651 transitions missed by the whole
      suite, SA652 redundant word.

    The suite is budget-aware in the style of {!Lint}: passes that the
    budget cuts off are listed in {!report.skipped}, never silently
    absent. *)

open Simcov_fsm

type stats = {
  n_states : int;
  n_reachable : int;
  n_inputs : int;
  n_transitions : int;  (** reachable valid transitions *)
  n_classes : int;  (** equivalence classes over reachable states *)
  n_sccs : int;  (** SCCs of the reachable transition graph *)
  certified_k : int option;
      (** smallest [k] with every reachable pair ∀k-distinguishable;
          [None] when uncertified (non-minimal, bound exceeded, or the
          pass was skipped) *)
}

type suite_report = {
  n_words : int;
  suite_states : int;  (** states covered by the whole suite *)
  suite_transitions : int;  (** transitions covered by the whole suite *)
  redundant : int list;  (** 0-based indices of words adding no coverage *)
  missed : (int * int) list;  (** reachable (state, input) left uncovered *)
}

type report = {
  name : string;
  stats : stats;
  passes : string list;  (** pass ids run, in order *)
  skipped : string list;  (** pass ids scheduled but cut off by budget *)
  diags : Diag.t list;  (** sorted with {!Diag.compare} *)
  suite : suite_report option;  (** present iff a suite was analyzed *)
  truncated : Simcov_util.Budget.resource option;
}

val run :
  ?budget:Simcov_util.Budget.t ->
  ?name:string ->
  ?k_bound:int ->
  ?facts:Simcov_testgen.Tour.facts ->
  ?seed:int ->
  ?suite:int list list ->
  Fsm.t ->
  report
(** [run m] lints the machine. [facts] default to
    {!Simcov_testgen.Tour.facts} under [k_bound] (default 8, matching
    {!Simcov_core}'s certificate default; at least 1), solved unless
    the machine is malformed (SA604). [seed] feeds the transfer-fault
    sample of the fault-structural pass when the population is too
    large to enumerate (default 7). [suite] is a list of input words
    to analyze with the suite-cover pass. Each pass costs one budget
    step; the fault-structural campaign runs unbudgeted. *)

val count : report -> Diag.severity -> int
val worst : report -> Diag.severity option

val fails : report -> threshold:Diag.severity -> bool
(** Does any diagnostic reach [threshold]? (The [--fail-on] test.) *)

val schema_id : string
(** ["simcov-fsmlint/1"]. *)

val to_json : report -> Simcov_util.Json.t
(** Versioned schema: [schema], [model] stats (including
    [certified_k]), [passes], [skipped], [diagnostics], [suite]
    (object or [null]) and [truncated]. *)

val pp : Format.formatter -> report -> unit
(** Human rendering: header with certification status, one line per
    diagnostic, suite summary, severity tally. *)

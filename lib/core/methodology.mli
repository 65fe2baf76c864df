(** End-to-end validation driver (Figure 1 of the paper).

    Ties the pieces together for the DLX case study: build the test
    model, check Requirements, certify completeness (Theorems 1–3),
    generate the transition tour, concretize it into a DLX program,
    simulate specification and implementation, and compare at the
    instruction-commit checkpoints. *)

module Budget = Simcov_util.Budget

type tier =
  | Partitioned_symbolic  (** conjunct-per-latch relation, early quantification *)
  | Explicit  (** plain enumeration of the tabulated machine; never fails *)

val tier_name : tier -> string

type symbolic_figures = {
  sym_states : float;  (** reachable states *)
  sym_transitions : float;  (** (reachable state, valid input) pairs *)
  tier : tier;  (** representation that actually produced the figures *)
  degradations : string list;
      (** the note of the abandoned symbolic tier when the explicit
          tier produced the figures; empty otherwise *)
}

type run_report = {
  config : Simcov_dlx.Testmodel.config;
  lint_errors : Simcov_analysis.Diag.t list;
      (** error-severity findings from the static-analysis front gate
          over the control netlists (warnings are not collected here;
          run [simcov lint] for the full report) *)
  fsm_lint : Simcov_analysis.Fsm_lint.report;
      (** the FSM-level precondition certification (SA6xx) of the
          tabulated test model: strong connectivity, minimality, the
          certified ∀k bound ([fsm_lint.stats.certified_k]) and the
          R1/R4 structural fault checks. Warnings do not fail the run;
          error-severity findings do (at the CLI, like [lint_errors]). *)
  model_states : int;
  model_transitions : int;
  symbolic : symbolic_figures;
      (** the same counts recomputed symbolically — or at whatever
          point on the degradation ladder the budget allowed *)
  requirements : Requirements.report;
  certificate : (Completeness.certificate, Completeness.failure) result;
  tour_length : int;
  program_length : int;  (** concretized DLX program, including filler slots *)
  issued : int;  (** instructions the tour program issues *)
  bug_results : (string * bool) list;  (** seeded pipeline bug -> detected? *)
  n_bugs_detected : int;
  bug_coverage : (string * Simcov_dlx.Pipeline.bugs) Simcov_campaign.Campaign.report;
      (** the pipeline bug campaign's unified report (budget-aware:
          [truncated] when the budget ran out mid-campaign) *)
  fsm_fault_coverage : Simcov_coverage.Detect.report;
      (** FSM-level fault injection on the test model itself *)
  timings : (string * float) list;
      (** wall-clock seconds per phase, in run order (lint, tabulate,
          fsm_lint, symbolic, requirements, certificate, tour,
          concretize, bug_campaign, fsm_campaign); the same durations
          are observed on the [methodology.<phase>] metrics timers *)
}

val campaigns_truncated : run_report -> bool
(** Did either fault campaign run out of budget? Surfaced as the
    resource-limit exit code by the CLI. *)

val validate_dlx :
  ?config:Simcov_dlx.Testmodel.config ->
  ?seed:int ->
  ?budget:Budget.t ->
  ?reorder:Simcov_symbolic.Symfsm.reorder_mode ->
  ?lanes:int ->
  ?jobs:int ->
  unit ->
  run_report
(** Run the full methodology. Before any symbolic effort is spent, the
    static-analysis passes ({!Simcov_analysis.Lint}) sweep the DLX
    control netlists; error-severity findings land in
    [lint_errors] (and fail the run at the CLI). With the default
    configuration the
    certificate holds, FSM fault coverage is 100% and all seeded
    pipeline bugs are detected; with [track_dest = false] or
    [observable_dest = false] the corresponding requirement fails and
    coverage drops — the paper's Section 6.3 ablation.

    [budget] governs resources. Its node allowance caps the BDD
    managers of the symbolic phase, which degrades gracefully down the
    {!tier} ladder (partitioned → explicit) rather than
    failing — a run under an arbitrarily small node budget still
    returns a complete report, with [symbolic.degradations] recording
    what was given up. The deadline/step budget, by contrast, bounds
    the whole pipeline: it is checked between the early phases and
    @raise Budget.Budget_exceeded when it runs out there, since a
    report without a tour would not be a validation. Once the tour
    exists, the two fault campaigns degrade instead: exhausting the
    budget mid-campaign yields [truncated]-tagged partial campaign
    reports (see {!campaigns_truncated}), never an exception.

    [lanes] and [jobs] tune the campaign legs: [lanes] selects the
    lane width of the FSM fault campaign (wide bit-sliced lanes beyond
    [Sys.int_size]) and [jobs] shards both campaigns across that many
    domains — results are bit-identical to the sequential run. *)

val pp_run_report : Format.formatter -> run_report -> unit

(** {1 The Section 6.3 ablation}

    Dropping the destination-register addresses from the test-model
    state ("abstracting too much"). The abstract (dest-less) model
    still admits a transition tour, but that tour, replayed against
    the {e refined} model, covers only a fraction of its transitions:
    output errors that are non-uniform at the abstract level are
    excited only along histories the abstract tour need not take. *)

type ablation_report = {
  refined_transitions : int;
  abstract_transitions : int;
  refined_covered_by_abstract_tour : int;
  refined_tour_length : int;
  abstract_tour_length : int;
  quotient_conflict : bool;  (** the state merge is not an exact abstraction *)
  fault_coverage_abstract_tour : Simcov_coverage.Detect.report;
      (** faults injected on the refined model, tested with the
          abstract model's tour *)
  fault_coverage_refined_tour : Simcov_coverage.Detect.report;
      (** same faults, refined model's own tour *)
}

val ablation_dest_tracking :
  ?config:Simcov_dlx.Testmodel.config -> ?seed:int -> unit -> ablation_report

val pp_ablation_report : Format.formatter -> ablation_report -> unit

(** Stuck-at fault simulation on netlists.

    The classical gate-level test-quality metric, provided as a third
    reference point next to design-error (FSM fault) coverage and the
    observability metric: a {e stuck-at} fault pins a register output
    or a primary input to a constant. A test word detects the fault
    when the faulty circuit's outputs diverge from the good circuit's
    at some step, and {e excites} it when the faulted net carries the
    opposite of its pinned value in the golden circuit — so stuck-at
    campaigns report the same four-column verdict (effective / excited
    / detected / missed) as FSM-fault campaigns.

    The paper's methodology targets {e design} errors, not fabrication
    faults; running both metrics on the same stimuli shows how
    different the populations are (a tour tuned for transition
    coverage is decent but not complete for stuck-ats, and vice
    versa).

    Campaigns route through the shared {!Simcov_campaign.Campaign}
    driver with true bit-parallel lanes: bit [l] of every packed int is
    a net value in faulty circuit [l], and one {!Expr.eval_lanes} pass
    evaluates all lanes at once. *)

open Simcov_netlist
module Campaign = Simcov_campaign.Campaign

type site = Reg_output of int | Primary_input of int

type fault = { site : site; stuck : bool }

val all_faults : Circuit.t -> fault list
(** Both polarities at every register output and primary input. *)

(** {1 Campaigns} *)

type report = fault Campaign.report
(** Every stuck-at fault is effective, so [effective] counts every
    fault evaluated. *)

val campaign_outcome :
  ?budget:Simcov_util.Budget.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?max_workers:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  ?resume:(fault -> Campaign.verdict option) ->
  ?checkpoint:fault Campaign.checkpoint ->
  ?should_stop:(unit -> bool) ->
  Circuit.t ->
  fault list ->
  bool array list ->
  fault Campaign.outcome
(** Bit-parallel batched campaign via the shared driver, returning the
    report and per-fault verdicts; budget exhaustion yields a
    [truncated] partial report. A batch is one native word
    ([Sys.int_size] lanes) and visits every step of the word. [lanes]
    is ignored; it is kept only because the frozen benchmark harness
    ([perfbench/]) passes it. [jobs] shards
    faults across domains; the driver's crash-safety hooks (resume /
    checkpoint / clean stop / shard fault isolation) are described in
    {!Simcov_campaign.Campaign}. The one-fault-at-a-time scalar
    reference it is tested against lives in the test suite. *)

val coverage_pct : report -> float
val pp_report : Format.formatter -> report -> unit
val fault_to_json : fault -> Simcov_util.Json.t

val fault_key : fault -> string
(** A stable, injective textual key (["r:N:b"] / ["i:N:b"]) — the
    coverage-database record key: equal faults have equal keys across
    runs and processes. *)

val to_json :
  ?extra:(string * Simcov_util.Json.t) list -> report -> Simcov_util.Json.t
(** [simcov-campaign/1] rendering with structured missed faults. *)

val pp_fault : Format.formatter -> fault -> unit

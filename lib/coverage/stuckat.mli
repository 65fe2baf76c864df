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

val run_verdict : Circuit.t -> fault -> bool array list -> Campaign.verdict
(** Scalar lockstep reference of good vs faulty circuit on the word;
    the faulty circuit sees the pinned value everywhere the signal is
    read, including in the input-constraint check (a combination
    turning invalid only when faulty counts as detection, mirroring
    {!Detect}; one invalid only for the {e golden} circuit is likewise
    a detection, and invalid for both ends the word). *)

val detects : Circuit.t -> fault -> bool array list -> bool

val site_differs : fault -> Circuit.state -> bool array -> bool
(** The excitation predicate: does the faulted net carry the opposite
    of its pinned value in the golden circuit under this state and
    input vector? *)

(** {1 Campaigns} *)

type 'f campaign_report = 'f Campaign.report = {
  backend : string;
  total : int;
  effective : int;  (** every stuck-at fault is effective *)
  excited : int;
  detected : int;
  missed : 'f list;
  skipped : int;
  truncated : Simcov_util.Budget.resource option;
  shard_failures : Campaign.shard_failure list;
      (** shards lost to worker faults under [~jobs]; empty on healthy
          runs *)
}

type report = fault campaign_report

val campaign :
  ?budget:Simcov_util.Budget.t ->
  ?jobs:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  Circuit.t ->
  fault list ->
  bool array list ->
  report
(** Bit-parallel batched campaign via the shared driver; budget
    exhaustion yields a [truncated] partial report. A batch is always
    one native word ([Sys.int_size] lanes): every step recomputes every
    lane's nets, so wider batches would only add allocation. [jobs > 1]
    shards faults across domains (see {!Simcov_campaign.Campaign}). *)

val campaign_outcome :
  ?budget:Simcov_util.Budget.t ->
  ?lanes:int ->
  ?jobs:int ->
  ?max_workers:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  ?resume:(fault -> Campaign.verdict option) ->
  ?checkpoint:fault Campaign.checkpoint ->
  ?should_stop:(unit -> bool) ->
  ?shard_retries:int ->
  ?retry_backoff_s:float ->
  Circuit.t ->
  fault list ->
  bool array list ->
  fault Campaign.outcome
(** As {!campaign}, additionally returning per-fault verdicts and the
    driver's crash-safety hooks (resume / checkpoint / clean stop /
    shard fault isolation — see {!Simcov_campaign.Campaign}). [lanes]
    is accepted for symmetry with {!Detect.campaign_outcome} and
    ignored. *)

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

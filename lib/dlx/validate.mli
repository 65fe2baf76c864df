(** Implementation validation: spec vs. pipeline at commit checkpoints.

    Runs the same program through the architectural simulator and the
    pipelined implementation and compares the commit streams — the
    right half of the paper's Figure 1 ("Behavioral Simulator" vs "RTL
    Simulator" with output comparison at checkpoints). *)

type mismatch = {
  index : int;  (** position in the commit stream *)
  expected : Spec.commit option;  (** [None]: implementation committed extra work *)
  actual : Spec.commit option;  (** [None]: implementation committed too little *)
}

type outcome = Pass of int  (** number of commits compared *) | Fail of mismatch

val run_program :
  ?bugs:Pipeline.bugs ->
  ?max_steps:int ->
  ?preload_regs:(int * int32) list ->
  ?preload_mem:(int * int32) list ->
  Isa.t array ->
  outcome
(** Execute the program on both models (optionally pre-loading state on
    both sides identically) and compare commit-by-commit. *)

(** {1 Bug campaigns}

    Campaigns over the {!Pipeline.bug_catalog} route through the shared
    {!Simcov_campaign.Campaign} driver: a fault is a named bug
    configuration, a stimulus element is a whole test program, and the
    driver provides budgeting, early exit per bug, and the unified
    report. Excitation equals detection for this backend — the commit
    stream offers no finer probe than a mismatch. *)

module Campaign = Simcov_campaign.Campaign

type test_program = {
  program : Isa.t array;
  preload_regs : (int * int32) list;
  preload_mem : (int * int32) list;
}

val test_program :
  ?preload_regs:(int * int32) list ->
  ?preload_mem:(int * int32) list ->
  Isa.t array ->
  test_program

type campaign_result = {
  bug_results : (string * bool) list;
      (** bug name, detected? (bugs skipped by a truncated budget are
          listed undetected — see [report.skipped]) *)
  n_detected : int;
  n_bugs : int;
  report : (string * Pipeline.bugs) Campaign.report;
      (** the unified campaign report (schema [simcov-campaign/1]) *)
}

val bug_campaign_tests :
  ?budget:Simcov_util.Budget.t ->
  ?jobs:int ->
  ?on_batch:(Campaign.progress -> unit) ->
  test_program list ->
  campaign_result
(** A bug is detected if any of the test programs exposes it; one
    budget step is consumed per bug, and exhaustion yields a
    [truncated] partial report (never an exception). The backend is
    scalar (one bug per batch), so [jobs] shards whole bugs across
    domains. *)

val bug_campaign : Isa.t array -> campaign_result
(** Run the full {!Pipeline.bug_catalog} against one test program. *)

val bug_campaign_multi : Isa.t array list -> campaign_result
(** A bug is detected if any of the programs exposes it. *)

val pp_outcome : Format.formatter -> outcome -> unit

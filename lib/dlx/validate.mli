(** Implementation validation: spec vs. pipeline at commit checkpoints.

    Runs the same program through the architectural simulator and an
    implementation and compares the commit streams — the right half of
    the paper's Figure 1 ("Behavioral Simulator" vs "RTL Simulator"
    with output comparison at checkpoints).

    The specification runs once per test program into a {!reference}
    commit array; each implementation then steps cycle by cycle
    against it and stops at the first commit that mismatches, is
    missing or is extra. A bug campaign therefore runs the spec once
    per program, not once per bug, and a buggy pipeline runs only to
    its first wrong commit.

    {b Cut comparisons.} The reference runs the program to its halt,
    bounded by a step count ([max_steps], 1,000,000 unless
    {!run_program} is given another). A program still running at the
    bound is {e cut} there: the comparison covers the reference's
    commits only, never reports an implementation commit past the cut
    as a failure, and passes as [Pass { cut = true; _ }]. A cut pass
    says nothing about the program's later commits. *)

type mismatch = {
  index : int;  (** position in the commit stream *)
  expected : Spec.commit option;  (** [None]: implementation committed extra work *)
  actual : Spec.commit option;  (** [None]: implementation committed too little *)
}

type outcome =
  | Pass of {
      compared : int;  (** commits compared *)
      cut : bool;
          (** the program had not halted at the step bound: only its
              first [compared] commits were compared *)
    }
  | Fail of mismatch

val run_program :
  ?bugs:Pipeline.bugs ->
  ?max_steps:int ->
  ?preload_regs:(int * int32) list ->
  ?preload_mem:(int * int32) list ->
  Isa.t array ->
  outcome
(** Execute the program on both models (optionally pre-loading state on
    both sides identically) and compare commit by commit, in lockstep.
    [max_steps] (default 1,000,000) bounds the specification run; see
    the cut comparisons above. *)

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

val output_test_program : out_channel -> test_program -> unit
(** A test program as assembly: a [# preload rN = V] line per register
    and a [# preload mA = V] line per memory word it preloads, then its
    instructions (what [tour --emit-program] writes and [run] reads). *)

val parse_test_program : string -> (test_program, string) result
(** The inverse; the directives are comments to {!Isa.parse_program}.
    A malformed directive, or one naming no register r0..r31, is an
    error. *)

val pipeline : ?bugs:Pipeline.bugs -> test_program -> Pipeline.t
(** The implementation at reset with the program's preloads applied. *)

type reference
(** A test program's specification commits, run once, to its halt or
    to the default step bound. *)

val reference : test_program -> reference

val check : reference -> (unit -> Spec.commit option) -> outcome
(** [check r next] holds an implementation's commits against [r] in
    order: [next ()] runs the implementation to its next commit, or
    returns [None] once it has stopped. The comparison stops at the
    first mismatching, missing or extra commit, and at a cut without
    asking for a commit past it. Each implementation commit held
    against a reference commit counts one on
    [validate.commits_compared]. *)

(** {1 Bug campaigns}

    Campaigns over the {!Pipeline.bug_catalog} route through the shared
    {!Simcov_campaign.Campaign} driver: a fault is a named bug
    configuration, a stimulus element is a whole test program, and the
    driver provides budgeting, early exit per bug, and the unified
    report. Each program's {!reference} is computed once, before the
    driver shards the bugs, and every bug's pipeline is compared
    against it in lockstep. A bug is detected only by a real mismatch:
    a program cut at the step bound hides whatever the bug does past
    the cut. Excitation equals detection for this backend — the commit
    stream offers no finer probe than a mismatch. *)

module Campaign = Simcov_campaign.Campaign

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

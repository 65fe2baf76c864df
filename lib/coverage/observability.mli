(** Observability-based coverage of netlist simulations.

    The paper surveys "a coverage metric based on observability/error
    propagation" (Devadas-Ghosh-Keutzer, cited as [11]) among the
    specification-validation metrics that do {e not} measure design
    error coverage. This module implements that style of metric for
    our netlists so the contrast can be made concrete: a test set can
    toggle every latch and still miss errors, and conversely.

    For an input word applied from the initial state:
    - a register {e toggles} when its value changes at some step;
    - a register is {e observed} when flipping its value at some step
      changes some primary output within the next [horizon] cycles
      (error propagation to an observable point).

    Both are necessary conditions for the word to detect a stuck-type
    error at the register, which makes the metric a cheap screen —
    and provably not a guarantee, unlike the certified tours of
    {!Simcov_core.Completeness}. *)

open Simcov_netlist

type report = {
  n_regs : int;
  toggled : int;
  observed : int;
  toggled_and_observed : int;
  steps : int;
}

val analyze : ?horizon:int -> Circuit.t -> bool array list -> report
(** [analyze c word] simulates [word] (default horizon 4). The word's
    vectors must be valid at each step. O(|regs| * |word| * horizon)
    simulation work. *)

val toggle_pct : report -> float
val observability_pct : report -> float

(** 0/1/X abstract constant propagation (pass [ternary-const],
    codes [SA201]–[SA205]).

    Abstract interpretation of a circuit over the three-valued domain
    {!value}: [Zero] and [One] mean "provably always this constant",
    [Both] means "can be either / unknown". Primary inputs start at
    [Both] (the input constraint is conservatively ignored — this only
    widens the abstraction, so every "stuck" verdict remains sound);
    each register starts at its reset value and accumulates the join of
    everything its next-state function can produce, to a fixpoint. A
    register can only climb the lattice once, so the fixpoint needs at
    most [n_regs + 1] sweeps.

    Findings:
    - [SA201] register whose accumulated value is still a constant:
      stuck at its reset value, it never toggles — exactly the "state
      element that never changes" the paper's test-model guidelines
      exclude (cross-checked against {!Simcov_coverage.Stuckat}: the
      same-polarity stuck-at fault on that register is undetectable).
    - [SA202] output port that is ternary-constant: a stuck net.
    - [SA203] hold-style register ([mux sel update self] or
      [mux sel self update]) whose enable is ternary-constant {e off}:
      the update logic is dead. (Such a register is also stuck; the
      more specific [SA203] suppresses its [SA201].)
    - [SA204] hold-style register whose enable is ternary-constant
      {e on}: the hold mux is degenerate (info).
    - [SA205] input constraint that is ternary-constant false: no input
      is ever valid, every [step] raises (error). *)

type value = Zero | One | Both

type result = {
  reg_values : value array;  (** accumulated over all abstract runs *)
  output_values : value array;
  constraint_value : value;
  sweeps : int;  (** fixpoint iterations used *)
}

val check : ?budget:Simcov_util.Budget.t -> Simcov_netlist.Circuit.t -> Diag.t list

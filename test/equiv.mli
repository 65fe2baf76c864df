(** Symbolic sequential equivalence checking of netlists.

    Builds the product (miter) machine of two circuits sharing the
    same primary inputs and output count, computes the reachable set
    of the product with BDDs, and checks that no reachable
    (state, valid input) pair produces differing outputs.

    Used to {e formally} verify that behavior-preserving abstraction
    steps (the one-hot re-encoding, register-file truncation under
    tied inputs) really preserve the observable behavior — the
    "local transformations that we assume are correct (or can be
    easily proved)" of Section 7.1, proved. The test suite runs these
    proofs; nothing else calls the checker. *)

open Simcov_netlist

type counterexample = {
  state_a : (string * bool) list;  (** register valuation of the first circuit *)
  state_b : (string * bool) list;
  inputs : (string * bool) list;
  output : string;  (** name of a differing output (first circuit's port name) *)
}

type result = Equivalent of { reachable_pairs : float } | Different of counterexample

val check : Circuit.t -> Circuit.t -> result
(** The circuits must have the same number of primary inputs (matched
    by position) and the same number of outputs (matched by
    position). The joint input constraint is the conjunction of both
    circuits'. Outputs are compared only on jointly valid inputs from
    jointly reachable state pairs.

    @raise Invalid_argument on interface mismatch. *)

val equivalent : Circuit.t -> Circuit.t -> bool

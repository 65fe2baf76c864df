(** State-variable abstraction passes over netlists.

    These implement the paper's test-model derivation guidelines
    (Section 6.1): "an abstraction over state variables can be
    implemented by removing certain state elements from the concrete
    model, and all of the logic associated with only that part — this
    is a simple topological operation. Any communication signals
    between the abstract model and the parts abstracted out are now
    considered as input/output signals for the abstract model."

    Each pass returns a new circuit; the original is untouched. The
    Figure 3(b) abstraction sequence for the DLX model is the
    composition of these passes (see {!Simcov_dlx.Testmodel}). *)

open Simcov_netlist

val free_group : Circuit.t -> string -> Circuit.t
(** Remove a register group. Every remaining reference to a removed
    register becomes a fresh primary input named after it (the paper's
    treatment of Processor Status Word signals once the datapath is
    abstracted). The removed registers' next-state logic disappears. *)

val drop_outputs : Circuit.t -> keep:(string -> bool) -> Circuit.t
(** Remove output ports whose name fails [keep] ("remove outputs not
    affecting control logic"). No registers are touched; compose with
    {!cone_reduce} to delete logic that became unobservable. *)

val cone_reduce : Circuit.t -> Circuit.t
(** Delete registers outside the cone of influence of the outputs
    (transitively through next-state logic). Such registers can never
    affect any observable value, so deleting them is a strong
    homomorphic abstraction. *)

val remove_output_buffers : Circuit.t -> Circuit.t
(** Remove registers that only feed output ports (no next-state logic
    or constraint reads them): each such register is deleted and the
    outputs reading it are rewired to its next-state function ("no
    synchronizing latches for outputs"). This is a retiming: the
    affected outputs are observed one cycle earlier; the state-
    transition structure of the remaining registers is unchanged. *)

val onehot_to_binary : Circuit.t -> group:string -> Circuit.t
(** Re-encode a one-hot register group of size [m] into [ceil(log2 m)]
    binary registers (named ["<group>_bin\[j\]"], same group tag). All
    references to an old register [i] become a decode of the binary
    code for [i]. Requires the group to be genuinely one-hot: exactly
    one register initialized to true, and the next-state functions
    must preserve one-hotness along every reachable path (not checked
    statically; {!Simcov_netlist.Circuit.to_fsm} equivalence is the
    intended test). *)

val tie_inputs : Circuit.t -> (string * bool) list -> Circuit.t
(** Substitute constants for the named primary inputs and remove them
    from the interface. This is the paper's abstraction {e over primary
    inputs} ("only 2-bit address fields are required for 4 registers in
    the register file"): tying the high address bits to zero shrinks
    the input space, and {!constant_reg_elim} then removes the state
    bits that became constant. *)

val constant_reg_elim : Circuit.t -> Circuit.t
(** Iteratively remove registers that provably hold a constant: a
    register whose next-state function simplifies to its own initial
    value once already-known-constant registers are substituted. All
    references are replaced by the constant. *)

type step = { label : string; pass : Circuit.t -> Circuit.t }
(** A named abstraction step for sequence reports. *)

type trace_entry = {
  step_label : string;
  regs_before : int;
  regs_after : int;
  inputs_after : int;
  outputs_after : int;
  gates_after : int;
}

val run_sequence : Circuit.t -> step list -> Circuit.t * trace_entry list
(** Apply the steps in order, recording the per-step statistics that
    Figure 3(b) of the paper reports (state-element counts after each
    abstraction). *)

(** Structural lint (pass [structural-lint], codes [SA401]–[SA406]).

    Graph-level checks ({!check_graph}, meaningful for hand-built
    {!Netgraph} descriptions and future front ends — circuits lowered
    from the expression IR cannot float a net, but they {e can}
    multiply-drive one via duplicate output port names):
    - [SA401] floating net: read by some fanin (or marked PO) but never
      driven.
    - [SA402] multiply-driven net: two or more drivers.

    Circuit-level checks ({!check_circuit}):
    - [SA403] unused primary input: read by no next-state function,
      output or constraint.
    - [SA404] duplicate declaration name among inputs, among registers,
      or between an input and a register (name-based tooling —
      [reg_index], serialization diffs, abstraction traces — becomes
      ambiguous).
    - [SA405] out-of-range leaf: an expression references an
      input/register index past the interface (only constructible by
      hand; {!Simcov_netlist.Serialize} already rejects it at load
      time).
    - [SA406] width misuse in an indexed family: nets named
      [base\[i\]] whose indices have gaps or duplicates — a vector
      declared or wired with the wrong width. *)

val check_graph : Netgraph.t -> Diag.t list
val check_circuit : Simcov_netlist.Circuit.t -> Diag.t list

(** Combinational-loop detection (pass [comb-cycle], code [SA101]).

    Runs {!Simcov_graph.Scc} over the combinational dependency graph of
    a {!Netgraph.t} (latch drivers cut the graph, so register feedback
    is fine). Every strongly connected component of two or more nets —
    or a net with a combinational self-edge — is a combinational cycle:
    unclocked feedback whose fixpoint semantics the simulator and the
    symbolic engine both reject. Each cycle is reported once, with a
    concrete net path.

    Circuits lowered by {!Netgraph.of_circuit} are loop-free by
    construction (expressions are trees over registered leaves); the
    pass guards hand-built graphs, deserialized descriptions from
    future front ends, and regressions in the lowering itself. *)

val check_graph : Netgraph.t -> Diag.t list
(** Diagnostics for every combinational cycle in the graph. *)

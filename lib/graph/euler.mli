(** Eulerian circuits on directed multigraphs (Hierholzer's algorithm). *)

val circuit : Digraph.t -> start:int -> mult:int array -> int list option
(** [circuit g ~start ~mult] finds a closed walk from [start] that uses
    each edge [e] exactly [mult.(e.id)] times, or [None] when no such
    circuit exists (degrees unbalanced, or the used edges are not
    connected to [start]). The result is the list of edge ids in walk
    order. Runs in time linear in the total multiplicity. *)

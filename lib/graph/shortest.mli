(** Shortest paths on directed multigraphs. *)

val dijkstra : Digraph.t -> source:int -> int array * int array
(** [dijkstra g ~source] is [(dist, pred_edge)] using edge costs
    (which must be nonnegative). [pred_edge.(v)] is the id of the edge
    through which [v] was reached, or [-1] for the source and
    unreachable vertices. Unreachable distance is [max_int]. *)

val path_to : pred_edge:int array -> Digraph.t -> int -> int list
(** Reconstruct the edge-id path from the source to the given vertex
    using [pred_edge]; empty for the source itself. *)

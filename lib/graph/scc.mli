(** Strongly connected components (Tarjan's algorithm, iterative). *)

val components : Digraph.t -> int array * int
(** [components g] is [(comp, k)] where [comp.(v)] is the component index
    of vertex [v] (components are numbered [0 .. k - 1] in reverse
    topological order: an edge between components goes from a
    higher-numbered to a lower-numbered one... see note) and [k] is the
    number of components. Tarjan emits components in reverse topological
    order, so [comp.(u) >= comp.(v)] never holds for a cross edge
    [u -> v] pointing forward; concretely, for any edge [u -> v] with
    [comp.(u) <> comp.(v)], [comp.(u) > comp.(v)]. *)

val condensation : Digraph.t -> int array * int * (int * int) list
(** [condensation g] is [(comp, k, edges)]: the {!components} result
    plus the deduplicated cross-component edge list of the condensation
    DAG, sorted. Each [(a, b)] with [a <> b] means some edge of [g]
    leaves component [a] for component [b] (and, [g]'s condensation
    being a DAG, [a > b] per the Tarjan numbering above). [k = 1] with
    [edges = []] iff the graph is strongly connected. *)

val restrict_strongly_connected : Digraph.t -> root:int -> int array option
(** [restrict_strongly_connected g ~root] returns [Some comp_members]
    (sorted vertex ids) of the component containing [root] if that
    component contains every edge endpoint reachable from [root];
    [None] when vertices reachable from [root] escape its component
    (i.e. the reachable subgraph is not strongly connected). *)

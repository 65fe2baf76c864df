(** Directed multigraphs with integer-labeled, integer-weighted edges.

    Vertices are [0 .. n_vertices - 1]. Edges carry a [label] (used by
    FSM exports to remember which input symbol an edge corresponds to)
    and a nonnegative [cost] (used by tour optimization). Parallel edges
    and self-loops are allowed. *)

type edge = { id : int; src : int; dst : int; label : int; cost : int }

type t

val create : int -> t
(** [create n] is an empty graph on [n] vertices. *)

val n_vertices : t -> int
val n_edges : t -> int

val add_edge : t -> src:int -> dst:int -> label:int -> cost:int -> int
(** Adds an edge and returns its id. Ids are dense, starting at 0. *)

val edge : t -> int -> edge
(** Edge by id. *)

val out_edges : t -> int -> edge list
(** Outgoing edges of a vertex, in insertion order. *)

val iter_edges : (edge -> unit) -> t -> unit
val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

(** Directed Chinese Postman tours.

    The paper (Section 6.5) notes that a minimum-cost transition tour of
    an FSM corresponds directly to the (directed) Chinese postman
    problem, solvable in polynomial time. Given a strongly connected
    digraph, we find edge multiplicities [m.(e) >= 1] minimizing total
    cost such that the resulting multigraph is Eulerian, then extract
    the circuit. *)

type tour = {
  edges : int list;  (** edge ids in walk order, a closed walk *)
  length : int;  (** number of edge traversals *)
  cost : int;  (** total cost of the walk *)
  extra_cost : int;  (** cost added on top of visiting each edge once *)
}

val solve : Digraph.t -> start:int -> tour option
(** [solve g ~start] is the minimum-cost closed walk from [start]
    covering every edge at least once, or [None] if [g] (restricted to
    edge endpoints) is not strongly connected from [start]. Isolated
    vertices are ignored. Parallel edges of equal cost share one arc of
    the min-cost flow, and their extra traversals all go to the first
    of them: the walk is the one an arc per edge would give. *)

val greedy : Digraph.t -> start:int -> tour option
(** Nearest-uncovered-edge heuristic: repeatedly BFS (by cost) to the
    closest vertex with an uncovered out-edge and take it. Always
    yields a covering walk on strongly connected inputs; typically
    longer than {!solve}'s, which is the comparison the tour-length
    ablation (experiment E6) reports. *)

(** Gate-level netlist graph — the shared substrate of the structural
    passes.

    A {!t} is a set of {e nets} (vertices, with names), each driven by
    zero or more {e drivers} (a cell kind plus fanin nets), plus a set
    of primary-output markers. Well-formed circuits lower to graphs
    with exactly one driver per net and no combinational cycles;
    hand-built graphs (test fixtures, future front ends) may violate
    both, which is exactly what the lint passes detect.

    {!of_circuit} lowers a {!Simcov_netlist.Circuit.t}: one [Pi] net
    per primary input, one [Latch] net per register (the latch's fanin
    is the root net of its next-state expression), one hash-consed
    [Gate] net per distinct expression node, and one [buf]-driven net
    per output port (marked PO). Output nets are keyed by {e name}, so
    duplicate port names become a genuinely multiply-driven net. The
    input-constraint root is lowered too (see {!constraint_net}) but is
    {e not} a PO: cone analyses follow the paper and measure
    observability against outputs only. *)

type cell_kind =
  | Pi  (** primary input *)
  | Cst of bool  (** constant driver *)
  | Gate of string  (** combinational cell; the string names the op *)
  | Latch of bool  (** state element; payload is the reset value *)

type t

val create : unit -> t

val add_net : t -> ?name:string -> unit -> int
(** New net; auto-named ["$n<i>"] when [name] is omitted. *)

val find_or_add_net : t -> string -> int
(** Net by name, creating it (undriven) if absent. *)

val add_driver : t -> net:int -> kind:cell_kind -> fanin:int list -> unit
(** Attach a driver. A second driver on the same net makes it
    multiply-driven (reported by the structural pass, tolerated
    here). *)

val mark_po : t -> int -> unit

val n_nets : t -> int
val name : t -> int -> string
val drivers : t -> int -> (cell_kind * int list) list
(** In attachment order. *)

val pos : t -> int list
(** Primary-output nets, in marking order (duplicates removed). *)

val fanout_count : t -> int array
(** Per net: number of driver fanin slots reading it (PO marking not
    counted). *)

val comb_digraph : t -> Simcov_graph.Digraph.t
(** One vertex per net; one edge [fanin -> net] for every fanin of
    every {e combinational} driver ([Gate]/[Cst]/[Pi] — latch drivers
    are sequential and contribute no edge). Cycles in this graph are
    combinational cycles. *)

val observable : t -> bool array
(** Per net: can the net reach some primary output through its
    sequential cone of influence (latch drivers contribute edges too)?
    POs themselves are observable. *)

val reaches : t -> int -> bool array
(** [reaches g target]: per net, can it reach [target] through the same
    sequential cone of influence? [target] reaches itself. *)

(** {1 Lowering} *)

type circuit_map = {
  input_net : int array;  (** per primary input index *)
  reg_net : int array;  (** per register index *)
  output_net : int array;  (** per output port index (name-keyed) *)
  constraint_net : int option;
      (** root of the input constraint, when not trivially true *)
}

val of_circuit : Simcov_netlist.Circuit.t -> t * circuit_map

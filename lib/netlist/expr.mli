(** Boolean expressions over primary inputs and register outputs.

    The combinational-logic layer of the netlist IR. Smart constructors
    perform constant folding and a few local simplifications so that
    abstraction passes (which substitute constants and free inputs into
    existing logic) shrink the circuit instead of growing it. *)

type t =
  | Const of bool
  | Input of int  (** primary input by index *)
  | Reg of int  (** current-cycle register value by index *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Mux of t * t * t  (** [Mux (sel, hi, lo)]: [hi] when [sel] *)

val tru : t
val fls : t
val const : bool -> t
val input : int -> t
val reg : int -> t

val ( !! ) : t -> t
(** Negation (folds constants and double negation). *)

val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ^^^ ) : t -> t -> t
val mux : t -> t -> t -> t
val eq : t -> t -> t
(** XNOR. *)

val disj : t list -> t

val eval : inputs:(int -> bool) -> regs:(int -> bool) -> t -> bool

val eval_lanes : inputs:(int -> int) -> regs:(int -> int) -> t -> int
(** Bit-parallel evaluation: bit [l] of every int is an independent
    boolean lane, so one call evaluates the expression for up to
    [Sys.int_size] valuations at once. Constants broadcast to all
    lanes; bits beyond the lanes the caller populated are unspecified
    (negation sets them) and must be masked off by the caller. *)

val map_leaves : input:(int -> t) -> reg:(int -> t) -> t -> t
(** Substitute expressions for leaves (rebuilding with the smart
    constructors, so substitution of constants simplifies). *)

val support : t -> (int list * int list)
(** [(inputs, regs)] referenced, each sorted ascending without
    duplicates. *)

val size : t -> int
(** Number of AST nodes (a gate-count proxy). *)

(** {1 Multi-bit vectors}

    A vector is little-endian: element 0 is the least significant
    bit. *)

module Vec : sig
  type expr := t
  type t = expr array

  val const : width:int -> int -> t
  val inputs : first:int -> width:int -> t
  val regs : first:int -> width:int -> t
  val eq_const : t -> int -> expr
  (** Equality with an integer constant. *)

  val eq : t -> t -> expr
  val mux : expr -> t -> t -> t
  val onehot : t -> expr
  (** Exactly-one-bit-set predicate. *)

  val decode : t -> int -> expr
  (** [decode v i] is true when the binary value of [v] equals [i] —
      alias of {!eq_const}, named for one-hot/binary re-encodings. *)

  val eval : inputs:(int -> bool) -> regs:(int -> bool) -> t -> int
end

(** Text serialization of circuits.

    A small line-oriented exchange format so derived test models can be
    dumped, diffed, and reloaded (the role the paper's Verilog/BLIF
    files played between VIS and SIS):

    {v
    circuit <name>
    input <name>
    reg <name> <group> <0|1> = <expr>
    output <name> = <expr>
    constraint <expr>
    v}

    Expressions are S-expressions over [(in N)], [(reg N)], [0], [1],
    [(not e)], [(and e e)], [(or e e)], [(xor e e)],
    [(mux c t e)]. Lines starting with [#] are comments. Register and
    input indices refer to declaration order. *)

val to_string : Circuit.t -> string

type error = {
  line : int;  (** 1-based; 0 when no position applies (I/O, internal) *)
  col : int;  (** 1-based column in the raw line; 0 when [line] is 0 *)
  msg : string;
}

val error_to_string : error -> string
(** ["line L, column C: msg"], or just the message for positionless
    errors. *)

val of_string : string -> (Circuit.t, error) result
(** Inverse of {!to_string} (also accepts hand-written files). Total:
    malformed input of any kind — including bytes this parser never
    anticipated — yields [Error], never an exception. *)

val save : Circuit.t -> string -> unit
(** Write to a file path. *)

val load : string -> (Circuit.t, error) result

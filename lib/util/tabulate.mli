(** Plain-text table rendering for experiment reports.

    Produces aligned, pipe-separated tables similar to the rows a paper
    reports, so benchmark output can be diffed against EXPERIMENTS.md. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are headers. *)

val print : ?title:string -> t -> unit
(** [print ~title t] writes the table to stdout, preceded by a title
    banner when provided. *)

(** A minimal JSON abstract syntax, renderer and parser.

    Just enough JSON for machine-readable tool output (lint reports,
    bench records): build a {!t}, render it with {!to_string}, and
    round-trip it back with {!parse} in tests. No external dependency,
    no streaming, no number-precision heroics ([Int] survives a
    round-trip exactly; a [Float] is printed with enough digits to be
    re-read equal). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render. [indent] > 0 pretty-prints with that step (default 2);
    [indent = 0] minifies. Object key order is preserved. Strings are
    escaped per RFC 8259 (control characters as [\uXXXX]). A
    non-finite [Float] (nan, [infinity], [neg_infinity]) renders as
    [null] — JSON has no literal for it, so it round-trips as {!Null},
    not as a number. Negative zero renders as [-0.0] and survives a
    round-trip exactly. *)

val parse : string -> (t, string) result
(** Total: any malformed input yields [Error msg] with a character
    offset, never an exception. Numbers without [.], [e] or [E] parse
    as [Int]; everything else as [Float]. Trailing garbage after the
    top-level value is an error. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** Field of an [Obj] (first occurrence). *)

val to_list : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option

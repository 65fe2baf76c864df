(** A small library of classic DLX kernels.

    Realistic workloads — the kind of programs the paper's intro
    scenario actually simulates — used as integration stimuli for the
    spec / 5-stage / dual-issue trio and as demonstration material.
    Each kernel is self-contained assembly (no preloads needed) and
    terminates. They serve the test suite only, which checks
    [Pipeline] and [Dual] against [Spec] on them. *)

open Simcov_dlx

type kernel = {
  name : string;
  description : string;
  source : string;  (** assembly text *)
  checks : (int * int32) list;  (** register values expected at halt *)
}

val all : kernel list
(** fibonacci, memcpy, bubble-sort (3 elements), dot-product, gcd,
    popcount. *)

val find : string -> kernel option
type error = { kernel : string; detail : string }
(** A kernel whose embedded assembly fails to parse — a library bug,
    surfaced as data rather than an exception so callers can report it
    alongside their other results. *)

val error_to_string : error -> string

val program : kernel -> (Isa.t array, error) result
(** Assembled. *)

val run_spec : kernel -> (Spec.t, error) result
(** Execute on the architectural model and return the final state. *)

val validate_all : unit -> (string * (Validate.outcome, error) result) list
(** Every kernel through the 5-stage pipeline comparison. *)

val validate_all_dual : unit -> (string * (Validate.outcome, error) result) list
(** Every kernel through the dual-issue comparison. *)

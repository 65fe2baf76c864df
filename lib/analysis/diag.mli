(** Shared diagnostics core for the static-analysis passes.

    Every lint pass reports findings as {!t} values: a stable code
    (["SA101"], ...), a severity, the pass that produced it, a location
    in the netlist (register, net, primary input, output port, or the
    whole circuit), a human message and an optional list of related
    nets (e.g. the net path of a combinational cycle). Diagnostics
    render both human-readable (one line, [grep]-able) and as JSON for
    machine consumption.

    Code blocks by pass:
    - [SA1xx] comb-cycle: combinational-loop detection
    - [SA2xx] ternary-const: 0/1/X constant propagation
    - [SA3xx] dead-logic: primary-output cone analysis
    - [SA4xx] structural-lint: floating / multiply-driven / unused nets
    - [SA5xx] homo-precheck: homomorphic-abstraction prechecks
    - [SA6xx] fsm-lint: FSM-level precondition certification (Theorem 1) *)

type severity = Info | Warning | Error

type location =
  | Register of string  (** a state element, by name *)
  | Net of string  (** an internal net of the gate-level graph *)
  | Primary_input of string
  | Output_port of string
  | State of string  (** an explicit FSM state, by name *)
  | Input_symbol of string  (** an FSM input symbol, by name *)
  | Word of string  (** an input word, rendered as symbol names *)
  | Whole_circuit

type t = {
  code : string;  (** stable, e.g. ["SA101"] *)
  severity : severity;
  pass : string;  (** pass id, e.g. ["comb-cycle"] *)
  loc : location;
  message : string;
  related : string list;
      (** related net/register names (cycle paths, conflicting
          drivers); may be empty *)
}

val make :
  code:string ->
  severity:severity ->
  pass:string ->
  loc:location ->
  ?related:string list ->
  string ->
  t
(** [make ~code ~severity ~pass ~loc msg]. *)

val severity_name : severity -> string
(** ["info"], ["warning"], ["error"]. *)

val severity_of_name : string -> severity option

val compare : t -> t -> int
(** Sort key: descending severity, then code, then location, then
    message — a stable presentation order. *)

(** {1 Reports} *)

val count : t list -> severity -> int
(** Diagnostics of exactly this severity. *)

val fails : t list -> threshold:severity -> bool
(** Does any diagnostic reach [threshold]? (The [--fail-on] test.) *)

val pp : Format.formatter -> t -> unit
(** One line:
    [error[SA101] comb-cycle @ net 'x': message (via: a -> b -> a)]. *)

val to_json : t -> Simcov_util.Json.t

type catalog_entry = {
  entry_code : string;  (** stable code, e.g. ["SA101"] *)
  default_severity : severity;
  title : string;  (** one-line description (the DESIGN.md table row) *)
  fix : string;  (** suggested fix / remediation hint *)
}

val catalog : catalog_entry list
(** Every stable code with its default severity, a one-line
    description and a suggested fix — the single source of truth the
    DESIGN.md §7/§11 tables and [simcov lint --explain] render. Codes
    are unique (asserted by a unit test). *)

val explain : string -> catalog_entry option
(** [explain "SA101"] looks up the catalog entry for a stable code. *)

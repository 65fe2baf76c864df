module Json = Simcov_util.Json

type severity = Info | Warning | Error

type location =
  | Register of string
  | Net of string
  | Primary_input of string
  | Output_port of string
  | State of string
  | Input_symbol of string
  | Word of string
  | Whole_circuit

type t = {
  code : string;
  severity : severity;
  pass : string;
  loc : location;
  message : string;
  related : string list;
}

let make ~code ~severity ~pass ~loc ?(related = []) message =
  { code; severity; pass; loc; message; related }

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

let severity_of_name = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let loc_kind = function
  | Register _ -> "register"
  | Net _ -> "net"
  | Primary_input _ -> "input"
  | Output_port _ -> "output"
  | State _ -> "state"
  | Input_symbol _ -> "symbol"
  | Word _ -> "word"
  | Whole_circuit -> "circuit"

let loc_name = function
  | Register n | Net n | Primary_input n | Output_port n -> n
  | State n | Input_symbol n | Word n -> n
  | Whole_circuit -> ""

let count ds sev = List.length (List.filter (fun d -> d.severity = sev) ds)

let worst ds =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some s when severity_rank s >= severity_rank d.severity -> acc
      | _ -> Some d.severity)
    None ds

let fails ds ~threshold =
  match worst ds with
  | None -> false
  | Some w -> severity_rank w >= severity_rank threshold

let compare a b =
  let c = Int.compare (severity_rank b.severity) (severity_rank a.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare (loc_name a.loc) (loc_name b.loc) in
      if c <> 0 then c else String.compare a.message b.message

let pp ppf d =
  Format.fprintf ppf "%s[%s] %s" (severity_name d.severity) d.code d.pass;
  (match d.loc with
  | Whole_circuit -> ()
  | loc -> Format.fprintf ppf " @@ %s '%s'" (loc_kind loc) (loc_name loc));
  Format.fprintf ppf ": %s" d.message;
  if d.related <> [] then
    Format.fprintf ppf " (via: %s)" (String.concat " -> " d.related)

let to_json d =
  Json.Obj
    [
      ("code", Json.String d.code);
      ("severity", Json.String (severity_name d.severity));
      ("pass", Json.String d.pass);
      ( "location",
        Json.Obj
          [
            ("kind", Json.String (loc_kind d.loc));
            ("name", Json.String (loc_name d.loc));
          ] );
      ("message", Json.String d.message);
      ("related", Json.List (List.map (fun s -> Json.String s) d.related));
    ]

type catalog_entry = {
  entry_code : string;
  default_severity : severity;
  title : string;
  fix : string;
}

let entry entry_code default_severity title fix =
  { entry_code; default_severity; title; fix }

let catalog =
  [
    entry "SA101" Error "combinational cycle through gate-level nets"
      "break the loop with a register or rewrite the feedback expression";
    entry "SA201" Warning "register stuck at a constant (never leaves its reset value)"
      "check the next-state expression; remove the register if intentional";
    entry "SA202" Warning "output port is constant under ternary propagation"
      "the port carries no information; wire it to live logic or drop it";
    entry "SA203" Warning "register update is never enabled (hold mux select is constant)"
      "fix the enable condition so the register can be written";
    entry "SA204" Info "register hold mux is degenerate (update always enabled)"
      "drop the mux and assign the next-state expression directly";
    entry "SA205" Error "input constraint is constant false (no valid input ever)"
      "relax the constraint; a machine with no valid input cannot be simulated";
    entry "SA301" Warning "latch outside every primary-output cone (abstraction candidate)"
      "abstract the latch away or add an output observing it";
    entry "SA302" Info "gates outside every primary-output cone"
      "dead logic; remove it or observe it through an output";
    entry "SA401" Error "floating net (read or observed but never driven)"
      "add a driver or delete the reference";
    entry "SA402" Error "multiply-driven net"
      "keep exactly one driver per net; mux the sources explicitly";
    entry "SA403" Warning "unused primary input"
      "remove the input or connect it to the logic it should influence";
    entry "SA404" Error "duplicate declaration name"
      "rename one of the declarations";
    entry "SA405" Error "expression references an out-of-range input/register index"
      "fix the index or declare the missing input/register";
    entry "SA406" Warning "indexed net family has gaps or duplicate indices"
      "renumber the family densely from 0";
    entry "SA501" Error "homomorphism map image out of range"
      "make the state/input maps land inside the abstract machine";
    entry "SA502" Warning "state map is not surjective onto the abstract states"
      "remove unreachable abstract states or extend the map";
    entry "SA503" Warning "input map is not surjective onto the abstract inputs"
      "remove unused abstract inputs or extend the map";
    entry "SA504" Error "merged states disagree on an abstract output (quotient cannot exist)"
      "refine the state map until merged states agree on every output";
    entry "SA505" Warning "abstract register depends on state its concrete counterpart does not"
      "tighten the abstraction or document the extra dependency";
    (* SA6xx — fsm-lint: Theorem 1 precondition certification *)
    entry "SA601" Error "reachable state has no valid input (dead end; no tour can continue)"
      "relax the input constraint at the state or make it unreachable";
    entry "SA602" Warning "state is unreachable from reset"
      "delete the state or add transitions reaching it; coverage metrics exclude it";
    entry "SA603" Warning "input symbol is never valid in any reachable state (dead input)"
      "remove the symbol from the alphabet or fix the validity predicate";
    entry "SA604" Error "valid reachable transition targets an out-of-range state or output"
      "fix the next/output tables so every valid transition stays in range";
    entry "SA605" Info "machine is partially specified (some state/input pairs invalid)"
      "expected for constrained test models; make sure the constraint is intended";
    entry "SA610" Error "machine is not strongly connected (no transition tour exists)"
      "add return transitions along the reported condensation cut, or add a reset input";
    entry "SA620" Error "equivalent state pair (machine is not minimal; tours lose their completeness guarantee)"
      "merge the reported pair or add an output distinguishing them";
    entry "SA630" Info "every reachable state pair is forall-k-distinguishable at the reported k"
      "nothing to fix; record k as the Theorem 1 exposure-window bound";
    entry "SA631" Error "state pair is not forall-k-distinguishable within the bound (a word masks the difference)"
      "strengthen outputs along the masking word or raise the analysis bound";
    entry "SA640" Warning "non-uniform output error can escape the transition tour (Requirement 1 violated)"
      "a tour is not a complete test for this fault class; use a checking sequence or W-method suite";
    entry "SA641" Warning "transfer error is masked on the transition tour (Requirement 4 violated)"
      "extend the tour past the reported window or use a distinguishing suffix";
    entry "SA650" Error "suite word applies an input that is invalid at the state it reaches"
      "fix the word at the reported position; the remainder is unreachable by simulation";
    entry "SA651" Warning "suite misses reachable transitions (no complete transition coverage)"
      "append words covering the reported (state, input) pairs";
    entry "SA652" Info "suite word covers no transition not already covered by earlier words"
      "drop the word or reorder the suite if the redundancy is intentional";
  ]

let explain code =
  List.find_opt (fun e -> e.entry_code = code) catalog

open Simcov_fsm
module Budget = Simcov_util.Budget
module Json = Simcov_util.Json
module Rng = Simcov_util.Rng
module Digraph = Simcov_graph.Digraph
module Scc = Simcov_graph.Scc
module Fault = Simcov_coverage.Fault
module Detect = Simcov_coverage.Detect
module Campaign = Simcov_campaign.Campaign
module Tour = Simcov_testgen.Tour

type stats = {
  n_states : int;
  n_reachable : int;
  n_inputs : int;
  n_transitions : int;
  n_classes : int;
  n_sccs : int;
  certified_k : int option;
}

type suite_report = {
  n_words : int;
  suite_states : int;
  suite_transitions : int;
  redundant : int list;
  missed : (int * int) list;
}

type report = {
  name : string;
  stats : stats;
  passes : string list;
  skipped : string list;
  diags : Diag.t list;
  suite : suite_report option;
  truncated : Budget.resource option;
}

(* how many per-instance diagnostics a single check emits before
   folding the rest into one summary line *)
let cap = 8

let word_name (m : Fsm.t) word =
  String.concat " " (List.map m.Fsm.input_name word)

let trans_name (m : Fsm.t) s i =
  Printf.sprintf "%s -%s->" (m.Fsm.state_name s) (m.Fsm.input_name i)

(* ---- well-formed ---- *)

let check_well_formed (m : Fsm.t) seen =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let mk = Diag.make ~pass:"well-formed" in
  (* unreachable states (capped) *)
  let unreachable = ref [] in
  for s = m.Fsm.n_states - 1 downto 0 do
    if not seen.(s) then unreachable := s :: !unreachable
  done;
  let n_unreach = List.length !unreachable in
  List.iteri
    (fun idx s ->
      if idx < cap then
        add
          (mk ~code:"SA602" ~severity:Diag.Warning
             ~loc:(Diag.State (m.Fsm.state_name s))
             "state is unreachable from reset"))
    !unreachable;
  if n_unreach > cap then
    add
      (mk ~code:"SA602" ~severity:Diag.Warning ~loc:Diag.Whole_circuit
         (Printf.sprintf "%d more states are unreachable from reset" (n_unreach - cap)));
  (* dead ends, range errors, dead inputs, partiality over the
     reachable sub-machine *)
  let input_live = Array.make m.Fsm.n_inputs false in
  let invalid_pairs = ref 0 and valid_pairs = ref 0 in
  let range_errs = ref 0 in
  for s = 0 to m.Fsm.n_states - 1 do
    if seen.(s) then begin
      let inputs = Fsm.valid_inputs m s in
      let n_valid = List.length inputs in
      valid_pairs := !valid_pairs + n_valid;
      invalid_pairs := !invalid_pairs + m.Fsm.n_inputs - n_valid;
      List.iter
        (fun i ->
          input_live.(i) <- true;
          let n = m.Fsm.next s i and o = m.Fsm.output s i in
          if n < 0 || n >= m.Fsm.n_states || o < 0 then begin
            incr range_errs;
            if !range_errs <= cap then
              add
                (mk ~code:"SA604" ~severity:Diag.Error
                   ~loc:(Diag.State (m.Fsm.state_name s))
                   ~related:[ m.Fsm.input_name i ]
                   (Printf.sprintf
                      "transition %s targets out-of-range %s (next=%d, output=%d, \
                       n_states=%d)"
                      (trans_name m s i)
                      (if n < 0 || n >= m.Fsm.n_states then "state" else "output")
                      n o m.Fsm.n_states))
          end)
        inputs;
      if inputs = [] then
        add
          (mk ~code:"SA601" ~severity:Diag.Error
             ~loc:(Diag.State (m.Fsm.state_name s))
             "reachable state accepts no valid input: every word reaching it dies \
              here, so no closed tour exists")
    end
  done;
  if !range_errs > cap then
    add
      (mk ~code:"SA604" ~severity:Diag.Error ~loc:Diag.Whole_circuit
         (Printf.sprintf "%d more out-of-range transitions" (!range_errs - cap)));
  let dead_inputs = ref 0 in
  for i = 0 to m.Fsm.n_inputs - 1 do
    if not input_live.(i) then begin
      incr dead_inputs;
      if !dead_inputs <= cap then
        add
          (mk ~code:"SA603" ~severity:Diag.Warning
             ~loc:(Diag.Input_symbol (m.Fsm.input_name i))
             "input symbol is never valid in any reachable state")
    end
  done;
  if !dead_inputs > cap then
    add
      (mk ~code:"SA603" ~severity:Diag.Warning ~loc:Diag.Whole_circuit
         (Printf.sprintf
            "%d more input symbols are never valid in any reachable state (a \
             heavily constrained alphabet: %d of %d symbols are dead)"
            (!dead_inputs - cap) !dead_inputs m.Fsm.n_inputs));
  if !invalid_pairs > 0 then
    add
      (mk ~code:"SA605" ~severity:Diag.Info ~loc:Diag.Whole_circuit
         (Printf.sprintf
            "machine is partially specified: %d of %d reachable (state, input) \
             pairs are invalid"
            !invalid_pairs
            (!invalid_pairs + !valid_pairs)));
  List.rev !diags

(* ---- connectivity ---- *)

(* the reachable transition graph on densely renumbered vertices: SCC
   analysis must not see unreachable states as isolated components *)
let reachable_digraph (m : Fsm.t) seen =
  let idx = Array.make m.Fsm.n_states (-1) in
  let n = ref 0 in
  for s = 0 to m.Fsm.n_states - 1 do
    if seen.(s) then begin
      idx.(s) <- !n;
      incr n
    end
  done;
  let back = Array.make !n 0 in
  for s = 0 to m.Fsm.n_states - 1 do
    if seen.(s) then back.(idx.(s)) <- s
  done;
  let g = Digraph.create !n in
  for s = 0 to m.Fsm.n_states - 1 do
    if seen.(s) then
      List.iter
        (fun i ->
          let d = m.Fsm.next s i in
          if d >= 0 && d < m.Fsm.n_states && seen.(d) then
            ignore (Digraph.add_edge g ~src:idx.(s) ~dst:idx.(d) ~label:i ~cost:1))
        (Fsm.valid_inputs m s)
  done;
  (g, idx, back)

let check_connectivity (m : Fsm.t) seen =
  let g, _idx, back = reachable_digraph m seen in
  let comp, k, cross = Scc.condensation g in
  if k <= 1 then ([], k)
  else begin
    (* witness: one representative concrete edge per condensation cut.
       Since the condensation is a DAG, each cross edge (a, b) has no
       return path b -> a: that missing direction is the cut. *)
    let rep = Hashtbl.create 16 in
    Digraph.iter_edges
      (fun e ->
        let a = comp.(e.Digraph.src) and b = comp.(e.Digraph.dst) in
        if a <> b && not (Hashtbl.mem rep (a, b)) then
          Hashtbl.add rep (a, b)
            (Printf.sprintf "%s %s (no way back)"
               (trans_name m back.(e.Digraph.src) e.Digraph.label)
               (m.Fsm.state_name back.(e.Digraph.dst))))
      g;
    let related =
      List.filteri (fun i _ -> i < cap) cross
      |> List.filter_map (fun ab -> Hashtbl.find_opt rep ab)
    in
    let size = Array.make k 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
    let largest = Array.fold_left max 0 size in
    ( [
        Diag.make ~code:"SA610" ~severity:Diag.Error ~pass:"connectivity"
          ~loc:Diag.Whole_circuit ~related
          (Printf.sprintf
             "reachable transition graph is not strongly connected: %d SCCs \
              (largest %d of %d states), so no closed transition tour exists; \
              the listed one-way condensation edges are the cuts"
             k largest (Digraph.n_vertices g));
      ],
      k )
  end

(* ---- minimality ---- *)

(* shortest word driving two equivalent states to one common state —
   the concrete "these really are the same state" witness (outputs
   agree along the way by equivalence) *)
let merge_word (m : Fsm.t) s t =
  let visited = Hashtbl.create 64 in
  let q = Queue.create () in
  Queue.add (s, t, []) q;
  Hashtbl.add visited (s, t) ();
  let result = ref None in
  while !result = None && not (Queue.is_empty q) do
    let a, b, w = Queue.pop q in
    if a = b then result := Some (List.rev w)
    else
      List.iter
        (fun i ->
          if m.Fsm.valid b i then begin
            let a' = m.Fsm.next a i and b' = m.Fsm.next b i in
            if not (Hashtbl.mem visited (a', b')) then begin
              Hashtbl.add visited (a', b') ();
              Queue.add (a', b', i :: w) q
            end
          end)
        (Fsm.valid_inputs m a)
  done;
  !result

let check_minimality (m : Fsm.t) classes seen =
  let groups = Hashtbl.create 16 in
  for s = m.Fsm.n_states - 1 downto 0 do
    if seen.(s) && classes.(s) >= 0 then
      Hashtbl.replace groups classes.(s)
        (s :: (Option.value ~default:[] (Hashtbl.find_opt groups classes.(s))))
  done;
  let diags = ref [] and n_pairs = ref 0 in
  Hashtbl.iter
    (fun _ members ->
      match members with
      | rep :: (_ :: _ as rest) ->
          List.iter
            (fun s ->
              incr n_pairs;
              if !n_pairs <= cap then begin
                let witness =
                  match merge_word m rep s with
                  | Some w ->
                      Printf.sprintf "word '%s' drives both to state %s"
                        (word_name m w)
                        (m.Fsm.state_name (List.fold_left m.Fsm.next rep w))
                  | None -> "their output behaviors agree on every word"
                in
                diags :=
                  Diag.make ~code:"SA620" ~severity:Diag.Error ~pass:"minimality"
                    ~loc:(Diag.State (m.Fsm.state_name rep))
                    ~related:[ m.Fsm.state_name s ]
                    (Printf.sprintf
                       "states %s and %s are equivalent (machine is not minimal; \
                        tour completeness arguments do not apply): %s"
                       (m.Fsm.state_name rep) (m.Fsm.state_name s) witness)
                  :: !diags
              end)
            rest
      | _ -> ())
    groups;
  let diags = List.rev !diags in
  if !n_pairs > cap then
    diags
    @ [
        Diag.make ~code:"SA620" ~severity:Diag.Error ~pass:"minimality"
          ~loc:Diag.Whole_circuit
          (Printf.sprintf "%d more equivalent state pairs" (!n_pairs - cap));
      ]
  else diags

(* ---- ∀k-distinguishability ---- *)

(* a length-k word valid from both states whose outputs agree
   throughout — the mask that defeats ∀k-distinguishability *)
let masking_word (m : Fsm.t) ~k s t =
  let visited = Hashtbl.create 64 in
  let rec go a b depth w =
    if depth = k then Some (List.rev w)
    else if Hashtbl.mem visited (a, b, depth) then None
    else begin
      Hashtbl.add visited (a, b, depth) ();
      List.fold_left
        (fun acc i ->
          match acc with
          | Some _ -> acc
          | None ->
              if m.Fsm.valid b i && m.Fsm.output a i = m.Fsm.output b i then
                go (m.Fsm.next a i) (m.Fsm.next b i) (depth + 1) (i :: w)
              else None)
        None (Fsm.valid_inputs m a)
    end
  in
  go s t 0 []

let check_distinguishability (m : Fsm.t) { Tour.k_bound; forall_k; _ } =
  match forall_k with
  | Ok k ->
      ( [
          Diag.make ~code:"SA630" ~severity:Diag.Info ~pass:"distinguishability"
            ~loc:Diag.Whole_circuit
            (Printf.sprintf
               "every reachable state pair is forall-%d-distinguishable (Definition \
                5): a tour padded by %d step%s exposes every excited error in the \
                fault class"
               k k
               (if k = 1 then "" else "s"));
        ],
        Some k )
  | Error (s, t) ->
      (* name the offending pair and its masking word at the bound *)
      let related =
        match masking_word m ~k:k_bound s t with
        | Some w -> [ word_name m w ]
        | None -> []
      in
      ( [
          Diag.make ~code:"SA631" ~severity:Diag.Error ~pass:"distinguishability"
            ~loc:(Diag.State (m.Fsm.state_name s))
            ~related:(m.Fsm.state_name t :: related)
            (Printf.sprintf
               "states %s and %s are not forall-%d-distinguishable: the related \
                word masks the difference, so an error transferring between them \
                can survive a tour padded by %d steps"
               (m.Fsm.state_name s) (m.Fsm.state_name t) k_bound k_bound);
        ],
        None )

(* ---- fault-structural (Requirements 1 and 4) ---- *)

let check_fault_structural (m : Fsm.t) rng tour ~k =
  (* Theorem 1's test is the tour padded by k extra steps (the exposure
     window): replaying faults against the unpadded word would flag
     every fault excited within k steps of the end as masked *)
  let word = Tour.pad m ~k tour.Tour.word in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let transitions = Fsm.transitions m in
  (* R1: non-uniform output errors (Definition 2 fails). A
     Conditional_output fault at site (s, i) conditioned on
     predecessor transition p fires only when the tour traverses
     (s, i) immediately after p. The check is purely structural: one
     replay of the tour collects the distinct (site, predecessor)
     contexts it exercises, and since every transition into s is a
     context of (s, i), the site's escaping faults number the
     in-degree of s minus the contexts exercised there. *)
  let ni = m.Fsm.n_inputs in
  let contexts = Hashtbl.create 256 and exercised = Hashtbl.create 256 in
  let n_exercised site = Option.value ~default:0 (Hashtbl.find_opt exercised site) in
  ignore
    (List.fold_left
       (fun (s, prev) i ->
         if not (m.Fsm.valid s i) then (s, prev)
         else begin
           let site = (s * ni) + i in
           if prev >= 0 && not (Hashtbl.mem contexts (site, prev)) then begin
             Hashtbl.add contexts (site, prev) ();
             Hashtbl.replace exercised site (n_exercised site + 1)
           end;
           (m.Fsm.next s i, site)
         end)
       (m.Fsm.reset, -1) word);
  let in_degree = Array.make m.Fsm.n_states 0 in
  List.iter (fun (_, _, s', _) -> in_degree.(s') <- in_degree.(s') + 1) transitions;
  let r1 = ref 0 and sites = ref 0 and example = ref None in
  List.iter
    (fun (s, i, _, o) ->
      let escaping = in_degree.(s) - n_exercised ((s * ni) + i) in
      if in_degree.(s) >= 2 && escaping > 0 then begin
        incr sites;
        r1 := !r1 + escaping;
        if !example = None then example := Some (s, i, o)
      end)
    transitions;
  (match !example with
  | Some (s, i, o) ->
      (* its predecessor: the last transition into s, in transition
         order, that the tour never takes right before (s, i) *)
      let p =
        List.fold_left
          (fun p (ps, pi, s', _) ->
            if s' = s && not (Hashtbl.mem contexts ((s * ni) + i, (ps * ni) + pi))
            then (ps, pi)
            else p)
          (-1, -1) transitions
      in
      let fault =
        Fault.Conditional_output { state = s; input = i; wrong_output = o + 1; prev = p }
      in
      (* sanity: the static claim agrees with lockstep simulation *)
      let escapes =
        (Detect.unrecorded_outcome m [ fault ] word).Campaign.report.Detect.detected = 0
      in
      add
        (Diag.make ~code:"SA640" ~severity:Diag.Warning ~pass:"fault-structural"
           ~loc:(Diag.State (m.Fsm.state_name s))
           ~related:[ Format.asprintf "%a" Fault.pp fault ]
           (Printf.sprintf
              "%d non-uniform output error%s at %d site%s escape%s the \
               transition tour (Requirement 1): e.g. an error on %s firing \
               only after %s is never excited — the tour takes that \
               transition after a different predecessor%s"
              !r1
              (if !r1 = 1 then "" else "s")
              !sites
              (if !sites = 1 then "" else "s")
              (if !r1 = 1 then "s" else "")
              (trans_name m s i)
              (trans_name m (fst p) (snd p))
              (if escapes then "" else " (exposed elsewhere on this tour)")))
  | None -> ());
  (* R4: masked transfer errors — the campaign engine's missed faults
     (effective, excited, undetected), in fault order, each witnessed
     by its verdict's first masking window *)
  let n_pop = List.length transitions * max 0 (Fsm.n_reachable m - 1) in
  let faults =
    if n_pop <= 2000 then Fault.all_transfer_faults m
    else Fault.sample_transfer_faults rng m ~count:200
  in
  let masked =
    List.filter
      (fun (_, (v : Detect.verdict)) -> v.excited && not v.detected)
      (Detect.unrecorded_outcome m faults word).Campaign.verdicts
  in
  List.iteri
    (fun idx (fault, (v : Detect.verdict)) ->
      match fault with
      | Fault.Transfer { state = s; input = i; wrong_next } when idx < cap ->
          let window =
            match (v.excite_step, v.masked_step) with
            | Some j, Some l -> Printf.sprintf "masked over tour steps %d..%d" j l
            | _ -> "never exposed before the tour ends"
          in
          add
            (Diag.make ~code:"SA641" ~severity:Diag.Warning
               ~pass:"fault-structural"
               ~loc:(Diag.State (m.Fsm.state_name s))
               ~related:[ Format.asprintf "%a" Fault.pp fault ]
               (Printf.sprintf
                  "transfer error %s to %s is excited but %s: Requirement 4 \
                   (no masked transfer errors) does not hold on this tour"
                  (trans_name m s i)
                  (m.Fsm.state_name wrong_next)
                  window))
      | _ -> ())
    masked;
  let r4 = List.length masked in
  if r4 > cap then
    add
      (Diag.make ~code:"SA641" ~severity:Diag.Warning ~pass:"fault-structural"
         ~loc:Diag.Whole_circuit
         (Printf.sprintf "%d more masked transfer errors" (r4 - cap)));
  List.rev !diags

(* ---- suite-cover ---- *)

(* static prediction by graph walk: no lockstep fault simulation, just
   the transition function. Matches Detect.transitions_covered's
   semantics (coverage counts the prefix before the first invalid
   input), with the invalid step additionally diagnosed. *)
let check_suite (m : Fsm.t) words =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let covered = Hashtbl.create 256 in
  let states = Hashtbl.create 64 in
  Hashtbl.replace states m.Fsm.reset ();
  let redundant = ref [] in
  List.iteri
    (fun wi word ->
      let s = ref m.Fsm.reset in
      let fresh = ref 0 and pos = ref 0 and stopped = ref false in
      List.iter
        (fun i ->
          if not !stopped then begin
            if i < 0 || i >= m.Fsm.n_inputs || not (m.Fsm.valid !s i) then begin
              stopped := true;
              add
                (Diag.make ~code:"SA650" ~severity:Diag.Error ~pass:"suite-cover"
                   ~loc:(Diag.Word (word_name m word))
                   ~related:[ m.Fsm.state_name !s ]
                   (Printf.sprintf
                      "word %d applies input %s at position %d, invalid in state \
                       %s: the rest of the word cannot execute"
                      wi
                      (if i >= 0 && i < m.Fsm.n_inputs then m.Fsm.input_name i
                       else string_of_int i)
                      !pos (m.Fsm.state_name !s)))
            end
            else begin
              if not (Hashtbl.mem covered (!s, i)) then begin
                Hashtbl.replace covered (!s, i) ();
                incr fresh
              end;
              s := m.Fsm.next !s i;
              Hashtbl.replace states !s ();
              incr pos
            end
          end)
        word;
      if !fresh = 0 && not !stopped then begin
        redundant := wi :: !redundant;
        add
          (Diag.make ~code:"SA652" ~severity:Diag.Info ~pass:"suite-cover"
             ~loc:(Diag.Word (word_name m word))
             (Printf.sprintf
                "word %d covers no transition not already covered by earlier words"
                wi))
      end)
    words;
  let missed =
    List.filter_map
      (fun (s, i, _, _) -> if Hashtbl.mem covered (s, i) then None else Some (s, i))
      (Fsm.transitions m)
  in
  if missed <> [] then begin
    let related =
      List.filteri (fun i _ -> i < cap) missed
      |> List.map (fun (s, i) -> trans_name m s i)
    in
    add
      (Diag.make ~code:"SA651" ~severity:Diag.Warning ~pass:"suite-cover"
         ~loc:Diag.Whole_circuit ~related
         (Printf.sprintf
            "suite misses %d of %d reachable transitions: predicted coverage %.1f%%"
            (List.length missed)
            (Fsm.n_transitions m)
            (100.0
            *. float_of_int (Hashtbl.length covered)
            /. float_of_int (max 1 (Fsm.n_transitions m)))))
  end;
  ( List.rev !diags,
    {
      n_words = List.length words;
      suite_states = Hashtbl.length states;
      suite_transitions = Hashtbl.length covered;
      redundant = List.rev !redundant;
      missed;
    } )

(* ---- orchestration ---- *)

let run ?(budget = Budget.unlimited) ?(name = "fsm") ?(k_bound = 8) ?facts
    ?(seed = 7) ?suite (m : Fsm.t) =
  let diags = ref [] and passes = ref [] and skipped = ref [] in
  let truncated = ref None in
  let pass id f =
    if !truncated <> None then skipped := id :: !skipped
    else
      match Budget.step budget with
      | () ->
          passes := id :: !passes;
          diags := !diags @ f ()
      | exception Budget.Budget_exceeded r ->
          truncated := Some r;
          skipped := id :: !skipped
  in
  let seen = Fsm.reachable m in
  (* Theorem 1's facts: the caller's, or solved on first use (never
     on a malformed machine) *)
  let facts = match facts with Some f -> lazy f | None -> lazy (Tour.facts ~k_bound m) in
  let n_sccs = ref 1 in
  let certified_k = ref None in
  let n_classes = ref 0 in
  let suite_out = ref None in
  pass "well-formed" (fun () -> check_well_formed m seen);
  let malformed = List.exists (fun d -> d.Diag.code = "SA604") !diags in
  if not malformed then begin
    pass "connectivity" (fun () ->
        let ds, k = check_connectivity m seen in
        n_sccs := k;
        ds);
    pass "minimality" (fun () ->
        let cls = Fsm.classes m in
        let reps = Hashtbl.create 16 in
        Array.iter (fun c -> if c >= 0 then Hashtbl.replace reps c ()) cls;
        n_classes := Hashtbl.length reps;
        check_minimality m cls seen);
    let minimal = not (List.exists (fun d -> d.Diag.code = "SA620") !diags) in
    if minimal then
      pass "distinguishability" (fun () ->
          let ds, k = check_distinguishability m (Lazy.force facts) in
          certified_k := k;
          ds)
    else
      (* equivalent pairs defeat ∀k for every k: SA620 already says so;
         a masking-word witness per pair would be noise *)
      skipped := "distinguishability" :: !skipped;
    (match (Lazy.force facts).Tour.tour with
    | Some tour ->
        pass "fault-structural" (fun () ->
            let k = Option.value ~default:1 !certified_k in
            check_fault_structural m (Rng.create seed) tour ~k)
    | None ->
        (* no tour to replay faults on; SA610/SA601 carry the reason *)
        skipped := "fault-structural" :: !skipped);
    match suite with
    | None -> ()
    | Some words ->
        pass "suite-cover" (fun () ->
            let ds, sr = check_suite m words in
            suite_out := Some sr;
            ds)
  end;
  (* each pass is scheduled once, in run order, and lands in exactly
     one of the two lists *)
  let passes = List.rev !passes and skipped = List.rev !skipped in
  {
    name;
    stats =
      {
        n_states = m.Fsm.n_states;
        n_reachable = Fsm.n_reachable m;
        n_inputs = m.Fsm.n_inputs;
        n_transitions = Fsm.n_transitions m;
        n_classes = !n_classes;
        n_sccs = !n_sccs;
        certified_k = !certified_k;
      };
    passes;
    skipped;
    diags = List.sort Diag.compare !diags;
    suite = !suite_out;
    truncated = !truncated;
  }

let schema_id = "simcov-fsmlint/1"

let suite_to_json s =
  Json.Obj
    [
      ("words", Json.Int s.n_words);
      ("states_covered", Json.Int s.suite_states);
      ("transitions_covered", Json.Int s.suite_transitions);
      ("redundant", Json.List (List.map (fun i -> Json.Int i) s.redundant));
      ( "missed",
        Json.List
          (List.map
             (fun (s, i) ->
               Json.Obj [ ("state", Json.Int s); ("input", Json.Int i) ])
             s.missed) );
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String schema_id);
      ( "model",
        Json.Obj
          [
            ("name", Json.String r.name);
            ("states", Json.Int r.stats.n_states);
            ("reachable", Json.Int r.stats.n_reachable);
            ("inputs", Json.Int r.stats.n_inputs);
            ("transitions", Json.Int r.stats.n_transitions);
            ("classes", Json.Int r.stats.n_classes);
            ("sccs", Json.Int r.stats.n_sccs);
            ( "certified_k",
              match r.stats.certified_k with
              | None -> Json.Null
              | Some k -> Json.Int k );
          ] );
      ("passes", Json.List (List.map (fun p -> Json.String p) r.passes));
      ("skipped", Json.List (List.map (fun p -> Json.String p) r.skipped));
      ("diagnostics", Json.List (List.map Diag.to_json r.diags));
      ("suite", match r.suite with None -> Json.Null | Some s -> suite_to_json s);
      ( "truncated",
        match r.truncated with
        | None -> Json.Null
        | Some res -> Json.String (Budget.resource_name res) );
    ]

let pp fmt r =
  Format.fprintf fmt
    "@[<v>fsm-lint %s: %d states (%d reachable, %d classes), %d inputs, %d \
     transitions, %d SCC%s@,"
    r.name r.stats.n_states r.stats.n_reachable r.stats.n_classes r.stats.n_inputs
    r.stats.n_transitions r.stats.n_sccs
    (if r.stats.n_sccs = 1 then "" else "s");
  (match r.stats.certified_k with
  | Some k -> Format.fprintf fmt "certified: forall-%d-distinguishable@," k
  | None -> ());
  List.iter (fun d -> Format.fprintf fmt "%a@," Diag.pp d) r.diags;
  (match r.suite with
  | Some s ->
      Format.fprintf fmt
        "suite: %d words cover %d states, %d/%d transitions (%d redundant, %d \
         missed)@,"
        s.n_words s.suite_states s.suite_transitions r.stats.n_transitions
        (List.length s.redundant) (List.length s.missed)
  | None -> ());
  (match r.truncated with
  | Some res ->
      Format.fprintf fmt "analysis truncated: %s budget exhausted%s@,"
        (Budget.resource_name res)
        (if r.skipped = [] then ""
         else Printf.sprintf " (skipped: %s)" (String.concat ", " r.skipped))
  | None -> ());
  Format.fprintf fmt "%d error%s, %d warning%s, %d info@]"
    (Diag.count r.diags Diag.Error)
    (if Diag.count r.diags Diag.Error = 1 then "" else "s")
    (Diag.count r.diags Diag.Warning)
    (if Diag.count r.diags Diag.Warning = 1 then "" else "s")
    (Diag.count r.diags Diag.Info)

(* Benchmark harness: regenerates every quantitative artifact of the
   paper's evaluation (Figure 2, Figure 3(b), the Section 7.2 model
   statistics) plus the ablations its arguments call for, and a
   Bechamel micro-benchmark suite. See EXPERIMENTS.md for the
   paper-vs-measured record. *)

open Simcov_util
open Simcov_fsm
open Simcov_dlx
open Simcov_core

let seed = 20260707
let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let json = Array.exists (fun a -> a = "--json") Sys.argv

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b

let fmt_float f =
  if Float.abs f >= 1e6 then Printf.sprintf "%.3e" f else Printf.sprintf "%.0f" f

(* ------------------------------------------------------------------ *)
(* E1 — Figure 2: limitations of transition tours                      *)
(* ------------------------------------------------------------------ *)

let exp_fig2 () =
  let t =
    Tabulate.create [ "machine"; "tour"; "is transition tour"; "error detected" ]
  in
  List.iter
    (fun (r : Fig2.row) ->
      Tabulate.add_row t
        [
          r.Fig2.machine;
          r.Fig2.tour;
          string_of_bool r.Fig2.is_tour;
          string_of_bool r.Fig2.detected;
        ])
    (Fig2.experiment ());
  Tabulate.print ~title:"E1 / Figure 2 — a tour may or may not expose a transfer error" t;
  let rng = Rng.create seed in
  let n = 200 in
  let d_orig = Fig2.random_tour_detection rng ~n Fig2.original in
  let d_rep = Fig2.random_tour_detection rng ~n Fig2.repaired in
  let t2 = Tabulate.create [ "machine"; "random covering walks"; "detected"; "rate" ] in
  Tabulate.add_row t2
    [ "original"; string_of_int n; string_of_int d_orig; Printf.sprintf "%.1f%%" (pct d_orig n) ];
  Tabulate.add_row t2
    [ "repaired"; string_of_int n; string_of_int d_rep; Printf.sprintf "%.1f%%" (pct d_rep n) ];
  Tabulate.print
    ~title:"E1b — random covering walks: repair (∀1-distinguishability) makes detection certain"
    t2

(* ------------------------------------------------------------------ *)
(* E2 — Figure 3(b): the abstraction sequence                          *)
(* ------------------------------------------------------------------ *)

let paper_fig3b = [ 118; 110; 86; 54; 46; 22 ]

let exp_fig3b () =
  let _, trace = Control.derive_test_model () in
  let t =
    Tabulate.create
      [ "abstraction step"; "regs before"; "regs after"; "inputs"; "gates"; "paper (after)" ]
  in
  List.iteri
    (fun k (e : Simcov_abstraction.Netabs.trace_entry) ->
      Tabulate.add_row t
        [
          e.Simcov_abstraction.Netabs.step_label;
          string_of_int e.Simcov_abstraction.Netabs.regs_before;
          string_of_int e.Simcov_abstraction.Netabs.regs_after;
          string_of_int e.Simcov_abstraction.Netabs.inputs_after;
          string_of_int e.Simcov_abstraction.Netabs.gates_after;
          string_of_int (List.nth paper_fig3b k);
        ])
    trace;
  Tabulate.print
    ~title:
      "E2 / Figure 3(b) — state-space abstraction sequence (ours 101 -> 32; paper 160 -> 22)"
    t

(* ------------------------------------------------------------------ *)
(* E3 — Section 7.2: test-model statistics (symbolic)                  *)
(* ------------------------------------------------------------------ *)

let exp_sec72 () =
  let final, _ = Control.derive_test_model () in
  let sym, t_build = time_it (fun () -> Simcov_symbolic.Symfsm.of_circuit final) in
  let open Simcov_symbolic.Symfsm in
  let reach, t_reach = time_it (fun () -> reachable sym) in
  let r, iters = reach in
  let n_reach = count_states sym r in
  let n_valid = count_valid_inputs sym in
  let n_trans = count_transitions sym in
  let t = Tabulate.create [ "statistic"; "ours"; "paper" ] in
  let row a b c = Tabulate.add_row t [ a; b; c ] in
  row "latches (state elements)" (string_of_int sym.n_state_vars) "22";
  row "primary inputs" (string_of_int sym.n_input_vars) "25";
  row "primary outputs" (string_of_int (Array.length sym.outputs)) "4";
  row "valid input combinations"
    (Printf.sprintf "%s of 2^%d" (fmt_float n_valid) sym.n_input_vars)
    "8228 of 2^25";
  row "reachable states"
    (Printf.sprintf "%s of 2^%d" (fmt_float n_reach) sym.n_state_vars)
    "13,720 of 2^22";
  row "reachability iterations" (string_of_int iters) "-";
  row "transitions to cover" (fmt_float n_trans) "123 million";
  row "tour length lower bound" (fmt_float n_trans) "1069 million (non-optimal tour)";
  row "transition-relation conjuncts"
    (Printf.sprintf "%d (%d nodes total)" (List.length sym.parts)
       (List.fold_left (fun acc p -> acc + Simcov_bdd.Bdd.size sym.man p.rel) 0 sym.parts))
    "-";
  row "relation build time (partitioned)" (Printf.sprintf "%.2fs" t_build)
    "~10s (Ultrasparc 166MHz)";
  row "reachability time" (Printf.sprintf "%.2fs" t_reach) "-";
  Tabulate.print ~title:"E3 / Section 7.2 — derived test-model statistics" t

(* ------------------------------------------------------------------ *)
(* E3b — the issue-level test model, counted from its netlist          *)
(* ------------------------------------------------------------------ *)

let exp_testmodel_netlist () =
  let t =
    Tabulate.create
      [ "registers"; "latches"; "inputs"; "valid inputs"; "states"; "transitions"; "build + reach" ]
  in
  List.iter
    (fun n_regs ->
      let config = { Testmodel.default with Testmodel.n_regs } in
      let open Simcov_symbolic.Symfsm in
      let sym, secs =
        time_it (fun () ->
            let sym = of_circuit (Testmodel.netlist config) in
            ignore (reachable sym);
            sym)
      in
      Tabulate.add_row t
        [
          string_of_int n_regs;
          string_of_int sym.n_state_vars;
          string_of_int sym.n_input_vars;
          Printf.sprintf "%.0f" (count_valid_inputs sym);
          Printf.sprintf "%.0f" (count_reachable sym);
          Printf.sprintf "%.0f" (count_transitions sym);
          Printf.sprintf "%.3fs" secs;
        ])
    [ 4; 8; 16; 32 ];
  Tabulate.add_row t [ "paper"; "22"; "25"; "8228"; "13720"; "123 million"; "-" ];
  Tabulate.print
    ~title:"E3b — the DLX test model's netlist, counted symbolically (no table)" t

(* ------------------------------------------------------------------ *)
(* E4 — Theorem 3, empirically: fault coverage of test sets            *)
(* ------------------------------------------------------------------ *)

let exp_thm3 () =
  let rng = Rng.create seed in
  let model = Testmodel.build Testmodel.default in
  let cert =
    match Completeness.certify model with
    | Ok c -> c
    | Error _ -> failwith "certificate must hold on the default model"
  in
  let cpp = Completeness.padded_tour model cert in
  let greedy =
    match Simcov_testgen.Tour.greedy_transition_tour model with
    | Some t -> t.Simcov_testgen.Tour.word
    | None -> assert false
  in
  let state_t =
    match Simcov_testgen.Tour.state_tour model with
    | Some t -> t.Simcov_testgen.Tour.word
    | None -> assert false
  in
  let rand_same = Simcov_testgen.Tour.random_word rng model ~length:(List.length cpp) in
  let rand_tenth =
    Simcov_testgen.Tour.random_word rng model ~length:(List.length cpp / 10)
  in
  let rand_short = Simcov_testgen.Tour.random_word rng model ~length:120 in
  let faults = Simcov_coverage.Fault.sample_faults rng model ~count:300 in
  let t =
    Tabulate.create
      [ "test set"; "length"; "state cov"; "transition cov"; "fault coverage" ]
  in
  let eval name word =
    let report = Simcov_coverage.Detect.campaign model faults word in
    Tabulate.add_row t
      [
        name;
        string_of_int (List.length word);
        Printf.sprintf "%d/%d"
          (Simcov_coverage.Detect.state_coverage model word)
          (Fsm.n_reachable model);
        Printf.sprintf "%d/%d"
          (Simcov_coverage.Detect.transition_coverage model word)
          (Fsm.n_transitions model);
        Printf.sprintf "%.1f%%" (Simcov_coverage.Detect.coverage_pct report);
      ]
  in
  eval "CPP transition tour (+k pad)" cpp;
  eval "greedy transition tour" greedy;
  eval "state tour" state_t;
  eval "random walk (same length)" rand_same;
  eval "random walk (1/10 length)" rand_tenth;
  eval "random walk (length 120)" rand_short;
  Tabulate.print
    ~title:
      "E4 / Theorem 3 — fault coverage on the DLX test model (600 sampled transfer+output errors)"
    t;

  (* pipeline-level: seeded implementation bugs vs concretized programs *)
  let run_bugs word =
    let conc = Testmodel.concretize Testmodel.default word in
    (Validate.bug_campaign_tests [ conc.Testmodel.test ]).Validate.bug_results
  in
  let tour_bugs = run_bugs cpp in
  let rand_bugs = run_bugs rand_same in
  let rand_bugs_tenth = run_bugs rand_tenth in
  let rand_bugs_short = run_bugs rand_short in
  let t2 =
    Tabulate.create
      [ "pipeline bug"; "tour program"; "random (same)"; "random (1/10)"; "random (120)" ]
  in
  List.iter
    (fun (name, d) ->
      let f l = if List.assoc name l then "detected" else "missed" in
      Tabulate.add_row t2
        [
          name;
          (if d then "detected" else "missed");
          f rand_bugs;
          f rand_bugs_tenth;
          f rand_bugs_short;
        ])
    tour_bugs;
  let count l = List.length (List.filter snd l) in
  let n = List.length tour_bugs in
  Tabulate.add_row t2
    [
      "TOTAL";
      Printf.sprintf "%d/%d" (count tour_bugs) n;
      Printf.sprintf "%d/%d" (count rand_bugs) n;
      Printf.sprintf "%d/%d" (count rand_bugs_tenth) n;
      Printf.sprintf "%d/%d" (count rand_bugs_short) n;
    ];
  Tabulate.print
    ~title:"E4b — seeded pipeline bugs: tour-derived program vs random programs" t2;

  (* the structured baseline: directed hazard templates (ref [18]) *)
  let hz = Hazardgen.bug_campaign () in
  let hz_len = Hazardgen.total_instructions (Hazardgen.suite ()) in
  let conc_tour = Testmodel.concretize Testmodel.default cpp in
  let t3 = Tabulate.create [ "test set"; "instructions"; "bugs detected"; "guarantee" ] in
  Tabulate.add_row t3
    [
      "certified transition tour";
      string_of_int (Array.length conc_tour.Testmodel.test.Validate.program);
      Printf.sprintf "%d/%d" (count tour_bugs) n;
      "complete for the modeled error classes (Thm 3)";
    ];
  Tabulate.add_row t3
    [
      "hazard templates (Iwashita-style, [18])";
      string_of_int hz_len;
      Printf.sprintf "%d/%d" hz.Validate.n_detected hz.Validate.n_bugs;
      "only what the template list enumerates";
    ];
  Tabulate.add_row t3
    [
      "random (tour length)";
      string_of_int (List.length rand_same);
      Printf.sprintf "%d/%d" (count rand_bugs) n;
      "none";
    ];
  Tabulate.add_row t3
    [
      "random (120)";
      string_of_int 120;
      Printf.sprintf "%d/%d" (count rand_bugs_short) n;
      "none";
    ];
  Tabulate.print
    ~title:"E4c — test-generation strategies: cost vs guarantee" t3

(* ------------------------------------------------------------------ *)
(* E5 — Section 6.3: abstracting too much (interlock ablation)         *)
(* ------------------------------------------------------------------ *)

let exp_sec63 () =
  let r = Methodology.ablation_dest_tracking ~seed () in
  let t = Tabulate.create [ "quantity"; "dest-tracking model"; "dest-less model" ] in
  Tabulate.add_row t [ "states"; "28"; "6" ];
  Tabulate.add_row t
    [
      "transitions";
      string_of_int r.Methodology.refined_transitions;
      string_of_int r.Methodology.abstract_transitions;
    ];
  Tabulate.add_row t
    [
      "tour length";
      string_of_int r.Methodology.refined_tour_length;
      string_of_int r.Methodology.abstract_tour_length;
    ];
  Tabulate.add_row t
    [
      "refined transitions covered by tour";
      string_of_int r.Methodology.refined_transitions;
      Printf.sprintf "%d (%.1f%%)" r.Methodology.refined_covered_by_abstract_tour
        (pct r.Methodology.refined_covered_by_abstract_tour r.Methodology.refined_transitions);
    ];
  Tabulate.add_row t
    [
      "fault coverage (same 300 faults)";
      Printf.sprintf "%.1f%%"
        (Simcov_coverage.Detect.coverage_pct r.Methodology.fault_coverage_refined_tour);
      Printf.sprintf "%.1f%%"
        (Simcov_coverage.Detect.coverage_pct r.Methodology.fault_coverage_abstract_tour);
    ];
  Tabulate.add_row t
    [
      "exact homomorphic quotient?";
      "yes (identity)";
      (if r.Methodology.quotient_conflict then "NO (conflict)" else "yes");
    ];
  Tabulate.print
    ~title:"E5 / Section 6.3 — dropping destination-register state abstracts too much" t;
  (* uniformity: transitions where the dest-less model mispredicts the
     control action are exactly the non-uniform output errors *)
  let refined = Testmodel.build Testmodel.default in
  let abstract = Testmodel.build { Testmodel.default with Testmodel.track_dest = false } in
  let mapping = Testmodel.dest_merge_mapping Testmodel.default in
  let faulty (s, i) =
    let sa = mapping.Simcov_abstraction.Homomorphism.state_map s in
    refined.Fsm.output s i land 0x3F <> abstract.Fsm.output sa i land 0x3F
  in
  let classes = Simcov_coverage.Uniformity.classify refined mapping ~faulty in
  let non_uniform =
    List.filter (fun c -> not (Simcov_coverage.Uniformity.is_uniform c)) classes
  in
  let t2 = Tabulate.create [ "quantity"; "count" ] in
  Tabulate.add_row t2
    [
      "abstract transitions with mispredicted control";
      string_of_int (List.length classes);
    ];
  Tabulate.add_row t2
    [
      "of which non-uniform (Requirement 1 violated)";
      string_of_int (List.length non_uniform);
    ];
  Tabulate.print ~title:"E5b — Requirement 1 (uniformity) under the dest-less abstraction" t2

(* ------------------------------------------------------------------ *)
(* E6 — tour length: optimal vs greedy                                 *)
(* ------------------------------------------------------------------ *)

let exp_tour_length () =
  let t =
    Tabulate.create
      [ "model"; "states"; "transitions"; "CPP tour"; "greedy tour"; "overhead" ]
  in
  let add name model =
    match
      ( Simcov_testgen.Tour.transition_tour model,
        Simcov_testgen.Tour.greedy_transition_tour model )
    with
    | Some opt, Some gr ->
        Tabulate.add_row t
          [
            name;
            string_of_int (Fsm.n_reachable model);
            string_of_int opt.Simcov_testgen.Tour.n_transitions;
            string_of_int opt.Simcov_testgen.Tour.length;
            string_of_int gr.Simcov_testgen.Tour.length;
            Printf.sprintf "%.2fx"
              (float_of_int gr.Simcov_testgen.Tour.length
              /. float_of_int opt.Simcov_testgen.Tour.length);
          ]
    | _ -> Tabulate.add_row t [ name; "-"; "-"; "-"; "-"; "-" ]
  in
  List.iter
    (fun n_regs ->
      let model = Testmodel.build { Testmodel.default with Testmodel.n_regs } in
      add (Printf.sprintf "DLX test model, %d regs" n_regs) model)
    (if quick then [ 2; 4 ] else [ 2; 4; 8 ]);
  let rng = Rng.create seed in
  List.iter
    (fun n ->
      add
        (Printf.sprintf "random machine, %d states" n)
        (Fsm.random_connected rng ~n_states:n ~n_inputs:4 ~n_outputs:4))
    (if quick then [ 50 ] else [ 50; 200; 500 ]);
  Tabulate.print ~title:"E6 — transition-tour length: Chinese-postman optimal vs greedy" t

(* ------------------------------------------------------------------ *)
(* E7 — ∀k-distinguishability profiles                                 *)
(* ------------------------------------------------------------------ *)

let exp_forall_k () =
  let t = Tabulate.create [ "model"; "k=1"; "k=2"; "k=3"; "k=4"; "min k (all pairs)" ] in
  let profile name model =
    let seen = Fsm.reachable model in
    let n = model.Fsm.n_states in
    let frac k =
      let mat = Fsm.forall_k_matrix model ~k in
      let good = ref 0 and total = ref 0 in
      for p = 0 to n - 1 do
        for q = p + 1 to n - 1 do
          if seen.(p) && seen.(q) then begin
            incr total;
            if mat.(p).(q) then incr good
          end
        done
      done;
      Printf.sprintf "%.1f%%" (pct !good !total)
    in
    let cells = List.map frac [ 1; 2; 3; 4 ] in
    let mink =
      match Fsm.min_forall_k ~bound:8 model with
      | Ok k -> string_of_int k
      | Error _ -> "none <= 8"
    in
    Tabulate.add_row t ((name :: cells) @ [ mink ])
  in
  profile "DLX test model (R5 satisfied)" (Testmodel.build Testmodel.default);
  profile "DLX test model (R5 violated: dest hidden)"
    (Testmodel.build { Testmodel.default with Testmodel.observable_dest = false });
  profile "Figure 2 fragment (original)" Fig2.original;
  profile "Figure 2 fragment (repaired)" Fig2.repaired;
  Tabulate.print
    ~title:"E7 / Definition 5 — fraction of reachable state pairs ∀k-distinguishable" t;
  (* the pair at the heart of Figure 2: state 3 vs the error successor
     3' (unreachable in the correct machine, hence tracked separately) *)
  let t2 = Tabulate.create [ "machine"; "pair"; "k=1"; "k=2"; "k=3"; "k=4" ] in
  let pair name m =
    Tabulate.add_row t2
      (name :: "3 vs 3'"
      :: List.map
           (fun k -> string_of_bool (Fsm.forall_k_distinguishable m ~k 2 3))
           [ 1; 2; 3; 4 ])
  in
  pair "Figure 2 (original)" Fig2.original;
  pair "Figure 2 (repaired)" Fig2.repaired;
  Tabulate.print
    ~title:
      "E7b — the Figure 2 pair: ∀k-distinguishability of 3 vs 3' decides tour completeness"
    t2

(* ------------------------------------------------------------------ *)
(* E9 — conformance-testing baselines: tour vs checking seq vs W      *)
(* ------------------------------------------------------------------ *)

let exp_conformance_baselines () =
  let t =
    Tabulate.create
      [ "machine"; "test set"; "input symbols"; "transfer-fault coverage" ]
  in
  let eval name m =
    (* transfer faults may redirect into ANY specification state,
       including ones unreachable in the correct machine (Figure 2's
       3') *)
    let faults =
      List.concat_map
        (fun (s, i, s', _) ->
          List.filter_map
            (fun d ->
              if d = s' then None
              else Some (Simcov_coverage.Fault.Transfer { state = s; input = i; wrong_next = d }))
            (List.init m.Fsm.n_states Fun.id))
        (Fsm.transitions m)
    in
    let row set_name len coverage =
      Tabulate.add_row t [ name; set_name; string_of_int len; coverage ]
    in
    (* the padded tour when the model certifies (Theorem 1 requires the
       k-step exposure window after the last transition), the plain
       tour otherwise *)
    (let tour_word, tour_label =
       match Completeness.certify ~scope:`All m with
       | Ok cert ->
           (Some (Completeness.padded_tour m cert), "transition tour (certified, +k pad)")
       | Error _ -> (
           match Simcov_testgen.Tour.transition_tour m with
           | Some tour -> (Some tour.Simcov_testgen.Tour.word, "transition tour (UNcertified)")
           | None -> (None, "transition tour"))
     in
     match tour_word with
     | Some word ->
         let r = Simcov_coverage.Detect.campaign m faults word in
         row tour_label (List.length word)
           (Printf.sprintf "%.1f%%" (Simcov_coverage.Detect.coverage_pct r))
     | None -> row tour_label 0 "-");
    (match Simcov_testgen.Uio.checking_sequence ~scope:`All m with
    | Some cs ->
        let r = Simcov_coverage.Detect.campaign m faults cs in
        row "checking sequence (tour+UIO)" (List.length cs)
          (Printf.sprintf "%.1f%%" (Simcov_coverage.Detect.coverage_pct r))
    | None -> row "checking sequence (tour+UIO)" 0 "no UIOs");
    let words = Simcov_testgen.Wmethod.suite ~scope:`All m in
    let r = Simcov_testgen.Wmethod.campaign m faults words in
    row "W-method (P.W suite)"
      (Simcov_testgen.Wmethod.total_length words)
      (Printf.sprintf "%.1f%%" (Simcov_coverage.Detect.coverage_pct r))
  in
  eval "Figure 2 (original)" Fig2.original;
  eval "Figure 2 (repaired)" Fig2.repaired;
  eval "DLX test model (2 regs)"
    (Testmodel.build { Testmodel.default with Testmodel.n_regs = 2 });
  eval "DSP MAC test model" (Simcov_dsp.Mac.Testmodel.build ());
  Tabulate.print
    ~title:
      "E9 — conformance baselines: a plain tour misses what per-transition verification \
       catches (at a length cost); with the paper's Requirements the plain tour already \
       reaches 100%"
    t

(* ------------------------------------------------------------------ *)
(* E10 — the second design class: the fixed-program DSP (Section 5)   *)
(* ------------------------------------------------------------------ *)

let exp_dsp () =
  let open Simcov_dsp.Mac in
  let model = Testmodel.build () in
  let cert =
    match Completeness.certify model with Ok c -> c | Error _ -> failwith "dsp certify"
  in
  let word = Completeness.padded_tour model cert in
  let cmds = Testmodel.concretize word in
  let t = Tabulate.create [ "quantity"; "value" ] in
  Tabulate.add_row t [ "test-model states"; string_of_int cert.Completeness.n_states ];
  Tabulate.add_row t
    [ "test-model transitions"; string_of_int cert.Completeness.n_transitions ];
  Tabulate.add_row t [ "certificate k"; string_of_int cert.Completeness.k ];
  Tabulate.add_row t [ "tour length"; string_of_int (List.length word) ];
  Tabulate.add_row t [ "command stream"; string_of_int (List.length cmds) ];
  let campaign = Validate.bug_campaign cmds in
  Tabulate.add_row t
    [
      "seeded pipeline bugs detected";
      Printf.sprintf "%d/%d"
        (List.length (List.filter snd campaign))
        (List.length campaign);
    ];
  let rng = Rng.create seed in
  let fsm_report = Completeness.check_empirically rng model cert in
  Tabulate.add_row t
    [
      "FSM fault coverage";
      Printf.sprintf "%.1f%%" (Simcov_coverage.Detect.coverage_pct fsm_report);
    ];
  Tabulate.print
    ~title:"E10 / Section 5 — the fixed-program DSP (MAC ASIC): same methodology, same shape"
    t

(* ------------------------------------------------------------------ *)
(* E11 — symbolic tour + observability metric                          *)
(* ------------------------------------------------------------------ *)

(* a mid-size circuit family: symbolic tours without explicit
   enumeration (E11), and the tour-length probe of the E13 JSON *)
let lfsr width taps =
  let open Simcov_netlist in
  let open Circuit.Build in
  let ctx = create "lfsr" in
  let en = input ctx "en" in
  let bits = reg_vec ctx ~init:1 "s" width in
  let feedback =
    List.fold_left (fun acc t -> Expr.( ^^^ ) acc bits.(t)) Expr.fls taps
  in
  assign ctx bits.(0) (Expr.mux en feedback bits.(0));
  for k = 1 to width - 1 do
    assign ctx bits.(k) (Expr.mux en bits.(k - 1) bits.(k))
  done;
  output ctx "msb" bits.(width - 1);
  finish ctx

let exp_symbolic_tour () =
  let t =
    Tabulate.create
      [ "circuit"; "latches"; "transitions"; "tour steps"; "complete"; "time" ]
  in
  List.iter
    (fun (width, taps) ->
      let c = lfsr width taps in
      let r, dt = time_it (fun () -> Simcov_symbolic.Symtour.generate c) in
      Tabulate.add_row t
        [
          Printf.sprintf "lfsr-%d" width;
          string_of_int width;
          fmt_float r.Simcov_symbolic.Symtour.progress.Simcov_symbolic.Symtour.total;
          string_of_int (List.length r.Simcov_symbolic.Symtour.word);
          string_of_bool r.Simcov_symbolic.Symtour.complete;
          Printf.sprintf "%.2fs" dt;
        ])
    (if quick then [ (6, [ 5; 4 ]); (8, [ 7; 5; 4; 3 ]) ]
     else [ (6, [ 5; 4 ]); (8, [ 7; 5; 4; 3 ]); (10, [ 9; 6 ]) ]);
  Tabulate.print
    ~title:
      "E11 — symbolic (implicit) tour generation, the paper's Section 6.5 machinery"
    t;
  (* observability metric on the tour word vs an idle-heavy word *)
  let c = lfsr 6 [ 5; 4 ] in
  let tour = Simcov_symbolic.Symtour.generate c in
  let obs_tour =
    Simcov_coverage.Observability.analyze ~horizon:6 c tour.Simcov_symbolic.Symtour.word
  in
  let rng = Rng.create seed in
  let idle =
    List.init (List.length tour.Simcov_symbolic.Symtour.word) (fun _ ->
        [| Rng.int rng 4 = 0 |])
  in
  let obs_idle = Simcov_coverage.Observability.analyze ~horizon:6 c idle in
  let t2 = Tabulate.create [ "stimulus"; "toggle cov"; "observability cov" ] in
  let row name (r : Simcov_coverage.Observability.report) =
    Tabulate.add_row t2
      [
        name;
        Printf.sprintf "%.0f%%" (Simcov_coverage.Observability.toggle_pct r);
        Printf.sprintf "%.0f%%" (Simcov_coverage.Observability.observability_pct r);
      ]
  in
  row "symbolic tour" obs_tour;
  row "idle-heavy random (same length)" obs_idle;
  Tabulate.print
    ~title:"E11b — observability-based metric ([11]-style) on the same stimuli" t2

(* ------------------------------------------------------------------ *)
(* E12 — dual-issue: the superscalar case Section 5 motivates          *)
(* ------------------------------------------------------------------ *)

let exp_dual () =
  let pcs = Dual.pair_classes () in
  let program = Dual.concretize_pairs pcs in
  let d = Dual.create program in
  let _ = Dual.run d in
  let cycles, duals, singles = Dual.stats d in
  let t = Tabulate.create [ "quantity"; "value" ] in
  Tabulate.add_row t [ "feasible pair classes"; string_of_int (List.length pcs) ];
  Tabulate.add_row t [ "pair-coverage program"; Printf.sprintf "%d instructions" (Array.length program) ];
  Tabulate.add_row t
    [ "golden machine"; Printf.sprintf "%d cycles, %d dual + %d single issues" cycles duals singles ];
  let campaign = Dual.bug_campaign program in
  List.iter
    (fun (name, det) ->
      Tabulate.add_row t [ "bug " ^ name; (if det then "DETECTED" else "missed") ])
    campaign;
  (* random programs for contrast *)
  let rng = Rng.create seed in
  let random_program len =
    let r () = Rng.int rng 8 in
    Array.init len (fun k ->
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~rs2:(r ()) Isa.Add
        | 3 | 4 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~imm:(Rng.int rng 16) Isa.Addi
        | 5 -> Isa.make ~rd:(r ()) ~rs1:(r ()) ~imm:(Rng.int rng 8) Isa.Lw
        | 6 -> Isa.make ~rs1:(r ()) ~rs2:(r ()) ~imm:(Rng.int rng 8) Isa.Sw
        | 7 ->
            let max_off = max 1 (min 3 (len - k - 1)) in
            Isa.make ~rs1:(r ()) ~imm:(1 + Rng.int rng max_off) Isa.Bnez
        | _ -> Isa.nop)
  in
  let count_random len =
    let p = random_program len in
    List.length (List.filter snd (Dual.bug_campaign p))
  in
  Tabulate.add_row t
    [ "random program (same length)"; Printf.sprintf "%d/4 bugs" (count_random (Array.length program)) ];
  Tabulate.add_row t [ "random program (40)"; Printf.sprintf "%d/4 bugs" (count_random 40) ];
  Tabulate.print
    ~title:
      "E12 — dual-issue DLX: pair-class coverage exposes every pairing-rule bug (the        superscalar case of Section 5)"
    t

(* ------------------------------------------------------------------ *)
(* E16 — dynamic variable reordering: sifting vs the build-time order  *)
(* ------------------------------------------------------------------ *)

(* returns the JSON fragment E13 embeds under "reorder" *)
let exp_reorder () =
  let final, _ = Control.derive_test_model () in
  let open Simcov_symbolic.Symfsm in
  let run mode =
    let t0 = Unix.gettimeofday () in
    let sym = of_circuit ~reorder:mode final in
    let tr = traverse sym in
    let wall = Unix.gettimeofday () -. t0 in
    (sym, tr, count_states sym tr.reached, wall)
  in
  let _, tr_off, states_off, wall_off = run `Off in
  let sym_on, tr_on, states_on, wall_on = run `On in
  if states_on <> states_off || tr_on.iterations <> tr_off.iterations then
    failwith "E16: reordered traversal disagrees with the baseline";
  let reduction =
    1. -. (float_of_int tr_on.peak_live_nodes /. float_of_int tr_off.peak_live_nodes)
  in
  let rs = Simcov_bdd.Bdd.reorder_stats sym_on.man in
  let t = Tabulate.create [ "reorder"; "total"; "peak nodes"; "sift runs"; "swaps" ] in
  Tabulate.add_row t
    [ "off (build order)"; Printf.sprintf "%.2fs" wall_off;
      string_of_int tr_off.peak_live_nodes; "-"; "-" ];
  Tabulate.add_row t
    [ "on (sifting)"; Printf.sprintf "%.2fs" wall_on;
      string_of_int tr_on.peak_live_nodes;
      string_of_int rs.Simcov_bdd.Bdd.reorder_runs;
      string_of_int rs.Simcov_bdd.Bdd.reorder_swaps ];
  Tabulate.add_row t
    [ "peak reduction"; Printf.sprintf "%.1f%%" (100. *. reduction); ""; ""; "" ];
  Tabulate.print
    ~title:
      "E16 — DLX-model reachability under dynamic variable reordering (Rudell \
       sifting) vs the interleaved build-time order"
    t;
  Printf.sprintf
    "{\"off\": {\"total_s\": %.4f, \"peak_bdd_nodes\": %d}, \"on\": \
     {\"total_s\": %.4f, \"peak_bdd_nodes\": %d, \"sift_runs\": %d, \
     \"sift_swaps\": %d}, \"peak_reduction\": %.4f}"
    wall_off tr_off.peak_live_nodes wall_on tr_on.peak_live_nodes
    rs.Simcov_bdd.Bdd.reorder_runs rs.Simcov_bdd.Bdd.reorder_swaps reduction

(* ------------------------------------------------------------------ *)
(* E13 — symbolic traversal: partitioned TR + frontier BFS ablation    *)
(* ------------------------------------------------------------------ *)

let exp_traversal reorder_json =
  let final, _ = Control.derive_test_model () in
  let open Simcov_symbolic.Symfsm in
  (* each configuration gets a fresh manager so cache warm-up and node
     counts are not shared between runs *)
  let run (partitioned, frontier) =
    let sym = of_circuit final in
    let tb0 = Unix.gettimeofday () in
    if not partitioned then ignore (trans sym);
    let build_s = Unix.gettimeofday () -. tb0 in
    let tr = traverse ~partitioned ~frontier sym in
    (build_s, tr, count_states sym tr.reached)
  in
  let configs =
    [
      ((false, false), "monolithic + full-set (seed baseline)");
      ((false, true), "monolithic + frontier");
      ((true, false), "partitioned + full-set");
      ((true, true), "partitioned + frontier (default)");
    ]
  in
  let results = List.map (fun (cfg, name) -> (cfg, name, run cfg)) configs in
  let total (b, (tr : traversal)) = b +. tr.total_time_s in
  let _, _, (base_build, base_tr, base_states) = List.hd results in
  let base_total = total (base_build, base_tr) in
  let t =
    Tabulate.create
      [ "configuration"; "build"; "reach"; "total"; "iters"; "images"; "peak nodes"; "speedup" ]
  in
  List.iter
    (fun (_, name, (build_s, tr, _)) ->
      Tabulate.add_row t
        [
          name;
          Printf.sprintf "%.2fs" build_s;
          Printf.sprintf "%.2fs" tr.total_time_s;
          Printf.sprintf "%.2fs" (total (build_s, tr));
          string_of_int tr.iterations;
          string_of_int tr.images;
          string_of_int tr.peak_live_nodes;
          Printf.sprintf "%.1fx" (base_total /. total (build_s, tr));
        ])
    results;
  Tabulate.print
    ~title:
      "E13 — DLX-model symbolic reachability: partitioned transition relation and \
       frontier BFS vs the monolithic baseline"
    t;
  (* all four must agree — each config has its own manager, so compare
     iteration and state counts here (exact BDD equality on a shared
     manager is covered by the test suite) *)
  List.iter
    (fun (_, name, (_, (tr : traversal), states)) ->
      if tr.iterations <> base_tr.iterations || states <> base_states then
        failwith ("E13: traversal disagrees with baseline: " ^ name))
    results;
  if json then begin
    let _, _, (best_build, best_tr, _) = List.nth results 3 in
    let sym = of_circuit final in
    let tour, tour_s =
      time_it (fun () -> Simcov_symbolic.Symtour.generate (lfsr 8 [ 7; 5; 4; 3 ]))
    in
    let buf = Buffer.create 1024 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n";
    add "  \"model\": \"dlx-control\",\n";
    add "  \"latches\": %d,\n" sym.n_state_vars;
    add "  \"inputs\": %d,\n" sym.n_input_vars;
    add "  \"reachable_states\": %.0f,\n" base_states;
    add "  \"iterations\": %d,\n" base_tr.iterations;
    let gc = Gc.get () in
    add
      "  \"host\": {\"cores\": %d, \"ocaml\": \"%s\", \"minor_heap_words\": %d, \
       \"space_overhead\": %d},\n"
      (Domain.recommended_domain_count ()) Sys.ocaml_version gc.Gc.minor_heap_size
      gc.Gc.space_overhead;
    add "  \"configs\": [\n";
    List.iteri
      (fun i ((partitioned, frontier), _, (build_s, (tr : traversal), _)) ->
        add
          "    {\"partitioned\": %b, \"frontier\": %b, \"build_s\": %.4f, \
           \"reach_s\": %.4f, \"total_s\": %.4f, \"images\": %d, \
           \"peak_bdd_nodes\": %d}%s\n"
          partitioned frontier build_s tr.total_time_s (total (build_s, tr)) tr.images
          tr.peak_live_nodes
          (if i < List.length results - 1 then "," else ""))
      results;
    add "  ],\n";
    add "  \"speedup_total\": %.2f,\n" (base_total /. total (best_build, best_tr));
    add "  \"reorder\": %s,\n" reorder_json;
    add "  \"tour\": {\"circuit\": \"lfsr-8\", \"length\": %d, \"complete\": %b, \
         \"time_s\": %.4f}\n"
      (List.length tour.Simcov_symbolic.Symtour.word)
      tour.Simcov_symbolic.Symtour.complete tour_s;
    add "}\n";
    Simcov_util.Durable.write_string "BENCH_symbolic.json" (Buffer.contents buf);
    print_endline "wrote BENCH_symbolic.json"
  end

(* ------------------------------------------------------------------ *)
(* E8 — Bechamel micro-benchmarks                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let bdd_work () =
    let m = Simcov_bdd.Bdd.man 16 in
    let f = ref (Simcov_bdd.Bdd.btrue m) in
    for v = 0 to 7 do
      f :=
        Simcov_bdd.Bdd.band m !f
          (Simcov_bdd.Bdd.bor m (Simcov_bdd.Bdd.var m v) (Simcov_bdd.Bdd.var m (15 - v)))
    done;
    Simcov_bdd.Bdd.size m !f
  in
  let rng0 = Rng.create 99 in
  let random_machine = Fsm.random_connected rng0 ~n_states:300 ~n_inputs:3 ~n_outputs:4 in
  (* a machine's reachable set is searched when it is built *)
  let reach_work () =
    Fsm.n_reachable
      (Fsm.make ~n_states:300 ~n_inputs:3 ~next:random_machine.Fsm.next
         ~output:random_machine.Fsm.output ())
  in
  let tour_machine = Fsm.random_connected rng0 ~n_states:100 ~n_inputs:3 ~n_outputs:4 in
  let tour_work () =
    match Simcov_testgen.Tour.transition_tour tour_machine with
    | Some t -> t.Simcov_testgen.Tour.length
    | None -> 0
  in
  let loop_program =
    match
      Isa.parse_program
        "addi r1, r0, 50\n\
         addi r2, r0, 0\n\
         add r2, r2, r1\n\
         lw r3, 0(r2)\n\
         add r2, r2, r3\n\
         addi r1, r1, -1\n\
         bnez r1, -4"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let pipeline_work () =
    let p = Pipeline.create loop_program in
    List.length (Pipeline.run p)
  in
  let spec_work () =
    let s = Spec.create loop_program in
    List.length (Spec.run s)
  in
  let model = Testmodel.build Testmodel.default in
  let forall_k_work () = Fsm.forall_k_matrix model ~k:2 in
  let tests =
    Test.make_grouped ~name:"simcov" ~fmt:"%s/%s"
      [
        Test.make ~name:"bdd-build-16var" (Staged.stage bdd_work);
        Test.make ~name:"fsm-reach-300" (Staged.stage reach_work);
        Test.make ~name:"cpp-tour-100" (Staged.stage tour_work);
        Test.make ~name:"pipeline-loop" (Staged.stage pipeline_work);
        Test.make ~name:"spec-loop" (Staged.stage spec_work);
        Test.make ~name:"forall-k-matrix" (Staged.stage (fun () -> forall_k_work ()));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t = Tabulate.create [ "micro-benchmark"; "time per run" ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let cell =
        match Analyze.OLS.estimates ols_result with
        | Some [ est ] ->
            if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
            else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
            else Printf.sprintf "%.0f ns" est
        | _ -> "n/a"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter (fun (n, c) -> Tabulate.add_row t [ n; c ]) (List.sort compare !rows);
  Tabulate.print ~title:"E8 — micro-benchmarks (Bechamel, monotonic clock)" t

(* ------------------------------------------------------------------ *)

let () =
  (* same minor-arena sizing as the simcov CLI, so campaign timings
     here reflect what the shipped binary does *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Printf.printf "simcov benchmark harness (seed %d)%s\n" seed
    (if quick then " [--quick]" else "");
  exp_fig2 ();
  exp_fig3b ();
  if not quick then exp_sec72 ()
  else print_endline "\n(E3 symbolic statistics skipped under --quick)";
  exp_testmodel_netlist ();
  exp_thm3 ();
  exp_sec63 ();
  exp_tour_length ();
  exp_forall_k ();
  exp_conformance_baselines ();
  exp_dsp ();
  exp_dual ();
  exp_symbolic_tour ();
  exp_traversal (exp_reorder ());
  bechamel_suite ();
  print_newline ()

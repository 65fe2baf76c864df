open Simcov_dlx
open Simcov_fsm

let cfg = Testmodel.default

(* An abstract input's code: the class index in bits 0-2, then rd, rs1
   and rs2 in fields of log2 n_regs bits each, then the branch
   outcome; [Testmodel.input_decode] inverts it. *)
let input_code (c : Testmodel.config) (i : Testmodel.abs_input) =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let w = log2 c.Testmodel.n_regs in
  let rec class_index k = if Isa.class_of_index k = i.Testmodel.cls then k else class_index (k + 1) in
  class_index 0 lor (i.Testmodel.rd lsl 3)
  lor (i.Testmodel.rs1 lsl (3 + w))
  lor (i.Testmodel.rs2 lsl (3 + (2 * w)))
  lor (Bool.to_int i.Testmodel.taken lsl (3 + (3 * w)))

(* the codes valid at the reset state (validity does not depend on the
   state) *)
let n_valid_inputs c =
  List.length (List.filter (Testmodel.valid c 0) (List.init (Testmodel.n_input_codes c) Fun.id))

let model = Testmodel.build cfg

let test_input_roundtrip () =
  for code = 0 to Testmodel.n_input_codes cfg - 1 do
    if code land 7 < 7 then
      Alcotest.(check int) "roundtrip"
        code
        (input_code cfg (Testmodel.input_decode cfg code))
  done

let test_valid_input_count () =
  (* ALU-RR 64, ALU-RI 16, LOAD 16, STORE 16, BRANCH 8, JUMP 1, NOP 1 *)
  Alcotest.(check int) "122 valid abstract instructions" 122
    (n_valid_inputs cfg);
  Alcotest.(check int) "of 1024 codes" 1024 (Testmodel.n_input_codes cfg)

let test_model_shape () =
  Alcotest.(check int) "28 states" 28 model.Fsm.n_states;
  Alcotest.(check int) "all reachable" 28 (Fsm.n_reachable model);
  Alcotest.(check int) "28 * 122 transitions" (28 * 122) (Fsm.n_transitions model);
  Alcotest.(check bool) "strongly connected" true
    (Oracles.Scc.is_strongly_connected (Fsm.transition_graph model))

let code c = input_code cfg c

let alu ?(rd = 1) ?(rs1 = 0) ?(rs2 = 0) () =
  code { Testmodel.cls = Isa.Alu_rr; rd; rs1; rs2; taken = false }

let load ?(rd = 1) ?(rs1 = 0) () =
  code { Testmodel.cls = Isa.Load; rd; rs1; rs2 = 0; taken = false }

let nopi = input_code cfg { Testmodel.cls = Isa.Nopc; rd = 0; rs1 = 0; rs2 = 0; taken = false }
let branch ~taken = code { Testmodel.cls = Isa.Branch; rd = 0; rs1 = 1; rs2 = 0; taken }
let jump = code { Testmodel.cls = Isa.Jump; rd = 0; rs1 = 0; rs2 = 0; taken = false }

let stall_bit o = o land 1
let fwd_a o = (o lsr 1) land 3
let fwd_b o = (o lsr 3) land 3
let squash_bit o = (o lsr 5) land 1

let test_load_use_stall () =
  (* load r1 then alu reading r1: stall + MEM/WB forward *)
  let outs = Fsm.output_word model [ load ~rd:1 (); alu ~rd:2 ~rs1:1 () ] in
  let o = List.nth outs 1 in
  Alcotest.(check int) "stall" 1 (stall_bit o);
  Alcotest.(check int) "operand A from MEM/WB" 2 (fwd_a o)

let test_no_stall_when_different_reg () =
  let outs = Fsm.output_word model [ load ~rd:1 (); alu ~rd:2 ~rs1:2 ~rs2:3 () ] in
  let o = List.nth outs 1 in
  Alcotest.(check int) "no stall" 0 (stall_bit o);
  Alcotest.(check int) "no forward" 0 (fwd_a o)

let test_alu_forward () =
  let outs = Fsm.output_word model [ alu ~rd:3 (); alu ~rd:2 ~rs1:3 () ] in
  let o = List.nth outs 1 in
  Alcotest.(check int) "no stall for ALU producer" 0 (stall_bit o);
  Alcotest.(check int) "EX/MEM forward" 1 (fwd_a o)

let test_memwb_forward_two_apart () =
  let outs = Fsm.output_word model [ alu ~rd:3 (); nopi; alu ~rd:2 ~rs1:3 () ] in
  let o = List.nth outs 2 in
  Alcotest.(check int) "MEM/WB forward" 2 (fwd_a o)

let test_three_apart_no_forward () =
  let outs = Fsm.output_word model [ alu ~rd:3 (); nopi; nopi; alu ~rd:2 ~rs1:3 () ] in
  let o = List.nth outs 3 in
  Alcotest.(check int) "register file" 0 (fwd_a o)

let test_fwd_b_independent () =
  let outs = Fsm.output_word model [ alu ~rd:3 (); alu ~rd:2 ~rs1:1 ~rs2:3 () ] in
  let o = List.nth outs 1 in
  Alcotest.(check int) "A from regfile" 0 (fwd_a o);
  Alcotest.(check int) "B from EX/MEM" 1 (fwd_b o)

let test_squash_resets_history () =
  (* after a taken branch the in-flight slots are bubbles *)
  let outs = Fsm.output_word model [ alu ~rd:3 (); branch ~taken:true; alu ~rd:2 ~rs1:3 () ] in
  let o_branch = List.nth outs 1 in
  Alcotest.(check int) "squash" 1 (squash_bit o_branch);
  let o = List.nth outs 2 in
  Alcotest.(check int) "no forward after squash" 0 (fwd_a o)

let test_not_taken_keeps_history () =
  let outs = Fsm.output_word model [ alu ~rd:3 (); branch ~taken:false; alu ~rd:2 ~rs1:3 () ] in
  let o = List.nth outs 2 in
  Alcotest.(check int) "not-taken branch: MEM/WB forward" 2 (fwd_a o)

let test_jump_squashes () =
  let outs = Fsm.output_word model [ jump ] in
  Alcotest.(check int) "jump squashes" 1 (squash_bit (List.hd outs))

let test_rd0_no_write_tracking () =
  let outs = Fsm.output_word model [ alu ~rd:0 ~rs1:1 (); alu ~rd:2 ~rs1:1 () ] in
  (* writing r0 is discarded: no forward to a consumer of anything *)
  let o = List.nth outs 1 in
  Alcotest.(check int) "no forward from r0 write" 0 (fwd_a o)

let test_stall_clears_memwb_slot () =
  (* load r1; dependent alu (stalls); consumer of the pre-load producer
     is now out of forwarding reach *)
  let outs =
    Fsm.output_word model
      [ alu ~rd:2 (); load ~rd:1 (); alu ~rd:3 ~rs1:1 (); alu ~rd:1 ~rs1:3 ~rs2:2 () ]
  in
  let o = List.nth outs 3 in
  (* rs1=3 matches EX/MEM producer (the stalled alu); rs2=2's producer
     fell out of the window because of the stall bubble *)
  Alcotest.(check int) "A forwards" 1 (fwd_a o);
  Alcotest.(check int) "B from regfile" 0 (fwd_b o)

let test_min_forall_k_with_observability () =
  (* Requirement 5 satisfied: interaction state observable => every
     state pair distinguished by every single input *)
  Alcotest.(check (option int)) "forall-1" (Some 1) (Result.to_option (Fsm.min_forall_k model))

let test_forall_k_without_observability () =
  let m = Testmodel.build { cfg with Testmodel.observable_dest = false } in
  (* hidden interaction state: some pairs are not forall-k
     distinguishable for any small k *)
  Alcotest.(check bool) "no k up to 8" true (Result.is_error (Fsm.min_forall_k ~bound:8 m))

let test_dest_merge_conflict () =
  match Simcov_abstraction.Homomorphism.quotient model (Testmodel.dest_merge_mapping cfg) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dropping destination addresses must be a non-exact abstraction"

let test_destless_model_small () =
  let m = Testmodel.build { cfg with Testmodel.track_dest = false } in
  Alcotest.(check int) "6 states" 6 m.Fsm.n_states;
  Alcotest.(check bool) "still connected" true
    (Oracles.Scc.is_strongly_connected (Fsm.transition_graph m))

(* ---- the netlist ---- *)

let settings n_regs =
  List.map
    (fun (track_dest, observable_dest) -> { Testmodel.n_regs; track_dest; observable_dest })
    [ (true, true); (false, true); (true, false); (false, false) ]

let setting_name (c : Testmodel.config) =
  Printf.sprintf "%d regs, track %b, observable %b" c.Testmodel.n_regs
    c.Testmodel.track_dest c.Testmodel.observable_dest

let pack bits = Array.fold_right (fun b acc -> (acc lsl 1) lor Bool.to_int b) bits 0

(* the functions [build c] compiles, read without building a table *)
let functions c =
  {
    Oracles.Machine.n_states = Testmodel.n_states c;
    n_inputs = Testmodel.n_input_codes c;
    reset = 0;
    valid = Testmodel.valid c;
    next = Testmodel.next c;
    output = Testmodel.output c;
  }

(* Apply one input code to the model [m] of [c] in state [s] and to its
   netlist [net] in [latches]: the two must agree on validity and, on
   a valid code, on the output. Returns both successors, [None] on an
   invalid code. *)
let step_both c (m : Oracles.Machine.t) net s latches code =
  let module Circuit = Simcov_netlist.Circuit in
  let inputs = Array.init (Circuit.n_inputs net) (fun b -> (code lsr b) land 1 = 1) in
  let valid = m.Oracles.Machine.valid s code in
  if Circuit.input_valid net latches inputs <> valid then
    Alcotest.failf "%s: validity of code %d in state %d" (setting_name c) code s;
  if not valid then None
  else begin
    let latches', outs = Circuit.step net latches inputs in
    if pack outs <> m.Oracles.Machine.output s code then
      Alcotest.failf "%s: output of code %d in state %d: %d, build says %d"
        (setting_name c) code s (pack outs) (m.Oracles.Machine.output s code);
    Some (m.Oracles.Machine.next s code, latches')
  end

(* Walk the product of [build c] and [netlist c] from both resets over
   every input code; the latch valuations reached must map to one
   explicit state each. Returns the number of latch valuations
   reached. *)
let walk_product (c : Testmodel.config) =
  let m = Oracles.Machine.of_fsm (Testmodel.build c) and net = Testmodel.netlist c in
  let state_of = Hashtbl.create 64 and todo = Queue.create () in
  let visit (s, latches) =
    match Hashtbl.find_opt state_of latches with
    | Some s' when s' <> s ->
        Alcotest.failf "%s: latches %d stand for states %d and %d" (setting_name c)
          (pack latches) s' s
    | Some _ -> ()
    | None ->
        Hashtbl.add state_of latches s;
        Queue.push (s, latches) todo
  in
  visit (m.Oracles.Machine.reset, Simcov_netlist.Circuit.initial_state net);
  while not (Queue.is_empty todo) do
    let s, latches = Queue.pop todo in
    for code = 0 to Testmodel.n_input_codes c - 1 do
      Option.iter visit (step_both c m net s latches code)
    done
  done;
  Hashtbl.length state_of

(* the netlist behaves as [build], and its symbolic figures are the
   explicit model's *)
let test_netlist_equals_build () =
  let module Symfsm = Simcov_symbolic.Symfsm in
  List.iter
    (fun n_regs ->
      List.iter
        (fun c ->
          let reached = walk_product c in
          let m = Testmodel.build c in
          Alcotest.(check int) (setting_name c ^ ": every state reached")
            (Fsm.n_reachable m) reached;
          let sym = Symfsm.of_circuit (Testmodel.netlist c) in
          Alcotest.(check (float 0.)) (setting_name c ^ ": symbolic states")
            (float_of_int (Fsm.n_reachable m))
            (Symfsm.count_reachable sym);
          Alcotest.(check (float 0.)) (setting_name c ^ ": symbolic transitions")
            (float_of_int (Fsm.n_transitions m))
            (Symfsm.count_transitions sym))
        (settings n_regs))
    [ 2; 4; 8 ]

let tabulations f =
  let reg = Simcov_obs.Obs.registry () in
  Fun.protect
    ~finally:(fun () -> Simcov_obs.Obs.release reg)
    (fun () ->
      Simcov_obs.Obs.with_registry reg (fun () ->
          let r = f () in
          (r, Metrics.count "fsm.tabulations")))

(* beyond 8 registers the product is too large to walk: follow both
   along a random word instead, through the functions [build] would
   compile *)
let test_netlist_follows_build_at_scale () =
  let rng = Simcov_util.Rng.create 23 in
  let (), tabs =
    tabulations (fun () ->
        List.iter
          (fun n_regs ->
            List.iter
              (fun c ->
                let m = functions c and net = Testmodel.netlist c in
                let rec go steps s latches =
                  if steps > 0 then
                    let code = Simcov_util.Rng.int rng (Testmodel.n_input_codes c) in
                    match step_both c m net s latches code with
                    | None -> go steps s latches
                    | Some (s', latches') -> go (steps - 1) s' latches'
                in
                go 2_000 m.Oracles.Machine.reset (Simcov_netlist.Circuit.initial_state net))
              (settings n_regs))
          [ 16; 32 ])
  in
  Alcotest.(check int) "no table built" 0 tabs

(* at the paper's scale the figures come from the netlist alone and
   match the closed form: (2R - 1) R states (496 at 16 registers, 2,016
   at 32), each with every valid input *)
let test_netlist_closed_form () =
  let module Symfsm = Simcov_symbolic.Symfsm in
  List.iter
    (fun (n_regs, transitions) ->
      let c = { cfg with Testmodel.n_regs } in
      let states = ((2 * n_regs) - 1) * n_regs in
      let (s, t), tabs =
        tabulations (fun () ->
            let sym = Symfsm.of_circuit (Testmodel.netlist c) in
            (Symfsm.count_reachable sym, Symfsm.count_transitions sym))
      in
      Alcotest.(check int) (Printf.sprintf "%d regs: closed form" n_regs)
        transitions (states * n_valid_inputs c);
      Alcotest.(check (float 0.)) (Printf.sprintf "%d regs: states" n_regs)
        (float_of_int states) s;
      Alcotest.(check (float 0.)) (Printf.sprintf "%d regs: transitions" n_regs)
        (float_of_int transitions) t;
      Alcotest.(check int) (Printf.sprintf "%d regs: no tabulation" n_regs) 0 tabs)
    [ (16, 2_429_408); (32, 72_386_496) ]

(* ---- the observable digest ---- *)

let nop_code c =
  input_code c { Testmodel.cls = Isa.Nopc; rd = 0; rs1 = 0; rs2 = 0; taken = false }

(* at 32 registers p1's codes need 6 bits: p2 moves up, so every state
   still has its own NOP output *)
let test_digest_injective_at_32 () =
  let c = { cfg with Testmodel.n_regs = 32 } in
  let distinct, tabs =
    tabulations (fun () ->
        let output = Testmodel.output c and seen = Hashtbl.create 4096 in
        for s = 0 to Testmodel.n_states c - 1 do
          Hashtbl.replace seen (output s (nop_code c)) ()
        done;
        (Testmodel.n_states c, Hashtbl.length seen))
  in
  Alcotest.(check (pair int int)) "2,016 states, 2,016 NOP outputs" (2_016, 2_016) distinct;
  Alcotest.(check int) "read through the closures" 0 tabs

(* up to 16 registers the digest keeps p2 at bit 11, as it always was *)
let test_digest_unchanged_to_16 () =
  List.iter
    (fun n_regs ->
      List.iter
        (fun (c : Testmodel.config) ->
          let output = Testmodel.output c in
          let p2_size = if c.Testmodel.track_dest then n_regs else 2 in
          let valid =
            List.filter (Testmodel.valid c 0) (List.init (Testmodel.n_input_codes c) Fun.id)
          in
          for s = 0 to Testmodel.n_states c - 1 do
            List.iter
              (fun code ->
                let o = output s code in
                let old =
                  (o land 0x3F) lor ((s / p2_size) lsl 6) lor ((s mod p2_size) lsl 11)
                in
                if o <> old then
                  Alcotest.failf "%s: state %d code %d outputs %d, not %d"
                    (setting_name c) s code o old)
              valid
          done)
        (List.filter (fun c -> c.Testmodel.observable_dest) (settings n_regs)))
    [ 2; 4; 8; 16 ]

(* ---- concretization ---- *)

let run_conc ?bugs conc =
  Simcov_dlx.Validate.run_program ?bugs ~preload_regs:conc.Testmodel.preload_regs
    ~preload_mem:conc.Testmodel.preload_mem conc.Testmodel.program

let run_both word = run_conc (Testmodel.concretize cfg word)

let test_concretize_simple () =
  let word = [ alu ~rd:1 ~rs1:2 ~rs2:3 (); load ~rd:2 ~rs1:1 (); alu ~rd:3 ~rs1:2 () ] in
  let conc = Testmodel.concretize cfg word in
  Alcotest.(check int) "3 issued instructions" 3 (Array.length conc.Testmodel.issue_map);
  match run_both word with
  | Simcov_dlx.Validate.Pass _ -> ()
  | f -> Alcotest.failf "bug-free pipeline must pass: %a" Simcov_dlx.Validate.pp_outcome f

let test_concretize_branches () =
  let word =
    [
      alu ~rd:1 ~rs1:2 ~rs2:3 ();
      branch ~taken:true;
      branch ~taken:false;
      jump;
      alu ~rd:2 ~rs1:1 ();
      jump;
      nopi;
    ]
  in
  match run_both word with
  | Simcov_dlx.Validate.Pass { compared; _ } ->
      Alcotest.(check int) "all issued commits" 7 compared
  | f -> Alcotest.failf "must pass: %a" Simcov_dlx.Validate.pp_outcome f

let test_concretize_branch_directions () =
  (* both directions on a register whose value varies *)
  let word =
    [
      alu ~rd:1 ~rs1:1 ~rs2:1 () (* r1 != 0 stays *);
      branch ~taken:true;
      branch ~taken:false;
      load ~rd:1 ~rs1:0 ();
      branch ~taken:true;
    ]
  in
  match run_both word with
  | Simcov_dlx.Validate.Pass _ -> ()
  | f -> Alcotest.failf "must pass: %a" Simcov_dlx.Validate.pp_outcome f

let test_concretize_tour_runs_clean () =
  (* the whole CPP tour concretizes into a program on which the
     bug-free pipeline matches the spec *)
  match Simcov_testgen.Tour.transition_tour model with
  | None -> Alcotest.fail "tour must exist"
  | Some t -> (
      Alcotest.(check bool) "covers everything" true
        (Simcov_testgen.Tour.word_is_tour model t.Simcov_testgen.Tour.word);
      match run_both t.Simcov_testgen.Tour.word with
      | Simcov_dlx.Validate.Pass { compared = n; _ } ->
          Alcotest.(check bool) "thousands of commits" true (n > 3000)
      | f -> Alcotest.failf "tour program must pass: %a" Simcov_dlx.Validate.pp_outcome f)

(* at 32 registers the model tracks r31, which [jal] would write behind
   its back: a random valid walk, one class drawn uniformly per step so
   jumps are common, concretizes with no [jal] and co-simulates clean *)
let test_concretize_no_jal_at_32 () =
  let c = { cfg with Testmodel.n_regs = 32 } in
  let rng = Simcov_util.Rng.create 32 in
  let field used = if used then Simcov_util.Rng.int rng 32 else 0 in
  let classes = Array.init 7 Isa.class_of_index in
  let (word, jumps, conc, outcome), tabs =
    tabulations (fun () ->
        let rec walk n s acc =
          if n = 0 then List.rev acc
          else
            let cls = Simcov_util.Rng.pick rng classes in
            let rd = field (List.mem cls [ Isa.Alu_rr; Isa.Alu_ri; Isa.Load ]) in
            let rs1 = field (not (List.mem cls [ Isa.Jump; Isa.Nopc ])) in
            let rs2 = field (List.mem cls [ Isa.Alu_rr; Isa.Store ]) in
            let taken = cls = Isa.Branch && Simcov_util.Rng.bool rng in
            let code = input_code c { Testmodel.cls; rd; rs1; rs2; taken } in
            if not (Testmodel.valid c s code) then Alcotest.failf "code %d invalid" code;
            walk (n - 1) (Testmodel.next c s code) (code :: acc)
        in
        let word = walk 2_000 0 [] in
        let jumps =
          List.length
            (List.filter (fun code -> (Testmodel.input_decode c code).Testmodel.cls = Isa.Jump) word)
        in
        let conc = Testmodel.concretize c word in
        (word, jumps, conc, run_conc conc))
  in
  Alcotest.(check int) "2,000 steps" 2_000 (List.length word);
  Alcotest.(check bool) "the walk jumps often" true (jumps >= 100);
  Alcotest.(check bool) "no jal" true
    (Array.for_all (fun (i : Isa.t) -> i.Isa.op <> Isa.Jal) conc.Testmodel.program);
  Alcotest.(check int) "no table built" 0 tabs;
  match outcome with
  | Simcov_dlx.Validate.Pass _ -> ()
  | f -> Alcotest.failf "32-register program must pass: %a" Simcov_dlx.Validate.pp_outcome f

let test_tour_program_catches_all_bugs () =
  match Simcov_testgen.Tour.transition_tour model with
  | None -> Alcotest.fail "tour must exist"
  | Some t ->
      let conc = Testmodel.concretize cfg t.Simcov_testgen.Tour.word in
      List.iter
        (fun (name, bugs) ->
          match run_conc ~bugs conc with
          | Simcov_dlx.Validate.Fail _ -> ()
          | Simcov_dlx.Validate.Pass _ -> Alcotest.failf "tour missed bug %s" name)
        Simcov_dlx.Pipeline.bug_catalog

(* The concretized certified tour, as validate-dlx runs it. The
   bug-free pipeline matches every spec commit at 2, 4 and 8 registers
   (at 8 the program is 129,803 commits long: a comparison that cuts
   the spec at 10,000 commits fails there), and at 4 registers each
   catalog bug's first mismatching commit is pinned, in catalog order. *)
let certified_tour_program n_regs =
  let c = { cfg with Testmodel.n_regs } in
  let m = if n_regs = cfg.Testmodel.n_regs then model else Testmodel.build c in
  match Simcov_core.Completeness.certify m with
  | Error _ -> Alcotest.failf "%d-register model must certify" n_regs
  | Ok cert -> Testmodel.concretize c (Simcov_core.Completeness.padded_tour m cert)

let test_tour_conformance () =
  List.iter
    (fun (n_regs, commits) ->
      match run_conc (certified_tour_program n_regs) with
      | Simcov_dlx.Validate.Pass { compared; cut = false } ->
          Alcotest.(check int) (Printf.sprintf "%d registers: every commit" n_regs) commits
            compared
      | f ->
          Alcotest.failf "%d registers: bug-free pipeline must pass: %a" n_regs
            Simcov_dlx.Validate.pp_outcome f)
    [ (2, 243); (4, 5_175); (8, 129_803) ];
  let conc = certified_tour_program 4 in
  let first_mismatch (name, bugs) =
    match run_conc ~bugs conc with
    | Simcov_dlx.Validate.Fail { Simcov_dlx.Validate.index; _ } -> index
    | Simcov_dlx.Validate.Pass _ -> Alcotest.failf "tour program missed bug %s" name
  in
  Alcotest.(check (list int)) "first mismatch per bug"
    [ 5; 162; 125; 1; 127; 248; 0; 238; 3509; 5; 162; 127 ]
    (List.map first_mismatch Simcov_dlx.Pipeline.bug_catalog)

let suite =
  [
    Alcotest.test_case "input roundtrip" `Quick test_input_roundtrip;
    Alcotest.test_case "valid input count" `Quick test_valid_input_count;
    Alcotest.test_case "model shape" `Quick test_model_shape;
    Alcotest.test_case "load-use stall" `Quick test_load_use_stall;
    Alcotest.test_case "no stall different reg" `Quick test_no_stall_when_different_reg;
    Alcotest.test_case "alu forward" `Quick test_alu_forward;
    Alcotest.test_case "memwb forward" `Quick test_memwb_forward_two_apart;
    Alcotest.test_case "three apart regfile" `Quick test_three_apart_no_forward;
    Alcotest.test_case "fwd b independent" `Quick test_fwd_b_independent;
    Alcotest.test_case "squash resets history" `Quick test_squash_resets_history;
    Alcotest.test_case "not taken keeps history" `Quick test_not_taken_keeps_history;
    Alcotest.test_case "jump squashes" `Quick test_jump_squashes;
    Alcotest.test_case "rd0 not tracked" `Quick test_rd0_no_write_tracking;
    Alcotest.test_case "stall clears memwb slot" `Quick test_stall_clears_memwb_slot;
    Alcotest.test_case "forall-k with observability" `Quick test_min_forall_k_with_observability;
    Alcotest.test_case "forall-k without observability" `Quick test_forall_k_without_observability;
    Alcotest.test_case "dest merge conflict" `Quick test_dest_merge_conflict;
    Alcotest.test_case "dest-less model" `Quick test_destless_model_small;
    Alcotest.test_case "netlist = build (product walk)" `Quick test_netlist_equals_build;
    Alcotest.test_case "netlist follows build at 16, 32" `Quick test_netlist_follows_build_at_scale;
    Alcotest.test_case "netlist closed form at 16, 32" `Quick test_netlist_closed_form;
    Alcotest.test_case "digest injective at 32" `Quick test_digest_injective_at_32;
    Alcotest.test_case "digest unchanged to 16" `Quick test_digest_unchanged_to_16;
    Alcotest.test_case "concretize simple" `Quick test_concretize_simple;
    Alcotest.test_case "concretize branches" `Quick test_concretize_branches;
    Alcotest.test_case "concretize branch directions" `Quick test_concretize_branch_directions;
    Alcotest.test_case "tour program runs clean" `Slow test_concretize_tour_runs_clean;
    Alcotest.test_case "tour program catches all bugs" `Slow test_tour_program_catches_all_bugs;
    Alcotest.test_case "no jal at 32 registers" `Quick test_concretize_no_jal_at_32;
    Alcotest.test_case "certified tour conformance at 2/4/8 registers" `Slow
      test_tour_conformance;
  ]

open Simcov_netlist
open Simcov_abstraction

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ||| ) = Expr.( ||| )

(* Class codes follow Isa.class_of_index:
   0 ALU-RR, 1 ALU-RI, 2 LOAD, 3 STORE, 4 BRANCH, 5 JUMP, 6 NOP. *)
let c_alu_rr = 0
let c_alu_ri = 1
let c_load = 2
let c_store = 3
let c_branch = 4
let c_jump = 5
let c_nop = 6
let n_classes = 7
let addr_width = 5

let build () =
  let open Circuit.Build in
  let ctx = create "dlx_control" in

  (* ---- primary inputs: the instruction word presented to decode and
     the datapath status ---- *)
  let instr_valid = input ctx "instr_valid" in
  let class_in = input_vec ctx "class_in" 3 in
  let rd_in = input_vec ctx "rd_in" addr_width in
  let rs1_in = input_vec ctx "rs1_in" addr_width in
  let rs2_in = input_vec ctx "rs2_in" addr_width in
  let taken_in = input ctx "taken_in" in

  let class_is k = Expr.Vec.eq_const class_in k in

  (* ---- state declarations ---- *)
  (* fetch controller *)
  let fetch_valid = reg ctx ~group:"fetch" ~init:true "fetch_valid" in
  let redirect_r = reg ctx ~group:"fetch" "redirect_r" in
  let delay1 = reg ctx ~group:"fetch" "delay1" in
  let delay2 = reg ctx ~group:"fetch" "delay2" in

  (* decode (ID) stage *)
  let id_valid = reg ctx ~group:"id" "id_valid" in
  let id_class =
    Array.init n_classes (fun k ->
        reg ctx ~group:"id_class" ~init:(k = c_nop) (Printf.sprintf "id_class%d" k))
  in
  let id_rd = reg_vec ctx ~group:"id_rd" "id_rd" addr_width in
  let id_rs1 = reg_vec ctx ~group:"id_rs1" "id_rs1" addr_width in
  let id_rs2 = reg_vec ctx ~group:"id_rs2" "id_rs2" addr_width in

  (* execute (EX) stage *)
  let ex_valid = reg ctx ~group:"ex" "ex_valid" in
  let ex_class =
    Array.init n_classes (fun k ->
        reg ctx ~group:"ex_class" ~init:(k = c_nop) (Printf.sprintf "ex_class%d" k))
  in
  let ex_rd = reg_vec ctx ~group:"ex_rd" "ex_rd" addr_width in
  let ex_rs1 = reg_vec ctx ~group:"ex_rs1" "ex_rs1" addr_width in
  let ex_rs2 = reg_vec ctx ~group:"ex_rs2" "ex_rs2" addr_width in

  (* memory (MEM) stage *)
  let mem_valid = reg ctx ~group:"mem" "mem_valid" in
  let mem_class =
    Array.init n_classes (fun k ->
        reg ctx ~group:"mem_class" ~init:(k = c_nop) (Printf.sprintf "mem_class%d" k))
  in
  let mem_rd = reg_vec ctx ~group:"mem_rd" "mem_rd" addr_width in
  (* source-address shadow pipeline kept only for debug observability *)
  let mem_rs1_dbg = reg_vec ctx ~group:"mem_dbg" "mem_rs1_dbg" addr_width in
  let wb_rs1_dbg = reg_vec ctx ~group:"mem_dbg" "wb_rs1_dbg" addr_width in

  (* writeback (WB) stage *)
  let wb_valid = reg ctx ~group:"wb" "wb_valid" in
  let wb_class =
    Array.init n_classes (fun k ->
        reg ctx ~group:"wb_class" ~init:(k = c_nop) (Printf.sprintf "wb_class%d" k))
  in
  let wb_rd = reg_vec ctx ~group:"wb_rd" "wb_rd" addr_width in

  (* ---- combinational control ---- *)
  let nonzero v = Expr.disj (Array.to_list v) in
  let id_uses_rs1 =
    id_class.(c_alu_rr) ||| id_class.(c_alu_ri) ||| id_class.(c_load)
    ||| id_class.(c_store) ||| id_class.(c_branch)
  in
  let id_uses_rs2 = id_class.(c_alu_rr) ||| id_class.(c_store) in
  let ex_writes = ex_class.(c_alu_rr) ||| ex_class.(c_alu_ri) ||| ex_class.(c_load) in
  let mem_writes = mem_class.(c_alu_rr) ||| mem_class.(c_alu_ri) ||| mem_class.(c_load) in
  (* defensive double-sided decode: asserts the writing classes and
     checks that no non-writing class bit is set, keeping the whole
     one-hot group live until the re-encoding step *)
  let wb_writes =
    (wb_class.(c_alu_rr) ||| wb_class.(c_alu_ri) ||| wb_class.(c_load))
    &&& !!(wb_class.(c_store) ||| wb_class.(c_branch) ||| wb_class.(c_jump)
          ||| wb_class.(c_nop))
  in

  (* load-use interlock: instruction in ID reads the destination of
     the load in EX *)
  let stall =
    id_valid &&& ex_valid &&& ex_class.(c_load) &&& nonzero ex_rd
    &&& ((id_uses_rs1 &&& Expr.Vec.eq id_rs1 ex_rd)
        ||| (id_uses_rs2 &&& Expr.Vec.eq id_rs2 ex_rd))
  in
  (* squash: taken branch or jump resolving in EX *)
  let squash = ex_valid &&& (ex_class.(c_jump) ||| (ex_class.(c_branch) &&& taken_in)) in

  (* forwarding selects for the instruction in EX *)
  let ex_uses_rs1 =
    ex_class.(c_alu_rr) ||| ex_class.(c_alu_ri) ||| ex_class.(c_load)
    ||| ex_class.(c_store) ||| ex_class.(c_branch)
  in
  let ex_uses_rs2 = ex_class.(c_alu_rr) ||| ex_class.(c_store) in
  let fwd_a_mem =
    ex_valid &&& ex_uses_rs1 &&& mem_valid &&& mem_writes &&& nonzero mem_rd
    &&& Expr.Vec.eq ex_rs1 mem_rd
  in
  let fwd_a_wb =
    ex_valid &&& ex_uses_rs1 &&& wb_valid &&& wb_writes &&& nonzero wb_rd
    &&& Expr.Vec.eq ex_rs1 wb_rd &&& !!fwd_a_mem
  in
  let fwd_b_mem =
    ex_valid &&& ex_uses_rs2 &&& mem_valid &&& mem_writes &&& nonzero mem_rd
    &&& Expr.Vec.eq ex_rs2 mem_rd
  in
  let fwd_b_wb =
    ex_valid &&& ex_uses_rs2 &&& wb_valid &&& wb_writes &&& nonzero wb_rd
    &&& Expr.Vec.eq ex_rs2 wb_rd &&& !!fwd_b_mem
  in
  let regwrite = wb_valid &&& wb_writes &&& nonzero wb_rd in
  let memwrite = mem_valid &&& mem_class.(c_store) in

  (* ---- interlock registers (registered control decisions, read by
     the fetch controller) ---- *)
  let stall_r = reg ctx ~group:"interlock" "stall_r" in
  let squash_r = reg ctx ~group:"interlock" "squash_r" in
  assign ctx stall_r stall;
  assign ctx squash_r squash;

  (* ---- fetch controller transitions ---- *)
  assign ctx fetch_valid (!!squash);
  assign ctx redirect_r squash_r;
  assign ctx delay1 (redirect_r ||| stall_r);
  (* holds itself on squash: stays with the fetch group instead of
     being retimed away by the output-buffer pass *)
  assign ctx delay2 (Expr.mux squash delay2 delay1);

  (* ---- ID stage transitions ---- *)
  (* a NOP is inserted when decode has nothing real to latch *)
  let insert_real = instr_valid &&& fetch_valid &&& !!squash in
  assign ctx id_valid (Expr.mux stall id_valid insert_real);
  Array.iteri
    (fun k r ->
      let decode_k =
        if k = c_nop then !!insert_real ||| (insert_real &&& class_is k)
        else insert_real &&& class_is k
      in
      assign ctx r (Expr.mux stall r decode_k))
    id_class;
  let gate_field field input_bits =
    Array.iteri
      (fun b r ->
        assign ctx r (Expr.mux stall r (Expr.mux insert_real input_bits.(b) Expr.fls)))
      field
  in
  gate_field id_rd rd_in;
  gate_field id_rs1 rs1_in;
  gate_field id_rs2 rs2_in;

  (* ---- EX stage transitions ---- *)
  let kill_ex = stall ||| squash in
  assign ctx ex_valid (Expr.mux kill_ex Expr.fls id_valid);
  Array.iteri
    (fun k r -> assign ctx r (Expr.mux kill_ex (Expr.const (k = c_nop)) id_class.(k)))
    ex_class;
  let move_field dst src =
    Array.iteri (fun b r -> assign ctx r (Expr.mux kill_ex Expr.fls src.(b))) dst
  in
  move_field ex_rd id_rd;
  move_field ex_rs1 id_rs1;
  move_field ex_rs2 id_rs2;

  (* ---- MEM stage transitions ---- *)
  assign ctx mem_valid ex_valid;
  Array.iteri (fun k r -> assign ctx r ex_class.(k)) mem_class;
  Array.iteri (fun b r -> assign ctx r ex_rd.(b)) mem_rd;
  Array.iteri (fun b r -> assign ctx r ex_rs1.(b)) mem_rs1_dbg;
  (* the debug shadow holds itself on squash so the output-buffer pass
     does not retime it away; only the cone reduction may remove it *)
  Array.iteri
    (fun b r -> assign ctx r (Expr.mux squash r mem_rs1_dbg.(b)))
    wb_rs1_dbg;

  (* ---- WB stage transitions ---- *)
  assign ctx wb_valid mem_valid;
  Array.iteri (fun k r -> assign ctx r mem_class.(k)) wb_class;
  Array.iteri (fun b r -> assign ctx r mem_rd.(b)) wb_rd;

  (* ---- synchronizing latches on the outputs to the datapath ---- *)
  let sync name e =
    let r = reg ctx ~group:"outsync" ("os_" ^ name) in
    assign ctx r e;
    output ctx name r;
    r
  in
  let _ = sync "stall" stall in
  let _ = sync "branch_sel" squash in
  let _ = sync "fwd_a_mem" fwd_a_mem in
  let _ = sync "fwd_a_wb" fwd_a_wb in
  let _ = sync "fwd_b_mem" fwd_b_mem in
  let _ = sync "fwd_b_wb" fwd_b_wb in
  let _ = sync "regwrite" regwrite in
  let _ = sync "memwrite" memwrite in
  let wbrd_sync =
    Array.mapi
      (fun b e ->
        let r = reg ctx ~group:"outsync" (Printf.sprintf "os_wb_rd%d" b) in
        assign ctx r e;
        r)
      wb_rd
  in
  output_vec ctx "wb_rd_out" wbrd_sync;

  (* observability outputs that keep the interaction state visible
     (Requirement 5): destination addresses in flight *)
  output_vec ctx "ex_rd_obs" ex_rd;
  output_vec ctx "mem_rd_obs" mem_rd;
  output ctx "ex_writes_obs" (ex_valid &&& ex_writes);

  (* the registered interlock decisions stay observable so that only
     the final abstraction step removes them *)
  output ctx "interlock_state_obs" (stall_r ||| squash_r);

  (* debug-only outputs, removed by the "outputs not affecting control
     logic" abstraction step *)
  output_vec ctx "dbg_wb_rs1" wb_rs1_dbg;
  output ctx "dbg_delay2" delay2;

  (* ---- input constraints: invalid instructions excluded ---- *)
  (* class codes 0..6 only *)
  constrain ctx (!!(Expr.Vec.eq_const class_in 7));
  (* invalid fetch presents a NOP with zeroed fields *)
  let fields_zero f = !!(nonzero f) in
  constrain ctx (instr_valid ||| (class_is c_nop &&& fields_zero rd_in &&& fields_zero rs1_in &&& fields_zero rs2_in));
  (* per-class field zeroing *)
  let uses_rd = class_is c_alu_rr ||| class_is c_alu_ri ||| class_is c_load in
  let uses_rs1 =
    class_is c_alu_rr ||| class_is c_alu_ri ||| class_is c_load ||| class_is c_store
    ||| class_is c_branch
  in
  let uses_rs2 = class_is c_alu_rr ||| class_is c_store in
  constrain ctx (uses_rd ||| fields_zero rd_in);
  constrain ctx (uses_rs1 ||| fields_zero rs1_in);
  constrain ctx (uses_rs2 ||| fields_zero rs2_in);
  (* the PSW-derived branch-test input can only pulse when a branch is
     actually resolving in EX (a state-dependent input constraint) *)
  constrain ctx (!!taken_in ||| (ex_valid &&& ex_class.(c_branch)));

  finish ctx

let high_addr_bits =
  List.concat_map
    (fun f -> List.init (addr_width - 2) (fun b -> (Printf.sprintf "%s[%d]" f (b + 2), false)))
    [ "rd_in"; "rs1_in"; "rs2_in" ]

let abstraction_sequence =
  [
    {
      Netabs.label = "no synchronizing latches for outputs";
      pass = Netabs.remove_output_buffers;
    };
    {
      Netabs.label = "4 registers instead of 32";
      pass =
        (fun c -> Netabs.constant_reg_elim (Netabs.tie_inputs c high_addr_bits));
    };
    { Netabs.label = "fetch controller removed"; pass = (fun c -> Netabs.free_group c "fetch") };
    {
      Netabs.label = "remove outputs not affecting control logic";
      pass =
        (fun c ->
          Netabs.cone_reduce
            (Netabs.drop_outputs c ~keep:(fun n ->
                 not (String.length n >= 4 && String.sub n 0 4 = "dbg_"))));
    };
    {
      Netabs.label = "1-hot to binary encoding";
      pass =
        (fun c ->
          List.fold_left
            (fun c g -> Netabs.onehot_to_binary c ~group:g)
            c
            [ "id_class"; "ex_class"; "mem_class"; "wb_class" ]);
    };
    {
      Netabs.label = "remove interlock registers";
      pass = (fun c -> Netabs.free_group c "interlock");
    };
  ]

let derive_test_model () = Netabs.run_sequence (build ()) abstraction_sequence

(* pad with [d - 1] independent instructions between producer and
   consumer so the dependence crosses the wanted pipeline distance *)
let gap d = List.init (d - 1) (fun _ -> Isa.nop)

let suite ?(n_regs = 4) () =
  let acc = ref [] in
  let add instrs = acc := Array.of_list instrs :: !acc in
  let scratch rd = if rd = 1 then 2 else 1 in
  for rd = 1 to n_regs - 1 do
    let s = scratch rd in
    List.iter
      (fun d ->
        (* ALU producer *)
        let alu_producer = Isa.make ~rd ~rs1:0 ~imm:(7 + rd) Isa.Addi in
        add (* alu producer, rs1 consumer *)
          ([ alu_producer ] @ gap d @ [ Isa.make ~rd:s ~rs1:rd ~rs2:0 Isa.Add ]);
        (* the rs2 consumer reads another register through rs1 so
           that bugs comparing only the rs1 field stay silent on the
           stall/bypass they owe the rs2 dependence *)
        add (* alu producer, rs2 consumer *)
          ([ alu_producer ] @ gap d @ [ Isa.make ~rd:s ~rs1:s ~rs2:rd Isa.Add ]);
        add (* alu producer, stdata consumer *)
          ([ alu_producer ] @ gap d @ [ Isa.make ~rs1:0 ~rs2:rd ~imm:1 Isa.Sw ]);
        add (* alu producer, staddr consumer *)
          ([ alu_producer ] @ gap d @ [ Isa.make ~rs1:rd ~rs2:0 ~imm:2 Isa.Sw ]);
        add (* alu producer, brcond consumer *)
          ([ alu_producer ] @ gap d
          @ [ Isa.make ~rs1:rd ~imm:1 Isa.Bnez; Isa.nop; Isa.make ~rd:s ~rs1:0 ~imm:1 Isa.Addi ]);
        (* load producer: seed memory first so the loaded value is
           nonzero and distinct *)
        let seed =
          [
            Isa.make ~rd:s ~rs1:0 ~imm:(40 + rd) Isa.Addi;
            Isa.make ~rs1:0 ~rs2:s ~imm:rd Isa.Sw;
          ]
        in
        let load_producer = Isa.make ~rd ~rs1:0 ~imm:rd Isa.Lw in
        add (* load producer, rs1 consumer *)
          (seed @ [ load_producer ] @ gap d @ [ Isa.make ~rd:s ~rs1:rd ~rs2:0 Isa.Add ]);
        add (* load producer, rs2 consumer *)
          (seed @ [ load_producer ] @ gap d @ [ Isa.make ~rd:s ~rs1:s ~rs2:rd Isa.Add ]);
        add (* load producer, stdata consumer *)
          (seed @ [ load_producer ] @ gap d @ [ Isa.make ~rs1:0 ~rs2:rd ~imm:3 Isa.Sw ]);
        add (* load producer, brcond consumer *)
          (seed @ [ load_producer ] @ gap d
          @ [ Isa.make ~rs1:rd ~imm:1 Isa.Bnez; Isa.nop; Isa.make ~rd:s ~rs1:0 ~imm:1 Isa.Addi ]))
      [ 1; 2; 3 ]
  done;
  (* control templates *)
  add (* branch-taken-shadow *)
    [
      Isa.make ~rd:1 ~rs1:0 ~imm:1 Isa.Addi;
      Isa.make ~rs1:1 ~imm:2 Isa.Bnez;
      Isa.make ~rd:2 ~rs1:0 ~imm:99 Isa.Addi (* shadow 1 *);
      Isa.make ~rd:3 ~rs1:0 ~imm:99 Isa.Addi (* shadow 2 *);
      Isa.make ~rs1:0 ~rs2:2 ~imm:4 Isa.Sw;
    ];
  add (* branch-not-taken *)
    [
      Isa.make ~rs1:1 ~imm:2 Isa.Bnez;
      Isa.make ~rd:2 ~rs1:0 ~imm:5 Isa.Addi;
      Isa.make ~rs1:0 ~rs2:2 ~imm:5 Isa.Sw;
    ];
  add (* branch-both-polarities *)
    [
      Isa.make ~rd:1 ~rs1:0 ~imm:0 Isa.Addi;
      Isa.make ~rs1:1 ~imm:1 Isa.Beqz;
      Isa.make ~rd:2 ~rs1:0 ~imm:99 Isa.Addi;
      Isa.make ~rs1:0 ~rs2:2 ~imm:6 Isa.Sw;
    ];
  add (* jump-squash *)
    [ Isa.make ~imm:2 Isa.J; Isa.make ~rd:2 ~rs1:0 ~imm:99 Isa.Addi; Isa.nop ];
  add (* call-link *) [ Isa.make ~imm:2 Isa.Jal; Isa.nop; Isa.make ~rs1:0 ~rs2:31 ~imm:7 Isa.Sw ];
  List.rev !acc

let total_instructions programs =
  List.fold_left (fun acc p -> acc + Array.length p) 0 programs

let bug_campaign ?n_regs () = Validate.bug_campaign_multi (suite ?n_regs ())

(** Directed pipeline-hazard test templates.

    The style of generator the paper cites as prior work: "automatic
    test program generation for pipelined processors" (Iwashita et
    al., ref [18]) enumerates architectural hazard scenarios directly
    — producer/consumer pairs at every pipeline distance, branch
    shadows, store-data dependences — instead of deriving them from a
    coverage argument.

    Provided as the structured baseline between random programs and
    the certified transition tour: compact and effective on known
    hazard classes, but with no completeness claim (what is not in the
    template list is not tested). *)

val suite : ?n_regs:int -> unit -> Isa.t array list
(** One program per template over destination registers
    [1 .. n_regs - 1] (default 4): ALU/load producers x
    rs1/rs2/store-data/store-address/branch-condition consumers x
    pipeline distances 1-3, plus taken/not-taken branch shadows and
    call/return. Every program is self-contained (operands initialized
    by the template itself). *)

val total_instructions : Isa.t array list -> int

val bug_campaign : ?n_regs:int -> unit -> Validate.campaign_result
(** Run every template against the full pipeline bug catalog. *)

open Simcov_netlist

let ( !! ) = Expr.( !! )
let ( &&& ) = Expr.( &&& )
let ( ||| ) = Expr.( ||| )
let ( ^^^ ) = Expr.( ^^^ )

let counter () =
  let open Circuit.Build in
  let ctx = create "counter" in
  let en = input ctx "en" in
  let b0 = reg ctx ~group:"count" "b0" in
  let b1 = reg ctx ~group:"count" ~init:true "b1" in
  assign ctx b0 (Expr.mux en (!!b0) b0);
  assign ctx b1 (Expr.mux en (b1 ^^^ b0) b1);
  output ctx "wrap" (en &&& b0 &&& b1);
  constrain ctx (!!en ||| en);
  finish ctx

let roundtrip c =
  match Serialize.of_string (Serialize.to_string c) with
  | Ok c' -> c'
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" (Serialize.error_to_string e)

let check_same_behavior c c' =
  Alcotest.(check int) "inputs" (Circuit.n_inputs c) (Circuit.n_inputs c');
  Alcotest.(check int) "regs" (Circuit.n_regs c) (Circuit.n_regs c');
  Alcotest.(check int) "outputs" (Circuit.n_outputs c) (Circuit.n_outputs c');
  let rng = Simcov_util.Rng.create 9 in
  for _ = 1 to 50 do
    let word =
      List.init 12 (fun _ ->
          Array.init (Circuit.n_inputs c) (fun _ -> Simcov_util.Rng.bool rng))
    in
    (* skip words invalid under the constraint *)
    try
      let a = Oracles.Circuit.simulate c word in
      let b = Oracles.Circuit.simulate c' word in
      Alcotest.(check bool) "same outputs" true (a = b)
    with Invalid_argument _ -> ()
  done

let test_roundtrip_counter () =
  let c = counter () in
  let c' = roundtrip c in
  check_same_behavior c c';
  Alcotest.(check string) "name" "counter" c'.Circuit.name;
  Alcotest.(check string) "group preserved" "count" c'.Circuit.regs.(0).Circuit.group;
  Alcotest.(check bool) "init preserved" true c'.Circuit.regs.(1).Circuit.init

let test_roundtrip_dlx_control () =
  (* the full 101-register control model survives a roundtrip *)
  let c = Simcov_dlx.Control.build () in
  let c' = roundtrip c in
  Alcotest.(check int) "regs" (Circuit.n_regs c) (Circuit.n_regs c');
  Alcotest.(check int) "gates" (Circuit.gate_count c) (Circuit.gate_count c');
  (* and the derived model too *)
  let final, _ = Simcov_dlx.Control.derive_test_model () in
  let final' = roundtrip final in
  check_same_behavior final final'

let test_parse_handwritten () =
  let text =
    "# a toggle\n\
     circuit toggle\n\
     input t\n\
     reg q main 0 = (xor (reg 0) (in 0))\n\
     output o = (reg 0)\n"
  in
  match Serialize.of_string text with
  | Error e -> Alcotest.fail (Serialize.error_to_string e)
  | Ok c ->
      let outs = Oracles.Circuit.simulate c [ [| true |]; [| false |]; [| true |] ] in
      Alcotest.(check (list bool)) "toggles" [ false; true; true ]
        (List.map (fun o -> o.(0)) outs)

let test_parse_errors () =
  let bad kind text =
    match Serialize.of_string text with
    | Ok _ -> Alcotest.failf "%s should fail" kind
    | Error _ -> ()
  in
  bad "unknown keyword" "frobnicate x\n";
  bad "bad expression" "circuit c\ninput a\noutput o = (nand (in 0) (in 0))\n";
  bad "missing =" "circuit c\ninput a\nreg r main 0 (in 0)\n";
  bad "out-of-range reg" "circuit c\ninput a\noutput o = (reg 5)\n";
  bad "out-of-range input" "circuit c\ninput a\noutput o = (in 3)\n"

let test_save_load () =
  let c = counter () in
  let path = Filename.temp_file "simcov" ".ckt" in
  Serialize.save c path;
  (match Serialize.load path with
  | Ok c' -> check_same_behavior c c'
  | Error e -> Alcotest.fail (Serialize.error_to_string e));
  Sys.remove path

let qcheck_roundtrip_random_exprs =
  QCheck.Test.make ~name:"serialize: random expressions roundtrip" ~count:200
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let rng = Simcov_util.Rng.create seed in
      let rec gen depth =
        if depth = 0 then
          match Simcov_util.Rng.int rng 4 with
          | 0 -> Expr.input (Simcov_util.Rng.int rng 3)
          | 1 -> Expr.reg (Simcov_util.Rng.int rng 2)
          | 2 -> Expr.tru
          | _ -> Expr.fls
        else
          match Simcov_util.Rng.int rng 5 with
          | 0 -> Expr.Not (gen (depth - 1))
          | 1 -> Expr.And (gen (depth - 1), gen (depth - 1))
          | 2 -> Expr.Or (gen (depth - 1), gen (depth - 1))
          | 3 -> Expr.Xor (gen (depth - 1), gen (depth - 1))
          | _ -> Expr.Mux (gen (depth - 1), gen (depth - 1), gen (depth - 1))
      in
      let e = gen 5 in
      (* wrap in a minimal circuit *)
      let c =
        {
          Circuit.name = "t";
          input_names = [| "a"; "b"; "c" |];
          regs =
            [|
              { Circuit.name = "r0"; group = "g"; init = false; next = e };
              { Circuit.name = "r1"; group = "g"; init = true; next = Expr.reg 0 };
            |];
          outputs = [| { Circuit.port_name = "o"; expr = e } |];
          input_constraint = Expr.tru;
        }
      in
      match Serialize.of_string (Serialize.to_string c) with
      | Ok c' -> c'.Circuit.regs.(0).Circuit.next = e
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "roundtrip counter" `Quick test_roundtrip_counter;
    Alcotest.test_case "roundtrip dlx control" `Quick test_roundtrip_dlx_control;
    Alcotest.test_case "parse handwritten" `Quick test_parse_handwritten;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "save/load" `Quick test_save_load;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_random_exprs;
  ]

open Simcov_dlx

let assemble k =
  match Programs.program k with
  | Ok p -> p
  | Error e -> Alcotest.fail (Programs.error_to_string e)

let test_kernels_assemble () =
  List.iter
    (fun k ->
      let p = assemble k in
      Alcotest.(check bool) (k.Programs.name ^ " nonempty") true (Array.length p > 0))
    Programs.all

let test_kernels_compute_expected_values () =
  List.iter
    (fun k ->
      let s =
        match Programs.run_spec k with
        | Ok s -> s
        | Error e -> Alcotest.fail (Programs.error_to_string e)
      in
      List.iter
        (fun (r, v) ->
          Alcotest.(check int32)
            (Printf.sprintf "%s: r%d" k.Programs.name r)
            v (Spec.reg s r))
        k.Programs.checks)
    Programs.all

let test_kernels_halt () =
  List.iter
    (fun k ->
      let s = Spec.create (assemble k) in
      let commits = Spec.run ~max_steps:5000 s in
      Alcotest.(check bool) (k.Programs.name ^ " halts") true (Spec.halted s);
      Alcotest.(check bool) (k.Programs.name ^ " does work") true (List.length commits > 5))
    Programs.all

let test_kernels_through_pipeline () =
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Ok (Validate.Pass _) -> ()
      | Ok (Validate.Fail _ as f) ->
          Alcotest.failf "%s on the 5-stage pipeline: %s" name
            (Format.asprintf "%a" Validate.pp_outcome f)
      | Error e -> Alcotest.fail (Programs.error_to_string e))
    (Programs.validate_all ())

let test_kernels_through_dual_issue () =
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Ok (Validate.Pass _) -> ()
      | Ok (Validate.Fail _ as f) ->
          Alcotest.failf "%s on the dual-issue machine: %s" name
            (Format.asprintf "%a" Validate.pp_outcome f)
      | Error e -> Alcotest.fail (Programs.error_to_string e))
    (Programs.validate_all_dual ())

let test_kernels_expose_bugs () =
  (* the kernels are dependence-heavy enough that most pipeline bugs
     show on at least one of them *)
  let detected =
    List.filter
      (fun (_, bugs) ->
        List.exists
          (fun k -> Oracles.Validate.detects_bug ~program:(assemble k) bugs)
          Programs.all)
      Pipeline.bug_catalog
  in
  Alcotest.(check bool)
    (Printf.sprintf "kernels catch %d/12 bugs" (List.length detected))
    true
    (List.length detected >= 8)

let test_find () =
  Alcotest.(check bool) "gcd present" true (Programs.find "gcd" <> None);
  Alcotest.(check bool) "unknown absent" true (Programs.find "quux" = None)

let suite =
  [
    Alcotest.test_case "kernels assemble" `Quick test_kernels_assemble;
    Alcotest.test_case "kernels compute" `Quick test_kernels_compute_expected_values;
    Alcotest.test_case "kernels halt" `Quick test_kernels_halt;
    Alcotest.test_case "kernels on pipeline" `Quick test_kernels_through_pipeline;
    Alcotest.test_case "kernels on dual issue" `Quick test_kernels_through_dual_issue;
    Alcotest.test_case "kernels expose bugs" `Quick test_kernels_expose_bugs;
    Alcotest.test_case "find" `Quick test_find;
  ]

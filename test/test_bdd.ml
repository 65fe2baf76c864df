open Simcov_bdd

let test_constants () =
  let m = Bdd.man 4 in
  Alcotest.(check bool) "true is true" true (Bdd.is_true (Bdd.btrue m));
  Alcotest.(check bool) "false is false" true (Bdd.is_false (Bdd.bfalse m));
  Alcotest.(check bool) "not true = false" true
    (Bdd.is_false (Bdd.bnot m (Bdd.btrue m)))

let test_var_eval () =
  let m = Bdd.man 3 in
  let x = Bdd.var m 0 and ny = Bdd.nvar m 1 in
  Alcotest.(check bool) "x under x=1" true (Bdd.eval m x (fun _ -> true));
  Alcotest.(check bool) "x under x=0" false (Bdd.eval m x (fun _ -> false));
  Alcotest.(check bool) "~y under y=1" false (Bdd.eval m ny (fun _ -> true))

let test_hash_consing () =
  let m = Bdd.man 4 in
  let a = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let b = Bdd.band m (Bdd.var m 1) (Bdd.var m 0) in
  Alcotest.(check bool) "structural sharing" true (Bdd.equal a b)

(* exhaustively compare a BDD against a reference boolean function *)
let check_semantics m bdd f nvars =
  for assignment = 0 to (1 lsl nvars) - 1 do
    let assign v = (assignment lsr v) land 1 = 1 in
    Alcotest.(check bool)
      (Printf.sprintf "assignment %d" assignment)
      (f assign) (Bdd.eval m bdd assign)
  done

(* The truth-table reference: entry [a] of a table over [n] variables
   is the function's value at the assignment whose bit [v] is variable
   [v]. *)
let table m n f = Array.init (1 lsl n) (fun a -> Bdd.eval m f (fun v -> (a lsr v) land 1 = 1))

(* [vars] quantified out of a table *)
let exists_table vars t =
  List.fold_left
    (fun t v -> Array.mapi (fun a _ -> t.(a land lnot (1 lsl v)) || t.(a lor (1 lsl v))) t)
    t vars

(* The enumeration reference: every satisfying total assignment over
   exactly [vars], in their given order, cofactoring one variable at a
   time (a cofactor is [and_exists] of the variable's literal). [f]
   receives a reused buffer. *)
let iter_sat m ~vars f t =
  let k = Array.length vars in
  let buf = Array.make k false in
  let cofactor t v b = Bdd.and_exists m [ v ] (if b then Bdd.var m v else Bdd.nvar m v) t in
  let rec go i t =
    if i = k then begin
      if Bdd.is_true t then f buf
      else if not (Bdd.is_false t) then invalid_arg "iter_sat: support escapes vars"
    end
    else if not (Bdd.is_false t) then
      (* [t] stays live across the low branch's enumeration: pin it *)
      Bdd.pinned m t (fun () ->
          buf.(i) <- false;
          go (i + 1) (cofactor t vars.(i) false);
          buf.(i) <- true;
          go (i + 1) (cofactor t vars.(i) true))
  in
  go 0 t

let test_connectives_semantics () =
  let m = Bdd.man 3 in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  check_semantics m
    (Bdd.band m x (Bdd.bor m y z))
    (fun a -> a 0 && (a 1 || a 2))
    3;
  check_semantics m (Bdd.bxor m x y) (fun a -> a 0 <> a 1) 3;
  check_semantics m (Bdd.biff m x z) (fun a -> a 0 = a 2) 3;
  check_semantics m
    (Bdd.ite m x y z)
    (fun a -> if a 0 then a 1 else a 2)
    3

let test_de_morgan () =
  let m = Bdd.man 2 in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let lhs = Bdd.bnot m (Bdd.band m x y) in
  let rhs = Bdd.bor m (Bdd.bnot m x) (Bdd.bnot m y) in
  Alcotest.(check bool) "de morgan" true (Bdd.equal lhs rhs)

let test_quantification () =
  let m = Bdd.man 2 in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.band m x y in
  (* one conjunct: plain existential quantification *)
  let exists vars f = Bdd.and_exists_list m vars [ f ] in
  Alcotest.(check bool) "exists x (x&y) = y" true (Bdd.equal (exists [ 0 ] f) y);
  Alcotest.(check bool) "exists x (x|y) = true" true
    (Bdd.is_true (exists [ 0 ] (Bdd.bor m x y)));
  Alcotest.(check bool) "exists both (x&y) = true" true (Bdd.is_true (exists [ 0; 1 ] f))

let test_and_exists () =
  let m = Bdd.man 3 in
  let x = Bdd.var m 0 and y = Bdd.var m 1 and z = Bdd.var m 2 in
  let f = Bdd.band m x y and g = Bdd.bor m y z in
  let fused = Bdd.and_exists m [ 1 ] f g in
  Alcotest.(check (array bool)) "fused = reference"
    (exists_table [ 1 ] (table m 3 (Bdd.band m f g)))
    (table m 3 fused)

let test_rename () =
  let m = Bdd.man 4 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.rename m (fun v -> v + 2) f in
  let expected = Bdd.band m (Bdd.var m 2) (Bdd.var m 3) in
  Alcotest.(check bool) "renamed" true (Bdd.equal g expected)

let test_sat_count () =
  let m = Bdd.man 3 in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  Alcotest.(check (float 1e-9)) "x&y over 3 vars" 2.0 (Bdd.sat_count m ~nvars:3 (Bdd.band m x y));
  Alcotest.(check (float 1e-9)) "x|y over 3 vars" 6.0 (Bdd.sat_count m ~nvars:3 (Bdd.bor m x y));
  Alcotest.(check (float 1e-9)) "true over 3 vars" 8.0 (Bdd.sat_count m ~nvars:3 (Bdd.btrue m));
  Alcotest.(check (float 1e-9)) "false" 0.0 (Bdd.sat_count m ~nvars:3 (Bdd.bfalse m))

let test_any_sat () =
  let m = Bdd.man 3 in
  let f = Bdd.band m (Bdd.nvar m 0) (Bdd.var m 2) in
  let cube = Bdd.any_sat m f in
  let assign v = List.assoc_opt v cube = Some true in
  Alcotest.(check bool) "sat assignment satisfies" true (Bdd.eval m f assign);
  Alcotest.(check bool) "false raises" true
    (try
       ignore (Bdd.any_sat m (Bdd.bfalse m));
       false
     with Not_found -> true)

let test_iter_sat () =
  let m = Bdd.man 3 in
  let f = Bdd.bor m (Bdd.band m (Bdd.var m 0) (Bdd.var m 1)) (Bdd.var m 2) in
  let count = ref 0 in
  iter_sat m ~vars:[| 0; 1; 2 |] (fun _ -> incr count) f;
  Alcotest.(check int) "iter_sat count matches sat_count" 5 !count

let test_support () =
  let m = Bdd.man 4 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 3) in
  Alcotest.(check (list int)) "support" [ 0; 3 ] (Bdd.support m f)

let test_size () =
  let m = Bdd.man 3 in
  Alcotest.(check int) "var size" 3 (Bdd.size m (Bdd.var m 0));
  Alcotest.(check int) "const size" 2 (Bdd.size m (Bdd.btrue m))

(* a moderately large function: parity of 10 variables (BDD size is
   linear for parity). *)
let test_parity_chain () =
  let m = Bdd.man 10 in
  let parity = List.fold_left (fun acc v -> Bdd.bxor m acc (Bdd.var m v)) (Bdd.bfalse m) (List.init 10 Fun.id) in
  Alcotest.(check (float 1e-3)) "half the assignments" 512.0 (Bdd.sat_count m ~nvars:10 parity);
  Alcotest.(check bool) "linear size" true (Bdd.size m parity <= 2 + (2 * 10))

let qcheck_random_exprs =
  (* random 4-variable expression evaluated against a direct interpreter *)
  let open QCheck in
  let rec expr_gen depth =
    let open Gen in
    if depth = 0 then map (fun v -> `Var v) (int_bound 3)
    else
      frequency
        [
          (2, map (fun v -> `Var v) (int_bound 3));
          (2, map2 (fun a b -> `And (a, b)) (expr_gen (depth - 1)) (expr_gen (depth - 1)));
          (2, map2 (fun a b -> `Or (a, b)) (expr_gen (depth - 1)) (expr_gen (depth - 1)));
          (1, map2 (fun a b -> `Xor (a, b)) (expr_gen (depth - 1)) (expr_gen (depth - 1)));
          (1, map (fun a -> `Not a) (expr_gen (depth - 1)));
        ]
  in
  let rec pp_expr = function
    | `Var v -> Printf.sprintf "x%d" v
    | `And (a, b) -> Printf.sprintf "(%s & %s)" (pp_expr a) (pp_expr b)
    | `Or (a, b) -> Printf.sprintf "(%s | %s)" (pp_expr a) (pp_expr b)
    | `Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)
    | `Not a -> Printf.sprintf "~%s" (pp_expr a)
  in
  let arb = make ~print:pp_expr (expr_gen 5) in
  Test.make ~name:"bdd: agrees with direct evaluation on random expressions"
    ~count:200 arb (fun e ->
      let m = Bdd.man 4 in
      let rec build = function
        | `Var v -> Bdd.var m v
        | `And (a, b) -> Bdd.band m (build a) (build b)
        | `Or (a, b) -> Bdd.bor m (build a) (build b)
        | `Xor (a, b) -> Bdd.bxor m (build a) (build b)
        | `Not a -> Bdd.bnot m (build a)
      in
      let bdd = build e in
      let ok = ref true in
      for assignment = 0 to 15 do
        let assign v = (assignment lsr v) land 1 = 1 in
        let rec interp = function
          | `Var v -> assign v
          | `And (a, b) -> interp a && interp b
          | `Or (a, b) -> interp a || interp b
          | `Xor (a, b) -> interp a <> interp b
          | `Not a -> not (interp a)
        in
        if interp e <> Bdd.eval m bdd assign then ok := false
      done;
      !ok)

let qcheck_exists_reference =
  QCheck.Test.make ~name:"bdd: exists equals the truth-table reference" ~count:100
    QCheck.(pair (int_range 1 100) (int_bound 2))
    (fun (seed, qvar) ->
      let m = Bdd.man 3 in
      let rng = Simcov_util.Rng.create seed in
      (* random function as a random truth table over 3 vars *)
      let minterms = ref (Bdd.bfalse m) in
      for assignment = 0 to 7 do
        if Simcov_util.Rng.bool rng then begin
          let cube =
            Bdd.conj m
              (List.init 3 (fun v ->
                   if (assignment lsr v) land 1 = 1 then Bdd.var m v else Bdd.nvar m v))
          in
          minterms := Bdd.bor m !minterms cube
        end
      done;
      let f = !minterms in
      table m 3 (Bdd.and_exists_list m [ qvar ] [ f ]) = exists_table [ qvar ] (table m 3 f))

let qcheck_and_exists_fused =
  QCheck.Test.make ~name:"bdd: and_exists equals exists of band" ~count:100
    QCheck.(pair (int_range 1 10_000) (int_bound 3))
    (fun (seed, qvar) ->
      let m = Bdd.man 4 in
      let rng = Simcov_util.Rng.create seed in
      let random_fn () =
        let f = ref (Bdd.bfalse m) in
        for assignment = 0 to 15 do
          if Simcov_util.Rng.bool rng then begin
            let cube =
              Bdd.conj m
                (List.init 4 (fun v ->
                     if (assignment lsr v) land 1 = 1 then Bdd.var m v else Bdd.nvar m v))
            in
            f := Bdd.bor m !f cube
          end
        done;
        !f
      in
      let f = random_fn () and g = random_fn () in
      table m 4 (Bdd.and_exists m [ qvar ] f g)
      = exists_table [ qvar ] (table m 4 (Bdd.band m f g)))

let test_sat_count_guard () =
  let m = Bdd.man 4 in
  let f = Bdd.band m (Bdd.var m 0) (Bdd.var m 3) in
  Alcotest.check_raises "nvars below topvar"
    (Invalid_argument "Bdd.sat_count: nvars = 2 but support contains variable 3")
    (fun () -> ignore (Bdd.sat_count m ~nvars:2 f));
  Alcotest.check_raises "negative nvars"
    (Invalid_argument "Bdd.sat_count: negative nvars") (fun () ->
      ignore (Bdd.sat_count m ~nvars:(-1) f));
  (* at exactly the support bound the count is still defined: x0 & x3
     leaves two free variables *)
  Alcotest.(check (float 1e-9)) "nvars = support max + 1" 4.0 (Bdd.sat_count m ~nvars:4 f)

let test_man_var_limit () =
  Alcotest.(check bool) "1024 vars allowed" true
    (Bdd.num_vars (Bdd.man 1024) = 1024);
  Alcotest.(check bool) "beyond packing limit rejected" true
    (try
       ignore (Bdd.man 1025);
       false
     with Invalid_argument _ -> true)

(* stress the open-addressed tables through their resize path: a
   function with a few thousand distinct nodes *)
let test_table_resize () =
  let n = 24 in
  let m = Bdd.man ~cache_size:16 n in
  let f = ref (Bdd.bfalse m) in
  for i = 0 to n - 2 do
    f := Bdd.bor m !f (Bdd.band m (Bdd.var m i) (Bdd.var m (i + 1)))
  done;
  (* count via both enumeration-free sat_count and semantics probes *)
  let reference assign =
    let ok = ref false in
    for i = 0 to n - 2 do
      if assign i && assign (i + 1) then ok := true
    done;
    !ok
  in
  let rng = Simcov_util.Rng.create 7 in
  for _ = 1 to 500 do
    let bits = Simcov_util.Rng.int rng (1 lsl n) in
    let assign v = (bits lsr v) land 1 = 1 in
    Alcotest.(check bool) "agrees" (reference assign) (Bdd.eval m !f assign)
  done;
  Alcotest.(check bool) "thousands of nodes" true (Bdd.node_count m > 100)

let qcheck_and_exists_list =
  (* the fused multi-conjunct relational product must equal the naive
     exists-of-conjunction on random conjunct lists *)
  QCheck.Test.make ~name:"bdd: and_exists_list equals exists of conj" ~count:150
    QCheck.(pair (int_range 1 100_000) (int_range 0 4))
    (fun (seed, n_extra) ->
      let nv = 6 in
      let m = Bdd.man nv in
      let rng = Simcov_util.Rng.create seed in
      let random_fn () =
        let f = ref (Bdd.bfalse m) in
        for assignment = 0 to (1 lsl nv) - 1 do
          if Simcov_util.Rng.int rng 3 = 0 then begin
            let cube =
              Bdd.conj m
                (List.init nv (fun v ->
                     if (assignment lsr v) land 1 = 1 then Bdd.var m v else Bdd.nvar m v))
            in
            f := Bdd.bor m !f cube
          end
        done;
        !f
      in
      let conjuncts = List.init (1 + n_extra) (fun _ -> random_fn ()) in
      let vars =
        List.filter (fun _ -> Simcov_util.Rng.bool rng) (List.init nv Fun.id)
      in
      table m nv (Bdd.and_exists_list m vars conjuncts)
      = exists_table vars (table m nv (Bdd.conj m conjuncts)))

let qcheck_sat_count_matches_enumeration =
  QCheck.Test.make ~name:"bdd: sat_count equals iter_sat enumeration" ~count:100
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let m = Bdd.man 4 in
      let rng = Simcov_util.Rng.create seed in
      let f = ref (Bdd.bfalse m) in
      for assignment = 0 to 15 do
        if Simcov_util.Rng.bool rng then begin
          let cube =
            Bdd.conj m
              (List.init 4 (fun v ->
                   if (assignment lsr v) land 1 = 1 then Bdd.var m v else Bdd.nvar m v))
          in
          f := Bdd.bor m !f cube
        end
      done;
      let count = ref 0 and all_sat = ref true in
      iter_sat m ~vars:[| 0; 1; 2; 3 |]
        (fun a ->
          incr count;
          if not (Bdd.eval m !f (fun v -> a.(v))) then all_sat := false)
        !f;
      !all_sat && float_of_int !count = Bdd.sat_count m ~nvars:4 !f)

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "var eval" `Quick test_var_eval;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "connective semantics" `Quick test_connectives_semantics;
    Alcotest.test_case "de morgan" `Quick test_de_morgan;
    Alcotest.test_case "quantification" `Quick test_quantification;
    Alcotest.test_case "and_exists" `Quick test_and_exists;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "sat_count" `Quick test_sat_count;
    Alcotest.test_case "any_sat" `Quick test_any_sat;
    Alcotest.test_case "iter_sat" `Quick test_iter_sat;
    Alcotest.test_case "support" `Quick test_support;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "parity chain" `Quick test_parity_chain;
    Alcotest.test_case "sat_count guard" `Quick test_sat_count_guard;
    Alcotest.test_case "manager var limit" `Quick test_man_var_limit;
    Alcotest.test_case "table resize" `Quick test_table_resize;
    QCheck_alcotest.to_alcotest qcheck_random_exprs;
    QCheck_alcotest.to_alcotest qcheck_exists_reference;
    QCheck_alcotest.to_alcotest qcheck_and_exists_fused;
    QCheck_alcotest.to_alcotest qcheck_and_exists_list;
    QCheck_alcotest.to_alcotest qcheck_sat_count_matches_enumeration;
  ]

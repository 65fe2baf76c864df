(* Dynamic variable reordering: sifting correctness, the rooting/GC
   contract during a sift, Node_limit aborts, the re-specified rename
   precondition, and the level-ranked dot output. *)

open Simcov_bdd

(* the classically order-adverse function x0&xn | x1&x(n+1) | ... —
   linear in one interleaving, exponential in the other *)
let adverse m n =
  let f = ref (Bdd.bfalse m) in
  for i = 0 to n - 1 do
    f := Bdd.bor m !f (Bdd.band m (Bdd.var m i) (Bdd.var m (n + i)))
  done;
  Bdd.protect m !f

let check_adverse_semantics m f n =
  (* spot-check against the defining formula on a pseudo-random walk
     of assignments (2n variables is too many to exhaust) *)
  let st = Random.State.make [| 0xC0FFEE |] in
  for _ = 1 to 200 do
    let bits = Array.init (2 * n) (fun _ -> Random.State.bool st) in
    let expect =
      let rec any i = i < n && ((bits.(i) && bits.(n + i)) || any (i + 1)) in
      any 0
    in
    Alcotest.(check bool) "adverse semantics" expect (Bdd.eval m f (fun v -> bits.(v)))
  done

let test_sift_reduces () =
  let n = 8 in
  let m = Bdd.man (2 * n) in
  let f = adverse m n in
  ignore (Bdd.gc m);
  let before = (Bdd.gc_stats m).Bdd.live in
  Bdd.reorder m;
  let after = (Bdd.gc_stats m).Bdd.live in
  Alcotest.(check bool)
    (Printf.sprintf "sift shrinks adverse order (%d -> %d)" before after)
    true
    (after * 4 < before);
  check_adverse_semantics m f n;
  let rs = Bdd.reorder_stats m in
  Alcotest.(check bool) "runs counted" true (rs.Bdd.reorder_runs >= 1);
  Alcotest.(check bool) "swaps counted" true (rs.Bdd.reorder_swaps > 0);
  Alcotest.(check int) "nodes_before recorded" before rs.Bdd.last_nodes_before;
  Alcotest.(check int) "nodes_after recorded" after rs.Bdd.last_nodes_after

let test_order_and_levels () =
  let m = Bdd.man 4 in
  Alcotest.(check (array int)) "initial order is identity" [| 0; 1; 2; 3 |]
    (Bdd.order m);
  let f = Bdd.protect m (Bdd.band m (Bdd.var m 0) (Bdd.var m 3)) in
  Bdd.set_order m [| 3; 1; 2; 0 |];
  Alcotest.(check (array int)) "set_order applied" [| 3; 1; 2; 0 |] (Bdd.order m);
  (* topvar is a variable index; under this order the root tests x3 *)
  Alcotest.(check int) "topvar follows order" 3 (Bdd.topvar m f);
  (* support stays sorted by index, independent of the level order *)
  Alcotest.(check (list int)) "support index-sorted" [ 0; 3 ] (Bdd.support m f);
  Alcotest.(check bool) "semantics kept" true
    (Bdd.eval m f (fun v -> v = 0 || v = 3));
  Alcotest.(check bool) "falsified" false (Bdd.eval m f (fun v -> v = 0))

(* ---- randomized equivalence: op DAGs with reorders interleaved ---- *)

(* Build a random operation DAG over [nvars] variables, forcing a
   reorder (sift or random permutation) at random points, keeping a
   reference closure for every node built. Then every pool entry must
   still agree with its reference exhaustively, and sat_count/support
   must match brute force. *)
let qcheck_reorder_equivalence =
  QCheck.Test.make ~name:"reorder: random op DAGs survive random reorders"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let nvars = 5 + Random.State.int st 3 in
      let m = Bdd.man nvars in
      let pool = ref [] in
      let add b f = pool := (Bdd.protect m b, f) :: !pool in
      add (Bdd.btrue m) (fun _ -> true);
      add (Bdd.bfalse m) (fun _ -> false);
      for v = 0 to nvars - 1 do
        add (Bdd.var m v) (fun a -> a v)
      done;
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      let shuffle () =
        let p = Array.init nvars Fun.id in
        for i = nvars - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = p.(i) in
          p.(i) <- p.(j);
          p.(j) <- t
        done;
        p
      in
      for _ = 1 to 25 do
        let a, fa = pick () and b, fb = pick () in
        (match Random.State.int st 5 with
        | 0 -> add (Bdd.band m a b) (fun x -> fa x && fb x)
        | 1 -> add (Bdd.bor m a b) (fun x -> fa x || fb x)
        | 2 -> add (Bdd.bxor m a b) (fun x -> fa x <> fb x)
        | 3 -> add (Bdd.bnot m a) (fun x -> not (fa x))
        | _ ->
            let c, fc = pick () in
            add (Bdd.ite m a b c) (fun x -> if fa x then fb x else fc x));
        match Random.State.int st 4 with
        | 0 -> Bdd.reorder m
        | 1 -> Bdd.set_order m (shuffle ())
        | _ -> ()
      done;
      Bdd.reorder m;
      let n_assign = 1 lsl nvars in
      List.iter
        (fun (b, f) ->
          let count = ref 0 in
          let ref_support = Array.make nvars false in
          for a = 0 to n_assign - 1 do
            let assign v = (a lsr v) land 1 = 1 in
            let expect = f assign in
            if expect <> Bdd.eval m b assign then
              QCheck.Test.fail_reportf "eval diverges on assignment %d" a;
            if expect then incr count;
            for v = 0 to nvars - 1 do
              if f assign <> f (fun w -> if w = v then not (assign w) else assign w)
              then ref_support.(v) <- true
            done
          done;
          if float_of_int !count <> Bdd.sat_count m ~nvars b then
            QCheck.Test.fail_reportf "sat_count diverges (expected %d)" !count;
          let expect_support =
            List.filter (fun v -> ref_support.(v)) (List.init nvars Fun.id)
          in
          if expect_support <> Bdd.support m b then
            QCheck.Test.fail_report "support diverges")
        !pool;
      true)

(* ---- GC interaction: unrooted garbage dies across a sift ---- *)

let test_gc_during_reorder () =
  let n = 6 in
  let m = Bdd.man (2 * n) in
  let f = adverse m n in
  (* pile up dead intermediates the sift's opening collection must
     reclaim — only the rooting contract keeps [f] alive *)
  for i = 0 to (2 * n) - 2 do
    ignore (Bdd.band m (Bdd.var m i) (Bdd.bnot m (Bdd.var m (i + 1))))
  done;
  let runs0 = (Bdd.gc_stats m).Bdd.runs in
  let live0 = (Bdd.gc_stats m).Bdd.live in
  Bdd.reorder m;
  let gs = Bdd.gc_stats m in
  Alcotest.(check bool) "reorder collected" true (gs.Bdd.runs > runs0);
  Alcotest.(check bool) "garbage + sift shrank the table" true
    (gs.Bdd.live < live0);
  check_adverse_semantics m f n

(* ---- Node_limit mid-sift: abort rolls back, manager stays usable ---- *)

let test_node_limit_abort () =
  let n = 8 in
  let m = Bdd.man (2 * n) in
  let f = adverse m n in
  ignore (Bdd.gc m);
  let live = (Bdd.gc_stats m).Bdd.live in
  (* no headroom for any swap's transient nodes: the first interesting
     swap fails its capacity pre-check and the sift aborts *)
  Bdd.set_max_nodes m (Some live);
  (match Bdd.reorder m with
  | () -> Alcotest.fail "expected Node_limit"
  | exception Bdd.Node_limit _ -> ());
  check_adverse_semantics m f n;
  (* manager must still be fully usable: new ops, then a successful
     sift once the ceiling is lifted *)
  Bdd.set_max_nodes m None;
  let g = Bdd.band m f (Bdd.var m 0) in
  Alcotest.(check bool) "post-abort op" true
    (Bdd.eval m g (fun v -> v = 0 || v = n));
  Bdd.reorder m;
  check_adverse_semantics m f n

(* ---- rename: precondition is about LEVELS, not indices ---- *)

let test_rename_levels () =
  let m = Bdd.man 6 in
  let f = Bdd.protect m (Bdd.band m (Bdd.var m 0) (Bdd.bor m (Bdd.var m 1) (Bdd.var m 2))) in
  let subst v = v + 3 in
  let renamed_ok g =
    (* g must be f with v+3 read where f read v *)
    List.for_all
      (fun a ->
        let bits = Array.init 6 (fun v -> (a lsr v) land 1 = 1) in
        Bdd.eval m g (fun v -> bits.(v))
        = (bits.(3) && (bits.(4) || bits.(5))))
      (List.init 64 Fun.id)
  in
  (* identity order: v+3 is monotone in both index and level *)
  Alcotest.(check bool) "fast path" true (renamed_ok (Bdd.rename m subst f));
  (* reverse the target block's levels: the same index-monotone subst
     is now level-reversing, which the old index-based precondition
     wrongly admitted to the structural path *)
  Bdd.set_order m [| 0; 1; 2; 5; 4; 3 |];
  Alcotest.(check bool) "fallback path" true (renamed_ok (Bdd.rename m subst f));
  (* non-injective maps must be rejected, not silently capture *)
  Alcotest.check_raises "non-injective rejected"
    (Invalid_argument "Bdd.rename: substitution not injective on support")
    (fun () -> ignore (Bdd.rename m (fun _ -> 4) f))

(* ---- auto trigger ---- *)

(* With auto-reorder on, a sift (which collects first) can fire inside
   ANY public operation — so a value held across op boundaries must be
   rooted the whole time, not just passed as an argument. This is the
   opt-in rooting contract; [adverse]'s bare ref would dangle here. *)
let adverse_rooted m n =
  let f = ref (Bdd.bfalse m) in
  let r = Bdd.add_root m !f in
  for i = 0 to n - 1 do
    f := Bdd.bor m !f (Bdd.band m (Bdd.var m i) (Bdd.var m (n + i)));
    Bdd.set_root m r !f
  done;
  !f

let test_auto_reorder () =
  let n = 8 in
  let m = Bdd.man (2 * n) in
  Bdd.set_auto_reorder m ~ratio:1.5 ~min_nodes:64 true;
  let f = adverse_rooted m n in
  Alcotest.(check bool) "auto trigger fired" true
    ((Bdd.reorder_stats m).Bdd.reorder_runs >= 1);
  check_adverse_semantics m f n;
  Bdd.set_auto_reorder m false;
  let runs = (Bdd.reorder_stats m).Bdd.reorder_runs in
  ignore (adverse_rooted m n);
  Alcotest.(check int) "disabled" runs (Bdd.reorder_stats m).Bdd.reorder_runs

let suite =
  [
    Alcotest.test_case "sifting shrinks an adverse order" `Quick test_sift_reduces;
    Alcotest.test_case "order/level observers" `Quick test_order_and_levels;
    QCheck_alcotest.to_alcotest qcheck_reorder_equivalence;
    Alcotest.test_case "GC during reorder" `Quick test_gc_during_reorder;
    Alcotest.test_case "Node_limit aborts, manager usable" `Quick
      test_node_limit_abort;
    Alcotest.test_case "rename precondition is level-based" `Quick
      test_rename_levels;
    Alcotest.test_case "auto-reorder trigger" `Quick test_auto_reorder;
  ]

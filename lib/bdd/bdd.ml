(* ------------------------------------------------------------------ *)
(* Node store                                                          *)
(*                                                                     *)
(* A BDD is an int handle: the index of a slot in its manager's flat   *)
(* [nodes] array. A slot is one int holding the node's variable (11    *)
(* bits) above its low and high children (26 bits each), so its low   *)
(* 52 bits are exactly its unique-table key. Slots 0 and 1 are the     *)
(* constants false and true; their variable is the sentinel [nvars],   *)
(* whose level sorts below every real level, and their children are    *)
(* themselves. A free slot has the all-ones variable [free_var] and    *)
(* waits on the free stack (threaded through the free slots' low       *)
(* fields) until a new node takes it, so a handle left unrooted across *)
(* a collection dangles: while its slot is free every public operation *)
(* refuses it, and once the slot is reused it names an unrelated node. *)
(* Nodes are never boxed: creating or rewriting one is one int store,  *)
(* with no allocation and no GC write barrier.                         *)
(* ------------------------------------------------------------------ *)

type t = int

(* ------------------------------------------------------------------ *)
(* Packed int keys                                                     *)
(*                                                                     *)
(* Every table in the manager is keyed by a single native int. The     *)
(* unique table is split per variable, so its key is just the child    *)
(* pair (lo, hi) packed as lo:26 | hi:26; a binary-operation cache     *)
(* entry is (a, b) packed the same way. The limits — 1024 variables,   *)
(* 2^26 (~67M) slots — are far beyond what fits in memory here and are *)
(* enforced explicitly. Freed slots are reused, so the 2^26 ceiling    *)
(* applies to peak live nodes, not to the total ever allocated.        *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(*                                                                     *)
(* The hot paths (unique-table and op-cache probes) count into plain   *)
(* int fields of the manager, and [flush] adds them to these Obs       *)
(* metrics when the outermost public operation ends (and after a       *)
(* reordering pass). An Obs update resolves the current registry's     *)
(* cell first, which is too dear per node; a snapshot taken between    *)
(* operations reads the same totals either way. The live/peak gauges   *)
(* track the manager that allocated or collected most recently.        *)
(* ------------------------------------------------------------------ *)

module Obs = Simcov_obs.Obs

(* the hot-path counters, by their index in a manager's [pending] *)
let hot_counters =
  Array.map Obs.counter
    [| "bdd.unique.hit"; "bdd.unique.miss"; "bdd.cache.and.hit";
       "bdd.cache.and.miss"; "bdd.cache.or.hit"; "bdd.cache.or.miss";
       "bdd.cache.xor.hit"; "bdd.cache.xor.miss"; "bdd.cache.not.hit";
       "bdd.cache.not.miss"; "bdd.cache.ite.hit"; "bdd.cache.ite.miss" |]

let unique_hit = 0 and unique_miss = 1 and and_hit = 2 and and_miss = 3
let or_hit = 4 and or_miss = 5 and xor_hit = 6 and xor_miss = 7
let not_hit = 8 and not_miss = 9 and ite_hit = 10 and ite_miss = 11
let c_gc_runs = Obs.counter "bdd.gc.runs"
let c_gc_reclaimed = Obs.counter "bdd.gc.reclaimed"
let g_nodes_live = Obs.gauge "bdd.nodes.live"
let g_nodes_peak = Obs.gauge "bdd.nodes.peak"
let c_reorder_runs = Obs.counter "bdd.reorder.runs"
let c_reorder_swaps = Obs.counter "bdd.reorder.swaps"
let g_reorder_before = Obs.gauge "bdd.reorder.nodes_before"
let g_reorder_after = Obs.gauge "bdd.reorder.nodes_after"

let slot_bits = 26
let slot_limit = 1 lsl slot_bits
let var_limit = 1 lsl 10

let pack2 a b = (a lsl slot_bits) lor b

(* slot layout: variable | low | high *)
let var_shift = 2 * slot_bits
let child_mask = slot_limit - 1
let free_var = (1 lsl (Sys.int_size - var_shift)) - 1

(* ------------------------------------------------------------------ *)
(* Open-addressed int-keyed hash tables                                *)
(*                                                                     *)
(* Linear probing over power-of-two arrays, int keys to int values.    *)
(* Deletion uses tombstones (needed by the reordering swap, which      *)
(* unlinks individual nodes); the garbage collector still compacts     *)
(* wholesale. Real keys are always non-negative, so the two sentinels  *)
(* live in the negative range. The probe loops are top-level           *)
(* functions, so a lookup allocates no closure.                        *)
(* ------------------------------------------------------------------ *)

let empty_key = min_int
let tomb_key = min_int + 1

let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

module Itab = struct
  type tab = {
    mutable keys : int array;
    mutable data : int array;
    mutable used : int;  (* live entries *)
    mutable filled : int;  (* live entries + tombstones *)
  }

  let round_pow2 n =
    let rec go c = if c >= n then c else go (c * 2) in
    go 16

  let create size =
    let n = round_pow2 size in
    { keys = Array.make n empty_key; data = Array.make n 0; used = 0; filled = 0 }

  (* index of [k], or -1 when absent; tombstones are skipped *)
  let rec probe keys mask k i =
    let key = Array.unsafe_get keys i in
    if key = k then i
    else if key = empty_key then -1
    else probe keys mask k ((i + 1) land mask)

  let find_idx t k =
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    probe keys mask k (mix k land mask)

  let value t i = Array.unsafe_get t.data i

  let rec empty_slot keys mask j =
    if Array.unsafe_get keys j = empty_key then j
    else empty_slot keys mask ((j + 1) land mask)

  (* rehash, dropping tombstones; grows only when the live load asks
     for it (a rehash at the same size is how a tombstone-heavy table
     recovers) *)
  let resize t =
    let old_keys = t.keys and old_data = t.data in
    let len = Array.length old_keys in
    let n = if 2 * (t.used + 1) > len then 2 * len else len in
    let keys = Array.make n empty_key and data = Array.make n 0 in
    let mask = n - 1 in
    for i = 0 to len - 1 do
      let k = Array.unsafe_get old_keys i in
      if k <> empty_key && k <> tomb_key then begin
        let j = empty_slot keys mask (mix k land mask) in
        Array.unsafe_set keys j k;
        Array.unsafe_set data j (Array.unsafe_get old_data i)
      end
    done;
    t.keys <- keys;
    t.data <- data;
    t.filled <- t.used

  (* [tomb] is the first tombstone on the probe path: if the key is
     absent it is the insertion slot *)
  let rec add_at t k v mask i tomb =
    let keys = t.keys in
    let key = Array.unsafe_get keys i in
    if key = empty_key then begin
      if tomb >= 0 then begin
        Array.unsafe_set keys tomb k;
        Array.unsafe_set t.data tomb v
      end
      else begin
        Array.unsafe_set keys i k;
        Array.unsafe_set t.data i v;
        t.filled <- t.filled + 1
      end;
      t.used <- t.used + 1
    end
    else if key = k then Array.unsafe_set t.data i v
    else if key = tomb_key && tomb < 0 then add_at t k v mask ((i + 1) land mask) i
    else add_at t k v mask ((i + 1) land mask) tomb

  let add t k v =
    if 4 * (t.filled + 1) > 3 * Array.length t.keys then resize t;
    let mask = Array.length t.keys - 1 in
    add_at t k v mask (mix k land mask) (-1)

  let remove t k =
    let i = find_idx t k in
    if i >= 0 then begin
      t.keys.(i) <- tomb_key;
      t.data.(i) <- 0;
      t.used <- t.used - 1
    end

  let iter f t =
    let keys = t.keys and data = t.data in
    for i = 0 to Array.length keys - 1 do
      let k = Array.unsafe_get keys i in
      if k <> empty_key && k <> tomb_key then f k (Array.unsafe_get data i)
    done

  let length t = t.used
end

(* ITE needs three handles (78 bits), so its cache carries two key
   words per entry. *)
module Itab2 = struct
  type tab = {
    mutable ka : int array;
    mutable kb : int array;
    mutable data : int array;
    mutable used : int;
  }

  let create size =
    let n = Itab.round_pow2 size in
    { ka = Array.make n empty_key; kb = Array.make n 0; data = Array.make n 0; used = 0 }

  let hash a b = mix (a lxor mix b)

  let rec probe ka kb mask a b i =
    let key = Array.unsafe_get ka i in
    if key = a && Array.unsafe_get kb i = b then i
    else if key = empty_key then -1
    else probe ka kb mask a b ((i + 1) land mask)

  let find_idx t a b =
    let mask = Array.length t.ka - 1 in
    probe t.ka t.kb mask a b (hash a b land mask)

  let value t i = Array.unsafe_get t.data i

  let resize t =
    let old_ka = t.ka and old_kb = t.kb and old_data = t.data in
    let len = Array.length old_ka in
    let n = 2 * len in
    let ka = Array.make n empty_key and kb = Array.make n 0 and data = Array.make n 0 in
    let mask = n - 1 in
    for i = 0 to len - 1 do
      let a = Array.unsafe_get old_ka i in
      if a <> empty_key then begin
        let b = Array.unsafe_get old_kb i in
        let j = Itab.empty_slot ka mask (hash a b land mask) in
        Array.unsafe_set ka j a;
        Array.unsafe_set kb j b;
        Array.unsafe_set data j (Array.unsafe_get old_data i)
      end
    done;
    t.ka <- ka;
    t.kb <- kb;
    t.data <- data

  let rec add_at t a b v mask i =
    let key = Array.unsafe_get t.ka i in
    if key = empty_key then begin
      Array.unsafe_set t.ka i a;
      Array.unsafe_set t.kb i b;
      Array.unsafe_set t.data i v;
      t.used <- t.used + 1
    end
    else if key = a && Array.unsafe_get t.kb i = b then Array.unsafe_set t.data i v
    else add_at t a b v mask ((i + 1) land mask)

  let add t a b v =
    if 4 * (t.used + 1) > 3 * Array.length t.ka then resize t;
    let mask = Array.length t.ka - 1 in
    add_at t a b v mask (hash a b land mask)
end

(* ------------------------------------------------------------------ *)
(* Manager                                                             *)
(* ------------------------------------------------------------------ *)

type gc_stats = {
  runs : int;
  reclaimed : int;
  live : int;
  peak_live : int;
}

type reorder_stats = {
  reorder_runs : int;
  reorder_swaps : int;
  last_nodes_before : int;
  last_nodes_after : int;
}

type man = {
  nvars : int;
  cache_size0 : int;
  mutable nodes : int array;  (* slot -> variable | low | high *)
  mutable free_top : int;  (* most recently freed slot while [n_free > 0];
                              each free slot's low field names the next *)
  mutable n_free : int;
  mutable next_slot : int;  (* slots [0, next_slot) have been handed out *)
  (* unique table, split per VARIABLE (not per level): a node whose
     variable merely changes level during a swap never moves tables *)
  subtables : Itab.tab array;
  (* the var <-> level indirection: [var_of_level.(l)] is the variable
     sitting at position [l] of the order, [level_of_var] its inverse.
     Both start as the identity and change only under reordering.
     [level_of_var] has one more entry, for the constants' sentinel
     variable [nvars]: its level is [max_int]. *)
  level_of_var : int array;
  var_of_level : int array;
  mutable live : int;  (* total nodes across all subtables *)
  mutable and_cache : Itab.tab;
  mutable or_cache : Itab.tab;
  mutable xor_cache : Itab.tab;
  mutable not_cache : Itab.tab;
  mutable ite_cache : Itab2.tab;
  mutable max_nodes : int;  (* live-node ceiling; [slot_limit] = unbounded *)
  pos_lits : int array;  (* literal nodes, created on first use (0 until then), never swept *)
  neg_lits : int array;
  roots : (int, t) Hashtbl.t;  (* registered external roots *)
  mutable next_root : int;
  mutable temp_roots : t list;  (* arguments of the op in flight *)
  mutable op_depth : int;  (* public-operation nesting depth *)
  mutable gc_runs : int;
  mutable gc_reclaimed : int;
  mutable peak_live : int;
  (* dynamic reordering *)
  mutable auto_reorder : bool;
  mutable reorder_ratio : float;  (* growth ratio that triggers a sift *)
  mutable reorder_min : int;  (* no auto sift below this live count *)
  mutable last_reorder_live : int;  (* live count at the last sift *)
  mutable in_reorder : bool;
  mutable groups : int array array;  (* level-glued variable groups *)
  mutable reorder_runs : int;
  mutable reorder_swapped : int;
  mutable last_before : int;
  mutable last_after : int;
  mutable refs : int array;  (* slot -> refcount; non-empty during a sift only *)
  mutable work : int array;  (* (key, slot) pairs: a swap's rewrite list, a sweep's survivors *)
  mutable stamp : Bytes.t;  (* slot -> epoch of the last traversal that visited it *)
  mutable epoch : int;  (* 1 .. 255 *)
  mutable counts : float array;  (* slot -> [sat_count]'s memo, valid where stamped *)
  (* telemetry not yet flushed to Obs *)
  pending : int array;  (* counts by [hot_counters] index *)
  mutable n_peak : int;  (* highest live count at a node creation; 0 = none *)
  mutable flushed_swaps : int;  (* [reorder_swapped] already added to Obs *)
}

exception Node_limit of int

(* Internal: the unique table is full; the outermost public operation
   catches this, garbage-collects, and retries. *)
exception Gc_needed

let[@inline] word m s = Array.unsafe_get m.nodes s
let[@inline] var_of w = w lsr var_shift
let[@inline] lo_of w = (w lsr slot_bits) land child_mask
let[@inline] hi_of w = w land child_mask
let[@inline] var_at m s = var_of (word m s)
let[@inline] lo_at m s = lo_of (word m s)
let[@inline] hi_at m s = hi_of (word m s)

(* The order position of a node for cofactoring purposes: constants
   sort below every real level. *)
let[@inline] lvl m s = Array.unsafe_get m.level_of_var (var_at m s)

(* [Stdlib.min] compares polymorphically *)
let[@inline] imin (a : int) b = if a <= b then a else b

let[@inline] set_node m s v lo hi =
  Array.unsafe_set m.nodes s ((v lsl var_shift) lor pack2 lo hi)

let capacity m = Array.length m.nodes
let initial_slots = 1024

let man ?(cache_size = 1 lsl 14) ?max_nodes nvars =
  if nvars < 0 then invalid_arg "Bdd.man: negative variable count";
  if nvars > var_limit then
    invalid_arg
      (Printf.sprintf "Bdd.man: %d variables exceeds the limit of %d" nvars
         var_limit);
  let max_nodes =
    match max_nodes with
    | None -> slot_limit
    | Some n ->
        if n <= 0 then invalid_arg "Bdd.man: non-positive max_nodes";
        min n slot_limit
  in
  (* -1 has every variable bit set: a slot never handed out reads as
     free *)
  let nodes = Array.make initial_slots (-1) in
  nodes.(0) <- (nvars lsl var_shift) lor pack2 0 0;
  nodes.(1) <- (nvars lsl var_shift) lor pack2 1 1;
  {
    nvars;
    cache_size0 = cache_size;
    nodes;
    free_top = -1;
    n_free = 0;
    next_slot = 2;
    subtables = Array.init nvars (fun _ -> Itab.create 16);
    level_of_var = Array.init (nvars + 1) (fun v -> if v = nvars then max_int else v);
    var_of_level = Array.init nvars Fun.id;
    live = 0;
    and_cache = Itab.create cache_size;
    or_cache = Itab.create cache_size;
    xor_cache = Itab.create cache_size;
    not_cache = Itab.create (cache_size / 4);
    ite_cache = Itab2.create (cache_size / 4);
    max_nodes;
    pos_lits = Array.make nvars 0;
    neg_lits = Array.make nvars 0;
    roots = Hashtbl.create 16;
    next_root = 0;
    temp_roots = [];
    op_depth = 0;
    gc_runs = 0;
    gc_reclaimed = 0;
    peak_live = 0;
    auto_reorder = false;
    reorder_ratio = 2.0;
    reorder_min = 4096;
    last_reorder_live = 4096;
    in_reorder = false;
    groups = [||];
    reorder_runs = 0;
    reorder_swapped = 0;
    last_before = 0;
    last_after = 0;
    refs = [||];
    work = [||];
    stamp = Bytes.empty;
    epoch = 0;
    counts = [||];
    pending = Array.make (Array.length hot_counters) 0;
    n_peak = 0;
    flushed_swaps = 0;
  }

let num_vars m = m.nvars
let live_nodes m = m.live
let node_count m = live_nodes m + 2
let peak_node_count m = m.peak_live + 2

let set_max_nodes m limit =
  match limit with
  | None -> m.max_nodes <- slot_limit
  | Some n ->
      if n <= 0 then invalid_arg "Bdd.set_max_nodes: non-positive limit";
      m.max_nodes <- min n slot_limit

let gc_stats (m : man) : gc_stats =
  {
    runs = m.gc_runs;
    reclaimed = m.gc_reclaimed;
    live = live_nodes m;
    peak_live = m.peak_live;
  }

let reorder_stats (m : man) : reorder_stats =
  {
    reorder_runs = m.reorder_runs;
    reorder_swaps = m.reorder_swapped;
    last_nodes_before = m.last_before;
    last_nodes_after = m.last_after;
  }

let order m = Array.copy m.var_of_level

let bfalse _ = 0
let btrue _ = 1
let of_bool _ b = if b then 1 else 0

(* Every public entry point checks the handles it is given: a handle
   whose slot is free (or beyond the slots ever handed out, e.g. one
   from a larger manager) is refused rather than read as garbage. *)
let check m t =
  if t < 0 || t >= m.next_slot || var_at m t = free_var then
    invalid_arg "Bdd: dangling handle (its node was freed by a collection)"

(* Slot storage grows by doubling; during a sift the refcounts grow
   with it. *)
let grow m =
  let cap = capacity m in
  let cap' = 2 * cap in
  let nodes = Array.make cap' (-1) in
  Array.blit m.nodes 0 nodes 0 cap;
  m.nodes <- nodes;
  if Array.length m.refs > 0 then begin
    let refs = Array.make cap' 0 in
    Array.blit m.refs 0 refs 0 cap;
    m.refs <- refs
  end

(* Take a slot (the most recently freed one first) and fill it. The
   caller has checked the slot ceiling. *)
let new_slot m v lo hi =
  let s =
    if m.n_free > 0 then begin
      let s = m.free_top in
      m.free_top <- lo_at m s;
      m.n_free <- m.n_free - 1;
      s
    end
    else begin
      let s = m.next_slot in
      if s >= capacity m then grow m;
      m.next_slot <- s + 1;
      s
    end
  in
  set_node m s v lo hi;
  s

let release_slot m s =
  set_node m s free_var (m.free_top land child_mask) 0;
  m.free_top <- s;
  m.n_free <- m.n_free + 1

(* [m.work] with room for at least [n] ints *)
let work_for m n =
  if Array.length m.work < n then m.work <- Array.make (max n (2 * Array.length m.work)) 0;
  m.work

(* A fresh visit mark for one traversal: slot [s] is visited iff byte
   [s] of [m.stamp] equals the returned epoch. After 255 traversals the
   stamps are cleared and the epochs start over. *)
let new_epoch m =
  if Bytes.length m.stamp < m.next_slot then begin
    m.stamp <- Bytes.make (capacity m) '\000';
    m.epoch <- 0
  end;
  if m.epoch = 255 then begin
    Bytes.fill m.stamp 0 (Bytes.length m.stamp) '\000';
    m.epoch <- 0
  end;
  m.epoch <- m.epoch + 1;
  Char.unsafe_chr m.epoch

let[@inline] bump m i =
  Array.unsafe_set m.pending i (Array.unsafe_get m.pending i + 1)

let flush m =
  Array.iteri (fun i n -> if n > 0 then Obs.add hot_counters.(i) n) m.pending;
  Array.fill m.pending 0 (Array.length m.pending) 0;
  let swaps = m.reorder_swapped - m.flushed_swaps in
  if swaps > 0 then Obs.add c_reorder_swaps swaps;
  m.flushed_swaps <- m.reorder_swapped;
  (* the live gauge moves only when this manager created a node; a
     collection sets it directly *)
  if m.n_peak > 0 then begin
    Obs.set g_nodes_live m.live;
    Obs.set_max g_nodes_peak m.n_peak;
    m.n_peak <- 0
  end

(* ------------------------------------------------------------------ *)
(* Roots and garbage collection                                        *)
(*                                                                     *)
(* Collecting means compacting the unique table down to the nodes      *)
(* reachable from the registered roots (plus the arguments of the      *)
(* operation in flight) and freeing the slots of everything else. Op   *)
(* caches may reference freed slots, so every sweep invalidates them   *)
(* wholesale.                                                          *)
(*                                                                     *)
(* Contract: on a manager with a node limit (or under explicit [gc]    *)
(* or [reorder] calls), any BDD held across public operations must be  *)
(* reachable from a registered root — otherwise its slot is freed and  *)
(* the handle dangles. The symbolic layer registers its relation       *)
(* conjuncts, reached sets and frontiers accordingly.                  *)
(* ------------------------------------------------------------------ *)

type root = int

let add_root m t =
  check m t;
  let r = m.next_root in
  m.next_root <- r + 1;
  Hashtbl.replace m.roots r t;
  r

let set_root m r t =
  check m t;
  Hashtbl.replace m.roots r t

let remove_root m r = Hashtbl.remove m.roots r

let protect m t =
  ignore (add_root m t);
  t

(* Scoped pin: keep [t] rooted for the duration of [f] — for an
   intermediate that must stay live across further operations but not
   beyond. *)
let pinned m t f =
  let r = add_root m t in
  Fun.protect ~finally:(fun () -> remove_root m r) f

let clear_caches m =
  m.and_cache <- Itab.create m.cache_size0;
  m.or_cache <- Itab.create m.cache_size0;
  m.xor_cache <- Itab.create m.cache_size0;
  m.not_cache <- Itab.create (m.cache_size0 / 4);
  m.ite_cache <- Itab2.create (m.cache_size0 / 4)

let gc m =
  (* mark: recursion depth is bounded by the variable count (levels
     strictly increase along lo/hi edges) *)
  let e = new_epoch m in
  let marked = m.stamp in
  let rec mark s =
    if s >= 2 && Bytes.unsafe_get marked s <> e then begin
      Bytes.unsafe_set marked s e;
      mark (lo_at m s);
      mark (hi_at m s)
    end
  in
  Hashtbl.iter (fun _ t -> mark t) m.roots;
  List.iter mark m.temp_roots;
  (* literal nodes are pinned for the manager's lifetime: a bare
     literal held by a caller across operations must never be swept *)
  Array.iter mark m.pos_lits;
  Array.iter mark m.neg_lits;
  (* sweep: rebuild each subtable with only marked nodes (children of a
     marked node are marked, so every rebuilt key is unchanged) and
     free the slots of the rest *)
  let before = m.live in
  let n_live = ref 0 in
  Array.iteri
    (fun v tab ->
      let survivors = work_for m (2 * Itab.length tab) in
      let n_here = ref 0 in
      Itab.iter
        (fun key s ->
          if Bytes.unsafe_get marked s = e then begin
            survivors.(2 * !n_here) <- key;
            survivors.((2 * !n_here) + 1) <- s;
            incr n_here
          end
          else release_slot m s)
        tab;
      (* re-added last-found first: insertion order fixes the probe
         layout, and with it the order a swap visits the nodes in *)
      let fresh = Itab.create ((!n_here * 4 / 3) + 16) in
      for i = !n_here - 1 downto 0 do
        Itab.add fresh survivors.(2 * i) survivors.((2 * i) + 1)
      done;
      m.subtables.(v) <- fresh;
      n_live := !n_live + !n_here)
    m.subtables;
  m.live <- !n_live;
  (* every op cache may point at freed slots: invalidate them all *)
  clear_caches m;
  let freed = before - !n_live in
  m.gc_runs <- m.gc_runs + 1;
  m.gc_reclaimed <- m.gc_reclaimed + freed;
  Obs.incr c_gc_runs;
  Obs.add c_gc_reclaimed freed;
  Obs.set g_nodes_live !n_live;
  Obs.event "bdd.gc" ~fields:(fun () ->
      [ ("freed", Simcov_util.Json.Int freed);
        ("live", Simcov_util.Json.Int !n_live) ]);
  freed

(* forward reference: the sifting pass, defined after the node
   constructors it needs *)
let reorder_pass = ref (fun (_ : man) -> false)

(* Run a public operation: check and pin its BDD arguments, and at the
   outermost nesting level turn [Gc_needed] into collect-and-retry (the
   retry recomputes from the pinned arguments with cold caches, so a
   sweep in the middle of a half-built result is safe) and flush the
   telemetry on the way out. Collection is only attempted when the
   caller opted into resource governance (a node limit or registered
   roots); otherwise the limit is a hard error, as an unrooted legacy
   caller would not survive a sweep. *)
let run_op m args f =
  List.iter (check m) args;
  (* arguments are pinned at every nesting depth, so a public op called
     internally on an unrooted intermediate is protected even when the
     collection fires deeper in the nesting *)
  let saved = m.temp_roots in
  m.temp_roots <- List.rev_append args saved;
  if m.op_depth > 0 then begin
    m.op_depth <- m.op_depth + 1;
    Fun.protect
      ~finally:(fun () ->
        m.temp_roots <- saved;
        m.op_depth <- m.op_depth - 1)
      f
  end
  else begin
    (* auto-reorder fires between public operations, never inside one;
       the arguments just pinned are part of the sift's sweep set.
       Enabling it is an opt-in to the rooting contract above (a sift
       garbage-collects first). *)
    if
      m.auto_reorder && not m.in_reorder
      && m.live >= m.reorder_min
      && float_of_int m.live
         > m.reorder_ratio *. float_of_int m.last_reorder_live
    then ignore (!reorder_pass m);
    m.op_depth <- 1;
    Fun.protect
      ~finally:(fun () ->
        m.temp_roots <- saved;
        m.op_depth <- 0;
        flush m)
      (fun () ->
        let governed = m.max_nodes < slot_limit || Hashtbl.length m.roots > 0 in
        let rec attempt tries =
          try f ()
          with Gc_needed ->
            if not governed then raise (Node_limit (live_nodes m));
            let freed = gc m in
            if freed = 0 || tries = 0 then raise (Node_limit (live_nodes m));
            attempt (tries - 1)
        in
        attempt 2)
  end

let mk m v lo hi =
  if lo = hi then lo
  else begin
    let tab = Array.unsafe_get m.subtables v in
    let key = pack2 lo hi in
    let i = Itab.find_idx tab key in
    if i >= 0 then begin
      bump m unique_hit;
      Itab.value tab i
    end
    else begin
      if m.live >= m.max_nodes then raise Gc_needed;
      bump m unique_miss;
      if m.n_free = 0 && m.next_slot >= slot_limit then raise Gc_needed;
      let s = new_slot m v lo hi in
      Itab.add tab key s;
      let live = m.live + 1 in
      m.live <- live;
      if live > m.peak_live then m.peak_live <- live;
      if live > m.n_peak then m.n_peak <- live;
      s
    end
  end

(* Literals are created on first use and cached for the manager's
   lifetime; the GC marks the cache, so a literal can never be swept
   out from under a caller holding it across other operations. *)
let var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.var: variable out of range";
  match m.pos_lits.(v) with
  | 0 ->
      let n = run_op m [] (fun () -> mk m v 0 1) in
      m.pos_lits.(v) <- n;
      n
  | n -> n

let nvar m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.nvar: variable out of range";
  match m.neg_lits.(v) with
  | 0 ->
      let n = run_op m [] (fun () -> mk m v 1 0) in
      m.neg_lits.(v) <- n;
      n
  | n -> n

let is_true (t : t) = t = 1
let is_false (t : t) = t = 0
let equal (a : t) b = a = b

let topvar m t =
  check m t;
  if t < 2 then invalid_arg "Bdd.topvar: constant";
  var_at m t

let low m t =
  check m t;
  lo_at m t

let high m t =
  check m t;
  hi_at m t

let size m t =
  check m t;
  let e = new_epoch m in
  let stamp = m.stamp in
  let rec go s n =
    if s < 2 || Bytes.unsafe_get stamp s = e then n
    else begin
      Bytes.unsafe_set stamp s e;
      go (hi_at m s) (go (lo_at m s) (n + 1))
    end
  in
  go t 0 + 2

(* The recursions below build the high branch before the low one.
   That order decides which slots new nodes take, hence every table's
   layout and the order a swap rewrites nodes in (and so the peak live
   count of a sift); the reorder goldens pin it. *)

let rec bnot_rec m t =
  if t < 2 then 1 - t
  else begin
    let i = Itab.find_idx m.not_cache t in
    if i >= 0 then begin
      bump m not_hit;
      Itab.value m.not_cache i
    end
    else begin
      bump m not_miss;
      let w = word m t in
      let v = var_of w and tlo = lo_of w in
      let h = bnot_rec m (hi_of w) in
      let r = mk m v (bnot_rec m tlo) h in
      Itab.add m.not_cache t r;
      r
    end
  end

let bnot m t = run_op m [ t ] (fun () -> bnot_rec m t)

(* The split variable of a binary operation on two non-constant nodes:
   whichever top variable sits higher in the order. *)
let[@inline] top2 m av bv =
  if Array.unsafe_get m.level_of_var av <= Array.unsafe_get m.level_of_var bv
  then av
  else bv

let rec band_rec m a b =
  if a = 0 || b = 0 then 0
  else if a = 1 then b
  else if b = 1 then a
  else if a = b then a
  else begin
    let key = if a <= b then pack2 a b else pack2 b a in
    let i = Itab.find_idx m.and_cache key in
    if i >= 0 then begin
      bump m and_hit;
      Itab.value m.and_cache i
    end
    else begin
      bump m and_miss;
      let wa = word m a and wb = word m b in
      let av = var_of wa and bv = var_of wb in
      let v = top2 m av bv in
      let alo = if av = v then lo_of wa else a
      and ahi = if av = v then hi_of wa else a
      and blo = if bv = v then lo_of wb else b
      and bhi = if bv = v then hi_of wb else b in
      let h = band_rec m ahi bhi in
      let r = mk m v (band_rec m alo blo) h in
      Itab.add m.and_cache key r;
      r
    end
  end

let band m a b = run_op m [ a; b ] (fun () -> band_rec m a b)

(* Direct recursive OR with its own cache — the original kernel
   expanded a|b as ~(~a & ~b), paying three negation walks per
   operation. *)
let rec bor_rec m a b =
  if a = 1 || b = 1 then 1
  else if a = 0 then b
  else if b = 0 then a
  else if a = b then a
  else begin
    let key = if a <= b then pack2 a b else pack2 b a in
    let i = Itab.find_idx m.or_cache key in
    if i >= 0 then begin
      bump m or_hit;
      Itab.value m.or_cache i
    end
    else begin
      bump m or_miss;
      let wa = word m a and wb = word m b in
      let av = var_of wa and bv = var_of wb in
      let v = top2 m av bv in
      let alo = if av = v then lo_of wa else a
      and ahi = if av = v then hi_of wa else a
      and blo = if bv = v then lo_of wb else b
      and bhi = if bv = v then hi_of wb else b in
      let h = bor_rec m ahi bhi in
      let r = mk m v (bor_rec m alo blo) h in
      Itab.add m.or_cache key r;
      r
    end
  end

let bor m a b = run_op m [ a; b ] (fun () -> bor_rec m a b)

let rec bxor_rec m a b =
  if a = 0 then b
  else if b = 0 then a
  else if a = 1 then bnot_rec m b
  else if b = 1 then bnot_rec m a
  else if a = b then 0
  else begin
    let key = if a <= b then pack2 a b else pack2 b a in
    let i = Itab.find_idx m.xor_cache key in
    if i >= 0 then begin
      bump m xor_hit;
      Itab.value m.xor_cache i
    end
    else begin
      bump m xor_miss;
      let wa = word m a and wb = word m b in
      let av = var_of wa and bv = var_of wb in
      let v = top2 m av bv in
      let alo = if av = v then lo_of wa else a
      and ahi = if av = v then hi_of wa else a
      and blo = if bv = v then lo_of wb else b
      and bhi = if bv = v then hi_of wb else b in
      let h = bxor_rec m ahi bhi in
      let r = mk m v (bxor_rec m alo blo) h in
      Itab.add m.xor_cache key r;
      r
    end
  end

let bxor m a b = run_op m [ a; b ] (fun () -> bxor_rec m a b)

(* A compound connective runs as ONE public operation: on a mid-op
   collection the retry restarts the whole body from the pinned
   arguments, so the inner intermediate needs no root of its own. *)
let biff m a b = run_op m [ a; b ] (fun () -> bnot_rec m (bxor_rec m a b))

(* [s] cofactored on variable [v], which sits at or above its level *)
let[@inline] cof_lo m s v =
  let w = word m s in
  if var_of w = v then lo_of w else s

let[@inline] cof_hi m s v =
  let w = word m s in
  if var_of w = v then hi_of w else s

let rec ite_rec m c t e =
  if c = 1 then t
  else if c = 0 then e
  else if t = e then t
  else if t = 1 && e = 0 then c
  else begin
    let ka = pack2 c t and kb = e in
    let i = Itab2.find_idx m.ite_cache ka kb in
    if i >= 0 then begin
      bump m ite_hit;
      Itab2.value m.ite_cache i
    end
    else begin
      bump m ite_miss;
      let l = imin (lvl m c) (imin (lvl m t) (lvl m e)) in
      let v = m.var_of_level.(l) in
      let h = ite_rec m (cof_hi m c v) (cof_hi m t v) (cof_hi m e v) in
      let r = mk m v (ite_rec m (cof_lo m c v) (cof_lo m t v) (cof_lo m e v)) h in
      Itab2.add m.ite_cache ka kb r;
      r
    end
  end

let ite m c t e = run_op m [ c; t; e ] (fun () -> ite_rec m c t e)

(* n-ary folds pin the whole operand list up front — the not-yet-folded
   tail must survive any collection triggered while folding the head *)
let conj m ts = run_op m ts (fun () -> List.fold_left (band_rec m) 1 ts)

(* A quantified-variable set as a flat bool array, validated against
   the manager's variable range. *)
let var_set m vars =
  let vset = Array.make m.nvars false in
  List.iter
    (fun v ->
      if v < 0 || v >= m.nvars then invalid_arg "Bdd: variable out of range";
      vset.(v) <- true)
    vars;
  vset

(* Quantification: membership probed in a flat bool array; results
   memoized per call keyed by slot (valid because the var set is fixed
   for the call). *)
let exists_impl m vset t =
  let cache = Itab.create 256 in
  let rec go t =
    if t < 2 then t
    else begin
      let i = Itab.find_idx cache t in
      if i >= 0 then Itab.value cache i
      else begin
        let v = var_at m t and tlo = lo_at m t in
        let h = go (hi_at m t) in
        let l = go tlo in
        let r = if vset.(v) then bor_rec m l h else mk m v l h in
        Itab.add cache t r;
        r
      end
    end
  in
  go t

let exists m vars t =
  let vset = var_set m vars in
  run_op m [ t ] (fun () -> exists_impl m vset t)

(* Fused AND-EXISTS: quantifies while conjoining, pruning as soon as a
   branch reaches True under the quantifier. *)
let and_exists_impl m vset f g =
  let cache = Itab.create 1024 in
  let rec go f g =
    if f = 0 || g = 0 then 0
    else if f = 1 && g = 1 then 1
    else begin
      let key = if f <= g then pack2 f g else pack2 g f in
      let i = Itab.find_idx cache key in
      if i >= 0 then Itab.value cache i
      else begin
        let l = imin (lvl m f) (lvl m g) in
        let v = Array.unsafe_get m.var_of_level l in
        let flo = cof_lo m f v and fhi = cof_hi m f v in
        let glo = cof_lo m g v and ghi = cof_hi m g v in
        let r =
          if Array.unsafe_get vset v then begin
            let lo = go flo glo in
            if lo = 1 then 1 else bor_rec m lo (go fhi ghi)
          end
          else begin
            let h = go fhi ghi in
            mk m v (go flo glo) h
          end
        in
        Itab.add cache key r;
        r
      end
    end
  in
  go f g

let and_exists m vars f g =
  let vset = var_set m vars in
  run_op m [ f; g ] (fun () -> and_exists_impl m vset f g)

let support m t =
  check m t;
  let e = new_epoch m in
  let stamp = m.stamp in
  let used = Bytes.make (max 1 m.nvars) '\000' in
  let rec go s =
    if s >= 2 && Bytes.unsafe_get stamp s <> e then begin
      Bytes.unsafe_set stamp s e;
      Bytes.unsafe_set used (var_at m s) '\001';
      go (lo_at m s);
      go (hi_at m s)
    end
  in
  go t;
  let acc = ref [] in
  for v = m.nvars - 1 downto 0 do
    if Bytes.unsafe_get used v = '\001' then acc := v :: !acc
  done;
  !acc

(* Multi-operand fused AND-EXISTS with early quantification: fold the
   conjuncts left to right, and quantify each variable out with the
   conjunct in which it occurs for the last time — at that point no
   remaining conjunct mentions it, so
     exists V (c0 & c1 & ... & cn)
   = exists V_n (... (exists V_1 ((exists V_0 c0) & c1) ...) & cn)
   where V_i is the set of variables whose last occurrence is c_i.
   Intermediate results never carry variables that are already dead,
   which is the whole point of a partitioned transition relation.
   Conjunct order is the caller's ordering heuristic; correctness does
   not depend on it. *)
let and_exists_list m vars conjuncts =
  match conjuncts with
  | [] -> 1
  | [ f ] -> exists m vars f
  | _ ->
      let fs = Array.of_list conjuncts in
      let n = Array.length fs in
      let qset = var_set m vars in
      (* last.(v) = index of the last conjunct whose support contains v *)
      let last = Array.make m.nvars (-1) in
      Array.iteri
        (fun i f -> List.iter (fun v -> last.(v) <- i) (support m f))
        fs;
      let quantify_at = Array.make n [] in
      Array.iteri
        (fun v l -> if qset.(v) && l >= 0 then quantify_at.(l) <- v :: quantify_at.(l))
        last;
      run_op m conjuncts (fun () ->
          let acc = ref 1 in
          for i = 0 to n - 1 do
            acc :=
              (match quantify_at.(i) with
              | [] -> band_rec m !acc fs.(i)
              | q -> and_exists_impl m (var_set m q) !acc fs.(i))
          done;
          !acc)

(* Variable renaming. The precondition is stated against the ORDER, not
   the variable indices: a substitution that is monotone on indices can
   be non-monotone on levels once the manager has been reordered, and
   the structural rewrite below would then silently build an unreduced
   (wrong) diagram. The dispatcher checks the substitution on the
   support — injectivity is required; level-monotonicity selects the
   fast structural path, anything else falls back to a bottom-up ITE
   composition that is correct for every injective substitution. *)
let rename m subst t =
  check m t;
  if t < 2 then t
  else begin
    let sup = support m t in
    let targets =
      List.map
        (fun v ->
          let v' = subst v in
          if v' < 0 || v' >= m.nvars then
            invalid_arg "Bdd.rename: target variable out of range";
          v')
        sup
    in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun v' ->
        if Hashtbl.mem seen v' then
          invalid_arg "Bdd.rename: substitution not injective on support";
        Hashtbl.add seen v' ())
      targets;
    let by_level =
      List.sort
        (fun a b -> compare m.level_of_var.(a) m.level_of_var.(b))
        sup
    in
    let monotone =
      let rec chk prev = function
        | [] -> true
        | v :: rest ->
            let l' = m.level_of_var.(subst v) in
            l' > prev && chk l' rest
      in
      chk (-1) by_level
    in
    if monotone then
      run_op m [ t ] (fun () ->
          let cache = Itab.create 256 in
          let rec go t =
            if t < 2 then t
            else begin
              let i = Itab.find_idx cache t in
              if i >= 0 then Itab.value cache i
              else begin
                (* level-monotone on the support: children map to
                   strictly deeper levels, so the structural rewrite
                   preserves reducedness *)
                let v = var_at m t and tlo = lo_at m t in
                let h = go (hi_at m t) in
                let l = go tlo in
                let r = mk m (subst v) l h in
                Itab.add cache t r;
                r
              end
            end
          in
          go t)
    else
      run_op m [ t ] (fun () ->
          let cache = Itab.create 256 in
          let rec go t =
            if t < 2 then t
            else begin
              let i = Itab.find_idx cache t in
              if i >= 0 then Itab.value cache i
              else begin
                let v = var_at m t and thi = hi_at m t in
                let lo = go (lo_at m t) in
                let hi = go thi in
                (* injectivity on the support guarantees no capture:
                   the renamed subtrees cannot mention the fresh
                   literal *)
                let r = ite_rec m (var m (subst v)) hi lo in
                Itab.add cache t r;
                r
              end
            end
          in
          go t)
  end

let any_sat m t =
  check m t;
  let rec go t acc =
    if t = 1 then List.rev acc
    else if t = 0 then raise Not_found
    else if hi_at m t = 0 then go (lo_at m t) ((var_at m t, false) :: acc)
    else go (hi_at m t) ((var_at m t, true) :: acc)
  in
  go t []

(* Model counting against the LEVEL structure: the counted space is the
   variables with index < nvars, but the DAG descends in level order,
   so the "free variables skipped between a parent and a child" are
   counted through a per-level prefix sum. Under the identity order
   this reduces to exactly the index arithmetic the kernel always used
   (bit-identical floats). *)
let sat_count m ~nvars t =
  if nvars < 0 then invalid_arg "Bdd.sat_count: negative nvars";
  check m t;
  let nlev = m.nvars in
  (* cnt_upto.(l) = counted variables sitting at levels < l *)
  let cnt_upto = Array.make (nlev + 1) 0 in
  for l = 0 to nlev - 1 do
    cnt_upto.(l + 1) <-
      cnt_upto.(l) + (if m.var_of_level.(l) < nvars then 1 else 0)
  done;
  let in_levels = cnt_upto.(nlev) in
  (* counted indices beyond the manager's variables (callers may count
     over a space wider than the manager) are free everywhere *)
  let extra = nvars - in_levels in
  (* precomputed powers of two replace the Float.pow call that used to
     run on every node and every leaf *)
  let pow2 = Array.init (nvars + 1) (fun i -> Float.ldexp 1.0 i) in
  (* memo by slot, valid where this call has stamped the slot *)
  let e = new_epoch m in
  let stamp = m.stamp in
  if Array.length m.counts < m.next_slot then m.counts <- Array.make m.next_slot 0.0;
  let memo = m.counts in
  (* count over the subspace of levels >= froml *)
  let rec go t froml =
    if t = 0 then 0.0
    else if t = 1 then pow2.(in_levels - cnt_upto.(froml) + extra)
    else begin
      let v = var_at m t in
      if v >= nvars then
        invalid_arg
          (Printf.sprintf "Bdd.sat_count: nvars = %d but support contains variable %d"
             nvars v);
      let l = m.level_of_var.(v) in
      let below =
        if Bytes.unsafe_get stamp t = e then Array.unsafe_get memo t
        else begin
          let h = go (hi_at m t) (l + 1) in
          let c = go (lo_at m t) (l + 1) +. h in
          Bytes.unsafe_set stamp t e;
          Array.unsafe_set memo t c;
          c
        end
      in
      below *. pow2.(cnt_upto.(l) - cnt_upto.(froml))
    end
  in
  go t 0

let eval m t assign =
  check m t;
  let rec go t =
    if t < 2 then t = 1
    else if assign (var_at m t) then go (hi_at m t)
    else go (lo_at m t)
  in
  go t

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering (Rudell sifting)                        *)
(*                                                                     *)
(* The primitive is the adjacent-level swap: exchange the variables at *)
(* levels l and l+1 by rewriting, in place, exactly the level-l slots  *)
(* that depend on both. Every other slot keeps its contents, and a     *)
(* rewritten slot keeps its handle, which is what lets every held      *)
(* handle (roots, pinned arguments, literals) survive a reorder        *)
(* untouched. A sift garbage-collects first — the same sweep-set       *)
(* contract as [gc] — then maintains exact reference counts so dead    *)
(* nodes are unlinked eagerly during swaps.                            *)
(* ------------------------------------------------------------------ *)

let ref_incr m s = if s >= 2 then m.refs.(s) <- m.refs.(s) + 1

(* Decrement with eager cascade: a node whose count reaches zero is
   unlinked from its subtable, its slot freed, and its children
   released in turn. Only ever called during a sift. *)
let rec ref_decr m s =
  if s >= 2 then begin
    let r = m.refs.(s) - 1 in
    m.refs.(s) <- r;
    if r = 0 then begin
      let v = var_at m s and lo = lo_at m s and hi = hi_at m s in
      Itab.remove m.subtables.(v) (pack2 lo hi);
      release_slot m s;
      m.live <- m.live - 1;
      ref_decr m lo;
      ref_decr m hi
    end
  end

(* Exact counts from parent edges plus every element of the sweep set
   (roots, in-flight pinned arguments, the literal caches). After the
   preceding gc each live node is reachable, hence counted >= 1. *)
let build_refs m =
  m.refs <- Array.make (capacity m) 0;
  Array.iter
    (Itab.iter (fun _ s ->
         ref_incr m (lo_at m s);
         ref_incr m (hi_at m s)))
    m.subtables;
  Hashtbl.iter (fun _ t -> ref_incr m t) m.roots;
  List.iter (ref_incr m) m.temp_roots;
  Array.iter (ref_incr m) m.pos_lits;
  Array.iter (ref_incr m) m.neg_lits

(* Node lookup/creation inside a swap: the caller's capacity pre-check
   has guaranteed both slot and ceiling headroom, so this never raises.
   A fresh node starts at refcount 0 (the caller takes its reference);
   its children gain one reference each. *)
let mk_swap m v lo hi =
  if lo = hi then lo
  else begin
    let tab = m.subtables.(v) in
    let key = pack2 lo hi in
    let i = Itab.find_idx tab key in
    if i >= 0 then Itab.value tab i
    else begin
      let s = new_slot m v lo hi in
      m.refs.(s) <- 0;
      Itab.add tab key s;
      m.live <- m.live + 1;
      if m.live > m.peak_live then m.peak_live <- m.live;
      ref_incr m lo;
      ref_incr m hi;
      s
    end
  end

(* Worst case an adjacent swap allocates two fresh nodes per rewritten
   one; [checked] refuses the swap when that could overrun the node
   ceiling or the slot space (rollbacks run unchecked: they only
   recreate nodes the forward swap just freed). *)
let swap_capacity m k =
  m.live + (2 * k) <= m.max_nodes
  && m.n_free + (slot_limit - m.next_slot) >= 2 * k

(* Swap the variables at levels [l] and [l+1]. Returns false (leaving
   the manager untouched) when [checked] and the capacity test fails. *)
let swap_adjacent m ~checked l =
  let x = m.var_of_level.(l) and y = m.var_of_level.(l + 1) in
  let xtab = m.subtables.(x) in
  (* the nodes to rewrite: level-l nodes with a level-(l+1) child, as
     (key, slot) pairs in table order. All other x-nodes keep their
     keys (the subtable is per variable, not per level) and simply
     sink one level with x itself. *)
  let work = work_for m (2 * Itab.length xtab) in
  let k = ref 0 in
  let keys = xtab.Itab.keys and data = xtab.Itab.data in
  for i = 0 to Array.length keys - 1 do
    let key = Array.unsafe_get keys i in
    if key <> empty_key && key <> tomb_key then begin
      let s = Array.unsafe_get data i in
      if var_at m (lo_at m s) = y || var_at m (hi_at m s) = y then begin
        work.(2 * !k) <- key;
        work.((2 * !k) + 1) <- s;
        incr k
      end
    end
  done;
  let k = !k in
  if checked && not (swap_capacity m k) then false
  else begin
    (* unlink up front: the keys change, and lookups for the rewritten
       children must never hit a stale entry *)
    for i = 0 to k - 1 do
      Itab.remove xtab work.(2 * i)
    done;
    (* rewrite last-found first *)
    for i = k - 1 downto 0 do
      let s = work.((2 * i) + 1) in
      let f0 = lo_at m s and f1 = hi_at m s in
      let f00 = cof_lo m f0 y and f01 = cof_hi m f0 y in
      let f10 = cof_lo m f1 y and f11 = cof_hi m f1 y in
      (* the rewritten slot keeps its handle: it becomes the level-l
         y-node over two level-(l+1) x-cofactors. It cannot reduce
         away ([f00] <> [f01] or [f10] <> [f11] since some child
         really tests y). *)
      let nlo = mk_swap m x f00 f10 in
      let nhi = mk_swap m x f01 f11 in
      (* take the new references before dropping the old ones, so a
         shared cofactor can never be cascade-freed in between *)
      ref_incr m nlo;
      ref_incr m nhi;
      ref_decr m f0;
      ref_decr m f1;
      set_node m s y nlo nhi;
      Itab.add m.subtables.(y) (pack2 nlo nhi) s
    done;
    m.var_of_level.(l) <- y;
    m.var_of_level.(l + 1) <- x;
    m.level_of_var.(x) <- l + 1;
    m.level_of_var.(y) <- l;
    m.reorder_swapped <- m.reorder_swapped + 1;
    true
  end

(* ---- grouped (block) sifting ---- *)

let set_groups m groups =
  let gid = Array.make m.nvars (-1) in
  let arr =
    List.map
      (fun g ->
        if g = [] then invalid_arg "Bdd.set_groups: empty group";
        List.iter
          (fun v ->
            if v < 0 || v >= m.nvars then
              invalid_arg "Bdd.set_groups: variable out of range";
            if gid.(v) >= 0 then
              invalid_arg "Bdd.set_groups: variable in two groups";
            gid.(v) <- 0)
          g;
        let a = Array.of_list g in
        Array.sort
          (fun a b -> compare m.level_of_var.(a) m.level_of_var.(b))
          a;
        let l0 = m.level_of_var.(a.(0)) in
        Array.iteri
          (fun i v ->
            if m.level_of_var.(v) <> l0 + i then
              invalid_arg "Bdd.set_groups: group not level-contiguous")
          a;
        a)
      groups
  in
  m.groups <- Array.of_list arr

(* The sequence of blocks in level order. Groups that are still
   level-contiguous move as one block; a group broken apart (e.g. by an
   explicit [set_order]) degrades to singletons. *)
let block_sequence m =
  let n = m.nvars in
  let gid = Array.make n (-1) in
  Array.iteri (fun g vars -> Array.iter (fun v -> gid.(v) <- g) vars) m.groups;
  let seq = ref [] in
  let l = ref 0 in
  while !l < n do
    let v = m.var_of_level.(!l) in
    let g = gid.(v) in
    let sz = if g >= 0 then Array.length m.groups.(g) else 1 in
    let contiguous =
      g >= 0
      && sz <= n - !l
      && Array.for_all
           (fun v' ->
             let lv = m.level_of_var.(v') in
             lv >= !l && lv < !l + sz)
           m.groups.(g)
    in
    if contiguous then begin
      seq := Array.init sz (fun i -> m.var_of_level.(!l + i)) :: !seq;
      l := !l + sz
    end
    else begin
      seq := [| v |] :: !seq;
      incr l
    end
  done;
  Array.of_list (List.rev !seq)

(* Exchange the adjacent blocks at positions [i] and [i+1] of [seq]: a
   p-block passes a q-block through p*q adjacent swaps (each level of
   the upper block sinks past the lower block, bottom level first). On
   a capacity abort the completed swaps are rolled back — unchecked,
   they only recreate nodes the forward swaps just freed — so group
   contiguity survives the abort. *)
let swap_blocks m seq i =
  let bp = seq.(i) and bq = seq.(i + 1) in
  let p = Array.length bp and q = Array.length bq in
  let l0 = m.level_of_var.(bp.(0)) in
  (* swap k (of p*q) moves upper-block level p-1 - k/q down by k mod q *)
  let level k = l0 + (p - 1 - (k / q)) + (k mod q) in
  let k = ref 0 in
  while !k < p * q && swap_adjacent m ~checked:true (level !k) do
    incr k
  done;
  if !k = p * q then begin
    seq.(i) <- bq;
    seq.(i + 1) <- bp;
    true
  end
  else begin
    (* newest first *)
    for j = !k - 1 downto 0 do
      ignore (swap_adjacent m ~checked:false (level j))
    done;
    false
  end

let block_node_count m blk =
  Array.fold_left (fun acc v -> acc + Itab.length m.subtables.(v)) 0 blk

(* Sift one block: walk it to the nearer end, then all the way to the
   other end, tracking the total live count at every position; finish
   at the best position seen. Movement in one direction stops early
   once the table grows past [max_growth] times the best — the
   standard Rudell truncation. *)
let sift_block m seq blk aborted =
  let nb = Array.length seq in
  let idx = ref (-1) in
  Array.iteri (fun i b -> if b == blk then idx := i) seq;
  if !idx >= 0 then begin
    let start = !idx in
    let best_live = ref m.live and best_pos = ref start in
    let cur = ref start in
    let max_growth = 1.2 in
    let move dir =
      let keep_going = ref true in
      while !keep_going do
        if (dir > 0 && !cur >= nb - 1) || (dir < 0 && !cur <= 0) then
          keep_going := false
        else begin
          let i = if dir > 0 then !cur else !cur - 1 in
          if not (swap_blocks m seq i) then begin
            aborted := true;
            keep_going := false
          end
          else begin
            cur := !cur + dir;
            if m.live < !best_live then begin
              best_live := m.live;
              best_pos := !cur
            end;
            if float_of_int m.live > max_growth *. float_of_int !best_live
            then keep_going := false
          end
        end
      done
    in
    if start >= nb / 2 then begin
      move 1;
      if not !aborted then move (-1)
    end
    else begin
      move (-1);
      if not !aborted then move 1
    end;
    (* settle at the best position seen *)
    while (not !aborted) && !cur <> !best_pos do
      let down = !best_pos > !cur in
      let i = if down then !cur else !cur - 1 in
      if swap_blocks m seq i then cur := !cur + (if down then 1 else -1)
      else aborted := true
    done
  end

(* One full sifting pass over all blocks, largest first. Returns true
   when a capacity abort cut the pass short (the manager is left at a
   consistent inter-swap point either way). *)
let sift_all m =
  let seq = block_sequence m in
  if Array.length seq <= 1 then false
  else begin
    let order = Array.copy seq in
    Array.sort
      (fun a b -> compare (block_node_count m b) (block_node_count m a))
      order;
    let aborted = ref false in
    Array.iter (fun blk -> if not !aborted then sift_block m seq blk aborted) order;
    !aborted
  end

(* Leave a reordering pass: drop the refcounts and every op cache
   (cache entries name slots that may have been freed and reused
   during the pass), and flush the swap count. *)
let end_reorder m =
  m.in_reorder <- false;
  m.refs <- [||];
  clear_caches m;
  flush m

(* The full reorder: gc to the minimal live set, build exact refcounts,
   sift. *)
let reorder_internal m =
  m.in_reorder <- true;
  Fun.protect
    ~finally:(fun () -> end_reorder m)
    (fun () ->
      ignore (gc m);
      let before = m.live in
      build_refs m;
      let swaps0 = m.reorder_swapped in
      let aborted = sift_all m in
      m.reorder_runs <- m.reorder_runs + 1;
      m.last_reorder_live <- max m.live m.reorder_min;
      m.last_before <- before;
      m.last_after <- m.live;
      Obs.incr c_reorder_runs;
      Obs.set g_reorder_before before;
      Obs.set g_reorder_after m.live;
      Obs.set g_nodes_live m.live;
      Obs.event "bdd.reorder" ~fields:(fun () ->
          [ ("nodes_before", Simcov_util.Json.Int before);
            ("nodes_after", Simcov_util.Json.Int m.live);
            ("swaps", Simcov_util.Json.Int (m.reorder_swapped - swaps0));
            ("aborted", Simcov_util.Json.Bool aborted) ]);
      aborted)

let () = reorder_pass := fun m -> reorder_internal m

let reorder m =
  if m.op_depth > 0 then invalid_arg "Bdd.reorder: operation in flight";
  if m.nvars > 1 then begin
    let aborted = reorder_internal m in
    if aborted then raise (Node_limit m.live)
  end

let set_auto_reorder m ?(ratio = 2.0) ?(min_nodes = 4096) on =
  if ratio <= 1.0 then invalid_arg "Bdd.set_auto_reorder: ratio must exceed 1.0";
  if min_nodes < 1 then invalid_arg "Bdd.set_auto_reorder: non-positive min_nodes";
  m.auto_reorder <- on;
  m.reorder_ratio <- ratio;
  m.reorder_min <- min_nodes;
  if on then m.last_reorder_live <- max m.live min_nodes

let set_order m perm =
  if m.op_depth > 0 then invalid_arg "Bdd.set_order: operation in flight";
  if Array.length perm <> m.nvars then
    invalid_arg "Bdd.set_order: not a permutation of the variables";
  let seen = Array.make (max 1 m.nvars) false in
  Array.iter
    (fun v ->
      if v < 0 || v >= m.nvars || seen.(v) then
        invalid_arg "Bdd.set_order: not a permutation of the variables";
      seen.(v) <- true)
    perm;
  if m.nvars > 1 then begin
    m.in_reorder <- true;
    Fun.protect
      ~finally:(fun () -> end_reorder m)
      (fun () ->
        ignore (gc m);
        build_refs m;
        (* selection in place: bubble the variable destined for level l
           up from wherever it currently sits *)
        let aborted = ref false in
        for l = 0 to m.nvars - 1 do
          if not !aborted then begin
            let j = m.level_of_var.(perm.(l)) in
            let k = ref (j - 1) in
            while (not !aborted) && !k >= l do
              if swap_adjacent m ~checked:true !k then decr k
              else aborted := true
            done
          end
        done;
        if !aborted then raise (Node_limit m.live))
  end

(* ------------------------------------------------------------------ *)

module Json = Simcov_util.Json

(* ---- registries ----

   A registry is one isolated metric/trace namespace. The process
   always has the [default] registry (the one-shot CLI path); a
   long-running service creates one registry per job and runs
   the job under it, so two concurrent jobs never interleave counters
   in one snapshot. The current registry is domain-local: engines keep
   incrementing the same static handles, and the handle resolves to a
   per-registry cell on use. *)

type timer_cell = { mutable tc_spans : int; mutable tc_total_s : float }

type registry = {
  r_counters : (string, int Atomic.t) Hashtbl.t;
  r_gauges : (string, int Atomic.t) Hashtbl.t;
  r_timers : (string, timer_cell) Hashtbl.t;
  mutable r_sink : (string -> unit) option;
  mutable r_trace_epoch : float;
  mutable r_clock_epoch : float;
}

(* One process-wide lock for every cold path: handle/cell creation,
   timer accumulation, trace emission, snapshot/reset, release. The hot
   paths (incr/add/set/set_max) are lock-free atomics so sharded
   campaign domains never serialize on a counter bump. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let registry () =
  {
    r_counters = Hashtbl.create 64;
    r_gauges = Hashtbl.create 32;
    r_timers = Hashtbl.create 32;
    r_sink = None;
    r_trace_epoch = Unix.gettimeofday ();
    r_clock_epoch = Unix.gettimeofday ();
  }

let default_registry = registry ()

(* the current registry is per-domain: a campaign worker spawned under
   a scoped job inherits the scope explicitly (the driver installs the
   parent's registry in the worker body) *)
let current_key : registry Domain.DLS.key =
  Domain.DLS.new_key (fun () -> default_registry)

let current () = Domain.DLS.get current_key

let with_registry r f =
  let prev = Domain.DLS.get current_key in
  Domain.DLS.set current_key r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

(* ---- handles ----

   A handle is the static object an engine holds ([Obs.counter "x"] at
   module init). It resolves to the current registry's cell through a
   copy-on-write (registry, cell) assoc read without the lock: the
   common case (one or two registries ever seen by this handle) is a
   pointer-equality scan of a tiny immutable list, a few ns on top of
   the atomic bump. *)

type counter = {
  c_name : string;
  mutable c_cells : (registry * int Atomic.t) list;
}

type gauge = {
  g_name : string;
  mutable g_cells : (registry * int Atomic.t) list;
}

type timer = {
  t_name : string;
  mutable t_cells : (registry * timer_cell) list;
}

(* global handle tables: same name -> same handle, and the name set of
   a snapshot is stable for a given binary (every metric ever
   registered appears, untouched ones at zero) *)
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let timers : (string, timer) Hashtbl.t = Hashtbl.create 32

let intern tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some v -> v
  | None ->
      locked (fun () ->
          (* re-check under the lock: another domain may have raced us *)
          match Hashtbl.find_opt tbl name with
          | Some v -> v
          | None ->
              let v = make () in
              Hashtbl.add tbl name v;
              v)

let counter name = intern counters name (fun () -> { c_name = name; c_cells = [] })
let gauge name = intern gauges name (fun () -> { g_name = name; g_cells = [] })
let timer name = intern timers name (fun () -> { t_name = name; t_cells = [] })

let rec assq_phys r = function
  | [] -> None
  | (r', v) :: tl -> if r' == r then Some v else assq_phys r tl

(* cell resolution: lock-free fast path over the COW list, lock-guarded
   slow path that creates the cell in the registry and publishes the
   extended list (cons of immutable pairs — readers racing the publish
   see either list, both correct) *)
let c_cell h =
  let r = current () in
  match assq_phys r h.c_cells with
  | Some c -> c
  | None ->
      locked (fun () ->
          match assq_phys r h.c_cells with
          | Some c -> c
          | None ->
              let c =
                match Hashtbl.find_opt r.r_counters h.c_name with
                | Some c -> c
                | None ->
                    let c = Atomic.make 0 in
                    Hashtbl.add r.r_counters h.c_name c;
                    c
              in
              h.c_cells <- (r, c) :: h.c_cells;
              c)

let g_cell h =
  let r = current () in
  match assq_phys r h.g_cells with
  | Some c -> c
  | None ->
      locked (fun () ->
          match assq_phys r h.g_cells with
          | Some c -> c
          | None ->
              let c =
                match Hashtbl.find_opt r.r_gauges h.g_name with
                | Some c -> c
                | None ->
                    let c = Atomic.make 0 in
                    Hashtbl.add r.r_gauges h.g_name c;
                    c
              in
              h.g_cells <- (r, c) :: h.g_cells;
              c)

let t_cell h =
  let r = current () in
  match assq_phys r h.t_cells with
  | Some c -> c
  | None ->
      locked (fun () ->
          match assq_phys r h.t_cells with
          | Some c -> c
          | None ->
              let c =
                match Hashtbl.find_opt r.r_timers h.t_name with
                | Some c -> c
                | None ->
                    let c = { tc_spans = 0; tc_total_s = 0.0 } in
                    Hashtbl.add r.r_timers h.t_name c;
                    c
              in
              h.t_cells <- (r, c) :: h.t_cells;
              c)

let release r =
  if r != default_registry then
    locked (fun () ->
        let drop_c (h : counter) =
          h.c_cells <- List.filter (fun (r', _) -> r' != r) h.c_cells
        in
        let drop_g (h : gauge) =
          h.g_cells <- List.filter (fun (r', _) -> r' != r) h.g_cells
        in
        let drop_t (h : timer) =
          h.t_cells <- List.filter (fun (r', _) -> r' != r) h.t_cells
        in
        Hashtbl.iter (fun _ h -> drop_c h) counters;
        Hashtbl.iter (fun _ h -> drop_g h) gauges;
        Hashtbl.iter (fun _ h -> drop_t h) timers)

let[@inline] incr c = ignore (Atomic.fetch_and_add (c_cell c) 1)
let[@inline] add c n = ignore (Atomic.fetch_and_add (c_cell c) n)
let[@inline] set g v = Atomic.set (g_cell g) v

let set_max g v =
  let cell = g_cell g in
  let rec go () =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then go ()
  in
  go ()

let observe t dt =
  let c = t_cell t in
  locked (fun () ->
      c.tc_spans <- c.tc_spans + 1;
      c.tc_total_s <- c.tc_total_s +. dt)

(* ---- tracing ---- *)

let set_sink s =
  let r = current () in
  (match s with Some _ -> r.r_trace_epoch <- Unix.gettimeofday () | None -> ());
  r.r_sink <- s

let emit r name extra_fields fields =
  match r.r_sink with
  | None -> ()
  | Some emit ->
      let t_s = Unix.gettimeofday () -. r.r_trace_epoch in
      let line =
        Json.to_string ~indent:0
          (Json.Obj
             (("ev", Json.String name)
             :: ("t_s", Json.Float t_s)
             :: (extra_fields @ fields ())))
      in
      (* serialize writers: trace lines from concurrent domains must
         not interleave inside one JSONL record *)
      locked (fun () -> emit line)

let event ?(fields = fun () -> []) name =
  let r = current () in
  if r.r_sink <> None then emit r name [] fields

let span t ?(fields = fun () -> []) f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      observe t dt;
      let r = current () in
      if r.r_sink <> None then emit r t.t_name [ ("dur_s", Json.Float dt) ] fields)
    f

(* ---- snapshot ---- *)

let sorted_names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let snapshot ?(extra = []) () =
  let r = current () in
  locked (fun () ->
      let counter_fields =
        List.map
          (fun name ->
            let v =
              match Hashtbl.find_opt r.r_counters name with
              | Some c -> Atomic.get c
              | None -> 0
            in
            (name, Json.Int v))
          (sorted_names counters)
      in
      let gauge_fields =
        List.map
          (fun name ->
            let v =
              match Hashtbl.find_opt r.r_gauges name with
              | Some g -> Atomic.get g
              | None -> 0
            in
            (name, Json.Int v))
          (sorted_names gauges)
      in
      let timer_fields =
        List.map
          (fun name ->
            let s, tt =
              match Hashtbl.find_opt r.r_timers name with
              | Some t -> (t.tc_spans, t.tc_total_s)
              | None -> (0, 0.0)
            in
            ( name,
              Json.Obj
                [ ("count", Json.Int s); ("total_s", Json.Float tt) ] ))
          (sorted_names timers)
      in
      Json.Obj
        ([
           ("schema", Json.String "simcov-metrics/1");
           ("wall_clock_s", Json.Float (Unix.gettimeofday () -. r.r_clock_epoch));
           ("counters", Json.Obj counter_fields);
           ("gauges", Json.Obj gauge_fields);
           ("timers", Json.Obj timer_fields);
         ]
        @ extra))

let reset () =
  let r = current () in
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) r.r_counters;
      Hashtbl.iter (fun _ g -> Atomic.set g 0) r.r_gauges;
      Hashtbl.iter
        (fun _ t ->
          t.tc_spans <- 0;
          t.tc_total_s <- 0.0)
        r.r_timers;
      r.r_clock_epoch <- Unix.gettimeofday ())

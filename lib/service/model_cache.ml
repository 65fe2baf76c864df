module Budget = Simcov_util.Budget
module Crc32 = Simcov_util.Crc32
module Json = Simcov_util.Json
module Obs = Simcov_obs.Obs
module Circuit = Simcov_netlist.Circuit
module Serialize = Simcov_netlist.Serialize
module Fsm = Simcov_fsm.Fsm
module Lint = Simcov_analysis.Lint
module Fsm_lint = Simcov_analysis.Fsm_lint
module Tour = Simcov_testgen.Tour

let c_hits = Obs.counter "service.cache.hits"
let c_misses = Obs.counter "service.cache.misses"
let c_evictions = Obs.counter "service.cache.evictions"
let g_entries = Obs.gauge "service.cache.entries"
let g_bytes = Obs.gauge "service.cache.bytes"

type sym_entry = {
  sym : Simcov_symbolic.Symfsm.t;
  s_lock : Mutex.t;  (** serializes jobs sharing this manager *)
}

(* A tabulated machine and, once a job has asked for them, its
   Theorem 1 facts: set once, by the first job to solve them *)
type fsm_entry = { fsm : Fsm.t; facts : Tour.facts option Atomic.t }

type payload =
  | P_circuit of Circuit.t * string  (** circuit, canonical key *)
  | P_fsm of fsm_entry
  | P_lint of Lint.report
  | P_fsm_lint of Fsm_lint.report
  | P_sym of sym_entry  (** compiled symbolic machine (live BDD manager) *)

type entry = { payload : payload; mutable bytes : int; mutable tick : int }

type t = {
  max_bytes : int;
  max_entries : int;
  table : (string, entry) Hashtbl.t;
  mutable total_bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ?(max_bytes = 64 * 1024 * 1024) ?(max_entries = 256) () =
  {
    max_bytes;
    max_entries;
    table = Hashtbl.create 64;
    total_bytes = 0;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let shared = create ()

let locked t f = Mutex.protect t.lock f

(* evict least-recently-used entries until within both bounds; the
   table is small (hundreds of entries at most), so a linear scan per
   eviction is cheaper than maintaining an ordered structure *)
let enforce_bounds t =
  while
    Hashtbl.length t.table > t.max_entries || t.total_bytes > t.max_bytes
  do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, oldest) when oldest.tick <= e.tick -> acc
          | _ -> Some (k, e))
        t.table None
    in
    match victim with
    | None -> t.total_bytes <- 0 (* empty table: bounds are vacuous *)
    | Some (k, e) ->
        Hashtbl.remove t.table k;
        t.total_bytes <- t.total_bytes - e.bytes;
        t.evictions <- t.evictions + 1;
        Obs.incr c_evictions
  done

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          t.clock <- t.clock + 1;
          e.tick <- t.clock;
          t.hits <- t.hits + 1;
          Obs.incr c_hits;
          Some e.payload
      | None ->
          t.misses <- t.misses + 1;
          Obs.incr c_misses;
          None)

let store t key payload ~bytes =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some old -> t.total_bytes <- t.total_bytes - old.bytes
      | None -> ());
      t.clock <- t.clock + 1;
      Hashtbl.replace t.table key { payload; bytes; tick = t.clock };
      t.total_bytes <- t.total_bytes + bytes;
      enforce_bounds t;
      Obs.set g_entries (Hashtbl.length t.table);
      Obs.set g_bytes t.total_bytes)

let counts t = locked t (fun () -> (t.hits, t.misses, t.evictions))
let stats t = locked t (fun () -> (Hashtbl.length t.table, t.total_bytes))

(* ---- circuits ---- *)

(* Content fingerprint: (byte length, CRC-32), not CRC-32 alone. A
   32-bit checksum WILL collide across the lifetime of a long-lived
   daemon (and is trivial to collide deliberately); the length makes
   any same-length forgery still a 1-in-2^32 accident instead of a
   silently served wrong model, and same-prefix truncations (the
   common corruption) always differ in length. *)
let fingerprint s =
  Printf.sprintf "%d:%s" (String.length s) (Crc32.to_hex (Crc32.string s))

let canonical_of c =
  let s = Serialize.to_string c in
  ("circ:" ^ fingerprint s, String.length s)

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error e -> Error e

let builtin_circuit = function
  | "dlx-control" -> Some (fun () -> Simcov_dlx.Control.build ())
  | "dlx-test" -> Some (fun () -> fst (Simcov_dlx.Control.derive_test_model ()))
  | _ -> None

let circuit_of_spec t spec =
  let cached raw_key name build =
    match find t raw_key with
    | Some (P_circuit (c, canonical)) -> Ok (c, name, canonical)
    | Some _ | None -> (
        match build () with
        | Error e -> Error e
        | Ok c ->
            let canonical, bytes = canonical_of c in
            store t raw_key (P_circuit (c, canonical)) ~bytes;
            Ok (c, name, canonical))
  in
  match builtin_circuit spec with
  | Some build ->
      cached ("builtin:" ^ spec) spec (fun () -> Ok (build ()))
  | None -> (
      match read_file spec with
      | Error e -> Error e
      | Ok text ->
          let raw_key = "file:" ^ fingerprint text in
          cached raw_key (Filename.basename spec) (fun () ->
              Serialize.of_string text
              |> Result.map_error Serialize.error_to_string))

(* ---- tabulated FSMs ---- *)

let fsm_bytes m = Fsm.compiled_bytes m + 256

(* a solved tour's word, one list cell per step *)
let facts_bytes (f : Tour.facts) =
  match f.Tour.tour with
  | Some t -> (3 * (Sys.word_size / 8) * t.Tour.length) + 256
  | None -> 256

let fsm_entry t spec =
  let cached key name build =
    match find t key with
    | Some (P_fsm e) -> Ok (e, name, key)
    | Some _ | None -> (
        match build () with
        | Error e -> Error e
        | Ok m ->
            let e = { fsm = m; facts = Atomic.make None } in
            store t key (P_fsm e) ~bytes:(fsm_bytes m);
            Ok (e, name, key))
  in
  match spec with
  | "dlx" | "dlx-test" ->
      cached "fsm-builtin:dlx-test" "dlx-test" (fun () ->
          Ok (Simcov_dlx.Testmodel.build Simcov_dlx.Testmodel.default))
  | "dsp" ->
      cached "fsm-builtin:dsp" "dsp" (fun () ->
          Ok (Simcov_dsp.Mac.Testmodel.build ()))
  | spec -> (
      match circuit_of_spec t spec with
      | Error e -> Error e
      | Ok (c, name, canonical) ->
          cached ("fsm:" ^ canonical) name (fun () ->
              match Circuit.to_fsm c with
              | exception Invalid_argument msg ->
                  Error (Printf.sprintf "cannot enumerate as an FSM (%s)" msg)
              | m -> Ok m))

let fsm_of_spec t spec =
  Result.map (fun (e, name, key) -> (e.fsm, name, key)) (fsm_entry t spec)

(* the facts' bytes join their entry's charge, if it is still cached *)
let charge t key e bytes =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some ({ payload = P_fsm e'; _ } as en) when e' == e ->
          en.bytes <- en.bytes + bytes;
          t.total_bytes <- t.total_bytes + bytes;
          enforce_bounds t;
          Obs.set g_entries (Hashtbl.length t.table);
          Obs.set g_bytes t.total_bytes
      | _ -> ())

let fsm_facts t spec =
  Result.map
    (fun (e, name, key) ->
      let facts =
        match Atomic.get e.facts with
        | Some f -> f
        | None ->
            let f = Tour.facts e.fsm in
            if Atomic.compare_and_set e.facts None (Some f) then begin
              charge t key e (facts_bytes f);
              f
            end
            else Option.get (Atomic.get e.facts)
      in
      (e.fsm, facts, name, key))
    (fsm_entry t spec)

(* ---- compiled symbolic machines ---- *)

module Symfsm = Simcov_symbolic.Symfsm

(* a manager's footprint is dominated by its unique table and caches *)
let sym_bytes (sf : Symfsm.t) =
  (48 * Simcov_bdd.Bdd.node_count sf.Symfsm.man) + 4096

(* Cache a compiled symbolic machine — the expensive part of a [stats]
   job — keyed by the circuit's canonical key AND the reorder mode, so
   an [off] job can never observe an order mutated by an [on]/[auto]
   job (byte-identical reports stay byte-identical). The per-entry
   mutex serializes jobs that share the live manager. *)
let sym_of_circuit t ~reorder ~canonical build =
  let mode = Job.reorder_name reorder in
  let key = Printf.sprintf "sym:%s:%s" canonical mode in
  let fresh () =
    let sf = build () in
    let se = { sym = sf; s_lock = Mutex.create () } in
    store t key (P_sym se) ~bytes:(sym_bytes sf);
    se
  in
  match find t key with
  | Some (P_sym se) -> se
  | Some _ | None -> fresh ()

(* ---- lint verdicts ---- *)

let report_bytes json = String.length (Json.to_string ~indent:0 json)

let lint t ~budget ~name ~key ?against c =
  let cache_key =
    "lint:" ^ key ^ ":"
    ^ match against with Some (_, ak) -> ak | None -> "-"
  in
  match find t cache_key with
  | Some (P_lint r) -> r
  | Some _ | None ->
      let r = Lint.run ~budget ~name ?against:(Option.map fst against) c in
      if r.Lint.truncated = None then
        store t cache_key (P_lint r) ~bytes:(report_bytes (Lint.to_json r));
      r

let fsm_lint t ~budget ~name ~key ~k_bound ?suite m =
  match suite with
  | Some _ -> Fsm_lint.run ~budget ~name ~k_bound ?suite m
  | None -> (
      let cache_key = Printf.sprintf "fsmlint:%s:k%d" key k_bound in
      match find t cache_key with
      | Some (P_fsm_lint r) -> r
      | Some _ | None ->
          let r = Fsm_lint.run ~budget ~name ~k_bound m in
          if r.Fsm_lint.truncated = None then
            store t cache_key (P_fsm_lint r)
              ~bytes:(report_bytes (Fsm_lint.to_json r));
          r)

(* In-memory span recorder for the traced pass.

   A span is one call from the benchmark into a layer: its name is
   "<layer>.<what>", and the layer is everything before the first dot.
   Spans are kept in memory and only read back once the pass is over.
   Everything here runs on the main thread: the service client's threads
   return their timestamps, which are recorded after the pass. *)

type span = {
  id : int;
  parent : int;  (** 0 for a job's root span *)
  job : int;  (** index into the workload's job list *)
  name : string;
  t0 : float;
  t1 : float;
}

let recorded : span list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let fresh_id () =
  incr next_id;
  !next_id

let record_with_id id ~job ~parent name ~t0 ~t1 =
  recorded := { id; parent; job; name; t0; t1 } :: !recorded

let record ~job ~parent name ~t0 ~t1 =
  let id = fresh_id () in
  record_with_id id ~job ~parent name ~t0 ~t1;
  id

(* The in-process passes are single-threaded: the span stack gives each
   call its parent without threading ids through the job code. *)
let stack : (int * int) list ref = ref []

let span name f =
  match !stack with
  | [] -> f ()
  | (job, parent) :: _ ->
      let id = fresh_id () in
      stack := (job, id) :: !stack;
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = now () in
          stack := List.tl !stack;
          record_with_id id ~job ~parent name ~t0 ~t1)
        f

let root ~job name f =
  let id = fresh_id () in
  stack := [ (job, id) ];
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = now () in
      stack := [];
      record_with_id id ~job ~parent:0 name ~t0 ~t1)
    f

(* Spans measured elsewhere (the phase timings a report carries): laid
   end to end from [t0] under the current span. *)
let children_from ~t0 phases =
  match !stack with
  | [] -> ()
  | (job, parent) :: _ ->
      ignore
        (List.fold_left
           (fun t (name, dur) ->
             ignore (record ~job ~parent name ~t0:t ~t1:(t +. dur));
             t +. dur)
           t0 phases)

let all () = List.rev !recorded

(* Numeric samples taken beside the spans (bytes written, records
   loaded, lines streamed), by metric name *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 16

let note name v =
  Hashtbl.replace samples name (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let mean_sample name =
  match Hashtbl.find_opt samples name with
  | None | Some [] -> 0.
  | Some l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let reset () =
  recorded := [];
  Hashtbl.reset samples

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      (s, Float.max 0. (s.t1 -. s.t0 -. kids)))
    spans

let to_json spans =
  let module Json = Simcov_util.Json in
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("parent", Json.Int s.parent);
             ("job", Json.Int s.job);
             ("name", Json.String s.name);
             ("start_s", Json.Float s.t0);
             ("end_s", Json.Float s.t1);
           ])
       spans)

(* Metric readings through the public simcov-metrics/1 snapshot of the
   current registry: what a job's --metrics output shows. *)
module Json = Simcov_util.Json

(* the int at a path of JSON members *)
let int_at json path =
  let rec go json = function
    | [] -> Json.to_int_opt json
    | k :: rest -> Option.bind (Json.member k json) (fun v -> go v rest)
  in
  match go json path with
  | Some v -> v
  | None -> invalid_arg ("no int at " ^ String.concat "." path)

let count name = int_at (Simcov_obs.Obs.snapshot ()) [ "counters"; name ]
let value name = int_at (Simcov_obs.Obs.snapshot ()) [ "gauges"; name ]
let spans name = int_at (Simcov_obs.Obs.snapshot ()) [ "timers"; name; "count" ]

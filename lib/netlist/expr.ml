type t =
  | Const of bool
  | Input of int
  | Reg of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Mux of t * t * t

let tru = Const true
let fls = Const false
let const b = Const b
let input i = Input i
let reg r = Reg r

let ( !! ) = function
  | Const b -> Const (not b)
  | Not e -> e
  | e -> Not e

let ( &&& ) a b =
  match (a, b) with
  | Const false, _ | _, Const false -> Const false
  | Const true, e | e, Const true -> e
  | a, b when a = b -> a
  | a, b -> And (a, b)

let ( ||| ) a b =
  match (a, b) with
  | Const true, _ | _, Const true -> Const true
  | Const false, e | e, Const false -> e
  | a, b when a = b -> a
  | a, b -> Or (a, b)

let ( ^^^ ) a b =
  match (a, b) with
  | Const false, e | e, Const false -> e
  | Const true, e | e, Const true -> ( !! ) e
  | a, b when a = b -> Const false
  | a, b -> Xor (a, b)

let mux sel hi lo =
  match sel with
  | Const true -> hi
  | Const false -> lo
  | _ -> if hi = lo then hi else Mux (sel, hi, lo)

let eq a b = ( !! ) (a ^^^ b)

let conj l = List.fold_left ( &&& ) tru l
let disj l = List.fold_left ( ||| ) fls l

let rec eval ~inputs ~regs = function
  | Const b -> b
  | Input i -> inputs i
  | Reg r -> regs r
  | Not e -> not (eval ~inputs ~regs e)
  | And (a, b) -> eval ~inputs ~regs a && eval ~inputs ~regs b
  | Or (a, b) -> eval ~inputs ~regs a || eval ~inputs ~regs b
  | Xor (a, b) -> eval ~inputs ~regs a <> eval ~inputs ~regs b
  | Mux (s, h, l) -> if eval ~inputs ~regs s then eval ~inputs ~regs h else eval ~inputs ~regs l

(* Lane-parallel evaluation: each int carries one boolean per bit
   lane, so one pass evaluates the expression for every lane at once.
   A Const is broadcast to all lanes; lanes beyond the caller's
   population carry garbage (e.g. from lnot) and must be masked by the
   caller. *)
let rec eval_lanes ~inputs ~regs = function
  | Const b -> if b then -1 else 0
  | Input i -> inputs i
  | Reg r -> regs r
  | Not e -> lnot (eval_lanes ~inputs ~regs e)
  | And (a, b) -> eval_lanes ~inputs ~regs a land eval_lanes ~inputs ~regs b
  | Or (a, b) -> eval_lanes ~inputs ~regs a lor eval_lanes ~inputs ~regs b
  | Xor (a, b) -> eval_lanes ~inputs ~regs a lxor eval_lanes ~inputs ~regs b
  | Mux (s, h, l) ->
      let sv = eval_lanes ~inputs ~regs s in
      (sv land eval_lanes ~inputs ~regs h) lor (lnot sv land eval_lanes ~inputs ~regs l)

let rec map_leaves ~input ~reg = function
  | Const b -> Const b
  | Input i -> input i
  | Reg r -> reg r
  | Not e -> ( !! ) (map_leaves ~input ~reg e)
  | And (a, b) -> map_leaves ~input ~reg a &&& map_leaves ~input ~reg b
  | Or (a, b) -> map_leaves ~input ~reg a ||| map_leaves ~input ~reg b
  | Xor (a, b) -> map_leaves ~input ~reg a ^^^ map_leaves ~input ~reg b
  | Mux (s, h, l) ->
      mux (map_leaves ~input ~reg s) (map_leaves ~input ~reg h) (map_leaves ~input ~reg l)

let support e =
  let ins = Hashtbl.create 8 and rgs = Hashtbl.create 8 in
  let rec go = function
    | Const _ -> ()
    | Input i -> Hashtbl.replace ins i ()
    | Reg r -> Hashtbl.replace rgs r ()
    | Not e -> go e
    | And (a, b) | Or (a, b) | Xor (a, b) ->
        go a;
        go b
    | Mux (s, h, l) ->
        go s;
        go h;
        go l
  in
  go e;
  let sorted tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare in
  (sorted ins, sorted rgs)

let rec size = function
  | Const _ | Input _ | Reg _ -> 1
  | Not e -> 1 + size e
  | And (a, b) | Or (a, b) | Xor (a, b) -> 1 + size a + size b
  | Mux (s, h, l) -> 1 + size s + size h + size l

module Vec = struct
  type expr_t = t
  type t = expr_t array

  let const ~width v = Array.init width (fun i -> Const ((v lsr i) land 1 = 1))
  let inputs ~first ~width = Array.init width (fun i -> Input (first + i))
  let regs ~first ~width = Array.init width (fun i -> Reg (first + i))

  let eq_const v c =
    conj
      (Array.to_list
         (Array.mapi (fun i b -> if (c lsr i) land 1 = 1 then b else ( !! ) b) v))

  let eq a b =
    assert (Array.length a = Array.length b);
    conj (Array.to_list (Array.map2 (fun x y -> ( !! ) (x ^^^ y)) a b))

  let mux sel hi lo =
    assert (Array.length hi = Array.length lo);
    Array.map2 (fun h l -> mux sel h l) hi lo

  let onehot v =
    (* exactly one bit set: popcount = 1 via pairwise expansion; for
       the small vectors in control logic a quadratic form is fine *)
    let n = Array.length v in
    let terms =
      List.init n (fun i ->
          conj (List.init n (fun j -> if i = j then v.(j) else ( !! ) v.(j))))
    in
    disj terms

  let decode = eq_const

  let eval ~inputs ~regs v =
    let acc = ref 0 in
    Array.iteri (fun i e -> if eval ~inputs ~regs e then acc := !acc lor (1 lsl i)) v;
    !acc
end

let expr_to_buf buf e =
  let rec go = function
    | Expr.Const true -> Buffer.add_char buf '1'
    | Expr.Const false -> Buffer.add_char buf '0'
    | Expr.Input i -> Buffer.add_string buf (Printf.sprintf "(in %d)" i)
    | Expr.Reg r -> Buffer.add_string buf (Printf.sprintf "(reg %d)" r)
    | Expr.Not a ->
        Buffer.add_string buf "(not ";
        go a;
        Buffer.add_char buf ')'
    | Expr.And (a, b) -> binary "and" a b
    | Expr.Or (a, b) -> binary "or" a b
    | Expr.Xor (a, b) -> binary "xor" a b
    | Expr.Mux (s, h, l) ->
        Buffer.add_string buf "(mux ";
        go s;
        Buffer.add_char buf ' ';
        go h;
        Buffer.add_char buf ' ';
        go l;
        Buffer.add_char buf ')'
  and binary tag a b =
    Buffer.add_char buf '(';
    Buffer.add_string buf tag;
    Buffer.add_char buf ' ';
    go a;
    Buffer.add_char buf ' ';
    go b;
    Buffer.add_char buf ')'
  in
  go e

let to_string (c : Circuit.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ("circuit " ^ c.Circuit.name ^ "\n");
  Array.iter (fun n -> Buffer.add_string buf ("input " ^ n ^ "\n")) c.Circuit.input_names;
  Array.iter
    (fun (r : Circuit.reg) ->
      Buffer.add_string buf
        (Printf.sprintf "reg %s %s %d = " r.Circuit.name r.Circuit.group
           (if r.Circuit.init then 1 else 0));
      expr_to_buf buf r.Circuit.next;
      Buffer.add_char buf '\n')
    c.Circuit.regs;
  Array.iter
    (fun (o : Circuit.port) ->
      Buffer.add_string buf ("output " ^ o.Circuit.port_name ^ " = ");
      expr_to_buf buf o.Circuit.expr;
      Buffer.add_char buf '\n')
    c.Circuit.outputs;
  if c.Circuit.input_constraint <> Expr.tru then begin
    Buffer.add_string buf "constraint ";
    expr_to_buf buf c.Circuit.input_constraint;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

(* --- parsing --- *)

type error = { line : int; col : int; msg : string }

let error_to_string e =
  if e.line = 0 then e.msg
  else Printf.sprintf "line %d, column %d: %s" e.line e.col e.msg

type token = Lparen | Rparen | Atom of string

let is_ws c = c = ' ' || c = '\t' || c = '\r'

(* [off] is the 0-based index of [s] within its source line, so token
   columns are 1-based positions in that line *)
let tokenize s off =
  let tokens = ref [] in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let col = off + !i + 1 in
    (match s.[!i] with
    | '(' ->
        tokens := (Lparen, col) :: !tokens;
        incr i
    | ')' ->
        tokens := (Rparen, col) :: !tokens;
        incr i
    | c when is_ws c -> incr i
    | _ ->
        let start = !i in
        while !i < n && s.[!i] <> '(' && s.[!i] <> ')' && not (is_ws s.[!i]) do
          incr i
        done;
        tokens := (Atom (String.sub s start (!i - start)), col) :: !tokens)
  done;
  List.rev !tokens

let ( let* ) = Result.bind

(* [eol] is the column just past the last token, for errors at
   end-of-expression *)
let parse_expr tokens ~eol =
  let rec parse = function
    | (Atom "0", _) :: rest -> Ok (Expr.Const false, rest)
    | (Atom "1", _) :: rest -> Ok (Expr.Const true, rest)
    | (Lparen, _) :: (Atom "in", _) :: (Atom n, c) :: (Rparen, _) :: rest -> (
        match int_of_string_opt n with
        | Some i when i >= 0 -> Ok (Expr.Input i, rest)
        | _ -> Error (c, "bad input index " ^ n))
    | (Lparen, _) :: (Atom "reg", _) :: (Atom n, c) :: (Rparen, _) :: rest -> (
        match int_of_string_opt n with
        | Some r when r >= 0 -> Ok (Expr.Reg r, rest)
        | _ -> Error (c, "bad register index " ^ n))
    | (Lparen, _) :: (Atom "not", _) :: rest ->
        let* a, rest = parse rest in
        let* rest = expect_rparen rest in
        Ok (Expr.Not a, rest)
    | (Lparen, _) :: (Atom (("and" | "or" | "xor") as tag), _) :: rest ->
        let* a, rest = parse rest in
        let* b, rest = parse rest in
        let* rest = expect_rparen rest in
        let e =
          match tag with
          | "and" -> Expr.And (a, b)
          | "or" -> Expr.Or (a, b)
          | _ -> Expr.Xor (a, b)
        in
        Ok (e, rest)
    | (Lparen, _) :: (Atom "mux", _) :: rest ->
        let* s, rest = parse rest in
        let* h, rest = parse rest in
        let* l, rest = parse rest in
        let* rest = expect_rparen rest in
        Ok (Expr.Mux (s, h, l), rest)
    | (t, c) :: _ ->
        Error
          ( c,
            Printf.sprintf "unexpected token %s"
              (match t with Lparen -> "(" | Rparen -> ")" | Atom a -> a) )
    | [] -> Error (eol, "unexpected end of expression")
  and expect_rparen = function
    | (Rparen, _) :: rest -> Ok rest
    | (_, c) :: _ -> Error (c, "expected )")
    | [] -> Error (eol, "expected )")
  in
  let* e, rest = parse tokens in
  match rest with
  | [] -> Ok e
  | (_, c) :: _ -> Error (c, "trailing tokens after expression")

(* first and one-past-last non-whitespace index of [s] in [lo, hi) *)
let trim_span s lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi && is_ws s.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_ws s.[!hi - 1] do
    decr hi
  done;
  (!lo, !hi)

let of_string_internal text =
  let lines = String.split_on_char '\n' text in
  let name = ref "circuit" in
  let inputs = ref [] in
  let regs = ref [] in
  let outputs = ref [] in
  let constraints = ref [] in
  let parse_line lineno line =
    let stop0 =
      match String.index_opt line '#' with
      | Some i -> i
      | None -> String.length line
    in
    let start, stop = trim_span line 0 stop0 in
    if start >= stop then Ok ()
    else
      let err ?(col = start + 1) msg = Error { line = lineno; col; msg } in
      let expr ~off s = parse_expr (tokenize s off) ~eol:(stop + 1) in
      let kw_end =
        match String.index_from_opt line start ' ' with
        | Some sp when sp < stop -> sp
        | _ -> stop
      in
      let kw = String.sub line start (kw_end - start) in
      let rest_start, _ = trim_span line kw_end stop in
      let rest = String.sub line rest_start (stop - rest_start) in
      if rest = "" then err ("cannot parse: " ^ kw)
      else
        match kw with
        | "circuit" ->
            name := rest;
            Ok ()
        | "input" ->
            inputs := rest :: !inputs;
            Ok ()
        | "reg" -> (
            match String.index_from_opt line rest_start '=' with
            | None -> err ~col:(stop + 1) "missing '='"
            | Some eq when eq >= stop -> err ~col:(stop + 1) "missing '='"
            | Some eq -> (
                let hlo, hhi = trim_span line rest_start eq in
                let head = String.sub line hlo (hhi - hlo) in
                let blo, _ = trim_span line (eq + 1) stop in
                let body = String.sub line blo (stop - blo) in
                match String.split_on_char ' ' head |> List.filter (fun s -> s <> "") with
                | [ rname; group; init ] -> (
                    match (int_of_string_opt init, expr ~off:blo body) with
                    | Some iv, Ok next when iv = 0 || iv = 1 ->
                        regs :=
                          ( lineno,
                            { Circuit.name = rname; group; init = iv = 1; next } )
                          :: !regs;
                        Ok ()
                    | _, Error (col, msg) -> err ~col msg
                    | _ -> err ~col:(hlo + 1) "bad reg init (want 0 or 1)")
                | _ -> err ~col:(hlo + 1) "want: reg <name> <group> <0|1> = <expr>"))
        | "output" -> (
            match String.index_from_opt line rest_start '=' with
            | None -> err ~col:(stop + 1) "missing '='"
            | Some eq when eq >= stop -> err ~col:(stop + 1) "missing '='"
            | Some eq -> (
                let hlo, hhi = trim_span line rest_start eq in
                let oname = String.sub line hlo (hhi - hlo) in
                let blo, _ = trim_span line (eq + 1) stop in
                let body = String.sub line blo (stop - blo) in
                if oname = "" then err ~col:(hlo + 1) "want: output <name> = <expr>"
                else
                  match expr ~off:blo body with
                  | Ok e ->
                      outputs := (lineno, { Circuit.port_name = oname; expr = e }) :: !outputs;
                      Ok ()
                  | Error (col, msg) -> err ~col msg))
        | "constraint" -> (
            match expr ~off:rest_start rest with
            | Ok e ->
                constraints := (lineno, e) :: !constraints;
                Ok ()
            | Error (col, msg) -> err ~col msg)
        | _ -> err ("unknown keyword: " ^ kw)
  in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with Ok () -> go (lineno + 1) rest | Error _ as e -> e)
  in
  let* () = go 1 lines in
  let regs = List.rev !regs and outputs = List.rev !outputs in
  let constraints = List.rev !constraints in
  let circuit =
    {
      Circuit.name = !name;
      input_names = Array.of_list (List.rev !inputs);
      regs = Array.of_list (List.map snd regs);
      outputs = Array.of_list (List.map snd outputs);
      input_constraint =
        List.fold_left (fun acc (_, e) -> Expr.( &&& ) acc e) Expr.tru constraints;
    }
  in
  (* sanity: leaf indices within bounds, reported at the line that
     introduced the expression *)
  let ni = Circuit.n_inputs circuit and nr = Circuit.n_regs circuit in
  let check_expr lineno e =
    let ins, rgs = Expr.support e in
    if List.for_all (fun i -> i < ni) ins && List.for_all (fun r -> r < nr) rgs
    then Ok ()
    else
      Error
        {
          line = lineno;
          col = 1;
          msg = "expression references an undeclared input/register";
        }
  in
  let rec check_all = function
    | [] -> Ok circuit
    | (lineno, e) :: rest -> (
        match check_expr lineno e with Ok () -> check_all rest | Error _ as err -> err)
  in
  check_all
    (List.map (fun (l, (r : Circuit.reg)) -> (l, r.Circuit.next)) regs
    @ List.map (fun (l, (o : Circuit.port)) -> (l, o.Circuit.expr)) outputs
    @ constraints)

(* total: any exception from a malformed dump (including ones this
   parser does not anticipate) becomes an error value *)
let of_string text =
  match of_string_internal text with
  | result -> result
  | exception exn ->
      Error { line = 0; col = 0; msg = "internal error: " ^ Printexc.to_string exn }

let save c path = Simcov_util.Durable.write_string path (to_string c)

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error { line = 0; col = 0; msg = e }

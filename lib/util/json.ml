type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- rendering ---- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  (* JSON has no nan/inf literals; "%.17g" would print them verbatim
     and produce output every parser (including ours) rejects *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

(* [string_of_int n], appended without the intermediate string (a C
   format call). The digits come from [n]'s non-positive mirror, which
   every int has, [min_int] included. *)
let add_int buf n =
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then begin
    Buffer.add_char buf '-';
    digits n
  end
  else digits (-n)

let to_string ?(indent = 2) v =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> escape_to buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            go (depth + 1) item)
          items;
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            pad (depth + 1);
            escape_to buf k;
            Buffer.add_string buf (if indent > 0 then ": " else ":");
            go (depth + 1) item)
          fields;
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Bad of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && text.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match text.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'n' -> Buffer.add_char buf '\n'
               | 't' -> Buffer.add_char buf '\t'
               | 'r' -> Buffer.add_char buf '\r'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub text (!pos + 1) 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | None -> fail "bad \\u escape"
                   | Some code ->
                       (* keep it simple: encode as UTF-8 *)
                       if code < 0x80 then Buffer.add_char buf (Char.chr code)
                       else if code < 0x800 then begin
                         Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                         Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                       end
                       else begin
                         Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                         Buffer.add_char buf
                           (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                         Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                       end);
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    let has c = String.contains s c in
    if has '.' || has 'e' || has 'E' then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail ("bad number " ^ s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> fail ("bad number " ^ s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos < n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "at offset %d: %s" at msg)
  | exception _ -> Error "internal parse error"

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

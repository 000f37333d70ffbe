type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as j -> write buf j
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        write_pretty buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        escape_string buf k;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 256 in
  write_pretty buf 0 j;
  Buffer.contents buf

let wire_size j = String.length (to_string j)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at position %d" msg st.pos))

(* The per-character path reads the source in place: [at_end] guards
   every [current], and [next_is] is the bounds-checked one-character
   lookahead.  Nothing here allocates: every chunk a put installs is
   parsed through it. *)
let[@inline] at_end st = st.pos >= String.length st.src
let[@inline] current st = String.unsafe_get st.src st.pos
let[@inline] next_is st c = (not (at_end st)) && Char.equal (current st) c

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    (not (at_end st))
    && match current st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  if next_is st c then advance st else fail st (Printf.sprintf "expected '%c'" c)

let rec matches_at src pos word i =
  i >= String.length word
  || Char.equal (String.unsafe_get src (pos + i)) (String.unsafe_get word i)
     && matches_at src pos word (i + 1)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && matches_at st.src st.pos word 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let s = String.sub st.src st.pos 4 in
  st.pos <- st.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail st "invalid \\u escape"

let add_utf8 buf code =
  (* Encode a Unicode scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* String body after the first escape: decode into [buf] up to the
   closing quote. *)
let rec parse_escaped st buf =
  if at_end st then fail st "unterminated string"
  else
    match current st with
    | '"' ->
      advance st;
      Buffer.contents buf
    | '\\' ->
      advance st;
      (if at_end st then fail st "invalid escape"
       else
         match current st with
         | '"' -> Buffer.add_char buf '"'; advance st
         | '\\' -> Buffer.add_char buf '\\'; advance st
         | '/' -> Buffer.add_char buf '/'; advance st
         | 'n' -> Buffer.add_char buf '\n'; advance st
         | 't' -> Buffer.add_char buf '\t'; advance st
         | 'r' -> Buffer.add_char buf '\r'; advance st
         | 'b' -> Buffer.add_char buf '\b'; advance st
         | 'f' -> Buffer.add_char buf '\012'; advance st
         | 'u' ->
           advance st;
           let code = parse_hex4 st in
           (* Combine surrogate pairs. *)
           let code =
             if code >= 0xD800 && code <= 0xDBFF then begin
               if next_is st '\\' then begin
                 advance st;
                 if next_is st 'u' then begin
                   advance st;
                   let low = parse_hex4 st in
                   if low >= 0xDC00 && low <= 0xDFFF then
                     0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                   else fail st "invalid low surrogate"
                 end
                 else fail st "expected low surrogate"
               end
               else fail st "unpaired surrogate"
             end
             else code
           in
           add_utf8 buf code
         | _ -> fail st "invalid escape");
      parse_escaped st buf
    | c ->
      Buffer.add_char buf c;
      advance st;
      parse_escaped st buf

(* Most strings hold no escape: scan to the closing quote and copy the
   span once.  The first backslash hands over to [parse_escaped]. *)
let parse_string_body st =
  expect st '"';
  let start = st.pos in
  while (not (at_end st)) && not (Char.equal (current st) '"' || Char.equal (current st) '\\') do
    advance st
  done;
  if at_end st then fail st "unterminated string"
  else if Char.equal (current st) '"' then begin
    advance st;
    String.sub st.src start (st.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (max 16 (2 * (st.pos - start))) in
    Buffer.add_substring buf st.src start (st.pos - start);
    parse_escaped st buf
  end

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let is_fraction_char c = c = '.' || c = 'e' || c = 'E'

let parse_number st =
  let start = st.pos in
  while (not (at_end st)) && is_number_char (current st) do
    advance st
  done;
  let lit = String.sub st.src start (st.pos - start) in
  if not (String.exists is_fraction_char lit) then
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail st "invalid number")
  else
    match float_of_string_opt lit with
    | Some f -> Float f
    | None -> fail st "invalid number"

let rec parse_value st =
  skip_ws st;
  if at_end st then fail st "unexpected end of input"
  else
    match current st with
    | 'n' -> parse_literal st "null" Null
    | 't' -> parse_literal st "true" (Bool true)
    | 'f' -> parse_literal st "false" (Bool false)
    | '"' -> String (parse_string_body st)
    | '[' -> parse_list st
    | '{' -> parse_assoc st
    | '-' | '0' .. '9' -> parse_number st
    | c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_list st =
  expect st '[';
  skip_ws st;
  if next_is st ']' then begin
    advance st;
    List []
  end
  else list_items st []

and list_items st acc =
  let v = parse_value st in
  skip_ws st;
  if next_is st ',' then begin
    advance st;
    list_items st (v :: acc)
  end
  else if next_is st ']' then begin
    advance st;
    List (List.rev (v :: acc))
  end
  else fail st "expected ',' or ']'"

and parse_assoc st =
  expect st '{';
  skip_ws st;
  if next_is st '}' then begin
    advance st;
    Assoc []
  end
  else assoc_fields st []

and assoc_fields st acc =
  skip_ws st;
  let k = parse_string_body st in
  skip_ws st;
  expect st ':';
  let v = parse_value st in
  skip_ws st;
  if next_is st ',' then begin
    advance st;
    assoc_fields st ((k, v) :: acc)
  end
  else if next_is st '}' then begin
    advance st;
    Assoc (List.rev ((k, v) :: acc))
  end
  else fail st "expected ',' or '}'"

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Assoc fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> invalid_arg "Json.member: not an object"

let mem key = function
  | Assoc fields -> List.mem_assoc key fields
  | _ -> false

let get_string = function
  | String s -> s
  | _ -> invalid_arg "Json.get_string"

let get_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> invalid_arg "Json.get_int"

let get_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> invalid_arg "Json.get_float"

let get_bool = function
  | Bool b -> b
  | _ -> invalid_arg "Json.get_bool"

let get_list = function
  | List l -> l
  | _ -> invalid_arg "Json.get_list"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Assoc x, Assoc y ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Assoc _), _ -> false

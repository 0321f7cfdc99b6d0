(* Minimal JSON: a value type, a printer, and a parser.

   The printer backs the Chrome-trace and BENCH_results exporters; the
   parser exists so tests and the bench smoke target can validate that
   every emitted document round-trips as well-formed JSON without
   depending on an external JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ------------------------------------------------------- *)

let escape b s =
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | '\n' -> Buffer.add_string b "\\n"
       | '\r' -> Buffer.add_string b "\\r"
       | '\t' -> Buffer.add_string b "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s

let float_str x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x ->
    if Float.is_nan x || Float.is_integer (x /. 0.0) then
      Buffer.add_string b "null"           (* nan/inf are not JSON *)
    else Buffer.add_string b (float_str x)
  | Str s -> Buffer.add_char b '"'; escape b s; Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v -> if i > 0 then Buffer.add_char b ','; write b v)
      l;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char b ',';
         Buffer.add_char b '"'; escape b k; Buffer.add_string b "\":";
         write b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  write b v;
  Buffer.contents b

(* Indented variant for files meant to be read and diffed by humans
   (BENCH_results.json). *)
let rec write_pretty b indent = function
  | List (_ :: _ as l) ->
    let pad = String.make indent ' ' in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_string b ",\n";
         Buffer.add_string b pad; Buffer.add_string b "  ";
         write_pretty b (indent + 2) v)
      l;
    Buffer.add_char b '\n'; Buffer.add_string b pad; Buffer.add_char b ']'
  | Obj (_ :: _ as kvs) ->
    let pad = String.make indent ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_string b ",\n";
         Buffer.add_string b pad; Buffer.add_string b "  ";
         Buffer.add_char b '"'; escape b k; Buffer.add_string b "\": ";
         write_pretty b (indent + 2) v)
      kvs;
    Buffer.add_char b '\n'; Buffer.add_string b pad; Buffer.add_char b '}'
  | v -> write b v

let to_string_pretty v =
  let b = Buffer.create 4096 in
  write_pretty b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing -------------------------------------------------------- *)

type st = { src : string; mutable pos : int }

let fail st fmt =
  Printf.ksprintf
    (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m)))
    fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail st "expected %c, found %c" c c'
  | None -> fail st "expected %c, found end of input" c

let lit st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin st.pos <- st.pos + n; v end
  else fail st "invalid literal"

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.src then fail st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
      if st.pos >= String.length st.src then fail st "unterminated escape";
      let e = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
       | '"' -> Buffer.add_char b '"'
       | '\\' -> Buffer.add_char b '\\'
       | '/' -> Buffer.add_char b '/'
       | 'n' -> Buffer.add_char b '\n'
       | 't' -> Buffer.add_char b '\t'
       | 'r' -> Buffer.add_char b '\r'
       | 'b' -> Buffer.add_char b '\b'
       | 'f' -> Buffer.add_char b '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.src then fail st "bad \\u escape";
         let hex = String.sub st.src st.pos 4 in
         st.pos <- st.pos + 4;
         (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_char b '?'   (* non-ASCII: placeholder *)
          | None -> fail st "bad \\u escape")
       | _ -> fail st "bad escape \\%c" e);
      go ()
    | c when Char.code c < 0x20 -> fail st "control character in string"
    | c -> Buffer.add_char b c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && is_num_char st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None ->
    (match float_of_string_opt s with
     | Some x -> Float x
     | None -> fail st "bad number %S" s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin st.pos <- st.pos + 1; List [] end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; items (v :: acc)
        | Some ']' -> st.pos <- st.pos + 1; List (List.rev (v :: acc))
        | _ -> fail st "expected , or ] in array"
      in
      items []
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin st.pos <- st.pos + 1; Obj [] end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; members ((k, v) :: acc)
        | Some '}' -> st.pos <- st.pos + 1; Obj (List.rev ((k, v) :: acc))
        | _ -> fail st "expected , or } in object"
      in
      members []
    end
  | Some _ -> parse_number st

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing characters";
  v

(* --- accessors used by validators ----------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_float_opt = function
  | Int n -> Some (float_of_int n)
  | Float x -> Some x
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

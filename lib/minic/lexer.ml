(* Hand-written lexer for Mini-C.  Preprocessor directives ('#' to end of
   line) are skipped: the benchmark corpus is macro-free by construction. *)

exception Error of string * int    (* message, line *)

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable peeked : (Token.t * int) list;  (* pushback queue with line info *)
}

let make src = { src; pos = 0; line = 1; peeked = [] }

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let keywords =
  [ "void"; "bool"; "char"; "short"; "int"; "long"; "float"; "double";
    "unsigned"; "signed"; "size_t";
    "uchar"; "ushort"; "uint"; "ulong";
    "if"; "else"; "while"; "do"; "for"; "return"; "break"; "continue";
    "struct"; "typedef"; "sizeof"; "const"; "volatile"; "extern"; "static";
    "restrict"; "__restrict__";
    (* OpenCL *)
    "__kernel"; "kernel"; "__global"; "global"; "__local"; "local";
    "__constant"; "constant"; "__private"; "private";
    "image1d_t"; "image2d_t"; "image3d_t"; "sampler_t";
    (* CUDA *)
    "__global__"; "__device__"; "__host__"; "__shared__"; "__constant__";
    "__launch_bounds__"; "texture"; "template"; "typename"; "class";
    "static_cast"; "reinterpret_cast";
    "cudaReadModeElementType"; "cudaReadModeNormalizedFloat";
    "__read_only"; "__write_only"; "__read_write";
    "read_only"; "write_only"; "read_write";
  ]

let keyword_set = Hashtbl.create 97
let () = List.iter (fun k -> Hashtbl.replace keyword_set k ()) keywords

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None
let peek_char2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx =
  (match peek_char lx with Some '\n' -> lx.line <- lx.line + 1 | _ -> ());
  lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\r' | '\n') -> advance lx; skip_ws lx
  | Some '#' ->
    (* skip preprocessor line, honouring trailing backslash continuation *)
    let rec to_eol () =
      match peek_char lx with
      | Some '\\' when peek_char2 lx = Some '\n' -> advance lx; advance lx; to_eol ()
      | Some '\n' | None -> ()
      | Some _ -> advance lx; to_eol ()
    in
    to_eol (); skip_ws lx
  | Some '/' when peek_char2 lx = Some '/' ->
    let rec to_eol () =
      match peek_char lx with
      | Some '\n' | None -> ()
      | Some _ -> advance lx; to_eol ()
    in
    to_eol (); skip_ws lx
  | Some '/' when peek_char2 lx = Some '*' ->
    advance lx; advance lx;
    let rec to_close () =
      match peek_char lx, peek_char2 lx with
      | Some '*', Some '/' -> advance lx; advance lx
      | None, _ -> raise (Error ("unterminated comment", lx.line))
      | _ -> advance lx; to_close ()
    in
    to_close (); skip_ws lx
  | _ -> ()

let lex_number lx =
  let start = lx.pos in
  let hex =
    peek_char lx = Some '0'
    && (peek_char2 lx = Some 'x' || peek_char2 lx = Some 'X')
  in
  if hex then begin
    advance lx; advance lx;
    while (match peek_char lx with Some c -> is_hex c | None -> false) do
      advance lx
    done
  end else begin
    while (match peek_char lx with Some c -> is_digit c | None -> false) do
      advance lx
    done
  end;
  let is_float = ref false in
  if not hex then begin
    (match peek_char lx with
     | Some '.' ->
       is_float := true;
       advance lx;
       while (match peek_char lx with Some c -> is_digit c | None -> false) do
         advance lx
       done
     | _ -> ());
    (match peek_char lx with
     | Some ('e' | 'E') ->
       is_float := true;
       advance lx;
       (match peek_char lx with
        | Some ('+' | '-') -> advance lx
        | _ -> ());
       while (match peek_char lx with Some c -> is_digit c | None -> false) do
         advance lx
       done
     | _ -> ())
  end;
  let digits = String.sub lx.src start (lx.pos - start) in
  (* suffixes *)
  let rec read_suffix acc =
    match peek_char lx with
    | Some ('u' | 'U' | 'l' | 'L' | 'f' | 'F') as c ->
      advance lx;
      read_suffix (acc ^ String.make 1 (Char.lowercase_ascii (Option.get c)))
    | _ -> acc
  in
  let suffix = read_suffix "" in
  if !is_float || suffix = "f" then
    let sc : Ast.scalar = if suffix = "f" then Float else Double in
    Token.FLOATLIT (float_of_string digits, sc)
  else
    let sc : Ast.scalar =
      match suffix with
      | "" -> Int
      | "u" -> UInt
      | "l" -> Long
      | "ul" | "lu" -> ULong
      | "ll" -> LongLong
      | "ull" | "llu" -> ULongLong
      | s -> raise (Error (Printf.sprintf "bad integer suffix %S" s, lx.line))
    in
    Token.INT (Int64.of_string digits, sc)

let lex_string lx =
  advance lx;
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> raise (Error ("unterminated string", lx.line))
    | Some '"' -> advance lx
    | Some '\\' ->
      advance lx;
      (match peek_char lx with
       | Some 'n' -> Buffer.add_char buf '\n'; advance lx
       | Some 't' -> Buffer.add_char buf '\t'; advance lx
       | Some '0' -> Buffer.add_char buf '\000'; advance lx
       | Some c -> Buffer.add_char buf c; advance lx
       | None -> raise (Error ("unterminated escape", lx.line)));
      go ()
    | Some c -> Buffer.add_char buf c; advance lx; go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let lex_char_lit lx =
  advance lx;
  let c =
    match peek_char lx with
    | Some '\\' ->
      advance lx;
      (match peek_char lx with
       | Some 'n' -> advance lx; '\n'
       | Some 't' -> advance lx; '\t'
       | Some '0' -> advance lx; '\000'
       | Some c -> advance lx; c
       | None -> raise (Error ("unterminated char", lx.line)))
    | Some c -> advance lx; c
    | None -> raise (Error ("unterminated char", lx.line))
  in
  (match peek_char lx with
   | Some '\'' -> advance lx
   | _ -> raise (Error ("unterminated char literal", lx.line)));
  Token.INT (Int64.of_int (Char.code c), Char)

(* Multi-character punctuation, longest-match first. *)
let puncts3 = [ "<<="; ">>=" ]
let puncts2 =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+="; "-="; "*="; "/=";
    "%="; "&="; "|="; "^="; "++"; "--"; "->"; "::" ]

let starts_with lx s =
  let n = String.length s in
  lx.pos + n <= String.length lx.src && String.sub lx.src lx.pos n = s

let raw_next lx =
  skip_ws lx;
  match peek_char lx with
  | None -> Token.EOF
  | Some c when is_digit c -> lex_number lx
  | Some '.' when (match peek_char2 lx with Some d -> is_digit d | None -> false) ->
    lex_number lx
  | Some c when is_ident_start c ->
    let start = lx.pos in
    while (match peek_char lx with Some c -> is_ident_char c | None -> false) do
      advance lx
    done;
    let s = String.sub lx.src start (lx.pos - start) in
    if Hashtbl.mem keyword_set s then Token.KW s else Token.IDENT s
  | Some '"' -> lex_string lx
  | Some '\'' -> lex_char_lit lx
  | Some _ ->
    if starts_with lx "<<<" then begin
      lx.pos <- lx.pos + 3; Token.LAUNCH_OPEN
    end else if starts_with lx ">>>" then begin
      lx.pos <- lx.pos + 3; Token.LAUNCH_CLOSE
    end else begin
      match List.find_opt (starts_with lx) puncts3 with
      | Some p -> lx.pos <- lx.pos + 3; Token.PUNCT p
      | None ->
        match List.find_opt (starts_with lx) puncts2 with
        | Some p -> lx.pos <- lx.pos + 2; Token.PUNCT p
        | None ->
          let c = lx.src.[lx.pos] in
          advance lx;
          Token.PUNCT (String.make 1 c)
    end
  | exception _ -> Token.EOF

(* A '>>>' may close two nested template argument lists followed by a
   launch in principle; in Mini-C it is always a launch close.  The parser
   can also ask to split '>>' when closing templates (not needed for the
   supported subset). *)

let next lx =
  match lx.peeked with
  | (t, ln) :: rest -> lx.peeked <- rest; lx.line <- max lx.line ln; t
  | [] -> raw_next lx

let peek lx =
  match lx.peeked with
  | (t, _) :: _ -> t
  | [] ->
    let t = raw_next lx in
    lx.peeked <- [ (t, lx.line) ];
    t

let peek2 lx =
  match lx.peeked with
  | _ :: (t, _) :: _ -> t
  | [ p ] ->
    let t = raw_next lx in
    lx.peeked <- [ p; (t, lx.line) ];
    t
  | [] ->
    let t1 = raw_next lx in
    let l1 = lx.line in
    let t2 = raw_next lx in
    lx.peeked <- [ (t1, l1); (t2, lx.line) ];
    t2

let line lx = lx.line

(* Snapshots allow the parser to backtrack (cast vs. parenthesised
   expression, template argument lists vs. comparisons). *)
type snapshot = { s_pos : int; s_line : int; s_peeked : (Token.t * int) list }

let save lx = { s_pos = lx.pos; s_line = lx.line; s_peeked = lx.peeked }

let restore lx s =
  lx.pos <- s.s_pos;
  lx.line <- s.s_line;
  lx.peeked <- s.s_peeked

(* Tokenize a whole source; mainly for tests. *)
let all src =
  let lx = make src in
  let rec go acc =
    match next lx with
    | Token.EOF -> List.rev (Token.EOF :: acc)
    | t -> go (t :: acc)
  in
  go []

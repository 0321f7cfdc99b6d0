(* Source-site annotation for per-site performance attribution.

   [annotate] wraps every statement of every function body in an
   [SSite (id, _)] marker, numbering statements in deterministic
   pre-order (1, 2, ...) over the whole program — so annotating the same
   source twice (e.g. once for the native run and once inside the
   translation pipeline) yields identical ids, which is what lets
   `oclcu prof --diff` align the original and the translated kernel
   site-by-site.

   Site 0 is reserved: it never names user source and stands for
   translator-injected code ("translation overhead").  After a
   translation pass, [fill_overhead] wraps any top-level statement that
   carries no site — prelude helpers, parameter-deriving prologues —
   so their runtime cost lands on site 0 instead of leaking into a
   neighbouring source site.

   Annotation is opt-in: a build annotates when its device's
   configuration says so (`--attribute`), and a launch attributes when
   its module's program carries sites ([present]).  Plain builds never
   see SSite nodes and pay nothing. *)

open Ast

let overhead_site = 0

(* Build caches salt their keys with [cache_salt attribute] so
   annotated and plain ASTs never alias. *)
let cache_salt attribute = if attribute then "+site" else ""

(* Does a function body of [prog] carry a site?  Sites wrap statements
   only. *)
let present (prog : program) : bool =
  let rec sited = function
    | SSite _ -> true
    | SIf (_, a, b) -> sited a || Option.fold ~none:false ~some:sited b
    | SWhile (_, b) | SDoWhile (b, _) -> sited b
    | SFor (i, _, _, b) -> Option.fold ~none:false ~some:sited i || sited b
    | SBlock l -> List.exists sited l
    | SDecl _ | SExpr _ | SReturn _ | SBreak | SContinue -> false
  in
  List.exists
    (function
      | TFunc { fn_body = Some body; _ } -> List.exists sited body
      | _ -> false)
    prog

(* ------------------------------------------------------------------ *)
(* Site registry: id -> (enclosing function, one-line source snippet)  *)
(* ------------------------------------------------------------------ *)

let registry : (int, string * string) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* (function name, snippet) for a site id; site 0 is the synthetic
   overhead site. *)
let describe id =
  if id = overhead_site then Some ("<translator>", "[translation overhead]")
  else with_registry (fun () -> Hashtbl.find_opt registry id)

let max_snippet = 48

(* First line of the statement's pretty form, truncated — headers only
   for compound statements, so a site reads like its source line. *)
let snippet_of (s : stmt) : string =
  let str = Pretty.stmt_str Pretty.Cuda s in
  let line =
    match String.index_opt str '\n' with
    | Some i -> String.sub str 0 i
    | None -> str
  in
  let line = String.trim line in
  if String.length line > max_snippet then String.sub line 0 (max_snippet - 3) ^ "..."
  else line

(* ------------------------------------------------------------------ *)
(* Annotation                                                          *)
(* ------------------------------------------------------------------ *)

(* Remove every SSite wrapper (bottom-up, so nested wrappers all go). *)
let strip_stmt s =
  map_stmt ~expr:Fun.id ~stmt:(function SSite (_, s) -> s | s -> s) s

let strip (prog : program) : program =
  List.map
    (function
      | TFunc ({ fn_body = Some body; _ } as f) ->
        TFunc { f with fn_body = Some (List.map strip_stmt body) }
      | td -> td)
    prog

let annotate (prog : program) : program =
  let prog = strip prog in
  let next = ref 1 in
  let rec wrap fn s =
    let id = !next in
    incr next;
    with_registry (fun () -> Hashtbl.replace registry id (fn, snippet_of s));
    let s' =
      match s with
      | SIf (c, a, b) -> SIf (c, wrap fn a, Option.map (wrap fn) b)
      | SWhile (c, b) -> SWhile (c, wrap fn b)
      | SDoWhile (b, c) -> SDoWhile (wrap fn b, c)
      (* the init statement stays bare: it is part of the for header
         (printers and rewriters match it as a plain SDecl/SExpr) and
         its one-off cost belongs to the loop's own site anyway *)
      | SFor (i, c, u, b) -> SFor (i, c, u, wrap fn b)
      | SBlock l -> SBlock (List.map (wrap fn) l)
      | SSite (_, s) -> s   (* unreachable after strip *)
      | (SDecl _ | SExpr _ | SReturn _ | SBreak | SContinue) as s -> s
    in
    SSite (id, s')
  in
  List.map
    (function
      | TFunc ({ fn_body = Some body; _ } as f) ->
        TFunc { f with fn_body = Some (List.map (wrap f.fn_name) body) }
      | td -> td)
    prog

(* After translation: any top-level statement without a site marker was
   injected by the translator — charge it to the overhead site.  Nested
   injected statements (e.g. a split vector assignment) sit under their
   original statement's SSite and keep that attribution: they are that
   source line's translation cost. *)
let fill_overhead (prog : program) : program =
  List.map
    (function
      | TFunc ({ fn_body = Some body; _ } as f) ->
        TFunc
          { f with
            fn_body =
              Some
                (List.map
                   (function
                     | SSite _ as s -> s
                     | s -> SSite (overhead_site, s))
                   body) }
      | td -> td)
    prog

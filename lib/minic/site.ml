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

   Annotation is opt-in ([enabled], set by `oclcu prof --attribute`):
   normal runs never see SSite nodes and pay nothing. *)

open Ast

let overhead_site = 0

(* Global switch read by the build pipelines (Cl.build_program,
   Cuda_native.run, Framework.translate_cuda, Cl_on_cuda); off until
   `--attribute` (or a test) sets it.  Build caches must salt their keys
   with [cache_salt] so annotated and plain ASTs never alias. *)
let enabled = ref false

let cache_salt () = if !enabled then "+site" else ""

(* ------------------------------------------------------------------ *)
(* Site registry: id -> (enclosing function, one-line source snippet)  *)
(* ------------------------------------------------------------------ *)

let registry : (int, string * string) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let reset () = with_registry (fun () -> Hashtbl.reset registry)

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

let maybe_annotate prog = if !enabled then annotate prog else prog

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

let maybe_fill_overhead prog = if !enabled then fill_overhead prog else prog

(* ------------------------------------------------------------------ *)
(* Annotated source rendering                                          *)
(* ------------------------------------------------------------------ *)

(* Pretty-print with /*@id*/ site markers (Pretty hides them by
   default, so only this entry point shows them). *)
let annotated_str dialect (prog : program) : string =
  Pretty.site_markers := true;
  Fun.protect
    ~finally:(fun () -> Pretty.site_markers := false)
    (fun () -> Pretty.program_str dialect prog)

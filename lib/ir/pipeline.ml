(* Pass-pipeline configuration.

   The middle-end is surfaced to users as `OCLCU_IR_PASSES=` (and
   `oclcu translate --ir-dump`): a comma-separated pass list with the
   two reset tokens "all" and "none", plus "-name" subtraction, so
   "all,-licm" means everything except loop-invariant hoisting and
   "fold,dce" means exactly those two.  A leading subtraction implies
   "all" ("-barrier" == "all,-barrier").

   `selected` is the process default `Gpusim.Config.default` reads; a
   device's configuration carries the pass set its launches compile
   under (the fuzzer pyramid pins `none` for its counter-identity
   stages).  The empty configuration is the contract point: with every
   pass off the IR still lowers and emits every function it accepts,
   and its counters equal the interpreter's except for the private
   traffic of values kept in registers. *)

type config = {
  fold : bool;      (* constant/copy propagation + counter-exact folding *)
  strength : bool;  (* unsigned div/mod by 2^k -> shift/mask *)
  cse : bool;       (* common subexpressions on index arithmetic *)
  licm : bool;      (* loop-invariant hoisting into the loop preheader *)
  dce : bool;       (* dead pure code elimination *)
  barrier : bool;   (* redundant-barrier elimination *)
  inline : bool;    (* small device helpers inlined as expressions *)
}

let none =
  { fold = false; strength = false; cse = false; licm = false; dce = false;
    barrier = false; inline = false }

let all =
  { fold = true; strength = true; cse = true; licm = true; dce = true;
    barrier = true; inline = true }

let pass_names =
  [ "fold"; "strength"; "cse"; "licm"; "dce"; "barrier"; "inline" ]

let set c name v =
  match name with
  | "fold" -> Some { c with fold = v }
  | "strength" -> Some { c with strength = v }
  | "cse" -> Some { c with cse = v }
  | "licm" -> Some { c with licm = v }
  | "dce" -> Some { c with dce = v }
  | "barrier" -> Some { c with barrier = v }
  | "inline" -> Some { c with inline = v }
  | _ -> None

let get c = function
  | "fold" -> c.fold
  | "strength" -> c.strength
  | "cse" -> c.cse
  | "licm" -> c.licm
  | "dce" -> c.dce
  | "barrier" -> c.barrier
  | "inline" -> c.inline
  | _ -> false

(* Parse a pass spec; unknown pass names are reported, not ignored. *)
let parse (s : string) : (config, string) result =
  let toks =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  let init =
    match toks with
    | t :: _ when String.length t > 0 && t.[0] = '-' -> all
    | _ -> none
  in
  let rec go c = function
    | [] -> Ok c
    | "all" :: rest -> go all rest
    | "none" :: rest -> go none rest
    | t :: rest ->
      let v, name =
        if String.length t > 0 && t.[0] = '-' then
          (false, String.sub t 1 (String.length t - 1))
        else (true, t)
      in
      (match set c name v with
       | Some c -> go c rest
       | None -> Error (Printf.sprintf "unknown IR pass %S" name))
  in
  if toks = [] then Ok none else go init toks

(* Canonical, round-trippable rendering. *)
let signature c =
  if c = all then "all"
  else if c = none then "none"
  else
    pass_names
    |> List.filter (get c)
    |> String.concat ","

let selected : config ref =
  ref
    (Knob.read "OCLCU_IR_PASSES" (fun s -> Result.to_option (parse s))
       ~default:all)

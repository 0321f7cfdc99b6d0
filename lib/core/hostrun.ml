(* Host-program execution harness.

   Original and translated CUDA host code is ordinary C (Mini-C); this
   module provides the libc-level externals every host program needs --
   printf with output capture, malloc/free over the host arena, memcpy,
   memset, a deterministic srand/rand -- plus the glue to run main().
   The CUDA-specific externals come from Cuda_native (original apps) or
   Cuda_on_cl (translated apps). *)

open Minic.Ast
open Vm
open Vm.Interp

exception Host_error of string

(* exit(): ends the whole program, from any depth of host calls *)
exception Program_exit

type session = {
  arena : Vm.Memory.arena;
  out : Buffer.t;
  mutable rng : int64;          (* deterministic rand() state *)
}

let make_session () =
  { arena = Vm.Memory.create ~initial:(1 lsl 16) "host";
    out = Buffer.create 256;
    rng = 0x5DEECE66DL }

(* ------------------------------------------------------------------ *)
(* printf                                                              *)
(* ------------------------------------------------------------------ *)

(* Formats the subset of printf conversions benchmark code uses:
   flags/width/precision, d i u x X c s f e g p and the l/ll/h length
   modifiers. *)
let format_printf ctx fmt (args : tval list) =
  let buf = Buffer.create (String.length fmt + 32) in
  let args = ref args in
  let pop () =
    match !args with
    | a :: rest ->
      args := rest;
      a
    | [] -> tint 0
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    let c = fmt.[!i] in
    if c <> '%' then begin
      Buffer.add_char buf c;
      incr i
    end
    else if !i + 1 < n && fmt.[!i + 1] = '%' then begin
      Buffer.add_char buf '%';
      i := !i + 2
    end
    else begin
      (* scan  %[flags][width][.precision][length]conv  *)
      let j = ref (!i + 1) in
      let spec = Buffer.create 8 in
      Buffer.add_char spec '%';
      let is_spec_char c =
        match c with
        | '0' .. '9' | '-' | '+' | ' ' | '#' | '.' -> true
        | _ -> false
      in
      while !j < n && is_spec_char fmt.[!j] do
        Buffer.add_char spec fmt.[!j];
        incr j
      done;
      (* length modifiers are eaten; our values are already wide *)
      while !j < n && (fmt.[!j] = 'l' || fmt.[!j] = 'h' || fmt.[!j] = 'z') do
        incr j
      done;
      if !j < n then begin
        let conv = fmt.[!j] in
        let sp = Buffer.contents spec in
        (match conv with
         | 'd' | 'i' ->
           let v = Value.to_int (pop ()).v in
           Buffer.add_string buf
             (Printf.sprintf (Scanf.format_from_string (sp ^ "Ld") "%Ld") v)
         | 'u' ->
           let v = Value.to_int (pop ()).v in
           Buffer.add_string buf
             (Printf.sprintf (Scanf.format_from_string (sp ^ "Lu") "%Lu") v)
         | 'x' ->
           let v = Value.to_int (pop ()).v in
           Buffer.add_string buf
             (Printf.sprintf (Scanf.format_from_string (sp ^ "Lx") "%Lx") v)
         | 'X' ->
           let v = Value.to_int (pop ()).v in
           Buffer.add_string buf
             (Printf.sprintf (Scanf.format_from_string (sp ^ "LX") "%LX") v)
         | 'c' ->
           let v = Int64.to_int (Value.to_int (pop ()).v) in
           Buffer.add_char buf (Char.chr (v land 0xff))
         | 'f' | 'e' | 'g' | 'E' | 'G' ->
           let v = Value.to_float (pop ()).v in
           Buffer.add_string buf
             (Printf.sprintf
                (Scanf.format_from_string (sp ^ String.make 1 conv) "%f")
                v)
         | 's' ->
           let v = pop () in
           Buffer.add_string buf (read_string ctx v.v)
         | 'p' ->
           let v = Value.to_int (pop ()).v in
           Buffer.add_string buf (Printf.sprintf "0x%Lx" v)
         | _ -> Buffer.add_string buf (sp ^ String.make 1 conv));
        i := !j + 1
      end
      else i := !j
    end
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* libc externals                                                      *)
(* ------------------------------------------------------------------ *)

let libc_externals (session : session) =
  let arena_of_ptr ctx p =
    let space = Value.ptr_space p in
    (ctx.arena_of space, Value.ptr_offset p)
  in
  [ ("printf",
     (fun ctx args ->
        match args with
        | fmt :: rest ->
          let s = format_printf ctx (read_string ctx fmt.v) rest in
          Buffer.add_string session.out s;
          tint (String.length s)
        | [] -> tint 0));
    ("fprintf",
     (fun ctx args ->
        match args with
        | _stream :: fmt :: rest ->
          let s = format_printf ctx (read_string ctx fmt.v) rest in
          Buffer.add_string session.out s;
          tint (String.length s)
        | _ -> tint 0));
    ("malloc",
     (fun _ctx args ->
        let n =
          match args with
          | [ a ] -> Int64.to_int (Value.to_int a.v)
          | _ -> raise (Host_error "malloc arity")
        in
        let addr = Vm.Memory.alloc_heap session.arena ~align:16 (max 1 n) in
        tv (VInt (Value.make_ptr AS_none addr)) (TPtr (TScalar Void))));
    ("calloc",
     (fun _ctx args ->
        match args with
        | [ a; b ] ->
          let n = Int64.to_int (Value.to_int a.v) * Int64.to_int (Value.to_int b.v) in
          let addr = Vm.Memory.alloc_heap session.arena ~align:16 (max 1 n) in
          Vm.Memory.store_bytes session.arena addr (Bytes.make (max 1 n) '\000');
          tv (VInt (Value.make_ptr AS_none addr)) (TPtr (TScalar Void))
        | _ -> raise (Host_error "calloc arity")));
    ("free", (fun _ _ -> tunit));
    ("memcpy",
     (fun ctx args ->
        match args with
        | [ dst; src; len ] ->
          let n = Int64.to_int (Value.to_int len.v) in
          let da, daddr = arena_of_ptr ctx (Value.to_int dst.v) in
          let sa, saddr = arena_of_ptr ctx (Value.to_int src.v) in
          Vm.Memory.blit ~src:sa ~src_addr:saddr ~dst:da ~dst_addr:daddr ~len:n;
          dst
        | _ -> raise (Host_error "memcpy arity")));
    ("memset",
     (fun ctx args ->
        match args with
        | [ dst; v; len ] ->
          let n = Int64.to_int (Value.to_int len.v) in
          let da, daddr = arena_of_ptr ctx (Value.to_int dst.v) in
          Vm.Memory.store_bytes da daddr
            (Bytes.make (max 0 n)
               (Char.chr (Int64.to_int (Value.to_int v.v) land 0xff)));
          dst
        | _ -> raise (Host_error "memset arity")));
    ("srand",
     (fun _ args ->
        (match args with
         | [ s ] -> session.rng <- Value.to_int s.v
         | _ -> ());
        tunit));
    ("rand",
     (fun _ _ ->
        (* deterministic LCG so every configuration sees identical data *)
        session.rng <-
          Int64.logand
            (Int64.add (Int64.mul session.rng 6364136223846793005L) 1442695040888963407L)
            Int64.max_int;
        tint (Int64.to_int (Int64.rem (Int64.shift_right_logical session.rng 17) 32768L))));
    ("exit", (fun _ _ -> raise Program_exit));
    ("fabs",
     (fun _ args ->
        match args with
        | [ a ] -> tv (VFloat (Float.abs (Value.to_float a.v))) (TScalar Double)
        | _ -> raise (Host_error "fabs arity"))) ]

(* ------------------------------------------------------------------ *)
(* Running main()                                                      *)
(* ------------------------------------------------------------------ *)

(* The host compile of [prog] under [passes]: string literals and
   kernel calls lower (see Ir.Lower), and [special_ident]'s names are
   typed by their values. *)
let compile ~passes ~special_ident prog =
  Ir.Emit.make ~host:true
    ~special_ty:(fun n -> Option.map (fun t -> t.ty) (special_ident n))
    ~cfg:passes prog

(* Build an interpreter context for host code over [session], with the
   given CUDA/OpenCL API externals, and execute main(): compiled through
   the IR under the Compiled backend (functions the lowering rejects,
   main included, run on the interpreter), interpreted under Interp.
   Device symbol bindings (if any) must be pre-seeded in [globals] so
   that identifiers like texture references resolve. *)
let run_main ~(config : Gpusim.Config.t) ~(session : session) ~prog ~arena_of
    ~externals ~special_ident ?globals ?launch_handler () =
  let externals = libc_externals session @ externals in
  let ctx =
    Vm.Interp.make ~prog ~arena_of ~externals ~special_ident
      ~stack_space:AS_none ?globals ()
  in
  ctx.launch_handler <- launch_handler;
  (* host-side globals (device ones were loaded by the module loader) *)
  let is_host_global (d : decl) =
    (match unqual d.d_ty with TTexture _ -> false | _ -> true)
    && type_space d.d_ty = AS_none
    && (match d.d_storage.s_space with
        | AS_none -> true
        | AS_global | AS_constant | AS_local | AS_private -> false)
  in
  Vm.Interp.init_globals ctx ~filter:is_host_global prog;
  let main =
    match config.Gpusim.Config.backend with
    | Gpusim.Config.Interp -> None
    | Gpusim.Config.Compiled ->
      Ir.Emit.prepare (compile ~passes:config.passes ~special_ident prog) "main"
  in
  (try
     match main with
     | Some main -> ignore (main.Ir.Emit.run ctx [||])
     | None -> ignore (Vm.Interp.run ctx "main" [])
   with Program_exit -> ());
  Buffer.contents session.out

(* Common host-side named constants. *)
let host_constants name : tval option =
  match name with
  | "NULL" -> Some (tv (VInt 0L) (TPtr (TScalar Void)))
  | "cudaSuccess" | "CL_SUCCESS" | "cudaMemcpyHostToHost" -> Some (tint 0)
  | "cudaMemcpyHostToDevice" -> Some (tint 1)
  | "cudaMemcpyDeviceToHost" -> Some (tint 2)
  | "cudaMemcpyDeviceToDevice" -> Some (tint 3)
  | "CL_TRUE" -> Some (tint 1)
  | "CL_FALSE" -> Some (tint 0)
  | "CL_MEM_READ_ONLY" -> Some (tint 4)
  | "CL_MEM_READ_WRITE" -> Some (tint 1)
  | "CL_MEM_WRITE_ONLY" -> Some (tint 2)
  | "RAND_MAX" -> Some (tint 32767)
  | "stdout" | "stderr" -> Some (tint 0)
  | _ -> None

type run = {
  r_output : string;
  r_time_ns : float;
}

(* Run a CUDA host program on [dev] over [session], whose runtime the
   caller has set up: host pointers reach the session arena, device
   pointers [dev]'s arenas, and the run lasts the simulated time from
   here to the end of main(). *)
let run ~(dev : Gpusim.Device.t) ~session ~prog ~externals ?globals
    ?launch_handler () =
  let arena_of : addr_space -> Vm.Memory.arena = function
    | AS_none -> session.arena
    | AS_global -> dev.Gpusim.Device.global
    | AS_constant -> dev.Gpusim.Device.constant
    | AS_local | AS_private -> raise (Host_error "host code touched device-only memory")
  in
  let t0 = dev.Gpusim.Device.sim_time_ns in
  let r_output =
    run_main ~config:dev.Gpusim.Device.config ~session ~prog ~arena_of ~externals
      ~special_ident:host_constants ?globals ?launch_handler ()
  in
  { r_output; r_time_ns = dev.Gpusim.Device.sim_time_ns -. t0 }

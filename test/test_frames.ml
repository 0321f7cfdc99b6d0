(* Directed tests for what a work-item's start costs the scalar engine.

   An IR function marks a frame in the stack arena only when its own
   body allocates there (a private DeclMem), frames hold only the boxed
   registers, an item runs on a fibre only when the kernel can reach a
   barrier, and a launch converts its arguments to the parameter types
   once.  None of that may show: each case below runs on the
   interpreter and on the IR backend (passes all and none), at 1 and 4
   domains, with attribution on, and its buffer, exact Counters.t,
   attribution rows and exception string must read as pinned.  The
   pinned values are those of an engine that gives every item a fibre,
   a frame mark and a register file as wide as the function's registers,
   and converts the arguments at every item's entry.

   Helpers take the address of a private array, so a frame the engine
   failed to release, or one it released too early, moves a value in
   the buffer.  The last case is a helper whose barrier only its
   caller's writes make necessary, which the barrier pass must keep. *)

open Minic.Ast

type arg =
  | Out                        (* the output buffer, a global int pointer *)
  | Scalar of Vm.Interp.tval   (* passed as given, converted by the callee *)
  | Local of int               (* a dynamic __local buffer of this many bytes *)

type case = {
  name : string;
  src : string;                (* OpenCL C; the kernel is [k] *)
  gws : int;
  lws : int;
  out_words : int;
  args : arg list;
}

(* Digest of a string, short enough to pin. *)
let short s = String.sub (Digest.to_hex (Digest.string s)) 0 12

(* One run's observables, as one line: the output buffer's digest, then
   either the Counters.t fields in Fuzz.Pyramid.counter_fields order
   and the attribution rows' digest, or the exception. *)
let run (c : case) ~backend ~passes ~domains =
  let prog =
    Minic.Site.annotate (Minic.Parser.program ~dialect:Minic.Parser.OpenCL c.src)
  in
  let config =
    { Gpusim.Config.backend; passes; domains; engine = Scalar; attribute = false }
  in
  let dev =
    Gpusim.Device.create ~config Gpusim.Device.titan Gpusim.Device.opencl_on_nvidia
  in
  let g = dev.Gpusim.Device.global in
  let out = Vm.Memory.alloc g ~align:256 (4 * c.out_words) in
  let args =
    List.map
      (function
        | Out ->
          Gpusim.Exec.Arg_val
            (Vm.Interp.tv
               (Vm.Value.VInt (Vm.Value.make_ptr AS_global out))
               (TPtr (TScalar Int)))
        | Scalar v -> Gpusim.Exec.Arg_val v
        | Local bytes -> Gpusim.Exec.Arg_local bytes)
      c.args
  in
  let buffer () = short (Bytes.to_string (Vm.Memory.load_bytes g out (4 * c.out_words))) in
  match
    Gpusim.Exec.launch ~dev ~modul:(Gpusim.Exec.load prog) ~globals:(Hashtbl.create 4)
      ~host_arena:(Vm.Memory.create "host")
      ~kernel:(Option.get (find_function prog "k"))
      ~cfg:
        { global_size = [| c.gws; 1; 1 |]; local_size = [| c.lws; 1; 1 |];
          dyn_shared = 0 }
      ~args ()
  with
  | stats ->
    let counters =
      Fuzz.Pyramid.counter_fields stats.Gpusim.Exec.counters
      |> List.map (fun (_, v) -> string_of_int v)
      |> String.concat " "
    in
    let rows =
      Option.fold ~none:"-"
        ~some:(fun a -> short (Marshal.to_string (Gpusim.Attr.to_list a) []))
        stats.Gpusim.Exec.attr
    in
    Printf.sprintf "done %s | %s | %s" (buffer ()) counters rows
  | exception e -> Printf.sprintf "failed %s | %s" (buffer ()) (Printexc.to_string e)

let int_arg v = Scalar (Vm.Interp.tint v)

let cases =
  [ { name = "no stack memory; a helper with a private array, twice per item";
      src = {|
int fill(int seed, int k) {
  int a[4];
  for (int i = 0; i < 4; i++) a[i] = seed * (i + k);
  int s = 0;
  for (int i = 0; i < 4; i++) s += a[i];
  return s + (int)((long)&a[1] & 0xfff);
}
__kernel void k(__global int* out) {
  int gid = get_global_id(0);
  out[2 * gid] = fill(gid, 1);
  out[2 * gid + 1] = fill(gid + 1, 2);
}
|};
      gws = 64; lws = 16; out_words = 128; args = [ Out ] };
    { name = "a barrier inside a helper with a private array";
      src = {|
int stage(__local int* tile, int v) {
  int a[2];
  a[0] = v;
  a[1] = v * 3;
  tile[get_local_id(0)] = a[0] + a[1];
  barrier(CLK_LOCAL_MEM_FENCE);
  int n = get_local_size(0);
  return tile[(get_local_id(0) + 1) % n] + (int)((long)&a[1] & 0xfff);
}
__kernel void k(__global int* out, __local int* tile) {
  int gid = get_global_id(0);
  out[gid] = stage(tile, gid);
}
|};
      gws = 64; lws = 16; out_words = 64; args = [ Out; Local 64 ] };
    { name = "a barrier reached only through a helper";
      src = {|
int exchange(__local int* tile, int lid, int v) {
  tile[lid] = v;
  barrier(CLK_LOCAL_MEM_FENCE);
  return tile[(lid + 3) % get_local_size(0)];
}
__kernel void k(__global int* out) {
  __local int tile[16];
  int gid = get_global_id(0);
  out[gid] = exchange(tile, get_local_id(0), gid * 7);
}
|};
      gws = 64; lws = 16; out_words = 64; args = [ Out ] };
    { name = "a barrier-free kernel whose item 37 faults";
      src = {|
int pick(int i, int v) {
  int a[4];
  a[0] = v;
  a[1] = v + 1;
  a[2] = v + 2;
  a[3] = v + 3;
  return a[i];
}
__kernel void k(__global int* out) {
  int gid = get_global_id(0);
  out[gid] = gid * 5;
  out[gid] = pick(gid == 37 ? 1000 : gid % 4, gid);
}
|};
      gws = 64; lws = 16; out_words = 64; args = [ Out ] };
    { name = "char, short, uint and float parameters out of range";
      src = {|
__kernel void k(__global int* out, char c, short s, uint u, float f) {
  int gid = get_global_id(0);
  out[4 * gid] = c + gid;
  out[4 * gid + 1] = s;
  out[4 * gid + 2] = (int)(u >> 16) + gid;
  out[4 * gid + 3] = (int)((double)f * 1e9) - 100000000;
}
|};
      gws = 64; lws = 16; out_words = 256;
      args =
        [ Out; int_arg 300; int_arg 70000; int_arg (-1);
          Scalar (Vm.Interp.tv (Vm.Value.VFloat 0.1) (TScalar Double)) ] };
    (* Only the caller's write makes the helper's barrier necessary: the
       barrier pass must keep it, so every engine reads 21 28 .. 105 0 7
       14 (deleting it reads 0 .. 0 7 14 at one domain). *)
    { name = "a helper barrier that orders its caller's writes";
      src = {|
void sync_group(int lid) {
  if (lid < 0) return;
  barrier(CLK_LOCAL_MEM_FENCE);
}
__kernel void k(__global int* out) {
  __local int tile[16];
  int lid = get_local_id(0);
  tile[lid] = lid * 7;
  sync_group(lid);
  out[lid] = tile[(lid + 3) % 16];
}
|};
      gws = 16; lws = 16; out_words = 16; args = [ Out ] } ]

(* The pinned outcomes, by case: on the interpreter (which runs no IR,
   so the pass set does not matter), then on the IR under passes all
   and none. *)
let pinned =
  [ ( "no stack memory; a helper with a private array, twice per item",
      ( "done 890e985bdabe | 64 4 4352 0 0 0 1280 0 8 128 512 0 0 0 9216 0 | 064ca392baf6",
        "done 98efdec116d7 | 64 4 4288 0 0 0 1280 0 8 128 512 0 0 0 1024 0 | e27f9a5d52fb",
        "done 98efdec116d7 | 64 4 4352 0 0 0 1280 0 8 128 512 0 0 0 1024 0 | 064ca392baf6" ) );
    ( "a barrier inside a helper with a private array",
      ( "done 6734c20ea055 | 64 4 320 0 0 64 0 4 4 64 256 8 128 0 1216 0 | be472153be8d",
        "done 37bfc955f787 | 64 4 320 0 0 64 0 4 4 64 256 8 128 0 256 0 | be472153be8d",
        "done 37bfc955f787 | 64 4 320 0 0 64 0 4 4 64 256 8 128 0 256 0 | be472153be8d" ) );
    ( "a barrier reached only through a helper",
      ( "done 25a0f31aa00b | 64 4 128 0 0 64 0 4 4 64 256 8 128 0 832 0 | 69b6c1f3fe18",
        "done 25a0f31aa00b | 64 4 128 0 0 64 0 4 4 64 256 8 128 0 0 0 | 69b6c1f3fe18",
        "done 25a0f31aa00b | 64 4 128 0 0 64 0 4 4 64 256 8 128 0 0 0 | 69b6c1f3fe18" ) );
    ( "a barrier-free kernel whose item 37 faults",
      ( "failed acbd298a4000 | Vm.Memory.Fault(\"private.5\", 4036)",
        "failed acbd298a4000 | Vm.Memory.Fault(\"private.5\", 4016)",
        "failed acbd298a4000 | Vm.Memory.Fault(\"private.5\", 4016)" ) );
    ( "char, short, uint and float parameters out of range",
      ( "done 725164185f3b | 64 4 704 0 64 0 0 0 32 256 1024 0 0 0 1280 0 | 142ca04091c9",
        "done 725164185f3b | 64 4 512 0 64 0 0 0 32 256 1024 0 0 0 0 0 | 10ed199a2009",
        "done 725164185f3b | 64 4 704 0 64 0 0 0 32 256 1024 0 0 0 0 0 | 142ca04091c9" ) );
    ( "a helper barrier that orders its caller's writes",
      ( "done 1a89a822b246 | 16 1 48 0 0 16 16 1 1 16 64 2 32 0 160 0 | 221310d90934",
        "done 1a89a822b246 | 16 1 48 0 0 16 16 1 1 16 64 2 32 0 0 0 | 221310d90934",
        "done 1a89a822b246 | 16 1 48 0 0 16 16 1 1 16 64 2 32 0 0 0 | 221310d90934" ) ) ]

let check (c : case) () =
  let interp, all, none = List.assoc c.name pinned in
  List.iter
    (fun domains ->
       let got backend passes = run c ~backend ~passes ~domains in
       let label what = Printf.sprintf "%s, %d domain(s)" what domains in
       List.iter
         (fun passes ->
            Alcotest.(check string) (label "interpreter") interp
              (got Gpusim.Config.Interp passes))
         [ Ir.Pipeline.all; Ir.Pipeline.none ];
       Alcotest.(check string) (label "IR, passes all") all
         (got Gpusim.Config.Compiled Ir.Pipeline.all);
       Alcotest.(check string) (label "IR, passes none") none
         (got Gpusim.Config.Compiled Ir.Pipeline.none))
    [ 1; 4 ]

let suites =
  [ ("frames", List.map (fun c -> Alcotest.test_case c.name `Quick (check c)) cases) ]

(* Tests for the layered translation validator (lib/validate).

   The directed regressions plant one divergence per semantic layer and
   check that the refinement ladder localizes it to exactly that layer —
   never lower (the truncated layers must not see it) and never higher
   (the first live layer must catch it).  The qcheck property drives the
   same guarantee over random geometries for the canonical L2 bug, a
   value-preserving permutation of global-store targets. *)

module L = Xlat_validate.Layered

let parse ?(dialect = Minic.Parser.OpenCL) src =
  Minic.Parser.program ~dialect src

(* Replace every occurrence of [sub] in [s] (tests plant bugs by
   patching the kernel text). *)
let replace ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

(* Build a validation plan pair from two same-signature OpenCL kernels:
   the "translation" side is just the second program, which lets a test
   plant a precise bug without involving the real translators. *)
let check_pair ?(cfg = L.default_cfg) src_text dst_text =
  let src_prog = parse src_text and dst_prog = parse dst_text in
  let kernel =
    match Minic.Ast.kernels src_prog with
    | k :: _ -> k
    | [] -> Alcotest.fail "no kernel"
  in
  let src =
    match L.plan_of_kernel ~cfg src_prog kernel with
    | Ok p -> p
    | Error why -> Alcotest.fail ("plan_of_kernel: " ^ why)
  in
  L.check_plans ~cfg ~src
    ~dst:{ src with Xlat_validate.Plan.modul = Gpusim.Exec.load dst_prog } ()

let diverged_layer (r : L.report) =
  match r.L.rp_diverged with
  | Some (l, _) -> Some (L.layer_name l)
  | None -> None

let check_verdict name expected r =
  Alcotest.(check (option string)) name expected (diverged_layer r)

(* Layer L must either be past the divergence point (absent) or
   recorded as non-divergent; used to assert lower layers stayed blind. *)
let layer_clean name layer (r : L.report) =
  match List.assoc_opt layer r.L.rp_layers with
  | None | Some (L.Equivalent | L.Vacuous _) -> ()
  | Some (L.Diverges site) ->
    Alcotest.failf "%s: %s diverges (%s)" name (L.layer_name layer) site
  | Some (L.Skipped why) ->
    Alcotest.failf "%s: %s skipped (%s)" name (L.layer_name layer) why

(* --- directed planted divergences, one per layer ----------------------- *)

(* All four planted bugs live in the same base kernel so each layer's
   regression differs from its neighbours only in the planted change. *)
let base = {|
  __kernel void k(__global int* a, __global int* c) {
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    __local int tile[8];
    int y = a[gid];
    tile[lid] = y;
    barrier(CLK_LOCAL_MEM_FENCE);
    int x = tile[lid];
    if (y > 0) { x = x + 1; } else { x = x - 1; }
    c[gid] = x;
    atomic_add(&a[0], x);
  }
|}

let test_l0_flipped_comparison () =
  (* the branch condition reads a global value, which L0 still sees
     (loads are live at every layer; only stores are truncated) *)
  let dst = replace ~sub:"y > 0" ~by:"y < 0" base in
  let r = check_pair base dst in
  check_verdict "flipped comparison blamed on L0" (Some "L0") r

let test_l1_local_offset_shift () =
  (* store lands one slot over; invisible at L0 where local stores are
     observed as an offset-free value bag, visible at L1 when the
     read-back changes downstream values *)
  let dst = replace ~sub:"tile[lid] =" ~by:"tile[lid + 1] =" base in
  let r = check_pair base dst in
  layer_clean "L1 bug" L.L0 r;
  check_verdict "shifted local store blamed on L1" (Some "L1") r

let test_l2_store_permutation () =
  let dst = replace ~sub:"c[gid] =" ~by:"c[gid ^ 1] =" base in
  let r = check_pair base dst in
  layer_clean "L2 bug" L.L0 r;
  layer_clean "L2 bug" L.L1 r;
  check_verdict "permuted global store blamed on L2" (Some "L2") r

let test_l3_dropped_barrier () =
  let dst =
    replace ~sub:"barrier(CLK_LOCAL_MEM_FENCE);" ~by:""
      base
  in
  let r = check_pair base dst in
  layer_clean "L3 bug" L.L0 r;
  layer_clean "L3 bug" L.L1 r;
  layer_clean "L3 bug" L.L2 r;
  check_verdict "dropped barrier blamed on L3" (Some "L3") r

let test_l3_atomic_op_flip () =
  let dst = replace ~sub:"atomic_add" ~by:"atomic_sub" base in
  let r = check_pair base dst in
  layer_clean "L3 bug" L.L0 r;
  layer_clean "L3 bug" L.L1 r;
  layer_clean "L3 bug" L.L2 r;
  check_verdict "flipped atomic op blamed on L3" (Some "L3") r

let test_identity_equivalent () =
  let r = check_pair base base in
  check_verdict "identical kernels equivalent" None r;
  Alcotest.(check int) "all four layers reported" 4
    (List.length r.L.rp_layers)

(* --- vacuous slicing --------------------------------------------------- *)

let test_slicing_vacuous_layers () =
  let pure = {|
    __kernel void k(__global int* c) {
      int gid = get_global_id(0);
      c[gid] = gid * 2 + 1;
    }
  |} in
  let r = check_pair pure pure in
  (match List.assoc_opt L.L1 r.L.rp_layers with
   | Some (L.Vacuous _) -> ()
   | _ -> Alcotest.fail "L1 should be vacuous without local memory");
  check_verdict "pure kernel equivalent" None r

(* --- the real translator ----------------------------------------------- *)

let test_real_translation_equivalent () =
  match L.check_opencl_source base with
  | Error why -> Alcotest.fail ("check_opencl_source: " ^ why)
  | Ok [ (name, L.Checked r) ] ->
    Alcotest.(check string) "kernel name" "k" name;
    check_verdict "real OCL->CUDA translation equivalent" None r
  | Ok _ -> Alcotest.fail "expected exactly one checked kernel"

let test_real_cuda_translation_equivalent () =
  let cu = {|
    __global__ void k(int* a, int* c) {
      int gid = blockIdx.x * blockDim.x + threadIdx.x;
      __shared__ int tile[4];
      tile[threadIdx.x] = a[gid];
      __syncthreads();
      c[gid] = tile[threadIdx.x] + 1;
    }
  |} in
  match L.check_cuda_source cu with
  | Error why -> Alcotest.fail ("check_cuda_source: " ^ why)
  | Ok [ (_, L.Checked r) ] ->
    check_verdict "real CUDA->OCL translation equivalent" None r
  | Ok _ -> Alcotest.fail "expected exactly one checked kernel"

(* --- qcheck: an L2-only bug is never blamed on L0/L1 ------------------- *)

(* The planted bug permutes global-store targets within a work-group
   (gid XOR k for k < lws): every stored value still appears, only the
   destination changes.  Below L2 stores are observed as value bags, so
   the refinement must never blame L0 or L1, whatever the geometry. *)
let prop_l2_reorder_never_blamed_low =
  QCheck.Test.make ~count:30
    ~name:"planted global-store permutation never blamed on L0/L1"
    QCheck.(triple (int_range 1 3) (int_range 0 2) (int_range 0 1000))
    (fun (groups, lws_pow, seed) ->
       let lws = 2 * (1 lsl lws_pow) in          (* 2, 4 or 8 *)
       let gws = groups * lws in
       let xor = 1 + (seed mod (lws - 1)) in      (* stays in-group *)
       let src = {|
         __kernel void k(__global int* a, __global int* c) {
           int gid = get_global_id(0);
           int x = a[gid] * 3 + 1;
           c[gid] = x;
         }
       |} in
       let dst =
         replace ~sub:"c[gid] =" ~by:(Printf.sprintf "c[gid ^ %d] =" xor) src
       in
       let cfg = { L.default_cfg with vc_gws = gws; vc_lws = lws;
                   vc_elems = 2 * gws; vc_seed = seed } in
       let r = check_pair ~cfg src dst in
       match diverged_layer r with
       | Some "L2" -> true
       | Some l ->
         QCheck.Test.fail_reportf "blamed on %s instead of L2" l
       | None ->
         (* xor target may collide with an untouched slot only if the
            permutation is the identity, which xor >= 1 rules out *)
         QCheck.Test.fail_reportf "no divergence found")

let suites =
  [ ( "validate.layers",
      [ Alcotest.test_case "identical kernels refine at all layers" `Quick
          test_identity_equivalent;
        Alcotest.test_case "L0: flipped comparison" `Quick
          test_l0_flipped_comparison;
        Alcotest.test_case "L1: shifted local store" `Quick
          test_l1_local_offset_shift;
        Alcotest.test_case "L2: permuted global store" `Quick
          test_l2_store_permutation;
        Alcotest.test_case "L3: dropped barrier" `Quick
          test_l3_dropped_barrier;
        Alcotest.test_case "L3: flipped atomic op" `Quick
          test_l3_atomic_op_flip;
        Alcotest.test_case "static slicing marks dead layers vacuous" `Quick
          test_slicing_vacuous_layers;
        Alcotest.test_case "real OCL->CUDA translation refines" `Quick
          test_real_translation_equivalent;
        Alcotest.test_case "real CUDA->OCL translation refines" `Quick
          test_real_cuda_translation_equivalent ] );
    ( "validate.properties",
      [ QCheck_alcotest.to_alcotest prop_l2_reorder_never_blamed_low ] ) ]

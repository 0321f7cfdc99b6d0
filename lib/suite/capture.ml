(* Capture the kernel sources an OpenCL application builds.

   The corpus applications keep their device code as inline strings fed
   to clBuildProgram, so the only way to get at those strings without
   duplicating them is to run the application against an API whose
   build_program records its argument.  [Recording] is the native API
   with exactly that one entry point shadowed; everything else behaves
   normally, so the app runs to completion and builds every program it
   would build for real. *)

(* The (deduplicated, in build order) kernel sources [app] builds.  An
   application that fails mid-run still yields the sources built up to
   the failure. *)
let kernel_sources (app : Bridge.Framework.ocl_app) : string list =
  let captured = ref [] in
  let module Recording = struct
    include Bridge.Cl_api.Native

    let build_program t src =
      captured := src :: !captured;
      Bridge.Cl_api.Native.build_program t src
  end in
  let dev = Bridge.Framework.(device_of Titan_opencl) in
  let c = Bridge.Cl_api.Native.make dev in
  (try
     ignore
       (app.Bridge.Framework.oa_run
          (Bridge.Framework.Clctx ((module Recording), c)))
   with _ -> ());
  let seen = Hashtbl.create 4 in
  List.filter
    (fun src ->
       if Hashtbl.mem seen src then false
       else begin
         Hashtbl.replace seen src ();
         true
       end)
    (List.rev !captured)

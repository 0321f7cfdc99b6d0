(* nvprof-style summary: aggregate spans by name into the two familiar
   sections —

     ==<label>== Profiling result:
     Launch configuration: ...    (when given)
                 Type  Time(%)      Time  Calls       Avg       Min       Max  Name
      GPU activities:   ...
            API calls:   ...

   Times are simulated nanoseconds (pretty-printed with unit scaling);
   percentages are within each section.  Also computes the wrapper
   amplification table: for every wrapper span, how many API spans it
   directly fans out into — the deviceQuery story in one table. *)

type row = {
  r_name : string;
  r_calls : int;
  r_total_ns : float;
  r_min_ns : float;
  r_max_ns : float;
}

let r_avg_ns r = if r.r_calls = 0 then 0.0 else r.r_total_ns /. float_of_int r.r_calls

let rows_of (spans : Event.span list) : row list =
  let tbl : (string, row) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun sp ->
       let d = Event.duration_ns sp in
       let name = sp.Event.sp_name in
       match Hashtbl.find_opt tbl name with
       | None ->
         Hashtbl.replace tbl name
           { r_name = name; r_calls = 1; r_total_ns = d;
             r_min_ns = d; r_max_ns = d }
       | Some r ->
         Hashtbl.replace tbl name
           { r with
             r_calls = r.r_calls + 1;
             r_total_ns = r.r_total_ns +. d;
             r_min_ns = Float.min r.r_min_ns d;
             r_max_ns = Float.max r.r_max_ns d })
    spans;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare b.r_total_ns a.r_total_ns)

let pp_time ns =
  let abs = Float.abs ns in
  if abs >= 1e9 then Printf.sprintf "%.4fs" (ns /. 1e9)
  else if abs >= 1e6 then Printf.sprintf "%.3fms" (ns /. 1e6)
  else if abs >= 1e3 then Printf.sprintf "%.3fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

let section buf ~header rows =
  let total = List.fold_left (fun a r -> a +. r.r_total_ns) 0.0 rows in
  List.iteri
    (fun i r ->
       let pct = if total > 0.0 then 100.0 *. r.r_total_ns /. total else 0.0 in
       Buffer.add_string buf
         (Printf.sprintf "%20s  %6.2f%%  %9s  %5d  %9s  %9s  %9s  %s\n"
            (if i = 0 then header else "")
            pct (pp_time r.r_total_ns) r.r_calls (pp_time (r_avg_ns r))
            (pp_time r.r_min_ns) (pp_time r.r_max_ns) r.r_name))
    rows

let to_string ?(label = "oclcu") ?config (spans : Event.span list) : string =
  let gpu, api =
    List.partition (fun sp -> Event.is_gpu_activity sp.Event.sp_cat) spans
  in
  (* The API-call section reports top-level calls only: a wrapper span's
     nested target-API spans are its mechanism, not extra user-visible
     calls, and counting both would double-book the timeline.  The
     nested view lives in the amplification table. *)
  let api_ids = Hashtbl.create 256 in
  List.iter (fun sp -> Hashtbl.replace api_ids sp.Event.sp_id ()) api;
  let api_top =
    List.filter (fun sp -> not (Hashtbl.mem api_ids sp.Event.sp_parent)) api
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "==%s== Profiling result:\n" label);
  Option.iter
    (fun c -> Buffer.add_string buf ("Launch configuration: " ^ c ^ "\n"))
    config;
  Buffer.add_string buf
    (Printf.sprintf "%20s  %7s  %9s  %5s  %9s  %9s  %9s  %s\n" "Type"
       "Time(%)" "Time" "Calls" "Avg" "Min" "Max" "Name");
  if gpu <> [] then section buf ~header:"GPU activities:" (rows_of gpu);
  if api_top <> [] then section buf ~header:"API calls:" (rows_of api_top);
  if gpu = [] && api_top = [] then
    Buffer.add_string buf "  (no events recorded)\n";
  Buffer.contents buf

(* --- wrapper amplification -------------------------------------------

   For each wrapper-category span, count the API spans it directly
   encloses.  Returns (wrapper name, wrapper calls, total nested API
   calls, nested API call names with counts), sorted by fan-out. *)

type amplification = {
  a_wrapper : string;
  a_calls : int;                       (* wrapper invocations *)
  a_api_calls : int;                   (* nested API calls, all invocations *)
  a_breakdown : (string * int) list;   (* nested API name -> count *)
}

let fan_out a =
  if a.a_calls = 0 then 0.0
  else float_of_int a.a_api_calls /. float_of_int a.a_calls

let amplifications (spans : Event.span list) : amplification list =
  let wrappers = Hashtbl.create 32 in
  List.iter
    (fun sp ->
       if sp.Event.sp_cat = Event.Wrapper then
         Hashtbl.replace wrappers sp.Event.sp_id sp.Event.sp_name)
    spans;
  let acc : (string, int * (string, int) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let bump_calls name =
    let calls, kids =
      match Hashtbl.find_opt acc name with
      | Some v -> v
      | None -> (0, Hashtbl.create 8)
    in
    Hashtbl.replace acc name (calls + 1, kids)
  in
  let bump_child wname cname =
    let calls, kids =
      match Hashtbl.find_opt acc wname with
      | Some v -> v
      | None -> (0, Hashtbl.create 8)
    in
    Hashtbl.replace kids cname
      (1 + Option.value ~default:0 (Hashtbl.find_opt kids cname));
    Hashtbl.replace acc wname (calls, kids)
  in
  List.iter
    (fun sp ->
       if sp.Event.sp_cat = Event.Wrapper then bump_calls sp.Event.sp_name;
       if sp.Event.sp_cat = Event.Api then
         match Hashtbl.find_opt wrappers sp.Event.sp_parent with
         | Some wname -> bump_child wname sp.Event.sp_name
         | None -> ())
    spans;
  Hashtbl.fold
    (fun wname (calls, kids) out ->
       let breakdown =
         Hashtbl.fold (fun k v l -> (k, v) :: l) kids []
         |> List.sort (fun (_, a) (_, b) -> compare b a)
       in
       let api_calls = List.fold_left (fun a (_, n) -> a + n) 0 breakdown in
       { a_wrapper = wname; a_calls = calls; a_api_calls = api_calls;
         a_breakdown = breakdown }
       :: out)
    acc []
  |> List.sort (fun a b -> compare (fan_out b) (fan_out a))

let amplification_to_string (amps : amplification list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Wrapper amplification (source call -> target API calls):\n";
  if amps = [] then Buffer.add_string buf "  (no wrapper spans recorded)\n"
  else
    List.iter
      (fun a ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s %5d calls -> %5d API calls (x%.1f)\n"
              a.a_wrapper a.a_calls a.a_api_calls (fan_out a));
         List.iter
           (fun (name, n) ->
              Buffer.add_string buf (Printf.sprintf "      %5d  %s\n" n name))
           a.a_breakdown)
      amps;
  Buffer.contents buf

(* --- per-site attribution (oclcu prof --attribute) ------------------- *)

module Imap = Map.Make (Int)

let add_site (a : Metrics.site_counters) (b : Metrics.site_counters) =
  { a with
    Metrics.s_func = (if a.Metrics.s_func = "?" then b.Metrics.s_func else a.Metrics.s_func);
    s_snippet = (if a.Metrics.s_snippet = "?" then b.Metrics.s_snippet else a.Metrics.s_snippet);
    s_ops = a.Metrics.s_ops + b.Metrics.s_ops;
    s_ops_eliminated = a.Metrics.s_ops_eliminated + b.Metrics.s_ops_eliminated;
    s_gmem_transactions = a.Metrics.s_gmem_transactions + b.Metrics.s_gmem_transactions;
    s_gmem_bytes = a.Metrics.s_gmem_bytes + b.Metrics.s_gmem_bytes;
    s_smem_transactions = a.Metrics.s_smem_transactions + b.Metrics.s_smem_transactions;
    s_smem_conflict_extra = a.Metrics.s_smem_conflict_extra + b.Metrics.s_smem_conflict_extra;
    s_barriers = a.Metrics.s_barriers + b.Metrics.s_barriers;
    s_div_rows = a.Metrics.s_div_rows + b.Metrics.s_div_rows }

(* Sum every launch's per-site records into one table keyed by site id.
   Site ids are numbered program-wide, so summing across kernels of the
   same run never conflates two source statements. *)
let collect_sites (ms : Metrics.t list) : Metrics.site_counters list =
  let m =
    List.fold_left
      (fun acc (m : Metrics.t) ->
         List.fold_left
           (fun acc (s : Metrics.site_counters) ->
              Imap.update s.Metrics.s_site
                (function None -> Some s | Some prev -> Some (add_site prev s))
                acc)
           acc m.Metrics.m_sites)
      Imap.empty ms
  in
  List.map snd (Imap.bindings m)

(* weight for hot-spot ordering: every counted warp-level event *)
let site_weight (s : Metrics.site_counters) =
  s.Metrics.s_ops + s.Metrics.s_gmem_transactions
  + s.Metrics.s_smem_transactions + s.Metrics.s_barriers
  + s.Metrics.s_div_rows

let attribution_to_string (ms : Metrics.t list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Per-site attribution (events summed over launches):\n";
  let sites = collect_sites ms in
  if sites = [] then
    Buffer.add_string buf
      "  (no attributed launches; is --attribute on and did anything run?)\n"
  else begin
    (* "elim" is the per-site count of ops the IR middle-end removed:
       at every site, ops + elim equals the OCLCU_IR_PASSES=none ops
       column, so the delta against an unoptimized run needs no second
       profile. *)
    Buffer.add_string buf
      (Printf.sprintf "  %4s %-16s %10s %8s %9s %10s %9s %7s %6s %6s  %s\n"
         "Site" "Function" "ops" "elim" "gmem_txn" "gmem_B" "smem_txn" "cfl"
         "barr" "div" "Source");
    let sorted =
      List.sort (fun a b -> compare (site_weight b) (site_weight a)) sites
    in
    List.iter
      (fun (s : Metrics.site_counters) ->
         Buffer.add_string buf
           (Printf.sprintf "  %4d %-16s %10d %8d %9d %10d %9d %7d %6d %6d  %s\n"
              s.Metrics.s_site s.Metrics.s_func s.Metrics.s_ops
              s.Metrics.s_ops_eliminated
              s.Metrics.s_gmem_transactions s.Metrics.s_gmem_bytes
              s.Metrics.s_smem_transactions s.Metrics.s_smem_conflict_extra
              s.Metrics.s_barriers s.Metrics.s_div_rows s.Metrics.s_snippet))
      sorted
  end;
  Buffer.contents buf

(* --- translation cost diff (oclcu prof --diff) ----------------------- *)

let zero_sc id =
  { Metrics.s_site = id; s_func = "?"; s_snippet = "?"; s_ops = 0;
    s_ops_eliminated = 0; s_gmem_transactions = 0; s_gmem_bytes = 0;
    s_smem_transactions = 0; s_smem_conflict_extra = 0; s_barriers = 0;
    s_div_rows = 0 }

(* Native vs translated runs of the same source, aligned by origin site
   id (annotation is deterministic, so both sides number the same
   statements identically; site 0 exists only on the translated side and
   is the translator-injected overhead). *)
let diff_to_string ~(native : Metrics.t list)
    ~(translated : Metrics.t list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Translation cost diff (native -> translated, aligned by origin site):\n";
  let n_sites = collect_sites native and t_sites = collect_sites translated in
  if n_sites = [] && t_sites = [] then begin
    Buffer.add_string buf "  (no attributed launches on either side)\n";
    Buffer.contents buf
  end
  else begin
    let index l =
      List.fold_left
        (fun acc (s : Metrics.site_counters) -> Imap.add s.Metrics.s_site s acc)
        Imap.empty l
    in
    let nm = index n_sites and tm = index t_sites in
    let ids =
      Imap.merge (fun _ a b -> if a = None && b = None then None else Some ())
        nm tm
      |> Imap.bindings |> List.map fst
    in
    Buffer.add_string buf
      (Printf.sprintf "  %4s %-16s %17s %17s %17s %11s %11s  %s\n"
         "Site" "Function" "ops" "gmem_txn" "smem_txn" "cfl" "div" "Source");
    let cell n t =
      if n = t then Printf.sprintf "%d" n
      else Printf.sprintf "%d->%d" n t
    in
    let changed = ref 0 in
    List.iter
      (fun id ->
         let n = Option.value (Imap.find_opt id nm) ~default:(zero_sc id) in
         let t = Option.value (Imap.find_opt id tm) ~default:(zero_sc id) in
         let differs =
           n.Metrics.s_ops <> t.Metrics.s_ops
           || n.Metrics.s_gmem_transactions <> t.Metrics.s_gmem_transactions
           || n.Metrics.s_smem_transactions <> t.Metrics.s_smem_transactions
           || n.Metrics.s_smem_conflict_extra <> t.Metrics.s_smem_conflict_extra
           || n.Metrics.s_div_rows <> t.Metrics.s_div_rows
         in
         if differs then begin
           incr changed;
           let best a b = if a = "?" then b else a in
           Buffer.add_string buf
             (Printf.sprintf "  %4d %-16s %17s %17s %17s %11s %11s  %s\n"
                id
                (best n.Metrics.s_func t.Metrics.s_func)
                (cell n.Metrics.s_ops t.Metrics.s_ops)
                (cell n.Metrics.s_gmem_transactions t.Metrics.s_gmem_transactions)
                (cell n.Metrics.s_smem_transactions t.Metrics.s_smem_transactions)
                (cell n.Metrics.s_smem_conflict_extra t.Metrics.s_smem_conflict_extra)
                (cell n.Metrics.s_div_rows t.Metrics.s_div_rows)
                (best n.Metrics.s_snippet t.Metrics.s_snippet))
         end)
      ids;
    if !changed = 0 then
      Buffer.add_string buf "  (no per-site differences)\n";
    (* overhead share: what fraction of the translated run's events the
       translator-injected code accounts for *)
    (match Imap.find_opt 0 tm with
     | Some o ->
       let tot f = List.fold_left (fun a s -> a + f s) 0 t_sites in
       let pct part whole =
         if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
       in
       Buffer.add_string buf
         (Printf.sprintf
            "  Translation overhead (site 0): ops %d (%.1f%% of translated), gmem_txn %d (%.1f%%), smem_txn %d (%.1f%%)\n"
            o.Metrics.s_ops
            (pct o.Metrics.s_ops (tot (fun s -> s.Metrics.s_ops)))
            o.Metrics.s_gmem_transactions
            (pct o.Metrics.s_gmem_transactions
               (tot (fun s -> s.Metrics.s_gmem_transactions)))
            o.Metrics.s_smem_transactions
            (pct o.Metrics.s_smem_transactions
               (tot (fun s -> s.Metrics.s_smem_transactions))))
     | None ->
       Buffer.add_string buf "  Translation overhead (site 0): none recorded\n");
    Buffer.contents buf
  end

(* --- pool telemetry --------------------------------------------------- *)

let pool_to_string (ms : Metrics.t list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Pool telemetry (per kernel):\n";
  if ms = [] then Buffer.add_string buf "  (no kernel launches recorded)\n"
  else begin
    (* group launches by kernel name, preserving first-seen order *)
    let order = ref [] in
    let tbl : (string, Metrics.t list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (m : Metrics.t) ->
         match Hashtbl.find_opt tbl m.Metrics.m_kernel with
         | Some r -> r := m :: !r
         | None ->
           Hashtbl.replace tbl m.Metrics.m_kernel (ref [ m ]);
           order := m.Metrics.m_kernel :: !order)
      ms;
    List.iter
      (fun name ->
         let launches = List.rev !(Hashtbl.find tbl name) in
         let n = List.length launches in
         let count p = List.length (List.filter p launches) in
         let seq = count (fun m -> m.Metrics.m_outcome = "seq") in
         let par =
           count (fun m ->
               String.length m.Metrics.m_outcome >= 4
               && String.sub m.Metrics.m_outcome 0 4 = "par:")
         in
         let replays =
           List.filter_map
             (fun (m : Metrics.t) ->
                if String.length m.Metrics.m_outcome >= 7
                && String.sub m.Metrics.m_outcome 0 7 = "replay:"
                then
                  Some
                    (String.sub m.Metrics.m_outcome 7
                       (String.length m.Metrics.m_outcome - 7))
                else None)
             launches
         in
         (* element-wise sum of per-worker block counts *)
         let dist =
           List.fold_left
             (fun acc (m : Metrics.t) ->
                let wb = Array.of_list m.Metrics.m_worker_blocks in
                let n = max (Array.length acc) (Array.length wb) in
                Array.init n (fun i ->
                    (if i < Array.length acc then acc.(i) else 0)
                    + (if i < Array.length wb then wb.(i) else 0)))
             [||] launches
         in
         let total = Array.fold_left ( + ) 0 dist in
         let peak = Array.fold_left max 0 dist in
         let util =
           if peak = 0 || Array.length dist = 0 then 100.0
           else
             100.0 *. float_of_int total
             /. float_of_int (peak * Array.length dist)
         in
         Buffer.add_string buf
           (Printf.sprintf
              "  %-22s launches=%d seq=%d par=%d replayed=%d blocks=[%s] utilization=%.0f%%\n"
              name n seq par (List.length replays)
              (String.concat " "
                 (Array.to_list (Array.map string_of_int dist)))
              util);
         List.iter
           (fun why ->
              Buffer.add_string buf (Printf.sprintf "      replay cause: %s\n" why))
           (List.sort_uniq compare replays))
      (List.rev !order)
  end;
  Buffer.contents buf

(* --- per-kernel metrics table ---------------------------------------- *)

let metrics_to_string (ms : Metrics.t list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Kernel metrics:\n";
  if ms = [] then Buffer.add_string buf "  (no kernel launches recorded)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "  %-22s %-10s %-7s %6s %6s %9s %11s %11s %9s %10s\n"
         "Kernel" "Framework" "Addr" "Block" "Occ" "Limit" "gmem_txn"
         "smem_txn" "conflicts" "Time");
    List.iter
      (fun (m : Metrics.t) ->
         Buffer.add_string buf
           (Printf.sprintf
              "  %-22s %-10s %-7s %6d %6.3f %9s %11d %11d %9d %10s\n"
              m.Metrics.m_kernel m.Metrics.m_framework m.Metrics.m_addressing
              m.Metrics.m_block_threads m.Metrics.m_occupancy
              m.Metrics.m_limited_by m.Metrics.m_gmem_transactions
              m.Metrics.m_smem_transactions
              m.Metrics.m_smem_bank_conflict_extra
              (pp_time m.Metrics.m_sim_ns)))
      ms
  end;
  Buffer.contents buf

(* The global trace sink.

   Disabled (the default) every probe is a single mutable-bool check, so
   instrumentation can stay unconditionally compiled into the hot paths.
   Enabled, completed spans land in a bounded ring buffer (drop-oldest)
   and per-launch metrics in a bounded list; a mutex makes the sink safe
   under the simulator's effect-based schedulers and any future domains.

   Timestamps: the simulated clock lives in each `Gpusim.Device` and
   restarts at zero for every fresh device, while one profiling session
   may span several runs (native vs wrapped, for `oclcu prof`'s
   comparisons).  [stamp] rebases each clock reset onto the end of the
   previous epoch so the recorded timeline stays monotone — which the
   Chrome exporter and the qcheck property both rely on. *)

type state = {
  mutable capacity : int;              (* ring capacity, power of two not required *)
  mutable ring : Event.span option array;
  mutable head : int;                  (* next write slot *)
  mutable count : int;                 (* completed spans currently held *)
  mutable dropped : int;               (* completed spans evicted *)
  mutable record_spans : bool;         (* false = metrics-only mode *)
  mutable next_id : int;
  mutable stack : (int * int * Event.cat * string * float * float
                   * (string * string) list) list;
  (* (id, depth, cat, name, t0, wall0, args) for open spans *)
  mutable metrics : Metrics.t list;    (* newest first *)
  mutable metrics_count : int;
  mutable metrics_dropped : int;
  (* monotone rebasing of the simulated clock *)
  mutable last_raw : float;
  mutable offset : float;
  mutable last_emitted : float;
}

let default_capacity = 1 lsl 16
let metrics_capacity = 1 lsl 14

let st = {
  capacity = default_capacity;
  ring = [||];
  head = 0;
  count = 0;
  dropped = 0;
  record_spans = true;
  next_id = 0;
  stack = [];
  metrics = [];
  metrics_count = 0;
  metrics_dropped = 0;
  last_raw = 0.0;
  offset = 0.0;
  last_emitted = 0.0;
}

let enabled = ref false
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* The clock used by probes that have no device in hand (translator
   passes).  Device layers register theirs on creation, so a translation
   performed inside a device-side build lands on that device's simulated
   timeline. *)
let default_clock = ref (fun () -> 0.0)
let set_default_clock f = default_clock := f
let default_now () = !default_clock ()

(* Host wall-clock ns on a monotonic clock: the span's real duration,
   whatever the number of domains running meanwhile. *)
let wall_ns () = Int64.to_float (Monotonic_clock.now ())

(* Rebase a raw simulated timestamp onto the sink's monotone timeline.
   Call with the lock held. *)
let stamp raw =
  if raw < st.last_raw then st.offset <- st.last_emitted;
  st.last_raw <- raw;
  let t = Float.max (raw +. st.offset) st.last_emitted in
  st.last_emitted <- t;
  t

let enable ?(capacity = default_capacity) ?(spans = true) () =
  with_lock (fun () ->
      let capacity = max 16 capacity in
      st.capacity <- capacity;
      st.ring <- Array.make capacity None;
      st.head <- 0;
      st.count <- 0;
      st.dropped <- 0;
      st.record_spans <- spans;
      st.next_id <- 0;
      st.stack <- [];
      st.metrics <- [];
      st.metrics_count <- 0;
      st.metrics_dropped <- 0;
      st.last_raw <- 0.0;
      st.offset <- 0.0;
      st.last_emitted <- 0.0;
      enabled := true)

let disable () = with_lock (fun () -> enabled := false)

let is_enabled () = !enabled

(* Drop recorded data but keep recording; used between the runs of one
   profiling session when each run should be exported separately. *)
let clear () =
  with_lock (fun () ->
      if Array.length st.ring > 0 then Array.fill st.ring 0 (Array.length st.ring) None;
      st.head <- 0;
      st.count <- 0;
      st.dropped <- 0;
      st.stack <- [];
      st.metrics <- [];
      st.metrics_count <- 0;
      st.metrics_dropped <- 0)

let push_span sp =
  if Array.length st.ring = 0 then st.ring <- Array.make st.capacity None;
  if st.ring.(st.head) <> None then begin
    st.dropped <- st.dropped + 1;
    st.count <- st.count - 1
  end;
  st.ring.(st.head) <- Some sp;
  st.head <- (st.head + 1) mod Array.length st.ring;
  st.count <- st.count + 1

(* Begin a span.  Returns the span id, or 0 when the sink is disabled
   (the id is only ever handed back to [span_end], which treats 0 as a
   no-op, so the disabled path costs one bool load). *)
let span_begin ?(cat = Event.Api) ~name ?(args = []) ~sim_ns () =
  if not !enabled then 0
  else
    with_lock (fun () ->
        if not (!enabled && st.record_spans) then 0
        else begin
          st.next_id <- st.next_id + 1;
          let id = st.next_id in
          let depth = List.length st.stack in
          let t0 = stamp sim_ns in
          st.stack <- (id, depth, cat, name, t0, wall_ns (), args) :: st.stack;
          id
        end)

let span_end id ~sim_ns =
  if id <> 0 && !enabled then
    with_lock (fun () ->
        (* Close every span opened after [id] too: an exception may have
           unwound past their span_end calls. *)
        let t1 = stamp sim_ns in
        let w1 = wall_ns () in
        let rec close = function
          | [] -> []
          | (id', depth, cat, name, t0, w0, args) :: rest ->
            let parent =
              match rest with (p, _, _, _, _, _, _) :: _ -> p | [] -> 0
            in
            push_span
              { Event.sp_id = id'; sp_parent = parent; sp_depth = depth;
                sp_cat = cat; sp_name = name;
                sp_t0 = t0; sp_t1 = Float.max t0 t1;
                sp_wall0 = w0; sp_wall1 = Float.max w0 w1;
                sp_args = args };
            if id' = id then rest else close rest
        in
        if List.exists (fun (id', _, _, _, _, _, _) -> id' = id) st.stack then
          st.stack <- close st.stack)

let with_span ?cat ~name ?args ?clock f =
  if not !enabled then f ()
  else begin
    let now = match clock with Some c -> c | None -> default_now in
    let id = span_begin ?cat ~name ?args ~sim_ns:(now ()) () in
    Fun.protect ~finally:(fun () -> span_end id ~sim_ns:(now ())) f
  end

let add_metrics m =
  if !enabled then
    with_lock (fun () ->
        if st.metrics_count >= metrics_capacity then begin
          (* Keep the newest records; evictions only matter for sweeps
             far larger than any single profiled run. *)
          st.metrics <- List.filteri (fun i _ -> i < metrics_capacity / 2) st.metrics;
          st.metrics_dropped <- st.metrics_dropped + (st.metrics_count - metrics_capacity / 2);
          st.metrics_count <- metrics_capacity / 2
        end;
        st.metrics <- m :: st.metrics;
        st.metrics_count <- st.metrics_count + 1)

(* Completed spans in begin order (sp_id ascending). *)
let events () =
  with_lock (fun () ->
      let n = Array.length st.ring in
      let out = ref [] in
      for i = 0 to n - 1 do
        (* Oldest entries sit at [head] once the ring has wrapped. *)
        match st.ring.((st.head + i) mod n) with
        | Some sp -> out := sp :: !out
        | None -> ()
      done;
      List.sort (fun a b -> compare a.Event.sp_id b.Event.sp_id) (List.rev !out))

let metrics () = with_lock (fun () -> List.rev st.metrics)

let dropped_spans () = with_lock (fun () -> st.dropped)
let dropped_metrics () = with_lock (fun () -> st.metrics_dropped)

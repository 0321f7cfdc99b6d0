(* Persistent domain pool for block-parallel kernel execution.

   Helper domains are spawned lazily the first time a job needs them and
   then parked on a condition variable between jobs, so repeated
   launches pay no spawn cost.  The pool never shrinks and is never
   joined: parked helpers hold no resources beyond their stacks, and
   process exit tears them down.

   A job is one function [f : worker index -> unit] fanned out over a
   requested number of workers.  Worker 0 always runs on the calling
   domain — a 1-worker job is a plain call — so the pool only ever hosts
   [workers - 1] helpers of any job.  Exceptions escaping a worker are
   collected and one of them is re-raised on the caller after every
   worker has finished (callers that need finer reporting catch inside
   [f]). *)

type t = {
  submit : Mutex.t;         (* held by the domain whose job is running *)
  m : Mutex.t;
  work : Condition.t;       (* a new job generation was published *)
  idle : Condition.t;       (* all helpers finished the current job *)
  mutable helpers : int;    (* helper domains spawned so far *)
  mutable gen : int;        (* job generation counter *)
  mutable job : (int -> unit) option;  (* helper index -> work *)
  mutable busy : int;       (* helpers still inside the current job *)
  mutable failures : exn list;
}

let create () =
  { submit = Mutex.create ();
    m = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    helpers = 0;
    gen = 0;
    job = None;
    busy = 0;
    failures = [] }

let rec helper_loop p i last_gen =
  Mutex.lock p.m;
  while p.gen = last_gen do
    Condition.wait p.work p.m
  done;
  let gen = p.gen in
  let job = p.job in
  Mutex.unlock p.m;
  (match job with
   | None -> ()
   | Some f ->
     (try f i with
      | e ->
        Mutex.lock p.m;
        p.failures <- e :: p.failures;
        Mutex.unlock p.m));
  Mutex.lock p.m;
  p.busy <- p.busy - 1;
  if p.busy = 0 then Condition.signal p.idle;
  Mutex.unlock p.m;
  helper_loop p i gen

(* Spawn helpers up to [n]; existing ones are reused.  Called with the
   pool quiescent (under [submit]). *)
let ensure p n =
  Mutex.lock p.m;
  while p.helpers < n do
    let i = p.helpers in
    let gen = p.gen in
    p.helpers <- p.helpers + 1;
    ignore (Domain.spawn (fun () -> helper_loop p i gen))
  done;
  Mutex.unlock p.m

(* The job slot, the busy count and the failure list belong to the
   pool, so jobs from different domains (concurrent launches) must not
   overlap: a submitter could otherwise see another job's helpers
   report in and return while one of its own workers still runs.
   [submit] serialises them. *)
let run p ~workers (f : int -> unit) =
  if workers <= 1 then f 0
  else begin
    Mutex.lock p.submit;
    Fun.protect ~finally:(fun () -> Mutex.unlock p.submit) @@ fun () ->
    let extra = workers - 1 in
    ensure p extra;
    Mutex.lock p.m;
    (* every parked helper wakes; those beyond [extra] no-op but still
       report in, keeping the busy count a plain helper count *)
    p.job <- Some (fun i -> if i < extra then f (i + 1));
    p.failures <- [];
    p.busy <- p.helpers;
    p.gen <- p.gen + 1;
    Condition.broadcast p.work;
    Mutex.unlock p.m;
    let own = (try f 0; None with e -> Some e) in
    Mutex.lock p.m;
    while p.busy > 0 do
      Condition.wait p.idle p.m
    done;
    p.job <- None;
    let fails = p.failures in
    Mutex.unlock p.m;
    match own, fails with
    | Some e, _ | None, e :: _ -> raise e
    | None, [] -> ()
  end

(* Content-hash caches for the run-time build pipelines.

   The paper's Figure-2 path (clBuildProgram -> translate -> compile ->
   cuModuleLoad) rebuilds identical sources from scratch on every
   context; benchmarks and CLI runs hit it with the same kernels over
   and over.  A cache entry is keyed by an MD5 digest of the source
   text, so a hit costs one hash of the input instead of a parse or a
   translation.

   Caches only save wall-clock time: callers still charge the simulated
   build/translate nanoseconds and still materialise per-context device
   state on a hit, so figure shapes are unchanged.

   Hits and misses are counted per cache and surfaced two ways: as
   zero-length Build spans ("<name> [cache hit]") visible in `oclcu
   prof` summaries, and through [all_stats] for the CLI's build-cache
   report line. *)

type stats = { mutable hits : int; mutable misses : int }

type 'a t = {
  name : string;
  tbl : (string, 'a) Hashtbl.t;
  stats : stats;
}

(* Global registry of (name, stats) so reporting needs no access to the
   heterogeneous caches themselves. *)
let registry : (string * stats) list ref = ref []

let create name =
  let stats = { hits = 0; misses = 0 } in
  registry := !registry @ [ (name, stats) ];
  { name; tbl = Hashtbl.create 16; stats }

let key src = Digest.string src

(* [find_or_build c ~key build] returns the cached value for [key], or
   runs [build ()] and caches its result.  Exceptions from [build] are
   not cached: a failing build re-runs (and re-fails) like an uncached
   one. *)
let find_or_build c ~key:k build =
  match Hashtbl.find_opt c.tbl k with
  | Some v ->
    c.stats.hits <- c.stats.hits + 1;
    Sink.with_span ~cat:Event.Build ~name:(c.name ^ " [cache hit]") (fun () -> v)
  | None ->
    c.stats.misses <- c.stats.misses + 1;
    let v =
      Sink.with_span ~cat:Event.Build ~name:(c.name ^ " [cache miss]") build
    in
    Hashtbl.replace c.tbl k v;
    v

(* Keyed directly by source text. *)
let memo c src build = find_or_build c ~key:(key src) build

let clear c =
  Hashtbl.reset c.tbl;
  c.stats.hits <- 0;
  c.stats.misses <- 0

let stats c = (c.stats.hits, c.stats.misses)

(* (name, hits, misses) for every cache created so far, creation order. *)
let all_stats () =
  List.map (fun (n, s) -> (n, s.hits, s.misses)) !registry

(** Persistent domain pool for block-parallel kernel execution.

    Helper domains spawn lazily, park between jobs, and live for the
    process.  One job at a time: jobs submitted from several domains
    at once run one after another. *)

type t

val create : unit -> t

(** [run p ~workers f] runs [f 0 .. f (workers-1)] concurrently and
    returns when all have finished.  [f 0] runs on the calling domain;
    with [workers <= 1] no helper is involved at all.  If any worker
    raised, one of the exceptions is re-raised after the join. *)
val run : t -> workers:int -> (int -> unit) -> unit

(** The worker side of the protocol: a blocking serve loop over a pair
    of file descriptors (the coordinator wires a socketpair end to the
    worker's stdin and stdout, so [asmsim work] passes exactly those).

    A worker is stateless between shards and owns nothing durable: it
    builds its plan from the [Hello] job, computes whatever index
    ranges it is assigned, and ships plain-data results. Killing one at
    any instant loses nothing but the in-flight shard, which the
    coordinator reassigns — that is the whole point. *)

type explore = {
  params : Proto.explore_params;
  make : unit -> Svm.Env.t * Svm.Univ.t Svm.Prog.t array;
  property : Svm.Univ.t Svm.Explore.run -> (unit, string) result;
}
(** An explore job, resolved: one cell, run whole by
    {!Svm.Explore.exhaustive} at one domain — the serial DFS, so its
    result needs no rerun anywhere. Cheap to build: nothing is explored
    until the cell runs. *)

type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of explore

val cells_of_instance : instance -> int
(** Dispatch units in the instance's plan — what [Hello_ok] reports. *)

val compute_shard :
  instance -> lo:int -> hi:int -> tick:(int -> unit) -> Svm.Json.t
(** Compute the wire payload for cells [lo, hi): the verdict-tag string
    of a sweep, or the {!Proto.explore_summary} of an explore's one
    cell. Transport-free — [tick completed] fires every few sweep cells
    or every few tenths of a second of an explore so the caller can
    emit progress heartbeats and poll its own control channel (it may
    raise to abandon the shard). Runs a full major collection before
    returning, so a long-lived worker's footprint stays that of one
    shard. Shared by the socketpair serve loop below and the TCP
    {!Client}. *)

val serve :
  lookup:(Proto.job -> (instance, string) result) ->
  Unix.file_descr ->
  Unix.file_descr ->
  int
(** [serve ~lookup in_fd out_fd] speaks the protocol until shutdown and
    returns the process exit code: 0 on a clean [Shutdown] (or the
    coordinator closing the connection — an orphaned worker must die,
    not linger), 2 on a protocol violation or a job that [lookup]
    rejects, 3 on an internal error. [lookup] is injected so this
    library needs no knowledge of the scenario registry (the CLI passes
    the experiments-layer resolver).

    Long shards stay observable: every few cells (or tenths of a second
    of an explore) the worker emits a [Progress] heartbeat — which
    re-arms the shard's deadline — and polls for control frames,
    answering [Ping] and honouring [Shutdown] mid-shard. *)

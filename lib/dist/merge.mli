(** Fold wire payloads back into final outcomes.

    Shared by every executor — the fork coordinator, the TCP client —
    so that outcomes are byte-identical to a single-process run no
    matter which transport carried the shards.

    A sweep folds per-shard payloads through the exact in-process merge
    ({!Svm.Explore.sweep_merge}): [payloads.(shard)] is the validated
    payload for that shard, or [None] if it never arrived (e.g. past a
    sweep's finding cut); missing or partial cells recompute locally,
    which is deterministic either way.

    An explore is one cell run whole by one worker at one domain, so
    its payload already {e is} the in-process result: only the
    counterexample's run record is rebuilt, by executing its schedule
    once ({!Svm.Explore.run_of_schedule}). *)

val sweep :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  'a Svm.Explore.sweep_plan ->
  shard_size:int ->
  payloads:Svm.Json.t option array ->
  Svm.Explore.sweep_outcome

val explore :
  ?metrics:Svm.Metrics.t ->
  Worker.explore ->
  payloads:Svm.Json.t option array ->
  (Svm.Univ.t Svm.Explore.result, string) result
(** [payloads] holds the job's one shard. The worker's deterministic
    counters are folded into [metrics]. [Error] when the payload is
    missing or undecodable, or its counterexample does not replay to
    the reported run and rejection. *)

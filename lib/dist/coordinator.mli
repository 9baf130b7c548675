(** The coordinator: fork workers, deal shards, survive their deaths,
    merge deterministically.

    The coordinator re-execs the worker binary [config.exe] with the
    single argument [work], wiring one socketpair end to the child's
    stdin and stdout, and drives all workers from a single
    [Unix.select] loop. A sweep is dealt as shards — contiguous index
    ranges of the shared {!Svm.Explore.sweep_plan} — and results are
    merged strictly in index order by the {e same} merge function the
    in-process path uses ({!Svm.Explore.sweep_merge}). An explore is one
    cell that one worker runs whole, with the in-process engine at one
    domain. Either way the outcome is bit-for-bit identical to a
    [--jobs] run no matter how chaotically workers die.

    Failure handling, in escalating order:
    - a worker silent past half the heartbeat timeout is pinged; past
      the full timeout it is SIGKILLed;
    - a shard whose worker sends no [Progress] for [shard_timeout]
      gets its worker SIGKILLed (each heartbeat re-arms the deadline,
      so a long explore that keeps running is never shot);
    - a dead worker's shard goes back in the queue with exponential
      backoff, and a replacement worker is forked;
    - a shard that has killed [max_retries + 1] workers is declared
      {e hostile} and the run aborts with a typed error — it is
      reported, never retried forever.

    With a journal enabled, every completed shard is flushed to an
    append-only log before it is acknowledged, so a coordinator killed
    at any instant can be resumed by job id without re-running finished
    shards. *)

type config = {
  workers : int;  (** worker processes to keep alive *)
  shard_size : int option;  (** cells per shard; [None] = derived *)
  shard_timeout : float;
      (** seconds without progress before a shard's worker is shot *)
  heartbeat_timeout : float;  (** seconds of silence before death *)
  max_retries : int;  (** failed attempts tolerated per shard *)
  backoff : float;  (** base reassignment delay, doubled per failure *)
  exe : string;  (** worker binary, re-exec'd as [exe work] *)
  journal_dir : string option;  (** [Some dir] enables the journal *)
  resume : string option;  (** job id to resume (needs [journal_dir]) *)
  chaos_kill_shard : (int * int) option;
      (** test hook: [(shard, n)] SIGKILLs the assigned worker the
          first [n] times that shard is dealt out *)
  stop_after_shards : int option;
      (** test hook: suspend after that many results this session *)
  log : Svm.Log.t;
      (** leveled diagnostics: worker deaths and requeues at [Warn],
          lifecycle at [Info] *)
}

val default_config : ?workers:int -> ?exe:string -> unit -> config
(** Defaults: 2 workers, derived shard size, 120 s shard timeout, 20 s
    heartbeat, 2 retries, 50 ms backoff, [Sys.executable_name], no
    journal, no chaos. *)

type stats = {
  job_id : string option;
  shards : int;
  shard_size : int;
  resumed : int;  (** shards restored from the journal *)
  executed : int;  (** shard results received this session *)
  spawned : int;  (** workers forked, including replacements *)
  killed : int;  (** workers SIGKILLed (timeouts, chaos) *)
  reassigned : int;  (** shard attempts lost to worker deaths *)
}

type 'a outcome =
  | Complete of 'a
  | Suspended of string
      (** stopped early ([stop_after_shards]); the string is the job id
          to pass back as [resume] *)

val sweep :
  ?metrics:Svm.Metrics.t ->
  ?on_progress:(runs:int -> unit) ->
  config ->
  job:Proto.job ->
  plan:Svm.Univ.t Svm.Explore.sweep_plan ->
  unit ->
  (Svm.Explore.sweep_outcome outcome * stats, string) result
(** Distribute the sweep's cells. [plan] must be the expansion of [job]
    — the workers rebuild exactly it from the [Hello]; the coordinator
    cross-checks cell counts and aborts on mismatch. Violating cells
    come back as bare tags; the coordinator re-runs the first one
    locally inside {!Svm.Explore.sweep_merge} to recover the violation,
    shrink it and write the replay artifact, so those artifacts are
    byte-identical to an in-process run's. *)

val explore :
  ?metrics:Svm.Metrics.t ->
  config ->
  job:Proto.job ->
  explore:Worker.explore ->
  unit ->
  (Svm.Univ.t Svm.Explore.result outcome * stats, string) result
(** Run the exploration as one cell on one worker; its summary folds
    back through {!Merge.explore}, which rebuilds the counterexample's
    run record from its schedule. A SIGKILLed worker's cell re-runs
    from scratch on a replacement, with the same result. *)

(** Message vocabulary of the coordinator/worker protocol.

    The protocol leans entirely on determinism: a job description names
    a scenario plus the sweep/explore parameters, and {e both} sides
    independently expand it (planning is a pure function of the
    parameters). Nothing structural ever crosses the wire — a shard is
    a half-open index range into the shared plan, and a shard result is
    the minimal plain data the coordinator needs. A sweep is one cell
    per {!Svm.Explore.sweep_plan} entry, and its shard payload one
    verdict tag per cell; violations and replay artifacts are never
    serialized — the coordinator re-runs the single finding cell
    locally. An explore is {e one} cell, run whole by one worker; its
    payload is one {!explore_summary}, whose counterexample travels as
    its schedule string and is rebuilt by executing that one
    schedule.

    All decoders are total and return [result] — worker input is wire
    bytes from an arbitrary peer. *)

type sweep_params = {
  sw_tiers : string list;  (** fault kind names ({!Svm.Adversary}) *)
  sw_max_faults : int;
  sw_op_window : int;
  sw_max_runs : int;
  sw_budget : int option;
}

type explore_params = {
  ex_max_steps : int;
  ex_max_crashes : int;
  ex_max_runs : int;
  ex_dedup : bool;
}

type mode = Sweep of sweep_params | Explore of explore_params

type job = {
  scenario : string;  (** registered scenario name *)
  nprocs : int option;  (** process-count override, already resolved *)
  source : string option;
      (** DSL scenario source (protocol v3): when present, both sides
          compile the job from it instead of the builtin registry. The
          declared scenario name must match [scenario]. Size-capped at
          {!max_source_bytes} by the decoder. *)
  mode : mode;
}

val max_source_bytes : int
(** Decoder cap on [job.source] (equal to [Sdl.Compile.max_source_bytes]). *)

val job_to_json : job -> Svm.Json.t
val job_of_json : Svm.Json.t -> (job, string) result

val job_fingerprint : job -> string
(** Canonical one-line encoding, used to match a [--resume] request
    against the job recorded in a journal. *)

(** {1 Messages} *)

type to_worker =
  | Hello of job  (** first frame; the worker builds its plan from it *)
  | Assign of { shard : int; lo : int; hi : int }
      (** compute cells [lo..hi-1] of the plan *)
  | Ping  (** liveness probe; answer [Pong] even mid-shard *)
  | Shutdown  (** exit cleanly *)

type from_worker =
  | Hello_ok of { cells : int }
      (** plan built; [cells] must match the coordinator's own count —
          a mismatch means the two sides computed different plans and
          determinism is broken, so the coordinator aborts *)
  | Hello_err of string  (** the job does not resolve to a plan *)
  | Pong
  | Progress of { shard : int; completed : int }
      (** heartbeat emitted every few cells of a long sweep shard, and
          every few tenths of a second of an explore ([completed] is
          then its runs so far); it re-arms the shard's deadline *)
  | Result of { shard : int; payload : Svm.Json.t }

val to_worker_to_json : to_worker -> Svm.Json.t
val to_worker_of_json : Svm.Json.t -> (to_worker, string) result
val from_worker_to_json : from_worker -> Svm.Json.t
val from_worker_of_json : Svm.Json.t -> (from_worker, string) result

(** {1 Shard payload codecs} *)

val tag_of_verdict : Svm.Explore.verdict -> char
(** ['C'] clean, ['D'] deadlocked, ['V'] violating. A sweep shard's
    payload is the string of tags for its cell range; the violation
    payload itself stays behind — the coordinator re-runs the cell. *)

val verdict_tag_ok : char -> bool

type explore_cex = {
  cx_message : string;  (** the property's rejection *)
  cx_schedule : string;  (** the run's choice sequence *)
  cx_crashed : int list;
  cx_truncated : bool;
}

type explore_summary = {
  xs_explored : int;
  xs_truncated : int;  (** runs cut by the depth bound *)
  xs_pruned_states : int;
  xs_pruned_commutes : int;
  xs_pruned_source : int;
  xs_exhausted : bool;
  xs_cex : explore_cex option;
  xs_metrics : Svm.Metrics.t;
      (** the worker's deterministic explore counters, folded into the
          submitter's registry with {!Svm.Metrics.merge} *)
}
(** Everything an explore job's single cell reports: its
    {!Svm.Explore.result} minus the counterexample's outcomes, which
    cannot travel (they are arbitrary values) and are rebuilt by
    {!Svm.Explore.run_of_schedule}. *)

val explore_summary_to_json : explore_summary -> Svm.Json.t
val explore_summary_of_json : Svm.Json.t -> (explore_summary, string) result

(** {1 Shard payload validation}

    Total validators over wire payloads, shared by the fork coordinator
    and the TCP job queue. [Ok (Some i)] reports the absolute index of
    the first merge-stopping finding inside the shard. *)

val check_sweep_payload :
  lo:int -> hi:int -> Svm.Json.t -> (int option, string) result

val check_explore_payload :
  lo:int -> hi:int -> Svm.Json.t -> (int option, string) result
(** The one cell [\[0, 1)] of an explore job, carrying one decodable
    {!explore_summary}; never a cut. *)

(** {1 Network handshake}

    The first frame on any TCP connection, in either direction of
    dialing: the connecting side introduces itself with magic, protocol
    version, role and its registry fingerprint; the server answers
    [Welcome] or a typed [Rejected] and closes. A peer that speaks
    anything else — or nothing, past the handshake deadline — is cut
    without ever touching a job. *)

val net_magic : string
val net_version : int

type role = Worker_role | Client_role

val role_name : role -> string

type hello = {
  h_version : int;
  h_role : role;
  h_fingerprint : string;
      (** scenario-registry fingerprint: both sides must expand a job
          into the identical plan, so a worker built against a
          different registry is rejected at the door instead of
          breaking determinism mid-job *)
}

val hello_to_json : hello -> Svm.Json.t
val hello_of_json : Svm.Json.t -> (hello, string) result

type welcome = Welcome | Rejected of string

val welcome_to_json : welcome -> Svm.Json.t
val welcome_of_json : Svm.Json.t -> (welcome, string) result

(** {1 Network worker session}

    Like the socketpair protocol, but job-tagged: a TCP worker serves
    many jobs over one connection, opening each on first assignment. *)

type net_to_worker =
  | Nw_job of { jid : string; job : job }
      (** expand this job; reply [Nf_job_ok] with the plan size *)
  | Nw_assign of { jid : string; shard : int; lo : int; hi : int }
  | Nw_ping
  | Nw_shutdown

type net_from_worker =
  | Nf_job_ok of { jid : string; cells : int }
  | Nf_job_err of { jid : string; msg : string }
  | Nf_pong of { metrics : Svm.Json.t option }
      (** v2: a pong may piggyback the worker's {!Svm.Metrics} snapshot,
          so the server aggregates fleet telemetry on the heartbeat
          cadence it already pays for — no extra frames, no extra
          timers, and a silent worker's staleness is visible as a
          missing push *)
  | Nf_progress of { jid : string; shard : int; completed : int }
  | Nf_result of { jid : string; shard : int; payload : Svm.Json.t }

val net_to_worker_to_json : net_to_worker -> Svm.Json.t
val net_to_worker_of_json : Svm.Json.t -> (net_to_worker, string) result
val net_from_worker_to_json : net_from_worker -> Svm.Json.t
val net_from_worker_of_json : Svm.Json.t -> (net_from_worker, string) result

(** {1 Network client session}

    A client submits one fully-resolved job (optionally resuming a
    journalled job id) and then receives every completed shard payload
    — journal-restored ones first — followed by a terminal [Sc_done],
    [Sc_failed] or [Sc_draining]. The client merges locally with the
    same {!Svm.Explore} merge the in-process path uses, which is what
    makes its stdout and artifacts byte-identical. *)

type client_to_server =
  | Cs_submit of { job : job; resume : string option }
  | Cs_stats
      (** v2: ask for the live stats document; answered immediately
          with {!Sc_stats} without disturbing running jobs *)
  | Cs_pong

type server_to_client =
  | Sc_accepted of { jid : string; cells : int; shard_size : int }
  | Sc_rejected of string
  | Sc_shard of { shard : int; payload : Svm.Json.t }
  | Sc_done of { executed : int; resumed : int }
  | Sc_failed of string
  | Sc_stats of Svm.Json.t
      (** v2 reply to {!Cs_stats}: a ["health"] summary (uptime, drain
          state, peers, queue depth, per-job progress) plus a
          ["metrics"] registry snapshot — the server's own counters
          folded with every worker-pushed registry via
          {!Svm.Metrics.merge} *)
  | Sc_draining
      (** server is draining on SIGTERM; the job is checkpointed in its
          journal and resumable by id *)
  | Sc_ping

val client_to_server_to_json : client_to_server -> Svm.Json.t
val client_to_server_of_json : Svm.Json.t -> (client_to_server, string) result
val server_to_client_to_json : server_to_client -> Svm.Json.t
val server_to_client_of_json : Svm.Json.t -> (server_to_client, string) result

module Json = Svm.Json

type config = {
  workers : int;
  shard_size : int option;
  shard_timeout : float;
  heartbeat_timeout : float;
  max_retries : int;
  backoff : float;
  exe : string;
  journal_dir : string option;
  resume : string option;
  chaos_kill_shard : (int * int) option;
  stop_after_shards : int option;
  log : Svm.Log.t;
}

let default_config ?(workers = 2) ?(exe = Sys.executable_name) () =
  {
    workers;
    shard_size = None;
    shard_timeout = 120.;
    heartbeat_timeout = 20.;
    max_retries = 2;
    backoff = 0.05;
    exe;
    journal_dir = None;
    resume = None;
    chaos_kill_shard = None;
    stop_after_shards = None;
    log = Svm.Log.null;
  }

type stats = {
  job_id : string option;
  shards : int;
  shard_size : int;
  resumed : int;
  executed : int;
  spawned : int;
  killed : int;
  reassigned : int;
}

type 'a outcome = Complete of 'a | Suspended of string

(* {2 Engine internals} *)

exception Fatal of string
exception Suspend

type wstate = Handshaking | Idle | Busy of { shard : int; deadline : float }

type worker = {
  w_id : int;
  w_pid : int;
  w_fd : Unix.file_descr;
  w_dec : Frame.decoder;
  mutable w_state : wstate;
  mutable w_last : float;  (** last time we heard anything from it *)
  mutable w_pinged : bool;
  mutable w_alive : bool;
}

type shard_state = Pending | Running of int | Done

type shard = {
  sh_id : int;
  sh_lo : int;
  sh_hi : int;
  mutable sh_state : shard_state;
  mutable sh_not_before : float;  (** backoff gate after a failure *)
  mutable sh_attempts : int;  (** attempts that ended in a dead worker *)
}

type engine = {
  cfg : config;
  job : Proto.job;
  units : int;
  check : lo:int -> hi:int -> Json.t -> (int option, string) result;
      (** validate a shard payload; [Ok (Some i)] reports the absolute
          index of the first merge-stopping finding inside it *)
  shards : shard array;
  payloads : Json.t option array;
  journal : Journal.t option;
  mutable live : worker list;
  mutable next_wid : int;
  mutable cut : int;
      (** absolute index of the first finding seen so far; shards lying
          entirely past it can never be consulted by the in-order merge,
          so they are not dispatched *)
  mutable chaos_left : int;
  mutable hs_failures : int;
  mutable st_resumed : int;
  mutable st_executed : int;
  mutable st_spawned : int;
  mutable st_killed : int;
  mutable st_reassigned : int;
}

let now () = Unix.gettimeofday ()

let logf e fmt = Svm.Log.infof e.cfg.log fmt
let warnf e fmt = Svm.Log.warnf e.cfg.log fmt

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let shard_failed e sh =
  sh.sh_attempts <- sh.sh_attempts + 1;
  e.st_reassigned <- e.st_reassigned + 1;
  match
    Policy.retry ~max_retries:e.cfg.max_retries ~base:e.cfg.backoff
      ~attempts:sh.sh_attempts
  with
  | Policy.Hostile ->
      Option.iter (fun j -> Journal.append_hostile j ~shard:sh.sh_id) e.journal;
      raise
        (Fatal
           (Printf.sprintf
              "shard %d [%d,%d) is hostile: it took down %d workers" sh.sh_id
              sh.sh_lo sh.sh_hi sh.sh_attempts))
  | Policy.Requeue delay ->
      sh.sh_state <- Pending;
      sh.sh_not_before <- now () +. delay;
      warnf e "shard %d back in the queue (lost attempt %d)" sh.sh_id
        sh.sh_attempts

let worker_dead e w ~reason =
  if w.w_alive then begin
    w.w_alive <- false;
    e.live <- List.filter (fun x -> x.w_id <> w.w_id) e.live;
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    reap w.w_pid;
    warnf e "worker %d (pid %d) is gone: %s" w.w_id w.w_pid reason;
    match w.w_state with
    | Busy { shard; _ } -> shard_failed e e.shards.(shard)
    | Handshaking ->
        e.hs_failures <- e.hs_failures + 1;
        if e.hs_failures > (2 * e.cfg.workers) + 4 then
          raise
            (Fatal
               "workers keep dying before completing the handshake — is the \
                worker binary runnable?")
    | Idle -> ()
  end

let kill_worker e w ~reason =
  if w.w_alive then begin
    (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
    e.st_killed <- e.st_killed + 1;
    worker_dead e w ~reason
  end

let send_to e w msg =
  try
    Frame.write w.w_fd (Proto.to_worker_to_json msg);
    true
  with Unix.Unix_error _ ->
    worker_dead e w ~reason:"write failed";
    false

let handle_msg e w msg =
  match msg with
  | Proto.Hello_ok { cells } ->
      if cells <> e.units then
        raise
          (Fatal
             (Printf.sprintf
                "worker %d planned %d cells but the coordinator planned %d — \
                 the two sides expanded the job differently, determinism is \
                 broken"
                w.w_id cells e.units));
      (match w.w_state with Handshaking -> w.w_state <- Idle | _ -> ())
  | Proto.Hello_err m ->
      raise (Fatal (Printf.sprintf "worker %d rejected the job: %s" w.w_id m))
  | Proto.Pong -> w.w_pinged <- false
  | Proto.Progress { shard; _ } -> (
      (* A shard that is making progress is not stuck: re-arm its
         deadline, so only silence past [shard_timeout] kills. *)
      match w.w_state with
      | Busy { shard = s; _ } when s = shard ->
          w.w_state <- Busy { shard; deadline = now () +. e.cfg.shard_timeout }
      | _ -> ())
  | Proto.Result { shard; payload } ->
      if shard < 0 || shard >= Array.length e.shards then
        kill_worker e w ~reason:"result for an unknown shard"
      else begin
        let sh = e.shards.(shard) in
        let owned =
          match (sh.sh_state, w.w_state) with
          | Running wid, Busy { shard = s; _ } -> wid = w.w_id && s = shard
          | _ -> false
        in
        (* A result for a shard this worker no longer owns is stale
           (the shard was reassigned after its presumed death): drop. *)
        if owned then begin
          match e.check ~lo:sh.sh_lo ~hi:sh.sh_hi payload with
          | Error m ->
              kill_worker e w
                ~reason:(Printf.sprintf "bad payload for shard %d: %s" shard m)
          | Ok finding ->
              e.payloads.(shard) <- Some payload;
              sh.sh_state <- Done;
              Option.iter
                (fun j -> Journal.append_shard j ~shard ~payload)
                e.journal;
              e.st_executed <- e.st_executed + 1;
              w.w_state <- Idle;
              (match finding with
              | Some abs when abs < e.cut ->
                  e.cut <- abs;
                  logf e "finding at cell %d (shard %d); cutting the tail" abs
                    shard
              | _ -> ());
              (match e.cfg.stop_after_shards with
              | Some n when e.st_executed >= n -> raise Suspend
              | _ -> ())
        end
      end

let read_buf = Bytes.create 65536

let rec drain e w =
  if w.w_alive then
    match Frame.next w.w_dec with
    | Ok None -> ()
    | Ok (Some v) -> (
        match Proto.from_worker_of_json v with
        | Ok msg ->
            handle_msg e w msg;
            drain e w
        | Error m -> kill_worker e w ~reason:("undecodable message: " ^ m))
    | Error err ->
        kill_worker e w ~reason:(Format.asprintf "%a" Frame.pp_error err)

let handle_readable e w =
  match Unix.read w.w_fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> worker_dead e w ~reason:"closed its end"
  | n ->
      w.w_last <- now ();
      w.w_pinged <- false;
      Frame.feed w.w_dec read_buf n;
      drain e w
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      worker_dead e w ~reason:"connection reset"

let spawn e =
  let fd_c, fd_w = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Coordinator ends must not leak into later workers: a child holding
     a copy of another worker's socket would mask that worker's EOF. *)
  Unix.set_close_on_exec fd_c;
  let pid =
    Unix.create_process e.cfg.exe [| e.cfg.exe; "work" |] fd_w fd_w Unix.stderr
  in
  Unix.close fd_w;
  let w =
    {
      w_id = e.next_wid;
      w_pid = pid;
      w_fd = fd_c;
      w_dec = Frame.decoder ();
      w_state = Handshaking;
      w_last = now ();
      w_pinged = false;
      w_alive = true;
    }
  in
  e.next_wid <- e.next_wid + 1;
  e.st_spawned <- e.st_spawned + 1;
  e.live <- e.live @ [ w ];
  logf e "spawned worker %d (pid %d)" w.w_id pid;
  ignore (send_to e w (Proto.Hello e.job))

let assign e =
  let t = now () in
  let eligible sh =
    sh.sh_state = Pending && sh.sh_not_before <= t && sh.sh_lo <= e.cut
  in
  let rec next_shard i =
    if i >= Array.length e.shards then None
    else if eligible e.shards.(i) then Some e.shards.(i)
    else next_shard (i + 1)
  in
  List.iter
    (fun w ->
      if w.w_alive && w.w_state = Idle then
        match next_shard 0 with
        | None -> ()
        | Some sh ->
            if
              send_to e w
                (Proto.Assign { shard = sh.sh_id; lo = sh.sh_lo; hi = sh.sh_hi })
            then begin
              sh.sh_state <- Running w.w_id;
              w.w_state <-
                Busy { shard = sh.sh_id; deadline = t +. e.cfg.shard_timeout };
              match e.cfg.chaos_kill_shard with
              | Some (k, _) when k = sh.sh_id && e.chaos_left > 0 ->
                  e.chaos_left <- e.chaos_left - 1;
                  kill_worker e w ~reason:"chaos"
              | _ -> ()
            end)
    e.live

let check_timers e =
  let t = now () in
  List.iter
    (fun w ->
      if w.w_alive then begin
        (match w.w_state with
        | Busy { deadline; shard } when t > deadline ->
            kill_worker e w
              ~reason:(Printf.sprintf "shard %d timed out" shard)
        | _ -> ());
        if w.w_alive then begin
          let silent = t -. w.w_last in
          match
            Policy.heartbeat ~timeout:e.cfg.heartbeat_timeout ~silent
              ~pinged:w.w_pinged
          with
          | Policy.Dead -> kill_worker e w ~reason:"heartbeat timeout"
          | Policy.Ping -> if send_to e w Proto.Ping then w.w_pinged <- true
          | Policy.Wait -> ()
        end
      end)
    e.live

let remaining e =
  Array.fold_left
    (fun acc sh ->
      if sh.sh_state <> Done && sh.sh_lo <= e.cut then acc + 1 else acc)
    0 e.shards

let respawn e =
  let target = min e.cfg.workers (remaining e) in
  while List.length e.live < target do
    spawn e
  done

(* Sleep exactly until the next deadline we own: a busy shard's timeout,
   a heartbeat edge, or a backoff gate opening. *)
let next_timeout e =
  let t = now () in
  let d = ref 1.0 in
  let note x = if x < !d then d := Float.max x 0.01 in
  List.iter
    (fun w ->
      (match w.w_state with
      | Busy { deadline; _ } -> note (deadline -. t)
      | _ -> ());
      let silent = t -. w.w_last in
      note
        (Policy.heartbeat_deadline ~timeout:e.cfg.heartbeat_timeout ~silent
           ~pinged:w.w_pinged))
    e.live;
  Array.iter
    (fun sh ->
      if sh.sh_state = Pending && sh.sh_not_before > t then
        note (sh.sh_not_before -. t))
    e.shards;
  !d

let rec loop e =
  if remaining e > 0 then begin
    respawn e;
    assign e;
    let fds =
      List.filter_map (fun w -> if w.w_alive then Some w.w_fd else None) e.live
    in
    let readable, _, _ =
      if fds = [] then ([], [], [])
      else
        try Unix.select fds [] [] (next_timeout e)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let snapshot = e.live in
    List.iter
      (fun w ->
        if w.w_alive && List.mem w.w_fd readable then handle_readable e w)
      snapshot;
    check_timers e;
    loop e
  end

let shutdown e =
  List.iter (fun w -> if w.w_alive then ignore (send_to e w Proto.Shutdown)) e.live;
  let deadline = now () +. 5.0 in
  let rec wait_all ws =
    match ws with
    | [] -> ()
    | w :: rest -> (
        match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
        | 0, _ ->
            if now () > deadline then begin
              (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
              reap w.w_pid;
              wait_all rest
            end
            else begin
              ignore (Unix.select [] [] [] 0.02);
              wait_all ws
            end
        | _ -> wait_all rest
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> wait_all rest
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_all ws)
  in
  wait_all e.live;
  List.iter
    (fun w -> try Unix.close w.w_fd with Unix.Unix_error _ -> ())
    e.live;
  e.live <- []

let default_shard_size ~units ~workers =
  if units = 0 then 1
  else min 256 (max 1 ((units + (workers * 8) - 1) / (workers * 8)))

let execute cfg ~job ~units ~check =
  if cfg.workers < 1 then Error "need at least one worker"
  else if cfg.stop_after_shards <> None && cfg.journal_dir = None then
    Error "suspension requires a journal (set a journal directory)"
  else begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let setup =
      match cfg.resume with
      | Some id -> (
          let dir = Option.value cfg.journal_dir ~default:Journal.default_dir in
          match Journal.load ~dir id with
          | Error m -> Error m
          | Ok l ->
              if Proto.job_fingerprint l.l_job <> Proto.job_fingerprint job then
                Error
                  (Printf.sprintf
                     "job %s was journalled for a different job description" id)
              else if l.l_cells <> units then
                Error
                  (Printf.sprintf "job %s journalled %d cells, the plan has %d"
                     id l.l_cells units)
              else if l.l_hostile <> [] then
                Error
                  (Printf.sprintf
                     "job %s recorded shard %d as hostile; not resumable" id
                     (List.hd l.l_hostile))
              else
                Result.map
                  (fun j -> (l.l_shard_size, Some j, l.l_done))
                  (Journal.reopen ~dir id))
      | None -> (
          let shard_size =
            match cfg.shard_size with
            | Some s -> max 1 s
            | None -> default_shard_size ~units ~workers:cfg.workers
          in
          match
            Option.map
              (fun dir -> Journal.create ~dir ~job ~cells:units ~shard_size ())
              cfg.journal_dir
          with
          | journal -> Ok (shard_size, journal, [])
          | exception exn ->
              Error ("cannot create journal: " ^ Printexc.to_string exn))
    in
    match setup with
    | Error m -> Error m
    | Ok (shard_size, journal, done_shards) ->
        let nshards =
          if units = 0 then 0 else (units + shard_size - 1) / shard_size
        in
        let shards =
          Array.init nshards (fun i ->
              {
                sh_id = i;
                sh_lo = i * shard_size;
                sh_hi = min units ((i + 1) * shard_size);
                sh_state = Pending;
                sh_not_before = 0.;
                sh_attempts = 0;
              })
        in
        let e =
          {
            cfg;
            job;
            units;
            check;
            shards;
            payloads = Array.make nshards None;
            journal;
            live = [];
            next_wid = 0;
            cut = max_int;
            chaos_left =
              (match cfg.chaos_kill_shard with Some (_, n) -> n | None -> 0);
            hs_failures = 0;
            st_resumed = 0;
            st_executed = 0;
            st_spawned = 0;
            st_killed = 0;
            st_reassigned = 0;
          }
        in
        (* Restore journalled shards; a corrupt entry is just re-run. *)
        List.iter
          (fun (shard, payload) ->
            if shard >= 0 && shard < nshards && shards.(shard).sh_state <> Done
            then
              match
                check ~lo:shards.(shard).sh_lo ~hi:shards.(shard).sh_hi payload
              with
              | Ok finding ->
                  e.payloads.(shard) <- Some payload;
                  shards.(shard).sh_state <- Done;
                  e.st_resumed <- e.st_resumed + 1;
                  (match finding with
                  | Some abs when abs < e.cut -> e.cut <- abs
                  | _ -> ())
              | Error _ -> ())
          done_shards;
        let verdict =
          match loop e with
          | () -> `Complete
          | exception Suspend -> `Suspended
          | exception Fatal m -> `Fatal m
          | exception exn -> `Fatal (Printexc.to_string exn)
        in
        shutdown e;
        Option.iter Journal.close e.journal;
        let stats =
          {
            job_id = Option.map Journal.id journal;
            shards = nshards;
            shard_size;
            resumed = e.st_resumed;
            executed = e.st_executed;
            spawned = e.st_spawned;
            killed = e.st_killed;
            reassigned = e.st_reassigned;
          }
        in
        (match verdict with
        | `Complete -> Ok (`Complete, e.payloads, stats)
        | `Suspended -> (
            match stats.job_id with
            | Some id -> Ok (`Suspended id, e.payloads, stats)
            | None -> Error "suspended without a journal")
        | `Fatal m -> Error m)
  end

(* {2 Mode wrappers}

   Payload validation and the payload→outcome fold both live in shared
   modules ({!Proto.check_sweep_payload} / {!Merge}) so the TCP queue
   and client reuse the exact same code paths. *)

let sweep ?metrics ?on_progress cfg ~job ~plan () =
  let units = Svm.Explore.sweep_cells plan in
  match execute cfg ~job ~units ~check:Proto.check_sweep_payload with
  | Error m -> Error m
  | Ok (`Suspended id, _, stats) -> Ok (Suspended id, stats)
  | Ok (`Complete, payloads, stats) ->
      let outcome =
        Merge.sweep ?metrics ?on_progress plan ~shard_size:stats.shard_size
          ~payloads
      in
      Ok (Complete outcome, stats)

let explore ?metrics cfg ~job ~explore () =
  match execute cfg ~job ~units:1 ~check:Proto.check_explore_payload with
  | Error m -> Error m
  | Ok (`Suspended id, _, stats) -> Ok (Suspended id, stats)
  | Ok (`Complete, payloads, stats) ->
      Result.map
        (fun result -> (Complete result, stats))
        (Merge.explore ?metrics explore ~payloads)

type explore = {
  params : Proto.explore_params;
  make : unit -> Svm.Env.t * Svm.Univ.t Svm.Prog.t array;
  property : Svm.Univ.t Svm.Explore.run -> (unit, string) result;
}

type instance =
  | Sweep_instance of Svm.Univ.t Svm.Explore.sweep_plan
  | Explore_instance of explore

exception Quit of int

(* Emit a Progress heartbeat and honour control frames this often: every
   few sweep cells, or this many seconds into an explore (checked every
   64 runs — a run is a few dozen steps, so the clock is read rarely). *)
let heartbeat_every = 32
let explore_heartbeat_s = 0.2

let send out_fd msg =
  try Frame.write out_fd (Proto.from_worker_to_json msg)
  with Unix.Unix_error _ -> raise (Quit 0) (* coordinator is gone *)

let recv in_fd =
  match Frame.read in_fd with
  | Ok v -> (
      match Proto.to_worker_of_json v with
      | Ok m -> m
      | Error _ -> raise (Quit 2))
  | Error Frame.Closed -> raise (Quit 0)
  | Error _ -> raise (Quit 2)

(* Between heartbeats the worker is heads-down computing; this gives
   control frames (Ping during a slow shard, Shutdown during a shard
   the coordinator no longer needs) a chance to be honoured. *)
let poll_control in_fd out_fd =
  match Unix.select [ in_fd ] [] [] 0.0 with
  | [], _, _ -> ()
  | _ -> (
      match recv in_fd with
      | Proto.Ping -> send out_fd Proto.Pong
      | Proto.Shutdown -> raise (Quit 0)
      | Proto.Hello _ | Proto.Assign _ -> raise (Quit 2))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let cells_of_instance = function
  | Sweep_instance p -> Svm.Explore.sweep_cells p
  | Explore_instance _ -> 1

let shard_payload instance ~lo ~hi ~tick =
  match instance with
  | Sweep_instance p ->
      let b = Buffer.create (hi - lo) in
      for i = lo to hi - 1 do
        Buffer.add_char b (Proto.tag_of_verdict (Svm.Explore.sweep_cell p i));
        if (i - lo + 1) mod heartbeat_every = 0 then tick (i - lo + 1)
      done;
      Svm.Json.String (Buffer.contents b)
  | Explore_instance e ->
      let p = e.params in
      let last = ref (Unix.gettimeofday ()) in
      let on_progress ~runs =
        if runs land 63 = 0 then begin
          let t = Unix.gettimeofday () in
          if t -. !last >= explore_heartbeat_s then begin
            last := t;
            tick runs
          end
        end
      in
      let metrics = Svm.Metrics.create () in
      let r =
        Svm.Explore.exhaustive ~max_crashes:p.Proto.ex_max_crashes
          ~max_runs:p.Proto.ex_max_runs ~dedup:p.Proto.ex_dedup ~metrics
          ~on_progress ~max_steps:p.Proto.ex_max_steps ~make:e.make
          ~property:e.property ()
      in
      Proto.explore_summary_to_json
        {
          Proto.xs_explored = r.Svm.Explore.explored;
          xs_truncated = Svm.Metrics.counter_value metrics "explore.truncated";
          xs_pruned_states = r.Svm.Explore.pruned_states;
          xs_pruned_commutes = r.Svm.Explore.pruned_commutes;
          xs_pruned_source = r.Svm.Explore.pruned_source;
          xs_exhausted = r.Svm.Explore.exhausted_budget;
          xs_cex =
            Option.map
              (fun ((run : _ Svm.Explore.run), msg) ->
                {
                  Proto.cx_message = msg;
                  cx_schedule = run.Svm.Explore.schedule;
                  cx_crashed = run.Svm.Explore.crashed;
                  cx_truncated = run.Svm.Explore.truncated;
                })
              r.Svm.Explore.counterexample;
          xs_metrics = metrics;
        }

(* Compute one shard's payload, transport-free: [tick completed] fires
   every {!heartbeat_every} sweep cells or {!explore_heartbeat_s} of
   explore time so the caller can emit progress and poll control
   frames, whatever its wire is. *)
let compute_shard instance ~lo ~hi ~tick =
  let payload = shard_payload instance ~lo ~hi ~tick in
  (* Everything the shard built is garbage now. A worker runs shard after
     shard of job after job; collected only at the GC's pace, an explore's
     tables and the sweep cells around them piled up until a worker's
     peak RSS was half again its one-job size. *)
  Gc.full_major ();
  payload

let serve ~lookup in_fd out_fd =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  try
    let instance =
      match recv in_fd with
      | Proto.Hello job -> (
          match lookup job with
          | Ok instance ->
              send out_fd
                (Proto.Hello_ok { cells = cells_of_instance instance });
              instance
          | Error msg ->
              send out_fd (Proto.Hello_err msg);
              raise (Quit 2))
      | Proto.Assign _ | Proto.Ping | Proto.Shutdown -> raise (Quit 2)
    in
    let cells = cells_of_instance instance in
    let rec loop () =
      (match recv in_fd with
      | Proto.Ping -> send out_fd Proto.Pong
      | Proto.Shutdown -> raise (Quit 0)
      | Proto.Hello _ -> raise (Quit 2)
      | Proto.Assign { shard; lo; hi } ->
          if hi > cells then raise (Quit 2);
          let tick completed =
            send out_fd (Proto.Progress { shard; completed });
            poll_control in_fd out_fd
          in
          let payload = compute_shard instance ~lo ~hi ~tick in
          send out_fd (Proto.Result { shard; payload }));
      loop ()
    in
    loop ()
  with
  | Quit code -> code
  | Unix.Unix_error _ -> 0 (* coordinator vanished under us *)
  | _ -> 3

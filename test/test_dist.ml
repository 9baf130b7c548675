(* The distributed runner's whole contract in three claims:

   1. identity — a --dist run's outcome, replay artifact and metrics
      snapshot are byte-identical to the in-process run's, at any
      worker count;
   2. crash-tolerance — SIGKILLing workers mid-run changes nothing but
      the stats (the shard is re-dealt; shards that keep killing
      workers are reported hostile, not retried forever);
   3. resumability — a coordinator stopped mid-job restarts from its
      journal without re-running completed shards.

   Workers are real forked processes of the real binary (dune's [deps]
   places ../bin/asmsim.exe next to this test's cwd). *)

open Svm

let check = Alcotest.check
let exe = "../bin/asmsim.exe"

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let config ?(workers = 2) ?shard_size ?journal_dir ?resume ?chaos ?stop_after
    ?(max_retries = 2) ?(shard_timeout = 120.) () =
  let base = Dist.Coordinator.default_config ~workers ~exe () in
  {
    base with
    Dist.Coordinator.shard_size;
    shard_timeout;
    journal_dir;
    resume;
    chaos_kill_shard = chaos;
    stop_after_shards = stop_after;
    max_retries;
    backoff = 0.01;
  }

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "asmsim-dist-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* ------------------------------------------------------------------ *)
(* sweep identity                                                       *)
(* ------------------------------------------------------------------ *)

let sweep_repr (o : Explore.sweep_outcome) =
  let found =
    match o.Explore.found with
    | None -> "none"
    | Some f ->
        Format.asprintf "%a >> %a | %s@%d | shrink=%d | artifact=<<%s>>"
          Explore.pp_fault_schedule f.Explore.fault Explore.pp_fault_schedule
          f.Explore.shrunk f.Explore.violation.Monitor.monitor
          f.Explore.violation.Monitor.step f.Explore.shrink_runs
          f.Explore.replay
  in
  let deadlock =
    match o.Explore.deadlock with
    | None -> "none"
    | Some d -> Format.asprintf "%a" Explore.pp_fault_schedule d
  in
  Printf.sprintf "runs=%d exhausted=%b deadlock=%s found=%s" o.Explore.runs
    o.Explore.exhausted deadlock found

let sweep_inproc s =
  let metrics = Metrics.create ~wall_clock:false () in
  let o = Experiments.Harness.sweep_scenario ~metrics s in
  (sweep_repr o, Metrics.snapshot_string metrics)

let sweep_dist cfg s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.sweep_scenario_dist ~metrics cfg s with
  | Error m -> Alcotest.failf "dist sweep failed: %s" m
  | Ok (Dist.Coordinator.Suspended _, _) ->
      Alcotest.fail "dist sweep suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete o, stats) ->
      ((sweep_repr o, Metrics.snapshot_string metrics), stats)

let sweep_identity name () =
  let s = scenario name in
  let base = sweep_inproc s in
  List.iter
    (fun workers ->
      let got, _ =
        sweep_dist (config ~workers ~shard_size:7 ()) s
      in
      let label p = Printf.sprintf "%s, %d workers: %s" name workers p in
      check Alcotest.string (label "outcome + artifact") (fst base) (fst got);
      check Alcotest.string (label "metrics snapshot") (snd base) (snd got))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* explore identity                                                     *)
(* ------------------------------------------------------------------ *)

let explore_repr (r : Univ.t Explore.result) =
  let cex =
    match r.Explore.counterexample with
    | None -> "none"
    | Some (run, msg) ->
        Printf.sprintf "%s | %s | crashed=[%s] | truncated=%b"
          run.Explore.schedule msg
          (String.concat ";" (List.map string_of_int run.Explore.crashed))
          run.Explore.truncated
  in
  Printf.sprintf "explored=%d pruned=%d+%d exhausted=%b cex=%s"
    r.Explore.explored r.Explore.pruned_states r.Explore.pruned_commutes
    r.Explore.exhausted_budget cex

let explore_inproc ~max_crashes s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.explore_scenario ~max_crashes ~metrics s with
  | Error m -> Alcotest.fail m
  | Ok r -> (explore_repr r, Metrics.snapshot_string metrics)

let explore_dist ~max_crashes cfg s =
  let metrics = Metrics.create ~wall_clock:false () in
  match Experiments.Harness.explore_scenario_dist ~max_crashes ~metrics cfg s with
  | Error m -> Alcotest.failf "dist explore failed: %s" m
  | Ok (Dist.Coordinator.Suspended _, _) ->
      Alcotest.fail "dist explore suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete r, stats) ->
      ((explore_repr r, Metrics.snapshot_string metrics), stats)

let explore_identity name ~max_crashes () =
  let s = scenario name in
  let base = explore_inproc ~max_crashes s in
  List.iter
    (fun workers ->
      let got, _ =
        explore_dist ~max_crashes (config ~workers ~shard_size:9 ()) s
      in
      let label p = Printf.sprintf "%s, %d workers: %s" name workers p in
      check Alcotest.string (label "result") (fst base) (fst got);
      check Alcotest.string (label "metrics snapshot") (snd base) (snd got))
    [ 2; 4 ]

(* A clean scope and a run-budget cut: the worker runs the whole
   exploration with the in-process engine at one domain, so the result
   and the metrics snapshot are byte-identical to the in-process run's
   — explored and pruned counts included — and the budget is exact. *)
let explore_clean_verdict () =
  let s = scenario "safe_agreement" in
  let run_inproc ?max_runs () =
    let metrics = Metrics.create ~wall_clock:false () in
    match
      Experiments.Harness.explore_scenario ~max_crashes:1 ~max_steps:10
        ?max_runs ~metrics s
    with
    | Error m -> Alcotest.fail m
    | Ok r -> (r, Metrics.snapshot_string metrics)
  in
  let run_dist ?max_runs () =
    let metrics = Metrics.create ~wall_clock:false () in
    match
      Experiments.Harness.explore_scenario_dist ~max_crashes:1 ~max_steps:10
        ?max_runs ~metrics (config ~shard_size:9 ()) s
    with
    | Error m -> Alcotest.failf "dist explore failed: %s" m
    | Ok (Dist.Coordinator.Suspended _, _) ->
        Alcotest.fail "dist explore suspended unexpectedly"
    | Ok (Dist.Coordinator.Complete r, _) -> (r, Metrics.snapshot_string metrics)
  in
  let (inproc, inproc_m), (dist, dist_m) = (run_inproc (), run_dist ()) in
  check Alcotest.string "clean scope: identical result" (explore_repr inproc)
    (explore_repr dist);
  check Alcotest.string "clean scope: identical metrics snapshot" inproc_m
    dist_m;
  Alcotest.(check bool) "clean scope: clean, budget untouched" true
    (inproc.Explore.counterexample = None
    && not inproc.Explore.exhausted_budget);
  let (inproc, inproc_m), (dist, dist_m) =
    (run_inproc ~max_runs:5000 (), run_dist ~max_runs:5000 ())
  in
  check Alcotest.string "budget hit: identical result" (explore_repr inproc)
    (explore_repr dist);
  check Alcotest.string "budget hit: identical metrics snapshot" inproc_m
    dist_m;
  Alcotest.(check bool) "budget hit: flagged" true inproc.Explore.exhausted_budget;
  check Alcotest.int "budget hit: exactly the budget" 5000 dist.Explore.explored

(* ------------------------------------------------------------------ *)
(* crash-tolerance                                                      *)
(* ------------------------------------------------------------------ *)

let chaos_identical () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = sweep_inproc s in
  let got, stats =
    sweep_dist (config ~shard_size:7 ~chaos:(0, 1) ()) s
  in
  check Alcotest.string "outcome despite a SIGKILLed worker" (fst base)
    (fst got);
  check Alcotest.string "metrics despite a SIGKILLed worker" (snd base)
    (snd got);
  Alcotest.(check bool) "a worker really was killed" true
    (stats.Dist.Coordinator.killed >= 1);
  Alcotest.(check bool) "the shard really was reassigned" true
    (stats.Dist.Coordinator.reassigned >= 1);
  Alcotest.(check bool) "a replacement worker was spawned" true
    (stats.Dist.Coordinator.spawned >= 3)

(* An explore job is one cell: the chaos hook kills the worker that is
   dealt it, and a replacement re-runs the exploration from scratch. *)
let chaos_explore_identical () =
  let s = scenario "safe_agreement_no_cancel" in
  let base = explore_inproc ~max_crashes:1 s in
  let got, stats =
    explore_dist ~max_crashes:1
      (config ~shard_size:9 ~chaos:(0, 1) ())
      s
  in
  check Alcotest.string "explore outcome despite a SIGKILLed worker"
    (fst base) (fst got);
  check Alcotest.string "explore metrics despite a SIGKILLed worker"
    (snd base) (snd got);
  Alcotest.(check bool) "a worker really was killed" true
    (stats.Dist.Coordinator.killed >= 1);
  Alcotest.(check bool) "the cell really was re-run" true
    (stats.Dist.Coordinator.reassigned >= 1)

(* A whole-job shard that runs longer than its shard timeout must not be
   shot while it is making progress: the worker's heartbeats re-arm the
   deadline. safe_agreement with one crash at depth 14 takes about
   1.6 s on a 2-vCPU host; the elapsed check keeps the test honest on
   a faster one. *)
let explore_outlives_shard_timeout () =
  let s = scenario "safe_agreement" in
  let t0 = Unix.gettimeofday () in
  match
    Experiments.Harness.explore_scenario_dist ~max_crashes:1 ~max_steps:14
      (config ~shard_timeout:1.0 ())
      s
  with
  | Error m -> Alcotest.failf "dist explore failed: %s" m
  | Ok (Dist.Coordinator.Suspended _, _) ->
      Alcotest.fail "dist explore suspended unexpectedly"
  | Ok (Dist.Coordinator.Complete r, stats) ->
      Alcotest.(check bool) "outlived the 1 s shard timeout" true
        (Unix.gettimeofday () -. t0 > 1.0);
      Alcotest.(check bool) "clean and complete" true
        (r.Explore.counterexample = None
        && (not r.Explore.exhausted_budget)
        && r.Explore.explored > 0);
      check Alcotest.int "no worker killed" 0 stats.Dist.Coordinator.killed;
      check Alcotest.int "no reassignment" 0 stats.Dist.Coordinator.reassigned

let hostile_shard () =
  let s = scenario "safe_agreement_no_cancel" in
  match
    Experiments.Harness.sweep_scenario_dist
      (config ~shard_size:7 ~chaos:(0, 99) ~max_retries:1 ())
      s
  with
  | Ok _ -> Alcotest.fail "a shard that kills every worker must not succeed"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions hostility: %S" m)
        true (contains_sub m "hostile")

(* ------------------------------------------------------------------ *)
(* resume from the journal                                              *)
(* ------------------------------------------------------------------ *)

let resume_no_rerun () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let base = sweep_inproc s in
  (* Session 1: journal on, stop after a single shard result. *)
  let metrics1 = Metrics.create ~wall_clock:false () in
  let id, first_executed =
    match
      Experiments.Harness.sweep_scenario_dist ~metrics:metrics1
        (config ~shard_size:7 ~journal_dir:dir
           ~stop_after:1 ())
        s
    with
    | Error m -> Alcotest.failf "session 1 failed: %s" m
    | Ok (Dist.Coordinator.Complete _, _) ->
        Alcotest.fail "session 1 was supposed to suspend"
    | Ok (Dist.Coordinator.Suspended id, stats) ->
        (id, stats.Dist.Coordinator.executed)
  in
  check Alcotest.int "session 1 executed exactly one shard" 1 first_executed;
  (* Session 2: resume; finished shards restored, not re-run. *)
  let got, stats =
    sweep_dist
      (config ~shard_size:7 ~journal_dir:dir ~resume:id ())
      s
  in
  check Alcotest.int "session 2 restored session 1's shard" first_executed
    stats.Dist.Coordinator.resumed;
  Alcotest.(check bool)
    "session 2 did not re-run the restored shard" true
    (stats.Dist.Coordinator.executed + stats.Dist.Coordinator.resumed
    <= stats.Dist.Coordinator.shards);
  check Alcotest.string "resumed outcome identical to in-process" (fst base)
    (fst got);
  check Alcotest.string "resumed metrics identical to in-process" (snd base)
    (snd got)

(* A journal of an explore written before explores ran as one cell: its
   payloads are plan-engine task summaries. Resuming it is a typed
   refusal — exit 2 from `serve --resume` — and never a merge. *)
let resume_refuses_plan_engine_journal () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let id = "plan-engine-explore" in
  Unix.mkdir (Filename.concat dir id) 0o755;
  let job = Experiments.Harness.explore_job ~max_crashes:1 s in
  Out_channel.with_open_bin
    (Filename.concat (Filename.concat dir id) "journal.jsonl")
    (fun oc ->
      List.iter
        (fun v ->
          output_string oc (Json.to_string v);
          output_char oc '\n')
        [
          Json.Obj
            [
              ("v", Json.Int 1);
              ("job", Dist.Proto.job_to_json job);
              ("cells", Json.Int 12);
              ("shard_size", Json.Int 9);
            ];
          Json.Obj
            [
              ("shard", Json.Int 0);
              ( "payload",
                Json.List
                  (List.init 9 (fun _ ->
                       Json.List (List.map (fun i -> Json.Int i) [ 0; 3; 3; 0; 1; 2; 0 ]))) );
            ];
        ]);
  (match Dist.Journal.load ~dir id with
  | Ok _ -> Alcotest.fail "a plan-engine explore journal must not load"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the plan engine: %S" m)
        true (contains_sub m "plan-engine"));
  (match
     Experiments.Harness.explore_scenario_dist ~max_crashes:1
       (config ~journal_dir:dir ~resume:id ())
       s
   with
  | Ok _ -> Alcotest.fail "--dist --resume of a plan-engine journal must fail"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "--dist error names the plan engine: %S" m)
        true (contains_sub m "plan-engine"));
  let cmd =
    Printf.sprintf "%s serve --resume %s --journal-dir %s >/dev/null 2>&1"
      (Filename.quote exe) id (Filename.quote dir)
  in
  Alcotest.(check bool) "serve --resume exits 2" true
    (Unix.system cmd = Unix.WEXITED 2)

let resume_rejects_other_job () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let id =
    match
      Experiments.Harness.sweep_scenario_dist
        (config ~shard_size:7 ~journal_dir:dir
           ~stop_after:1 ())
        s
    with
    | Ok (Dist.Coordinator.Suspended id, _) -> id
    | _ -> Alcotest.fail "setup run was supposed to suspend"
  in
  (* Same id, different parameters: the fingerprint check must refuse. *)
  match
    Experiments.Harness.sweep_scenario_dist ~max_faults:2
      (config ~shard_size:7 ~journal_dir:dir ~resume:id ())
      s
  with
  | Ok _ -> Alcotest.fail "resume under different parameters must fail"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions the mismatch: %S" m)
        true
        (contains_sub m "different job")

(* ------------------------------------------------------------------ *)
(* retry/heartbeat policy — the pure decisions behind both the fork
   coordinator and the TCP queue, pinned exactly                        *)
(* ------------------------------------------------------------------ *)

let policy_backoff_schedule () =
  (* attempt k re-deals after base * 2^(k-1): the documented schedule,
     value by value. *)
  List.iter
    (fun (attempt, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "delay before attempt %d" attempt)
        expect
        (Dist.Policy.backoff_delay ~base:0.05 ~attempt))
    [ (0, 0.); (1, 0.05); (2, 0.1); (3, 0.2); (4, 0.4); (5, 0.8) ];
  match Dist.Policy.retry ~max_retries:3 ~base:0.05 ~attempts:2 with
  | Dist.Policy.Requeue d -> check (Alcotest.float 1e-9) "requeue delay" 0.1 d
  | Dist.Policy.Hostile -> Alcotest.fail "attempt 2 of 3 must requeue"

let policy_hostile_after_k_plus_1 () =
  (* max_retries = k: kills 1..k are retried; the k+1th kill makes the
     shard hostile — never retried forever. *)
  let k = 2 in
  for attempts = 1 to k do
    match Dist.Policy.retry ~max_retries:k ~base:0.01 ~attempts with
    | Dist.Policy.Requeue _ -> ()
    | Dist.Policy.Hostile ->
        Alcotest.failf "kill %d of max %d must still requeue" attempts k
  done;
  match Dist.Policy.retry ~max_retries:k ~base:0.01 ~attempts:(k + 1) with
  | Dist.Policy.Hostile -> ()
  | Dist.Policy.Requeue _ ->
      Alcotest.failf "kill %d must be hostile (k+1 kills)" (k + 1)

let policy_heartbeat_edges () =
  let hb ~silent ~pinged =
    Dist.Policy.heartbeat ~timeout:20. ~silent ~pinged
  in
  (* quiet < timeout/2: leave the peer alone *)
  (match hb ~silent:9.9 ~pinged:false with
  | Dist.Policy.Wait -> ()
  | _ -> Alcotest.fail "under half the timeout: wait");
  (* past the half-timeout edge: ping once... *)
  (match hb ~silent:10.1 ~pinged:false with
  | Dist.Policy.Ping -> ()
  | _ -> Alcotest.fail "past half the timeout, unpinged: ping");
  (* ...and only once *)
  (match hb ~silent:10.1 ~pinged:true with
  | Dist.Policy.Wait -> ()
  | _ -> Alcotest.fail "already pinged: wait for the pong");
  (* past the full timeout the peer is dead, pinged or not *)
  (match hb ~silent:20.1 ~pinged:true with
  | Dist.Policy.Dead -> ()
  | _ -> Alcotest.fail "past the timeout: dead");
  match hb ~silent:20.1 ~pinged:false with
  | Dist.Policy.Dead -> ()
  | _ -> Alcotest.fail "past the timeout without a ping: still dead"

let policy_reconnect_jitter () =
  (* growth up to the cap, with rand pinned to 1.0 *)
  List.iter
    (fun (attempt, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "reconnect delay, attempt %d" attempt)
        expect
        (Dist.Policy.reconnect_delay ~base:0.2 ~cap:5.0 ~attempt ~rand:1.0))
    [ (0, 0.2); (1, 0.4); (2, 0.8); (3, 1.6); (4, 3.2); (5, 5.0); (9, 5.0) ];
  (* jitter scales the delay but never below the 10% floor *)
  check (Alcotest.float 1e-9) "jitter floor" 0.02
    (Dist.Policy.reconnect_delay ~base:0.2 ~cap:5.0 ~attempt:0 ~rand:0.0)

(* ------------------------------------------------------------------ *)
(* journal crash-safety: a torn final line is recovered from, both by
   the reader and by a resuming writer                                  *)
(* ------------------------------------------------------------------ *)

let journal_path dir id =
  Filename.concat (Filename.concat dir id) "journal.jsonl"

let journal_setup () =
  let s = scenario "safe_agreement_no_cancel" in
  let dir = fresh_dir () in
  let job = Experiments.Harness.sweep_job s in
  let j = Dist.Journal.create ~dir ~job ~cells:65 ~shard_size:7 () in
  Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
  Dist.Journal.append_shard j ~shard:1 ~payload:(Json.String "DDDDDDD");
  Dist.Journal.close j;
  (dir, Dist.Journal.id j)

let tear_final_line dir id =
  (* Chop bytes off the end, past the last record's newline: what a
     crash mid-append leaves on disk. *)
  let p = journal_path dir id in
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  close_in ic;
  let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (n - 3);
  Unix.close fd

let journal_torn_line_load () =
  let dir, id = journal_setup () in
  tear_final_line dir id;
  match Dist.Journal.load ~dir id with
  | Error m -> Alcotest.failf "torn journal must still load: %s" m
  | Ok l ->
      (* The torn record is dropped; the complete prefix survives. *)
      check Alcotest.int "complete shards recovered" 1
        (List.length l.Dist.Journal.l_done);
      (match l.Dist.Journal.l_done with
      | [ (0, Json.String "CCCCCCC") ] -> ()
      | _ -> Alcotest.fail "wrong shard recovered from the torn journal");
      check Alcotest.int "cells metadata intact" 65 l.Dist.Journal.l_cells

let journal_torn_line_reopen () =
  let dir, id = journal_setup () in
  tear_final_line dir id;
  (* Reopen must truncate the torn tail and append cleanly after it. *)
  (match Dist.Journal.reopen ~dir id with
  | Error m -> Alcotest.failf "torn journal must reopen: %s" m
  | Ok j ->
      Dist.Journal.append_shard j ~shard:1 ~payload:(Json.String "VVVVVVV");
      Dist.Journal.close j);
  match Dist.Journal.load ~dir id with
  | Error m -> Alcotest.failf "journal unreadable after reopen: %s" m
  | Ok l -> (
      check Alcotest.int "both shards present after repair" 2
        (List.length l.Dist.Journal.l_done);
      match List.assoc_opt 1 l.Dist.Journal.l_done with
      | Some (Json.String "VVVVVVV") -> ()
      | _ -> Alcotest.fail "the re-appended shard must replace the torn one")

let journal_fsync_flag () =
  (* The fsync path must write the same bytes as the buffered path. *)
  let s = scenario "safe_agreement_no_cancel" in
  let job = Experiments.Harness.sweep_job s in
  let write dir fsync =
    let j = Dist.Journal.create ~dir ~fsync ~job ~cells:65 ~shard_size:7 () in
    Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
    Dist.Journal.append_hostile j ~shard:3;
    Dist.Journal.close j;
    let ic = open_in_bin (journal_path dir (Dist.Journal.id j)) in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    contents
  in
  check Alcotest.string "fsync changes durability, not bytes"
    (write (fresh_dir ()) false)
    (write (fresh_dir ()) true)

let journal_fsync_rename_reopen () =
  (* The fsync path syncs the journal's directory entries, not just its
     bytes — exercised by the harshest rename a filesystem offers short
     of power loss: move the whole job directory and reopen it under
     its new name, appending across the boundary. *)
  let s = scenario "safe_agreement_no_cancel" in
  let job = Experiments.Harness.sweep_job s in
  let dir = fresh_dir () in
  let j = Dist.Journal.create ~dir ~fsync:true ~job ~cells:65 ~shard_size:7 () in
  let old_id = Dist.Journal.id j in
  Dist.Journal.append_shard j ~shard:0 ~payload:(Json.String "CCCCCCC");
  Dist.Journal.close j;
  let new_id = old_id ^ "-renamed" in
  Unix.rename (Filename.concat dir old_id) (Filename.concat dir new_id);
  (match Dist.Journal.reopen ~dir ~fsync:true new_id with
  | Error m -> Alcotest.failf "renamed journal must reopen: %s" m
  | Ok j2 ->
      Dist.Journal.append_shard j2 ~shard:1 ~payload:(Json.String "VVVVVVV");
      Dist.Journal.close j2);
  match Dist.Journal.load ~dir new_id with
  | Error m -> Alcotest.failf "renamed journal unreadable: %s" m
  | Ok l ->
      check Alcotest.int "shards from both lives present" 2
        (List.length l.Dist.Journal.l_done);
      Alcotest.(check bool) "old id is gone" false
        (List.mem old_id (Dist.Journal.list_ids ~dir ()))

let suite =
  [
    ( "dist",
      [
        Alcotest.test_case "sweep identity (seeded bug 1)" `Quick
          (sweep_identity "safe_agreement_no_cancel");
        Alcotest.test_case "sweep identity (seeded bug 2)" `Quick
          (sweep_identity "x_safe_agreement_first_subset");
        Alcotest.test_case "explore identity (seeded bug 1)" `Quick
          (explore_identity "safe_agreement_no_cancel" ~max_crashes:1);
        Alcotest.test_case "explore verdict (clean scope)" `Quick
          explore_clean_verdict;
        Alcotest.test_case "worker SIGKILL changes nothing (sweep)" `Quick
          chaos_identical;
        Alcotest.test_case "worker SIGKILL changes nothing (explore)" `Quick
          chaos_explore_identical;
        Alcotest.test_case "hostile shard is reported, not retried forever"
          `Quick hostile_shard;
        Alcotest.test_case "resume runs no shard twice" `Quick resume_no_rerun;
        Alcotest.test_case "resume refuses a different job" `Quick
          resume_rejects_other_job;
        Alcotest.test_case "retry backoff schedule is exact" `Quick
          policy_backoff_schedule;
        Alcotest.test_case "shard is hostile after k+1 kills" `Quick
          policy_hostile_after_k_plus_1;
        Alcotest.test_case "heartbeat pings at half-timeout, once" `Quick
          policy_heartbeat_edges;
        Alcotest.test_case "reconnect backoff: growth, cap, jitter floor"
          `Quick policy_reconnect_jitter;
        Alcotest.test_case "journal survives a torn final line" `Quick
          journal_torn_line_load;
        Alcotest.test_case "journal reopen truncates the torn tail" `Quick
          journal_torn_line_reopen;
        Alcotest.test_case "journal --fsync writes identical bytes" `Quick
          journal_fsync_flag;
        Alcotest.test_case "journal --fsync survives rename-then-reopen"
          `Quick journal_fsync_rename_reopen;
        Alcotest.test_case "explore outlives its shard timeout" `Quick
          explore_outlives_shard_timeout;
        Alcotest.test_case "resume refuses a plan-engine explore journal"
          `Quick resume_refuses_plan_engine_journal;
      ] );
  ]

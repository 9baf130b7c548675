(* The repository benchmark: time to a checked verdict.

     bench.exe --asmsim PATH --workload W --seed N --seconds S --trace 0|1

   runs one workload as a closed loop — one caller that waits for each
   verdict — for S seconds, checks every verdict, and prints every
   metric by name with its unit, then one JSON result line. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] the
   per-layer ones, from a run split into an untraced and a traced half.
   [perfbench/run.sh] builds the program and this file, then runs it. *)

open Experiments
module E = Svm.Explore
module M = Svm.Metrics
module I = Inputs

let now_ns = Sysprobe.now_ns
(* The machine the sizes are chosen for: 2 cores. The service runs
   [nproc] workers. In-process jobs run on [jobs] = 1 domain: on a
   2-vCPU guest a second domain's latency follows the host's steal time
   (explore-clean p50 ranged 153-413 ms over five runs with 2 domains
   and 251-276 ms with 1, run alternately). Parallel scaling and the
   work-stealing counts are measured apart, at [nproc] domains, by the
   traced run ([explore.par_scaling] and the [Svm.Par] metrics). *)
let nproc = 2
let jobs = 1
let job_deadline_s = 30.

exception Deadline

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  asmsim : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  work_root : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --asmsim PATH --workload \
     explore-clean|explore-bugs|soak-corpus|service --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let a =
    ref
      {
        asmsim = "";
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        setup_only = false;
        work_root = ".bench_work";
      }
  in
  let rec go = function
    | "--asmsim" :: v :: r -> a := { !a with asmsim = v }; go r
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: v :: r -> a := { !a with trace = v = "1" }; go r
    | "--work" :: v :: r -> a := { !a with work_root = v }; go r
    | "--setup-only" :: r -> a := { !a with setup_only = true }; go r
    | [] -> ()
    | x :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" x;
        usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  if !a.asmsim = "" || !a.seconds <= 0. then usage ();
  !a

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median_f l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten jobs beyond it: the 11th
   largest sample, and the percentile it stands at. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float (n - 10) /. float n)

let sum_f = List.fold_left ( +. ) 0.
let sum_i = List.fold_left ( + ) 0
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let ms_of_ns ns = fi ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Deadlines                                                            *)
(* ------------------------------------------------------------------ *)

(* In-process jobs poll their deadline through the program's
   [on_progress] heartbeat; the network client is interrupted by
   SIGALRM. Either way a late job raises [Deadline] and counts as
   failed. *)
let deadline = ref infinity

let on_progress ~runs:_ =
  if Unix.gettimeofday () > !deadline then raise Deadline

let () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Deadline))

let with_deadline ~alarm f =
  deadline := Unix.gettimeofday () +. job_deadline_s;
  if alarm then ignore (Unix.alarm (int_of_float job_deadline_s));
  Fun.protect
    ~finally:(fun () ->
      if alarm then ignore (Unix.alarm 0);
      deadline := infinity)
    f

(* ------------------------------------------------------------------ *)
(* Closed loop                                                          *)
(* ------------------------------------------------------------------ *)

type sample = { lat_ms : float; ok : bool }

type loop = {
  samples : sample list;
  wall_s : float;
  cpu_s : float;  (** this process + children, user + system *)
}

(* One caller, one job at a time, until [seconds] have passed. *)
let closed_loop ?(alarm = false) ~children ~seconds run_job =
  let cpu () =
    Sysprobe.self_cpu_s ()
    +. List.fold_left (fun s p -> s +. Sysprobe.child_cpu_s p) 0. (children ())
  in
  let cpu0 = cpu () in
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (seconds *. 1e9) in
  let rec go i acc =
    if now_ns () >= t_end then acc
    else begin
      Tracer.job := i;
      let s = now_ns () in
      let r =
        try
          with_deadline ~alarm (fun () ->
              Tracer.span ~layer:"bench" "job" (fun () -> run_job i))
        with
        | Deadline -> Error "deadline exceeded"
        | e -> Error ("raised " ^ Printexc.to_string e)
      in
      let lat_ms = ms_of_ns (now_ns () - s) in
      (match r with
      | Ok () -> ()
      | Error m -> Printf.eprintf "bench: job %d failed: %s\n%!" i m);
      go (i + 1) ({ lat_ms; ok = Result.is_ok r } :: acc)
    end
  in
  let samples = List.rev (go 0 []) in
  let wall_s = fi (now_ns () - t0) /. 1e9 in
  { samples; wall_s; cpu_s = cpu () -. cpu0 }

let p50_ms l = median_f (List.map (fun s -> s.lat_ms) l.samples)
let failed l = List.length (List.filter (fun s -> not s.ok) l.samples)

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation                                               *)
(* ------------------------------------------------------------------ *)

(* Named sums over the traced jobs; per-layer metrics are ratios of
   these. A metric a workload never touches stays 0. *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k))

let get k = Option.value ~default:0. (Hashtbl.find_opt acc k)
let lists : (string, float list) Hashtbl.t = Hashtbl.create 8

let push k v =
  Hashtbl.replace lists k
    (v :: Option.value ~default:[] (Hashtbl.find_opt lists k))

let list k = Option.value ~default:[] (Hashtbl.find_opt lists k)

let gc_before () = Gc.quick_stat ()

let gc_after (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  add "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  add "gc.major" (fi (g1.Gc.major_collections - g0.Gc.major_collections))

(* Metrics registry counters the explorer fills through [?metrics]. *)
let explore_counters m =
  let c n = fi (M.counter_value m n) in
  add "ex.runs" (c "explore.runs");
  add "ex.hits" (c "explore.visited.hits");
  add "ex.misses" (c "explore.visited.misses");
  add "ex.commutes" (c "explore.pruned_commutes");
  add "ex.source" (c "explore.pruned_source");
  add "ex.bloom_fp" (c "explore.visited.bloom_fp")

(* One traced [Harness.explore_scenario] call: engine passes, property
   calls per pass, the time split at the second [make]. *)
let traced_explore ?max_crashes ?max_steps s =
  Tracer.begin_job ();
  let m = M.create ~wall_clock:true () in
  let t0 = now_ns () in
  let r =
    Tracer.span ~layer:"explore" "Harness.explore_scenario" (fun () ->
        Harness.explore_scenario ?max_crashes ?max_steps ~metrics:m
          ~on_progress ~jobs (Tracer.explore_probe s))
  in
  let t1 = now_ns () in
  add "ex.wall_ns" (fi (t1 - t0));
  add "ex.calls" 1.;
  explore_counters m;
  let passes = List.rev !Tracer.pass_starts in
  let npass = List.length passes in
  let t = Tracer.tallies () in
  let all = Array.fold_left ( + ) 0 t.Tracer.calls in
  let last = t.Tracer.calls.(min (Tracer.max_passes - 1) (max 0 (npass - 1))) in
  add "ex.passes" (fi npass);
  add "prop.calls" (fi all);
  add "prop.calls_reported" (fi last);
  add "prop.ns" (fi t.Tracer.prop_ns_total);
  (match passes with
  | p1 :: p2 :: _ ->
      add "cex.jobs" 1.;
      add "cex.first_ns" (fi (p2 - p1));
      add "cex.rerun_ns" (fi (t1 - p2))
  | _ -> ());
  r

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let find_scn name =
  match Scenario.find name with Ok s -> s | Error m -> failwith m

let compile src =
  Tracer.span ~layer:"sdl" "Scenario.of_source" (fun () ->
      let t0 = now_ns () in
      let r = Scenario.of_source src in
      add "sdl.ns" (fi (now_ns () - t0));
      add "sdl.calls" 1.;
      match r with Ok s -> s | Error m -> failwith ("of_source: " ^ m))

let ( let* ) = Result.bind

(* The rest of [s] after the first occurrence of [pat]. *)
let after s pat =
  let n = String.length pat and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = pat then Some (String.sub s (i + n) (m - i - n))
    else go (i + 1)
  in
  go 0

let check cond msg = if cond then Ok () else Error msg

type workload = {
  setup : string -> unit;  (** given a fresh work directory *)
  teardown : unit -> unit;
  children : unit -> int list;
  run_job : int -> (unit, string) result;
  verify : unit -> (unit, string) result;  (** after every loop *)
  extras : unit -> unit;  (** after the traced loop's [verify] *)
  alarm : bool;
}

let no_children () = []

(* {2 explore-clean} *)

let explore_clean ~seed =
  let job = I.nth I.clean_block ~seed in
  let scns = Hashtbl.create 4 in
  let run ?metrics (j : I.clean) ~traced ~jobs =
    let s = Hashtbl.find scns j.I.c_scn in
    let r =
      if traced then
        traced_explore ~max_crashes:j.I.c_crashes ~max_steps:j.I.c_depth s
      else
        Harness.explore_scenario ?metrics ~max_crashes:j.I.c_crashes
          ~max_steps:j.I.c_depth ~on_progress ~jobs s
    in
    let* r = r in
    let* () = check (r.E.counterexample = None) "unexpected counterexample" in
    check (not r.E.exhausted_budget) "run budget exhausted"
  in
  {
    setup =
      (fun _ ->
        Array.iter
          (fun (c : I.clean) -> Hashtbl.replace scns c.I.c_scn (find_scn c.I.c_scn))
          I.clean_classes);
    teardown = ignore;
    children = no_children;
    alarm = false;
    run_job =
      (fun i ->
        let g0 = gc_before () in
        let r = run (job i) ~traced:!Tracer.on ~jobs in
        if !Tracer.on then gc_after g0;
        r);
    extras =
      (fun () ->
        (* Svm.Par on its own: the first job of the list at jobs=1 and
           at jobs=nproc, three times each, apart from any algorithmic
           change; stealing counts and CPU from the nproc runs. *)
        let j = job 0 in
        let time jobs =
          median_f
            (List.init 3 (fun _ ->
                 let m = M.create ~wall_clock:true () in
                 let cpu0 = Sysprobe.self_cpu_s () in
                 let t0 = now_ns () in
                 ignore (run ~metrics:m j ~traced:false ~jobs);
                 let dt = fi (now_ns () - t0) in
                 if jobs = nproc then begin
                   add "par.calls" 1.;
                   add "par.wall_ns" dt;
                   add "par.cpu_s" (Sysprobe.self_cpu_s () -. cpu0);
                   add "par.steals" (fi (M.counter_value m "explore.par.steals"));
                   add "par.splits" (fi (M.counter_value m "explore.par.splits"))
                 end;
                 dt))
        in
        let t1 = time 1 in
        let tn = time nproc in
        add "par.scaling" (ratio t1 tn));
    verify = (fun () -> Ok ());
  }

(* {2 explore-bugs} *)

let explore_bugs ~seed =
  let job = I.nth I.bug_block ~seed in
  let sweep_traced (s : Scenario.t) ~op_window =
    let sx = Tracer.exec_probe s in
    let plan =
      Tracer.span ~layer:"sweep" "Explore.sweep_plan" (fun () ->
          E.sweep_plan ~op_window ~meta:(Scenario.sweep_meta s)
            ~make:sx.Scenario.make ~monitors:sx.Scenario.monitors ())
    in
    let n = E.sweep_cells plan in
    let verdicts = Array.make n None in
    (* Cells one at a time in sweep order until the first violation, as
       the merge consumes them; one span each. *)
    Tracer.begin_job ();
    let t0 = now_ns () in
    let rec go i =
      if i < n then begin
        let c0 = now_ns () in
        let v =
          Tracer.span ~layer:"sweep" "Explore.sweep_cell" (fun () ->
              E.sweep_cell plan i)
        in
        push "sweep.cell_ns" (fi (now_ns () - c0));
        add "sweep.cells" 1.;
        verdicts.(i) <- Some v;
        match v with E.Violating _ -> () | E.Clean | E.Deadlocked -> go (i + 1)
      end
    in
    go 0;
    let cells_wall = now_ns () - t0 in
    add "exec.ops" (fi (Tracer.tallies ()).Tracer.ops_total);
    add "exec.wall_ns" (fi cells_wall);
    let m = M.create () in
    let t1 = now_ns () in
    let o =
      Tracer.span ~layer:"sweep" "Explore.sweep_merge" (fun () ->
          E.sweep_merge ~metrics:m plan ~verdict_of:(fun i ->
              match verdicts.(i) with Some v -> v | None -> E.sweep_cell plan i))
    in
    add "sweep.merge_ns" (fi (now_ns () - t1));
    add "sweep.shrink_runs" (fi (M.counter_value m "sweep.shrink_runs"));
    add "sweep.jobs" 1.;
    o
  in
  {
    setup =
      (fun _ ->
        List.iter
          (fun src -> ignore (compile src))
          [ I.sa_no_cancel_src; I.xsa_first_subset_src ]);
    teardown = ignore;
    children = no_children;
    alarm = false;
    run_job =
      (fun i ->
        let j = job i in
        let traced = !Tracer.on in
        let g0 = gc_before () in
        let s = compile j.I.b_src in
        let* r =
          if traced then traced_explore ~max_crashes:1 ~max_steps:j.I.b_depth s
          else
            Harness.explore_scenario ~max_crashes:1 ~max_steps:j.I.b_depth
              ~on_progress ~jobs s
        in
        let* () = check (r.E.counterexample <> None) "no counterexample" in
        let o =
          if traced then sweep_traced s ~op_window:j.I.b_window
          else
            Harness.sweep_scenario ~op_window:j.I.b_window ~on_progress ~jobs s
        in
        let* f = Option.to_result ~none:"sweep found no violation" o.E.found in
        let* _, decisions =
          Result.map_error
            (fun e -> Fmt.str "replay artifact: %a" Svm.Trace.pp_parse_error e)
            (Svm.Trace.parse_replay f.E.replay)
        in
        let t0 = now_ns () in
        let replayed =
          Tracer.span ~layer:"replay" "Explore.replay" (fun () ->
              E.replay ~make:s.Scenario.make ~monitors:s.Scenario.monitors
                decisions)
        in
        if traced then begin
          add "replay.ns" (fi (now_ns () - t0));
          add "replay.bytes" (fi (String.length f.E.replay));
          add "replay.calls" 1.;
          gc_after g0
        end;
        match replayed with
        | Error _ -> Ok ()
        | Ok _ -> Error "replay artifact did not re-violate");
    extras = ignore;
    verify = (fun () -> Ok ());
  }

(* {2 soak-corpus} *)

let soak_corpus ~seed =
  let job = I.nth I.soak_block ~seed in
  let dir = ref "" in
  let corpus () = Filename.concat !dir "corpus" in
  let scns = Hashtbl.create 4 in
  let records = ref 0 in
  let fresh_of n =
    match job (n * 3) with
    | I.Fresh f -> (f.scn, f.soak_seed, f.schedules)
    | _ -> assert false
  in
  let soak ~kind scn ~soak_seed ~schedules =
    let s = Hashtbl.find scns scn in
    let s = if !Tracer.on then Tracer.exec_probe s else s in
    let cfg =
      {
        Soak.default_config with
        Soak.seed = soak_seed;
        schedules = Some schedules;
        duration = Some job_deadline_s;
        batch = 800;
        jobs;
      }
    in
    Tracer.begin_job ();
    let g0 = gc_before () in
    let t0 = now_ns () in
    let r =
      Tracer.span ~layer:"soak" "Soak.run" (fun () ->
          Soak.run cfg ~corpus_dir:(corpus ()) s)
    in
    if !Tracer.on then begin
      gc_after g0;
      let dt = fi (now_ns () - t0) in
      add "exec.wall_ns" dt;
      add "exec.ops" (fi (Tracer.tallies ()).Tracer.ops_total);
      match r with
      | Ok o ->
          add (kind ^ ".ns") dt;
          add (kind ^ ".schedules") (fi o.Soak.o_executed);
          add (kind ^ ".jobs") 1.;
          add (kind ^ ".new") (fi (List.length o.Soak.o_new_findings));
          add (kind ^ ".dup") (fi o.Soak.o_dup_findings);
          add "soak.heap_growth" (fi o.Soak.o_heap_growth_words);
          add "soak.jobs" 1.
      | Error _ -> ()
    end;
    let* o = r in
    let before = !records in
    records := o.Soak.o_corpus_records;
    let* () =
      check (o.Soak.o_executed = schedules)
        (Printf.sprintf "soaked %d of %d schedules" o.Soak.o_executed schedules)
    in
    Ok (o, before)
  in
  let replay_corpus () =
    (* Corpus.Store on its own: re-add the soaked records to a fresh
       store, cementing every 256, then reopen it. *)
    let recs =
      match
        Tracer.span ~layer:"corpus" "Store.open_" (fun () ->
            Corpus.Store.open_ (corpus ()))
      with
      | Error m -> failwith m
      | Ok st ->
          let l =
            Corpus.Store.fold st ~init:[] ~f:(fun acc ~digest:_ r -> r :: acc)
          in
          Corpus.Store.close st;
          List.filteri (fun i _ -> i < 4096) (List.rev l)
    in
    let fresh = Filename.concat !dir "replayed" in
    match Corpus.Store.open_ fresh with
    | Error m -> failwith m
    | Ok st ->
        List.iteri
          (fun i r ->
            let t0 = now_ns () in
            ignore
              (Tracer.span ~layer:"corpus" "Store.add" (fun () ->
                   Corpus.Store.add st r));
            push "corpus.add_ns" (fi (now_ns () - t0));
            if (i + 1) mod 256 = 0 then begin
              let t0 = now_ns () in
              Tracer.span ~layer:"corpus" "Store.cement" (fun () ->
                  Corpus.Store.cement st);
              push "corpus.cement_ns" (fi (now_ns () - t0))
            end)
          recs;
        Corpus.Store.cement st;
        let n = Corpus.Store.count st in
        Corpus.Store.close st;
        let t0 = now_ns () in
        (match
           Tracer.span ~layer:"corpus" "Store.open_" (fun () ->
               Corpus.Store.open_ fresh)
         with
        | Ok st -> Corpus.Store.close st
        | Error m -> failwith m);
        add "corpus.open_ns" (fi (now_ns () - t0));
        add "corpus.bytes_per_record" (ratio (fi (Sysprobe.du fresh)) (fi n))
  in
  {
    setup =
      (fun d ->
        dir := d;
        records := 0;
        List.iter
          (fun n -> Hashtbl.replace scns n (find_scn n))
          [ "x_safe_agreement_first_subset"; "safe_agreement" ];
        match Corpus.Store.open_ (corpus ()) with
        | Ok st -> Corpus.Store.close st
        | Error m -> failwith m);
    teardown = ignore;
    children = no_children;
    alarm = false;
    run_job =
      (fun i ->
        match job i with
        | I.Fresh { scn; soak_seed; schedules } ->
            let* o, _ = soak ~kind:"soak.write" scn ~soak_seed ~schedules in
            check
              (o.Soak.o_new_findings <> [] || o.Soak.o_dup_findings > 0)
              "a seeded-bug slice produced no finding"
        | I.Resoak n ->
            let scn, soak_seed, schedules = fresh_of n in
            let* o, before = soak ~kind:"soak.reread" scn ~soak_seed ~schedules in
            let* () =
              check (o.Soak.o_new_findings = []) "re-soak appended findings"
            in
            let* () = check (o.Soak.o_dup_findings > 0) "re-soak found nothing" in
            check
              (o.Soak.o_corpus_records = before)
              (Printf.sprintf "re-soak grew the corpus from %d to %d records"
                 before o.Soak.o_corpus_records)
        | I.Clean { soak_seed; schedules } ->
            let* o, _ =
              soak ~kind:"soak.clean" "safe_agreement" ~soak_seed ~schedules
            in
            check
              (o.Soak.o_new_findings = [] && o.Soak.o_dup_findings = 0)
              "healthy safe_agreement produced a finding");
    extras = replay_corpus;
    verify = (fun () -> Ok ());
  }

(* {2 service} *)

type net_done = {
  nd_job : Dist.Proto.job;
  nd_spec : I.net;
  nd_outcome : Dist.Client.outcome;
  nd_t0_us : float;
  nd_t1_us : float;
}

let service ~seed ~asmsim =
  let job = I.nth I.service_block ~seed in
  let dir = ref "" in
  let server = ref None and workers = ref [] in
  let addr = ref None in
  let spans_oc = ref None in
  let finished : net_done list ref = ref [] in
  let client_cfg () =
    {
      (Dist.Client.default_config
         ~fingerprint:(Harness.registry_fingerprint ()) ())
      with
      Dist.Client.spans =
        Option.map
          (fun oc -> Dist.Span.create ~proc:"client" ~oc)
          !spans_oc;
    }
  in
  let the_addr () = Option.get !addr in
  let stats () =
    match Dist.Client.stats_query (client_cfg ()) (the_addr ()) with
    | Ok j -> j
    | Error m -> failwith ("stats_query: " ^ m)
  in
  let counter j name =
    let open Svm.Json in
    Option.value ~default:0
      (Option.bind (member "metrics" j) (fun m ->
           Option.bind (member "counters" m) (fun c ->
               Option.bind (member name c) to_int)))
  in
  let workers_up j =
    let open Svm.Json in
    Option.bind (member "health" j) (fun h ->
        Option.bind (member "workers" h) to_int)
    = Some nproc
  in
  let scenario_of = function
    | I.Builtin n -> find_scn n
    | I.Source src -> compile src
  in
  let build i (spec : I.net) =
    let s = scenario_of spec.I.n_scn in
    (* Every job gets a fingerprint the server has never seen: a run
       cap that none of these jobs reaches. *)
    match spec.I.n_mode with
    | I.Sweep { tiers; window } ->
        let kinds =
          List.map
            (fun t -> Option.get (Svm.Adversary.fault_kind_of_name t))
            tiers
        in
        Harness.sweep_job ~kinds ~op_window:window ~max_runs:(5_000 + i) s
    | I.Explore { crashes; depth } ->
        Harness.explore_job ~max_crashes:crashes ~max_steps:depth
          ~max_runs:(2_000_000 + i) s
  in
  let traced_fleet () = !spans_oc <> None in
  let span_file name = Filename.concat !dir (name ^ ".spans") in
  let stats_before = ref 0 and frames_before = ref 0 in
  let frames j = counter j "net_frames_in_total" + counter j "net_frames_out_total" in
  let setup d =
    dir := d;
    finished := [];
    let spans = !Tracer.on in
    let srv_err = Filename.concat d "serve.err" in
    let srv =
      Sysprobe.spawn ~stderr_file:srv_err asmsim
        ([ "serve"; "--listen"; "127.0.0.1:0"; "--journal-dir";
           Filename.concat d "jobs" ]
        @ if spans then [ "--spans"; span_file "serve" ] else [])
    in
    server := Some srv;
    let port =
      match
        Sysprobe.wait_in_file srv_err (fun s ->
            match after s "listening on port " with
            | Some rest -> Scanf.sscanf_opt rest "%d" (fun p -> p)
            | None -> None)
      with
      | Ok p -> p
      | Error m -> failwith m
    in
    let hp = Printf.sprintf "127.0.0.1:%d" port in
    addr := Some (Result.get_ok (Dist.Net.parse_addr hp));
    workers :=
      List.init nproc (fun k ->
          let name = Printf.sprintf "worker%d" k in
          Sysprobe.spawn
            ~stderr_file:(Filename.concat d (name ^ ".err"))
            asmsim
            ([ "work"; "--connect"; hp ]
            @ if spans then [ "--spans"; span_file name ] else []));
    if spans then
      spans_oc := Some (open_out (span_file "client"));
    let t_end = Unix.gettimeofday () +. 20. in
    let rec wait () =
      if not (workers_up (stats ())) then
        if Unix.gettimeofday () > t_end then failwith "workers never connected"
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    in
    wait ();
    let j = stats () in
    stats_before := counter j "net_cache_hits_total";
    frames_before := frames j
  in
  let teardown () =
    Option.iter close_out !spans_oc;
    spans_oc := None;
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        Sysprobe.reap pid)
      !server;
    List.iter (fun pid -> Sysprobe.reap ~timeout:5. pid) !workers;
    server := None;
    workers := []
  in
  let submit job =
    Tracer.span ~layer:"net" "Harness.submit_job_net" (fun () ->
        Harness.submit_job_net (client_cfg ()) job (the_addr ()))
  in
  let run_job i =
    let spec = job i in
    let j = build i spec in
    let t0 = Unix.gettimeofday () in
    let* sub, st = submit j in
    let t1 = Unix.gettimeofday () in
    let* outcome =
      match sub with
      | Dist.Client.Finished o -> Ok o
      | Dist.Client.Suspended id -> Error ("job suspended as " ^ id)
    in
    if traced_fleet () then begin
      add "dist.shards" (fi st.Dist.Client.executed);
      add "dist.jobs" 1.
    end;
    finished :=
      { nd_job = j; nd_spec = spec; nd_outcome = outcome;
        nd_t0_us = t0 *. 1e6; nd_t1_us = t1 *. 1e6 }
      :: !finished;
    let* () =
      check (st.Dist.Client.resumed = 0) "answered from the journal cache"
    in
    check (st.Dist.Client.executed > 0) "no shard executed"
  in
  (* Every served outcome against the in-process outcome of the same
     job. Explore jobs compare verdicts: the served path runs the plan
     engine, whose explored and pruned counts differ from the default
     engine's by design. *)
  let sweep_digest (o : E.sweep_outcome) =
    Fmt.str "%d|%b|%a|%s" o.E.runs o.E.exhausted
      Fmt.(option E.pp_fault_schedule) o.E.deadlock
      (match o.E.found with
      | None -> "-"
      | Some f ->
          Fmt.str "%a|%d|%s" E.pp_fault_schedule f.E.shrunk f.E.shrink_runs
            f.E.replay)
  in
  let explore_digest (r : Svm.Univ.t E.result) =
    Fmt.str "%b|%s" r.E.exhausted_budget
      (match r.E.counterexample with
      | None -> "-"
      | Some (run, msg) -> run.E.schedule ^ "|" ^ msg)
  in
  let local (d : net_done) =
    let s =
      match d.nd_spec.I.n_scn with
      | I.Builtin n -> find_scn n
      | I.Source src -> (
          match Scenario.of_source src with
          | Ok s -> s
          | Error m -> failwith m)
    in
    match d.nd_job.Dist.Proto.mode with
    | Dist.Proto.Sweep p ->
        let kinds =
          List.map
            (fun t -> Option.get (Svm.Adversary.fault_kind_of_name t))
            p.Dist.Proto.sw_tiers
        in
        `Sweep
          (Harness.sweep_scenario ~kinds ~max_faults:p.Dist.Proto.sw_max_faults
             ~op_window:p.Dist.Proto.sw_op_window
             ~max_runs:p.Dist.Proto.sw_max_runs ?budget:p.Dist.Proto.sw_budget
             ~jobs:nproc s)
    | Dist.Proto.Explore p -> (
        match
          Harness.explore_scenario ~max_crashes:p.Dist.Proto.ex_max_crashes
            ~max_runs:p.Dist.Proto.ex_max_runs
            ~max_steps:p.Dist.Proto.ex_max_steps ~dedup:p.Dist.Proto.ex_dedup
            ~jobs:nproc s
        with
        | Ok r -> `Explore r
        | Error m -> failwith m)
  in
  let verify () =
    let j = stats () in
    let hits = counter j "net_cache_hits_total" - !stats_before in
    let bad =
      List.filter_map
        (fun d ->
          let same =
            match (d.nd_outcome, local d) with
            | Dist.Client.Sweep_outcome a, `Sweep b ->
                sweep_digest a = sweep_digest b
            | Dist.Client.Explore_outcome a, `Explore b ->
                explore_digest a = explore_digest b
            | _ -> false
          in
          if same then None
          else Some (Dist.Proto.job_fingerprint d.nd_job))
        !finished
    in
    if bad <> [] then
      Error
        (Printf.sprintf "%d served outcome(s) differ from in-process: %s"
           (List.length bad) (String.concat "; " bad))
    else if hits <> 0 then
      Error (Printf.sprintf "%d journal cache hit(s) during the loop" hits)
    else Ok ()
  in
  let extras () =
    let j = stats () in
    add "dist.cache_hits" (fi (counter j "net_cache_hits_total" - !stats_before));
    add "dist.frames" (fi (frames j - !frames_before));
    add "dist.retries" (fi (counter j "net_shard_retries_total"));
    add "dist.journal_bytes" (fi (Sysprobe.du (Filename.concat !dir "jobs")));
    (* The cache measured on purpose: the first job, re-submitted. *)
    (match List.rev !finished with
    | d :: _ ->
        let t0 = now_ns () in
        (match submit d.nd_job with
        | Ok (_, st) when st.Dist.Client.executed = 0 -> ()
        | Ok _ -> prerr_endline "bench: re-submission was not a cache hit"
        | Error m -> prerr_endline ("bench: re-submission failed: " ^ m));
        add "dist.cache_hit_ns" (fi (now_ns () - t0))
    | [] -> ());
    (* Close the fleet so every span file is complete, then read the
       server's, the workers' and our own. *)
    let done_jobs = !finished in
    teardown ();
    let by_job = Hashtbl.create 64 in
    List.iter
      (fun name ->
        match Dist.Span.load_file (span_file name) with
        | Error m -> prerr_endline ("bench: " ^ m)
        | Ok (ps, _) ->
            List.iter
              (fun (p : Svm.Timeline.pspan) ->
                Hashtbl.replace by_job p.Svm.Timeline.ps_job
                  (p :: Option.value ~default:[]
                          (Hashtbl.find_opt by_job p.Svm.Timeline.ps_job)))
              ps)
      ("serve" :: "client"
      :: List.init nproc (fun k -> Printf.sprintf "worker%d" k));
    List.iter
      (fun d ->
        let tag = Dist.Span.job_tag (Dist.Proto.job_fingerprint d.nd_job) in
        let ps = Option.value ~default:[] (Hashtbl.find_opt by_job tag) in
        let phase_ms ph =
          fi
            (sum_i
               (List.filter_map
                  (fun (p : Svm.Timeline.pspan) ->
                    if List.mem p.Svm.Timeline.ps_phase ph then
                      Some p.Svm.Timeline.ps_dur
                    else None)
                  ps))
          /. 1e3
        in
        add "dist.admit_ms" (phase_ms [ "submit"; "admit" ]);
        add "dist.dispatch_ms" (phase_ms [ "dispatch"; "receive" ]);
        add "dist.execute_ms" (phase_ms [ "execute" ]);
        add "dist.reply_ms" (phase_ms [ "reply" ]);
        add "dist.collect_ms" (phase_ms [ "collect" ]);
        add "dist.merge_ms" (phase_ms [ "merge" ]);
        (* Latency no span of any process covers. *)
        let iv =
          List.sort compare
            (List.filter_map
               (fun (p : Svm.Timeline.pspan) ->
                 let a = max d.nd_t0_us (fi p.Svm.Timeline.ps_ts) in
                 let b =
                   min d.nd_t1_us
                     (fi (p.Svm.Timeline.ps_ts + p.Svm.Timeline.ps_dur))
                 in
                 if b > a then Some (a, b) else None)
               ps)
        in
        let covered, _ =
          List.fold_left
            (fun (cov, reach) (a, b) ->
              let a = max a reach in
              if b > a then (cov +. (b -. a), b) else (cov, reach))
            (0., neg_infinity) iv
        in
        add "dist.wait_ms" ((d.nd_t1_us -. d.nd_t0_us -. covered) /. 1e3))
      done_jobs
  in
  {
    setup;
    teardown;
    children =
      (fun () -> Option.to_list !server @ !workers);
    alarm = true;
    run_job;
    extras;
    verify;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let per_job k = ratio (get k) (get "jobs")

let per_layer ~untraced_p50 ~traced_p50 ~failed_ratio =
  let ex_calls = get "ex.calls" in
  let lookups = get "ex.hits" +. get "ex.misses" in
  let self = Tracer.self_ns_by_layer () in
  let self_ms layer =
    ratio
      (fi (Option.value ~default:0 (Hashtbl.find_opt self layer)) /. 1e6)
      (get "jobs")
  in
  let p50_of k = median_f (list k) in
  let soak k = ratio (get ("soak." ^ k ^ ".schedules")) (get ("soak." ^ k ^ ".ns") /. 1e9) in
  [
    ("explore.runs_per_job", "count", ratio (get "ex.runs") ex_calls);
    ("explore.visited_hit_ratio", "ratio", ratio (get "ex.hits") lookups);
    ("explore.visited_misses_per_s", "1/s",
      ratio (get "ex.misses") (get "ex.wall_ns" /. 1e9));
    ("explore.commutes_pruned_per_run", "count",
      ratio (get "ex.commutes") (get "ex.runs"));
    ("explore.source_pruned_per_run", "count",
      ratio (get "ex.source") (get "ex.runs"));
    ("explore.bloom_fp_ratio", "ratio", ratio (get "ex.bloom_fp") lookups);
    ("explore.steals_per_job", "count", ratio (get "par.steals") (get "par.calls"));
    ("explore.splits_per_job", "count", ratio (get "par.splits") (get "par.calls"));
    ("explore.cpu_util", "ratio",
      ratio (get "par.cpu_s") (get "par.wall_ns" /. 1e9 *. fi nproc));
    ("explore.par_scaling", "ratio", get "par.scaling");
    ("explore.engine_passes_per_job", "count", ratio (get "ex.passes") ex_calls);
    ("explore.cex_useful_ratio", "ratio",
      ratio (get "prop.calls_reported") (get "prop.calls"));
    ("explore.cex_first_pass_ms", "ms",
      ratio (get "cex.first_ns" /. 1e6) (get "cex.jobs"));
    ("explore.cex_rerun_ms", "ms",
      ratio (get "cex.rerun_ns" /. 1e6) (get "cex.jobs"));
    ("monitor.property_share", "ratio",
      ratio (get "prop.ns") (get "job.ns" *. fi jobs));
    ("sweep.cells_per_job", "count", ratio (get "sweep.cells") (get "sweep.jobs"));
    ("sweep.cell_us_p50", "us", p50_of "sweep.cell_ns" /. 1e3);
    ("sweep.merge_ms", "ms",
      ratio (get "sweep.merge_ns" /. 1e6) (get "sweep.jobs"));
    ("sweep.shrink_runs_per_job", "count",
      ratio (get "sweep.shrink_runs") (get "sweep.jobs"));
    ("exec.ops_per_s", "1/s", ratio (get "exec.ops") (get "exec.wall_ns" /. 1e9));
    ("trace.replay_bytes", "bytes",
      ratio (get "replay.bytes") (get "replay.calls"));
    ("trace.replay_check_ms", "ms",
      ratio (get "replay.ns" /. 1e6) (get "replay.calls"));
    ("sdl.frontend_us", "us", ratio (get "sdl.ns" /. 1e3) (get "sdl.calls"));
    ("soak.write_schedules_per_s", "1/s", soak "write");
    ("soak.reread_schedules_per_s", "1/s", soak "reread");
    ("soak.new_findings", "count",
      ratio (get "soak.write.new") (get "soak.write.jobs"));
    ("soak.dup_findings", "count",
      ratio (get "soak.reread.dup") (get "soak.reread.jobs"));
    ("soak.heap_growth_words", "words",
      ratio (get "soak.heap_growth") (get "soak.jobs"));
    ("corpus.add_us_p50", "us", p50_of "corpus.add_ns" /. 1e3);
    ("corpus.cement_ms_p50", "ms", p50_of "corpus.cement_ns" /. 1e6);
    ("corpus.open_ms", "ms", get "corpus.open_ns" /. 1e6);
    ("corpus.bytes_per_record", "bytes", get "corpus.bytes_per_record");
    ("dist.admit_ms", "ms", per_job "dist.admit_ms");
    ("dist.dispatch_ms", "ms", per_job "dist.dispatch_ms");
    ("dist.execute_ms", "ms", per_job "dist.execute_ms");
    ("dist.reply_ms", "ms", per_job "dist.reply_ms");
    ("dist.collect_ms", "ms", per_job "dist.collect_ms");
    ("dist.merge_ms", "ms", per_job "dist.merge_ms");
    ("dist.wait_ms", "ms", per_job "dist.wait_ms");
    ("dist.frames_per_job", "count", per_job "dist.frames");
    ("dist.shards_per_job", "count", ratio (get "dist.shards") (get "dist.jobs"));
    ("dist.shard_retries", "count", get "dist.retries");
    ("dist.journal_bytes_per_job", "bytes", per_job "dist.journal_bytes");
    ("dist.cache_hits", "count", get "dist.cache_hits");
    ("dist.cache_hit_ms", "ms", get "dist.cache_hit_ns" /. 1e6);
    ("gc.minor_mb_per_job", "MiB",
      per_job "gc.minor_words" *. fi (Sys.word_size / 8) /. 1048576.);
    ("gc.major_collections_per_job", "count", per_job "gc.major");
    ("gc.top_heap_mb", "MiB",
      fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.);
    ("self.bench_ms", "ms", self_ms "bench");
    ("self.sdl_ms", "ms", self_ms "sdl");
    ("self.explore_ms", "ms", self_ms "explore");
    ("self.sweep_ms", "ms", self_ms "sweep");
    ("self.replay_ms", "ms", self_ms "replay");
    ("self.soak_ms", "ms", self_ms "soak");
    ("self.corpus_ms", "ms", self_ms "corpus");
    ("self.net_ms", "ms", self_ms "net");
    ("bench.trace_overhead_ratio", "ratio", ratio traced_p50 untraced_p50);
    ("failed_ratio", "ratio", failed_ratio);
  ]

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-34s %14.6g %s\n" name v unit)
    metrics;
  Printf.printf "failed_ratio %.6g (%d failed of %d attempted)\n"
    (ratio (fi failed) (fi attempted))
    failed attempted;
  let body =
    String.concat ","
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name
             (if Float.is_finite v then v else 0.)
             unit)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let make_workload a =
  match a.workload with
  | "explore-clean" -> explore_clean ~seed:a.seed
  | "explore-bugs" -> explore_bugs ~seed:a.seed
  | "soak-corpus" -> soak_corpus ~seed:a.seed
  | "service" -> service ~seed:a.seed ~asmsim:a.asmsim
  | w ->
      Printf.eprintf "bench: unknown workload %s\n" w;
      usage ()

let fresh_dir a tag =
  let d =
    Filename.concat a.work_root
      (Printf.sprintf "%s-%d-%s" a.workload (Unix.getpid ()) tag)
  in
  Sysprobe.rm_rf d;
  Sysprobe.mkdir_p d;
  d

(* Setup time from a cold process: a fresh copy of this program is
   started in [--setup-only] mode, sets the workload up, says "ready"
   on stdout and tears down. Timed from spawn to "ready"; the median
   of [setup_runs]. *)
let setup_runs = 9

let setup_s a =
  let self = Sys.executable_name in
  let times =
    List.init setup_runs (fun k ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        let err =
          Filename.concat a.work_root
            (Printf.sprintf "setup-%d.err" (Unix.getpid ()))
        in
        let t0 = now_ns () in
        let pid =
          Sysprobe.spawn ~stdout:wr ~stderr_file:err self
            [ "--setup-only"; "--asmsim"; a.asmsim; "--workload"; a.workload;
              "--seed"; string_of_int a.seed; "--work"; a.work_root;
              "--trace"; "0"; "--seconds"; string_of_int (k + 1) ]
        in
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let line = try input_line ic with End_of_file -> "" in
        let t = fi (now_ns () - t0) /. 1e9 in
        close_in ic;
        Sysprobe.reap ~timeout:30. pid;
        if line <> "ready" then
          failwith
            ("set-up in a fresh process failed: "
            ^ Option.value ~default:"" (Sysprobe.read_file err));
        Sys.remove err;
        t)
  in
  median_f times

let setup_only a =
  let w = make_workload a in
  let d = fresh_dir a "setup" in
  w.setup d;
  print_endline "ready";
  w.teardown ();
  Sysprobe.rm_rf d;
  exit 0

let peak_rss_mb (w : workload) =
  fi
    (Sysprobe.peak_rss_kb 0
    + sum_i (List.map Sysprobe.peak_rss_kb (w.children ())))
  /. 1024.

let main () =
  let a = parse_args () in
  Sysprobe.mkdir_p a.work_root;
  at_exit Sysprobe.kill_all;
  if a.setup_only then setup_only a;
  let setup_s = if a.trace then 0. else setup_s a in
  let w = make_workload a in
  let run_loop ~seconds ~traced =
    Tracer.on := traced;
    let d = fresh_dir a (if traced then "traced" else "plain") in
    w.setup d;
    let l =
      closed_loop ~alarm:w.alarm ~children:w.children ~seconds w.run_job
    in
    let rss = peak_rss_mb w in
    let v = w.verify () in
    if traced then w.extras ();
    w.teardown ();
    Tracer.on := false;
    Sysprobe.rm_rf d;
    (l, rss, v)
  in
  let report_verify = function
    | Ok () -> true
    | Error m ->
        Printf.eprintf "bench: wrong verdict: %s\n%!" m;
        false
  in
  if not a.trace then begin
    let l, rss, v = run_loop ~seconds:a.seconds ~traced:false in
    let lat = List.map (fun s -> s.lat_ms) l.samples in
    let n = List.length lat in
    let tail_ms, tail_pct = tail lat in
    let f = failed l in
    Printf.printf "workload %s seed %d: %d jobs in %.2f s (closed loop, 1 caller)\n"
      a.workload a.seed n l.wall_s;
    Printf.printf "job_tail_ms is p%.1f over %d jobs\n" tail_pct n;
    let correct = report_verify v && f = 0 && n > 0 in
    print_result ~correct ~attempted:(max 1 n) ~failed:(if n = 0 then 1 else f)
      [
        ("setup_s", "s", setup_s);
        ("job_p50_ms", "ms", median_f lat);
        ("job_tail_ms", "ms", tail_ms);
        ("jobs_per_s", "1/s", ratio (fi n) l.wall_s);
        ("cpu_ms_per_job", "ms", ratio (l.cpu_s *. 1000.) (fi n));
        ("peak_rss_mb", "MiB", rss);
      ];
    if not correct then exit 1
  end
  else begin
    let half = a.seconds /. 2. in
    let l0, _, v0 = run_loop ~seconds:half ~traced:false in
    let l1, _, v1 = run_loop ~seconds:half ~traced:true in
    Hashtbl.replace acc "jobs" (fi (List.length l1.samples));
    Hashtbl.replace acc "job.ns"
      (sum_f (List.map (fun s -> s.lat_ms *. 1e6) l1.samples));
    let spans_file =
      Filename.concat a.work_root
        (Printf.sprintf "spans-%s-seed%d.jsonl" a.workload a.seed)
    in
    Tracer.write_jsonl spans_file;
    Printf.printf "spans written to %s\n" spans_file;
    let attempted = List.length l0.samples + List.length l1.samples in
    let f = failed l0 + failed l1 in
    let ok0 = report_verify v0 in
    let ok1 = report_verify v1 in
    let correct = ok0 && ok1 && f = 0 && List.length l1.samples > 0 in
    print_result ~correct ~attempted:(max 1 attempted) ~failed:f
      (per_layer ~untraced_p50:(p50_ms l0) ~traced_p50:(p50_ms l1)
         ~failed_ratio:(ratio (fi f) (fi (max 1 attempted))));
    if not correct then exit 1
  end

let () = main ()

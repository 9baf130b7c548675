(* The parallel explorer's determinism contract, and the copy-free
   machinery under it: jobs ∈ {1, 2, 4, 8} must produce identical
   results and byte-identical merged metrics; the shared visited and
   interning tables must stay linearizable under concurrent insert
   storms; the undo journal must restore the exact pre-checkpoint
   state; canonical fingerprints must not depend on instance creation
   order; dedup must never change a verdict. *)

open Svm
open Svm.Prog.Syntax

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* jobs determinism on the seeded bugs                                  *)
(* ------------------------------------------------------------------ *)

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* [oversubscribe] so the multi-domain code paths really run even on a
   single-core CI host (Par.run otherwise caps jobs at the machine). *)
let run_jobs ~jobs ~max_crashes (s : Experiments.Scenario.t) =
  let metrics = Metrics.create ~wall_clock:false () in
  let r =
    Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes
      ~max_steps:s.Experiments.Scenario.explore_steps ~metrics
      ~make:s.Experiments.Scenario.make
      ~property:s.Experiments.Scenario.exhaustive_property ()
  in
  (r, Metrics.snapshot_string metrics)

let cex_repr = function
  | None -> "none"
  | Some (run, msg) ->
      Printf.sprintf "%s | %s | crashed=[%s] | truncated=%b"
        run.Explore.schedule msg
        (String.concat ";" (List.map string_of_int run.Explore.crashed))
        run.Explore.truncated

let same_results label ((r1 : Univ.t Explore.result), m1) (r2, m2) =
  check Alcotest.int (label ^ ": explored") r1.Explore.explored
    r2.Explore.explored;
  check Alcotest.int (label ^ ": pruned states") r1.Explore.pruned_states
    r2.Explore.pruned_states;
  check Alcotest.int (label ^ ": pruned commutes") r1.Explore.pruned_commutes
    r2.Explore.pruned_commutes;
  check Alcotest.int (label ^ ": pruned source") r1.Explore.pruned_source
    r2.Explore.pruned_source;
  Alcotest.(check bool)
    (label ^ ": exhausted")
    r1.Explore.exhausted_budget r2.Explore.exhausted_budget;
  check Alcotest.string
    (label ^ ": counterexample")
    (cex_repr r1.Explore.counterexample)
    (cex_repr r2.Explore.counterexample);
  check Alcotest.string (label ^ ": metrics snapshot") m1 m2

let jobs_determinism ~name ~max_crashes ~expect_cex () =
  let s = scenario name in
  let ((base_r, _) as base) = run_jobs ~jobs:1 ~max_crashes s in
  List.iter
    (fun jobs ->
      same_results
        (Printf.sprintf "%s jobs=%d" name jobs)
        base
        (run_jobs ~jobs ~max_crashes s))
    [ 2; 4; 8 ];
  if expect_cex then
    Alcotest.(check bool)
      (name ^ ": seeded bug found")
      true
      (base_r.Explore.counterexample <> None)

let no_cancel_jobs () =
  jobs_determinism ~name:"safe_agreement_no_cancel" ~max_crashes:0
    ~expect_cex:true ()

let first_subset_jobs () =
  (* Crash branching included: the first-subset bug's exploration at its
     default depth must merge identically at any job count. *)
  jobs_determinism ~name:"x_safe_agreement_first_subset" ~max_crashes:1
    ~expect_cex:false ()

(* A deliberately lopsided tree — one process with a long write chain,
   two with a single op each — so the DFS spends most of its time in
   one subtree and a starving sibling domain can only make progress by
   stealing deep inside it. The merged result must still be identical
   at every job count. *)
let skewed_make () =
  let env = Env.create ~nprocs:3 ~x:1 () in
  let writes fam n =
    let rec go i =
      if i > n then Prog.return (Codec.int.Codec.inj i)
      else
        let* () = Prog.reg_write Codec.int fam [ i ] i in
        go (i + 1)
    in
    go 1
  in
  (env, [| writes "A" 9; writes "B" 1; writes "C" 1 |])

let skewed_steals () =
  let run jobs =
    let metrics = Metrics.create ~wall_clock:false () in
    let r =
      Explore.exhaustive ~jobs ~oversubscribe:true ~max_steps:12
        ~metrics ~make:skewed_make
        ~property:(fun _ -> Ok ())
        ()
    in
    (r, Metrics.snapshot_string metrics)
  in
  let ((base_r, _) as base) = run 1 in
  Alcotest.(check bool) "skewed tree explored" true (base_r.Explore.explored > 0);
  List.iter
    (fun jobs -> same_results (Printf.sprintf "skewed jobs=%d" jobs) base
        (run jobs))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* counterexample pins: engine C's serial DFS against recorded values   *)
(* ------------------------------------------------------------------ *)

(* The serial DFS defines the counterexample and the run-budget cut, so
   these pin what it returns at those stops, at jobs 1 and 2 (a stopped
   two-domain pass is redone serially): the seeded bugs at the
   explore-bugs benchmark's depths, the clean scenario at the service
   workload's, and a budget that cuts the clean scope mid-tree. Each
   counterexample must also be a real run: its schedule rebuilds the
   same run record and the property rejects it the same way, and as a
   replay artifact it makes the scenario's monitors fire again. *)
let cex_pins =
  [
    ( "x_safe_agreement_first_subset", 1, 16, None,
      (5288, 750, 26767, 261, 5288, 16061, false),
      Some "0.0.0.1.1.2.2.2.2.2.2.2.0.0.0.2" );
    ( "x_safe_agreement_first_subset", 1, 17, None,
      (6645, 1684, 37122, 301, 6645, 21696, false),
      Some "0.0.0.1.1.X1.2.2.2.2.2.2.2.0.0.0.2" );
    ( "safe_agreement_no_cancel", 1, 18, None,
      (152, 840, 1084, 9, 118, 1475, false),
      Some "1.1.1.1.0.0.0.0.0.1" );
    ( "safe_agreement", 1, 10, None,
      (11055, 4808, 12385, 1051, 11055, 20062, false),
      None );
    ( "safe_agreement", 2, 10, None,
      (12441, 8970, 14360, 1216, 12363, 23075, false),
      None );
    (* the run budget cuts the serial DFS at exactly 5000 runs *)
    ( "safe_agreement", 1, 10, Some 5000,
      (5000, 1497, 5857, 450, 5000, 9124, true),
      None );
  ]

let decisions_of_schedule sched =
  String.split_on_char '.' sched
  |> List.map (fun tok ->
         if tok.[0] = 'X' then
           Trace.Crash (int_of_string (String.sub tok 1 (String.length tok - 1)))
         else Trace.Sched (int_of_string tok))

let cex_golden () =
  List.iter
    (fun (name, max_crashes, max_steps, max_runs, counts, sched) ->
      let explored, pruned_s, pruned_c, pruned_src, truncated, misses, exhausted
          =
        counts
      in
      let s = scenario name in
      List.iter
        (fun jobs ->
          let metrics = Metrics.create ~wall_clock:false () in
          let r =
            Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes ?max_runs
              ~max_steps ~metrics ~make:s.Experiments.Scenario.make
              ~property:s.Experiments.Scenario.exhaustive_property ()
          in
          let label =
            Printf.sprintf "%s crashes=%d depth=%d%s jobs=%d" name max_crashes
              max_steps
              (match max_runs with
              | Some n -> Printf.sprintf " max_runs=%d" n
              | None -> "")
              jobs
          in
          check Alcotest.int (label ^ ": explored") explored r.Explore.explored;
          check Alcotest.int (label ^ ": pruned states") pruned_s
            r.Explore.pruned_states;
          check Alcotest.int (label ^ ": pruned commutes") pruned_c
            r.Explore.pruned_commutes;
          check Alcotest.int (label ^ ": pruned source") pruned_src
            r.Explore.pruned_source;
          Alcotest.(check bool)
            (label ^ ": exhausted") exhausted r.Explore.exhausted_budget;
          check Alcotest.string
            (label ^ ": counterexample")
            (match sched with
            | None -> "none"
            | Some sched -> sched ^ " | agreement: two distinct values decided")
            (match r.Explore.counterexample with
            | None -> "none"
            | Some (run, msg) -> run.Explore.schedule ^ " | " ^ msg);
          check Alcotest.string (label ^ ": metrics snapshot")
            (Printf.sprintf
               "{\"counters\":{%s\"explore.pruned_commutes\":%d,\"explore.pruned_source\":%d,\"explore.pruned_states\":%d,\"explore.runs\":%d,%s\"explore.visited.hits\":%d,\"explore.visited.misses\":%d},\"gauges\":{},\"histograms\":{}}"
               (if sched = None then "" else "\"explore.counterexamples\":1,")
               pruned_c pruned_src pruned_s explored
               (if truncated = 0 then ""
                else Printf.sprintf "\"explore.truncated\":%d," truncated)
               pruned_s misses)
            (Metrics.snapshot_string metrics);
          match r.Explore.counterexample with
          | None -> ()
          | Some (run, msg) ->
              (match
                 Explore.run_of_schedule ~max_crashes ~max_steps
                   ~make:s.Experiments.Scenario.make run.Explore.schedule
               with
              | Error m -> Alcotest.failf "%s: schedule does not rebuild: %s" label m
              | Ok run' ->
                  check Alcotest.string (label ^ ": rebuilt run rejected alike")
                    ("Error " ^ msg)
                    (match s.Experiments.Scenario.exhaustive_property run' with
                    | Ok () -> "Ok"
                    | Error m -> "Error " ^ m));
              let t = Trace.create () in
              List.iter (Trace.record_decision t)
                (decisions_of_schedule run.Explore.schedule);
              let artifact =
                Trace.to_replay ~meta:(Experiments.Scenario.sweep_meta s) t
              in
              match Trace.parse_replay artifact with
              | Error _ -> Alcotest.failf "%s: unreadable replay artifact" label
              | Ok (_, decisions) -> (
                  match
                    Explore.replay ~make:s.Experiments.Scenario.make
                      ~monitors:s.Experiments.Scenario.monitors decisions
                  with
                  | Error _ -> ()
                  | Ok _ ->
                      Alcotest.failf "%s: the replayed counterexample is clean"
                        label))
        [ 1; 2 ])
    cex_pins

(* ------------------------------------------------------------------ *)
(* golden pins: engine C against recorded values                        *)
(* ------------------------------------------------------------------ *)

(* The jobs tests above compare the work-stealing engine with itself,
   so a visited-key change that altered deduplication or sleep-set
   decisions would pass them at every job count. These values were
   recorded from the structured-record keys engine C used before keys
   became flat interned int arrays; any key change must reproduce them
   exactly, at jobs 1 and 2. safe_agreement is the deduplication-heavy
   scope, x_safe_agreement the sleep/source-heavy one — the scopes and
   depths of the explore-clean benchmark classes. *)
let engine_c_pins =
  [
    ("safe_agreement", 1, 11, (23724, 12257, 29795, 1552, 23715, 44016));
    ("safe_agreement", 2, 11, (25992, 22290, 33840, 1803, 25827, 49322));
    ("x_safe_agreement", 1, 13, (15524, 16, 86004, 8, 15524, 45761));
  ]

let engine_c_golden () =
  List.iter
    (fun (name, max_crashes, max_steps, counts) ->
      let explored, pruned_s, pruned_c, pruned_src, truncated, misses =
        counts
      in
      let s = scenario name in
      List.iter
        (fun jobs ->
          let metrics = Metrics.create ~wall_clock:false () in
          let r =
            Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes
              ~max_steps ~metrics ~make:s.Experiments.Scenario.make
              ~property:s.Experiments.Scenario.exhaustive_property ()
          in
          let label =
            Printf.sprintf "%s crashes=%d depth=%d jobs=%d" name max_crashes
              max_steps jobs
          in
          check Alcotest.int (label ^ ": explored") explored r.Explore.explored;
          check Alcotest.int (label ^ ": pruned states") pruned_s
            r.Explore.pruned_states;
          check Alcotest.int (label ^ ": pruned commutes") pruned_c
            r.Explore.pruned_commutes;
          check Alcotest.int (label ^ ": pruned source") pruned_src
            r.Explore.pruned_source;
          Alcotest.(check bool)
            (label ^ ": clean, in budget")
            true
            (r.Explore.counterexample = None
            && not r.Explore.exhausted_budget);
          check Alcotest.string (label ^ ": metrics snapshot")
            (Printf.sprintf
               "{\"counters\":{\"explore.pruned_commutes\":%d,\"explore.pruned_source\":%d,\"explore.pruned_states\":%d,\"explore.runs\":%d,\"explore.truncated\":%d,\"explore.visited.hits\":%d,\"explore.visited.misses\":%d},\"gauges\":{},\"histograms\":{}}"
               pruned_c pruned_src pruned_s explored truncated pruned_s misses)
            (Metrics.snapshot_string metrics))
        [ 1; 2 ])
    engine_c_pins

(* ------------------------------------------------------------------ *)
(* undo-journal rollback property                                       *)
(* ------------------------------------------------------------------ *)

(* A small alphabet over every journaled op kind: two families, two
   keys, values and pids derived from the code, nothing that needs
   allow_cas/allow_kset or an oracle handler. *)
let apply_op env code =
  let pid = (code lsr 5) land 1 in
  (* The family name carries the op kind (the environment enforces one
     kind per (fam, key)) plus one variation bit; two keys per family. *)
  let fam =
    (match code mod 8 with
    | 0 | 1 -> "R"
    | 2 | 3 -> "S"
    | 4 -> "T"
    | 5 -> "C"
    | _ -> "Q")
    ^ if code land 1 = 0 then "a" else "b"
  in
  let key = [ (code lsr 1) land 1 ] in
  let v = Codec.int.Codec.inj (code lsr 3) in
  match code mod 8 with
  | 0 -> Env.apply env ~pid (Op.Reg_write (fam, key, v))
  | 1 -> ignore (Env.apply env ~pid (Op.Reg_read (fam, key)))
  | 2 -> Env.apply env ~pid (Op.Snap_set (fam, key, v))
  | 3 -> ignore (Env.apply env ~pid (Op.Snap_scan (fam, key)))
  | 4 -> ignore (Env.apply env ~pid (Op.Ts (fam, key)))
  | 5 -> ignore (Env.apply env ~pid (Op.Cons_propose (fam, key, v)))
  | 6 -> Env.apply env ~pid (Op.Queue_enq (fam, key, v))
  | _ -> ignore (Env.apply env ~pid (Op.Queue_deq (fam, key)))

let undo_log_roundtrip =
  QCheck.Test.make ~count:300
    ~name:"journal rollback restores the exact pre-checkpoint state"
    QCheck.(pair (list (int_bound 2048)) (list (int_bound 2048)))
    (fun (prefix, suffix) ->
      let env = Env.create ~nprocs:2 ~x:2 () in
      Env.enable_journal env;
      List.iter (apply_op env) prefix;
      let cp = Env.checkpoint env in
      List.iter (apply_op env) suffix;
      Env.rollback env cp;
      let fresh = Env.create ~nprocs:2 ~x:2 () in
      List.iter (apply_op fresh) prefix;
      Env.observationally_equal env fresh
      && Env.state_hash env = Env.state_hash fresh)

(* ------------------------------------------------------------------ *)
(* canonical fingerprints vs. instance creation order                   *)
(* ------------------------------------------------------------------ *)

let prewarm_hash_stable () =
  let infos =
    [
      { Op.kind = Op.Register; fam = "R"; key = [ 0 ] };
      { Op.kind = Op.Snapshot; fam = "S"; key = [] };
      { Op.kind = Op.Queue; fam = "Q"; key = [ 1 ] };
    ]
  in
  let w_reg env =
    Env.apply env ~pid:0 (Op.Reg_write ("R", [ 0 ], Codec.int.Codec.inj 7))
  in
  let w_snap env =
    Env.apply env ~pid:1 (Op.Snap_set ("S", [], Codec.int.Codec.inj 9))
  in
  let w_q env =
    Env.apply env ~pid:0 (Op.Queue_enq ("Q", [ 1 ], Codec.int.Codec.inj 3))
  in
  let build ~warm order =
    let env = Env.create ~nprocs:2 ~x:2 () in
    if warm then Env.prewarm env infos;
    List.iter (fun f -> f env) order;
    Env.state_hash env
  in
  let h0 = build ~warm:true [ w_reg; w_snap; w_q ] in
  List.iter
    (fun order ->
      check Alcotest.int "permuted access order, same fingerprint" h0
        (build ~warm:true order))
    [ [ w_snap; w_q; w_reg ]; [ w_q; w_reg; w_snap ]; [ w_snap; w_reg; w_q ] ];
  check Alcotest.int "prewarm does not change the fingerprint" h0
    (build ~warm:false [ w_q; w_snap; w_reg ]);
  check Alcotest.int "untouched prewarmed instances are dropped"
    (build ~warm:false []) (build ~warm:true [])

(* ------------------------------------------------------------------ *)
(* shared-table linearizability under insert storms                     *)
(* ------------------------------------------------------------------ *)

(* Four domains (oversubscribed on small hosts) hammer one table with
   overlapping key sets, each domain starting at a different rotation
   so the same keys race in different orders. Linearizability of
   insert-if-absent says exactly one call per distinct key may report a
   miss, whatever the interleaving; tiny tables force long chains and
   bucket CAS retries. *)
let storm_keys = QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 30))

let visited_linearizable =
  QCheck.Test.make ~count:40
    ~name:"shared visited: one miss per distinct key under domain storms"
    storm_keys
    (fun keys ->
      let tbl = Visited.create ~buckets:16 () in
      let keys = Array.of_list keys in
      let n = Array.length keys in
      let ndom = 4 in
      let stats = Array.init ndom (fun _ -> Visited.fresh_stats ()) in
      let doms =
        Array.init ndom (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to n - 1 do
                  let k = keys.((i + d) mod n) in
                  ignore
                    (Visited.seen_or_add tbl ~hash:(Hashtbl.hash k) k
                       stats.(d))
                done))
      in
      Array.iter Domain.join doms;
      let distinct =
        List.length (List.sort_uniq compare (Array.to_list keys))
      in
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
      sum (fun s -> s.Visited.misses) = distinct
      && sum (fun s -> s.Visited.hits) = (ndom * n) - distinct
      && Visited.distinct tbl = distinct)

let intern_linearizable =
  QCheck.Test.make ~count:40
    ~name:"intern: racing domains agree on every id" storm_keys
    (fun keys ->
      let t = Visited.Intern.create ~buckets:16 () in
      let keys = Array.of_list keys in
      let n = Array.length keys in
      let ndom = 4 in
      let ids = Array.make ndom [||] in
      let doms =
        Array.init ndom (fun d ->
            Domain.spawn (fun () ->
                ids.(d) <-
                  Array.init n (fun i ->
                      let k = keys.((i + d) mod n) in
                      (k, Visited.Intern.id t ~hash:(Hashtbl.hash k) k))))
      in
      Array.iter Domain.join doms;
      let all = Array.to_list ids |> Array.concat |> Array.to_list in
      (* Every domain's view: id equality iff key equality, and a later
         uncontended lookup returns the already-published id. *)
      List.for_all
        (fun (k1, i1) ->
          List.for_all (fun (k2, i2) -> (k1 = k2) = (i1 = i2)) all)
        all
      && List.for_all
           (fun (k, i) -> Visited.Intern.id t ~hash:(Hashtbl.hash k) k = i)
           all)

(* The storms above use 16-bucket tables: one mutex stripe. These run a
   table with 64 stripes under a hash that sends keys to 128 buckets
   spread over every stripe, with up to four distinct hashes per bucket
   and up to three keys per hash, so racing inserts meet in the same
   chain, in sibling stripes, and on exact hash collisions. *)
let striped_buckets = 65536
let striped_hash k = (((k / 128) mod 4) lsl 16) lor (k mod 128)
let striped_keys = QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 1535))

let storm ~ndom keys f =
  let n = Array.length keys in
  let doms =
    Array.init ndom (fun d ->
        Domain.spawn (fun () ->
            Array.init n (fun i ->
                let k = keys.((i + (d * 7)) mod n) in
                (k, f d k))))
  in
  Array.map Domain.join doms |> Array.to_list |> Array.concat |> Array.to_list

let distinct_count keys = List.length (List.sort_uniq compare (Array.to_list keys))

let visited_striped =
  QCheck.Test.make ~count:40
    ~name:"shared visited: exact across 64 stripes under domain storms"
    striped_keys
    (fun keys ->
      let tbl = Visited.create ~buckets:striped_buckets () in
      let keys = Array.of_list keys in
      let ndom = 4 in
      let stats = Array.init ndom (fun _ -> Visited.fresh_stats ()) in
      let answers =
        storm ~ndom keys (fun d k ->
            Visited.seen_or_add tbl ~hash:(striped_hash k) k stats.(d))
      in
      let distinct = distinct_count keys in
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
      List.length (List.filter (fun (_, seen) -> not seen) answers) = distinct
      && sum (fun s -> s.Visited.misses) = distinct
      && sum (fun s -> s.Visited.hits) = (ndom * Array.length keys) - distinct
      && Visited.distinct tbl = distinct
      && Array.for_all
           (fun k ->
             Visited.seen_or_add tbl ~hash:(striped_hash k) k
               (Visited.fresh_stats ()))
           keys)

let intern_striped =
  QCheck.Test.make ~count:40
    ~name:"intern: ids exact, positive and distinct across 64 stripes"
    striped_keys
    (fun keys ->
      let t = Visited.Intern.create ~buckets:striped_buckets () in
      let keys = Array.of_list keys in
      let all =
        storm ~ndom:4 keys (fun _ k ->
            Visited.Intern.id t ~hash:(striped_hash k) k)
      in
      let by_key = Hashtbl.create 64 and by_id = Hashtbl.create 64 in
      let consistent =
        List.for_all
          (fun (k, i) ->
            let agrees tbl a b =
              match Hashtbl.find_opt tbl a with
              | Some b' -> b' = b
              | None ->
                  Hashtbl.add tbl a b;
                  true
            in
            i > 0 && agrees by_key k i && agrees by_id i k)
          all
      in
      consistent
      && Hashtbl.length by_key = distinct_count keys
      && Visited.Intern.count t = distinct_count keys
      && List.for_all
           (fun (k, i) -> Visited.Intern.id t ~hash:(striped_hash k) k = i)
           all)

(* ------------------------------------------------------------------ *)
(* dedup never changes a verdict                                        *)
(* ------------------------------------------------------------------ *)

let dedup_verdict_parity () =
  Experiments.Scenario.all ()
  |> List.iter (fun (s : Experiments.Scenario.t) ->
         if s.Experiments.Scenario.explorable then begin
           (* Full enumeration bound: keep the dedup-off run cheap for
              the wider scenarios without losing the seeded-bug depths
              of the 2-process ones. *)
           let max_steps =
             min s.Experiments.Scenario.explore_steps
               (if s.Experiments.Scenario.nprocs >= 4 then 8 else 10)
           in
           let run dedup =
             Explore.exhaustive ~dedup ~max_steps
               ~make:s.Experiments.Scenario.make
               ~property:s.Experiments.Scenario.exhaustive_property ()
           in
           let verdict (r : Univ.t Explore.result) =
             match r.Explore.counterexample with
             | None -> "ok"
             | Some (_, msg) -> "cex: " ^ msg
           in
           let reference = verdict (run false) in
           check Alcotest.string
             (s.Experiments.Scenario.name ^ ": dedup preserves the verdict")
             reference (verdict (run true))
         end)

let suite =
  [
    ( "explore-par",
      [
        Alcotest.test_case "no_cancel: jobs 1/2/4/8 identical" `Quick
          no_cancel_jobs;
        Alcotest.test_case "first_subset: jobs 1/2/4/8 identical" `Quick
          first_subset_jobs;
        Alcotest.test_case "skewed tree: steal-heavy jobs identical" `Quick
          skewed_steals;
        Alcotest.test_case "engine C: counterexample pins" `Quick cex_golden;
        Alcotest.test_case "engine C: golden pins" `Quick engine_c_golden;
        Alcotest.test_case "canonical hash ignores creation order" `Quick
          prewarm_hash_stable;
        Alcotest.test_case "dedup on/off verdict parity" `Quick
          dedup_verdict_parity;
        QCheck_alcotest.to_alcotest visited_linearizable;
        QCheck_alcotest.to_alcotest intern_linearizable;
        QCheck_alcotest.to_alcotest visited_striped;
        QCheck_alcotest.to_alcotest intern_striped;
        QCheck_alcotest.to_alcotest undo_log_roundtrip;
      ] );
  ]

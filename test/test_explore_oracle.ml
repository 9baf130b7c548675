(* The soundness oracle: engine C against an explorer that does no
   reduction at all. Deduplication and sleep/source sets may skip
   transitions, but they must keep every reachable terminal state, so
   on every scenario engine C at jobs 1 and 2 must see exactly the set
   of terminal (outcomes, crashed, truncated) records the copy-per-branch
   reference [Explore.exhaustive_copy] sees — collected through the
   property — and must reach the same verdict.

   The scenarios are the paper's agreement objects at fixed scopes and
   scenarios from the seeded DSL generator ([Sdl.Gen]) at fixed seeds.
   A reference that hits its run cap fails the test: the seeds and
   scopes are fixed and never chosen around a disagreement.
   ASMSIM_HEAVY=1 adds deeper builtin scopes and many more seeds. *)

open Svm

let heavy = Sys.getenv_opt "ASMSIM_HEAVY" <> None

(* The reference enumerates every interleaving; past this many runs a
   scope is too big for the oracle, and the test says so. *)
let reference_cap = 2_000_000

type 'a terminal = 'a Exec.outcome array * int list * bool

(* Run [explore] with a property that records every terminal record it
   is shown (from any domain) and never rejects one, so the whole tree
   is walked. *)
let terminals explore =
  let seen : (Univ.t terminal, unit) Hashtbl.t = Hashtbl.create 1024 in
  let lock = Mutex.create () in
  let property (r : Univ.t Explore.run) =
    Mutex.protect lock (fun () ->
        Hashtbl.replace seen (r.Explore.outcomes, r.Explore.crashed, r.Explore.truncated) ());
    Ok ()
  in
  let result : Univ.t Explore.result = explore property in
  (result, seen)

let same_set a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem b k) a true

(* The verdict a terminal set implies: does the scenario's property
   reject any of its records? (Properties never read [schedule].) *)
let rejects property set =
  Hashtbl.fold
    (fun (outcomes, crashed, truncated) () found ->
      found
      || Result.is_error (property { Explore.outcomes; crashed; truncated; schedule = "" }))
    set false

let oracle ~label ~max_crashes ~max_steps (s : Experiments.Scenario.t) =
  let make = s.Experiments.Scenario.make in
  let property = s.Experiments.Scenario.exhaustive_property in
  let ref_result, ref_set =
    terminals (fun property ->
        Explore.exhaustive_copy ~max_crashes ~max_runs:reference_cap ~max_steps
          ~make ~property ())
  in
  if ref_result.Explore.exhausted_budget then
    Alcotest.failf "%s: the reference hit its %d-run cap" label reference_cap;
  let ref_violates = rejects property ref_set in
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "%s jobs=%d" label jobs in
      let c_result, c_set =
        terminals (fun property ->
            Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes
              ~max_steps ~make ~property ())
      in
      Alcotest.(check bool) (label ^ ": walked the whole tree") false
        c_result.Explore.exhausted_budget;
      Alcotest.(check int)
        (label ^ ": terminal records")
        (Hashtbl.length ref_set) (Hashtbl.length c_set);
      Alcotest.(check bool)
        (label ^ ": the same terminal set as the reference")
        true (same_set ref_set c_set);
      let verdict =
        Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes ~max_steps
          ~make ~property ()
      in
      Alcotest.(check bool)
        (label ^ ": the reference's verdict")
        ref_violates
        (verdict.Explore.counterexample <> None))
    [ 1; 2 ]

let scenario name =
  match Experiments.Scenario.find name with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let builtin_scopes =
  [
    ("safe_agreement", 1, 8);
    ("safe_agreement", 2, 8);
    ("x_safe_agreement", 1, 9);
    ("x_safe_agreement_abortable", 1, 9);
    ("safe_agreement", 0, 12);
  ]
  @
  if heavy then
    [
      ("safe_agreement", 1, 10);
      ("safe_agreement", 2, 9);
      ("safe_agreement_no_cancel", 1, 16);
      ("x_safe_agreement_first_subset", 1, 9);
    ]
  else []

let builtins () =
  List.iter
    (fun (name, max_crashes, max_steps) ->
      oracle
        ~label:(Printf.sprintf "%s c%d d%d" name max_crashes max_steps)
        ~max_crashes ~max_steps (scenario name))
    builtin_scopes

(* Generated scenarios, one crash, at their own depth capped low enough
   for the reference: 2 to 4 processes over registers, snapshots,
   queues, test&set, safe agreement (healthy and seeded-bug), x-safe
   agreement and abortable consensus. *)
let generated () =
  let seeds = List.init (if heavy then 200 else 12) (fun i -> i + 1) in
  List.iter
    (fun seed ->
      match Experiments.Scenario.of_source (Sdl.Gen.source ~seed) with
      | Error m -> Alcotest.failf "Sdl.Gen seed %d does not compile: %s" seed m
      | Ok s ->
          let max_steps =
            min s.Experiments.Scenario.explore_steps (if heavy then 9 else 7)
          in
          oracle
            ~label:(Printf.sprintf "Sdl.Gen seed %d (n=%d) d%d" seed
                      s.Experiments.Scenario.nprocs max_steps)
            ~max_crashes:1 ~max_steps s)
    seeds

let suite =
  [
    ( "explore-oracle",
      [
        Alcotest.test_case "engine C = reference: agreement objects" `Quick
          builtins;
        Alcotest.test_case "engine C = reference: Sdl.Gen scenarios" `Quick
          generated;
      ] );
  ]

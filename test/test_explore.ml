(* Unit tests for the exhaustive schedule explorer itself. *)

open Svm
open Svm.Prog.Syntax

let check = Alcotest.check

let yields k =
  let rec go n =
    if n = 0 then Prog.return (Codec.int.Codec.inj 0)
    else
      let* () = Prog.yield in
      go (n - 1)
  in
  go k

let make_yields counts () =
  (Env.create ~nprocs:(Array.length counts) ~x:1 (), Array.map yields counts)

let ok_prop _ = Ok ()

(* Each process contributes (ops + 1) scheduler choices (the final one
   harvests the Done). Interleavings of two processes with a and b
   choices each: C(a+b, a). *)
let counts_two_procs () =
  let r =
    Explore.exhaustive ~dedup:false ~max_steps:20
      ~make:(make_yields [| 2; 2 |]) ~property:ok_prop ()
  in
  check Alcotest.int "C(6,3) = 20" 20 r.Explore.explored;
  Alcotest.(check bool) "no counterexample" true (r.Explore.counterexample = None);
  Alcotest.(check bool) "not exhausted" false r.Explore.exhausted_budget;
  check Alcotest.int "nothing pruned without dedup" 0
    (r.Explore.pruned_states + r.Explore.pruned_commutes);
  (* Two processes that never touch shared state commute everywhere:
     with pruning on, one representative interleaving proves them all. *)
  let p =
    Explore.exhaustive ~max_steps:20 ~make:(make_yields [| 2; 2 |])
      ~property:ok_prop ()
  in
  check Alcotest.int "pruned to one representative" 1 p.Explore.explored;
  Alcotest.(check bool) "pruning accounted" true
    (p.Explore.pruned_states + p.Explore.pruned_commutes > 0)

let counts_with_crash () =
  (* One process, one op: schedules are [S;S], [S;X], [X]. *)
  let r =
    Explore.exhaustive ~max_crashes:1 ~max_steps:20 ~make:(make_yields [| 1 |])
      ~property:ok_prop ()
  in
  check Alcotest.int "three schedules" 3 r.Explore.explored

let finds_failure () =
  (* Property rejecting any crash: found on the crashing branch. *)
  let property run =
    if run.Explore.crashed = [] then Ok () else Error "crashed"
  in
  let r =
    Explore.exhaustive ~max_crashes:1 ~max_steps:20 ~make:(make_yields [| 1 |])
      ~property ()
  in
  match r.Explore.counterexample with
  | Some (run, "crashed") ->
      check Alcotest.(list int) "the victim" [ 0 ] run.Explore.crashed
  | Some _ | None -> Alcotest.fail "expected a counterexample"

let truncation_flag () =
  let spin = Prog.loop (fun () -> Prog.map (fun () -> `Again ()) Prog.yield) () in
  let seen_truncated = ref false in
  let property run =
    if run.Explore.truncated then seen_truncated := true;
    Ok ()
  in
  let make () = (Env.create ~nprocs:1 ~x:1 (), [| spin |]) in
  let r = Explore.exhaustive ~max_steps:5 ~make ~property () in
  check Alcotest.int "single truncated run" 1 r.Explore.explored;
  Alcotest.(check bool) "flagged" true !seen_truncated

let budget_flag () =
  let r =
    Explore.exhaustive ~dedup:false ~max_runs:5 ~max_steps:30
      ~make:(make_yields [| 3; 3; 3 |])
      ~property:ok_prop ()
  in
  Alcotest.(check bool) "budget exhausted" true r.Explore.exhausted_budget;
  check Alcotest.int "stopped at budget" 5 r.Explore.explored

(* The serial DFS defines the stop: [max_runs] is exact at every job
   count, and one domain never runs a second pass — not for the budget,
   a counterexample or an exception, which is re-raised as is. *)
let budget_exact () =
  let s =
    match Experiments.Scenario.find "safe_agreement" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun jobs ->
      let r =
        Explore.exhaustive ~jobs ~oversubscribe:true ~max_crashes:2
          ~max_runs:5000 ~max_steps:s.Experiments.Scenario.explore_steps
          ~make:s.Experiments.Scenario.make
          ~property:s.Experiments.Scenario.exhaustive_property ()
      in
      let label = Printf.sprintf "jobs=%d" jobs in
      check Alcotest.int (label ^ ": exactly 5000 runs") 5000 r.Explore.explored;
      Alcotest.(check bool) (label ^ ": budget hit") true
        r.Explore.exhausted_budget)
    [ 1; 2 ]

let one_pass_stops () =
  let passes = ref 0 in
  let make () =
    incr passes;
    make_yields [| 1; 1 |] ()
  in
  let crashed_one run = List.mem 1 run.Explore.crashed in
  let run ?max_runs ~jobs property =
    passes := 0;
    Explore.exhaustive ?max_runs ~jobs ~oversubscribe:true ~max_crashes:1
      ~max_steps:20 ~make ~property ()
  in
  let r =
    run ~jobs:1 (fun r -> if crashed_one r then Error "p1 crashed" else Ok ())
  in
  Alcotest.(check bool) "counterexample found" true
    (r.Explore.counterexample <> None);
  check Alcotest.int "counterexample: one pass" 1 !passes;
  let r = run ~max_runs:2 ~jobs:1 ok_prop in
  check Alcotest.int "budget: two runs" 2 r.Explore.explored;
  check Alcotest.int "budget: one pass" 1 !passes;
  List.iter
    (fun jobs ->
      match run ~jobs (fun r -> if crashed_one r then raise Exit else Ok ()) with
      | _ -> Alcotest.failf "jobs=%d: the property's exception was swallowed" jobs
      | exception Exit ->
          if jobs = 1 then check Alcotest.int "exception: one pass" 1 !passes)
    [ 1; 2 ]

let branches_isolated () =
  (* Writes on one branch must not leak into a sibling branch: every
     complete 2-process run sees exactly its own interleaving. *)
  let prog pid =
    let* () = Prog.snap_set Codec.int "m" [] (pid + 1) in
    let* view = Prog.snap_scan Codec.int "m" [] in
    let sum =
      Array.fold_left
        (fun acc e -> match e with None -> acc | Some v -> acc + v)
        0 view
    in
    Prog.return (Codec.int.Codec.inj sum)
  in
  let make () = (Env.create ~nprocs:2 ~x:1 (), [| prog 0; prog 1 |]) in
  let property run =
    (* Each decided sum is 1, 2 or 3, and the process's own write is
       always included (sum >= pid+1 cannot be checked per pid here, but
       a leaked write would produce sums > 3 after copy bugs). *)
    let sums =
      Array.to_list run.Explore.outcomes
      |> List.filter_map (function
           | Exec.Decided u -> Some (Codec.int.Codec.prj u)
           | Exec.Crashed | Exec.Blocked | Exec.Stuck -> None)
    in
    if List.for_all (fun s -> s >= 1 && s <= 3) sums then Ok ()
    else Error "state leaked across branches"
  in
  let r = Explore.exhaustive ~max_steps:12 ~make ~property () in
  Alcotest.(check bool) "no leak" true (r.Explore.counterexample = None);
  Alcotest.(check bool) "several schedules" true (r.Explore.explored > 1)

let suite =
  [
    ( "svm.explore",
      [
        Alcotest.test_case "interleaving count" `Quick counts_two_procs;
        Alcotest.test_case "crash branching count" `Quick counts_with_crash;
        Alcotest.test_case "finds failures" `Quick finds_failure;
        Alcotest.test_case "truncation" `Quick truncation_flag;
        Alcotest.test_case "run budget" `Quick budget_flag;
        Alcotest.test_case "run budget is exact at jobs 1 and 2" `Quick
          budget_exact;
        Alcotest.test_case "one pass per stop at jobs=1" `Quick one_pass_stops;
        Alcotest.test_case "branch isolation" `Quick branches_isolated;
      ] );
  ]

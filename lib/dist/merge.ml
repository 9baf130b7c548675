module Json = Svm.Json

(* Fold shard payloads back into a sweep outcome through the exact
   in-process merge. Cells whose shard never arrived (past the finding
   cut, or a payload the check rejected) recompute locally — both are
   deterministic, so the outcome is independent of which side ran what. *)
let sweep ?metrics ?on_progress plan ~shard_size ~payloads =
  let units = Svm.Explore.sweep_cells plan in
  let tags = Array.make units ' ' in
  Array.iteri
    (fun shard p ->
      match p with
      | Some (Json.String s) ->
          let lo = shard * shard_size in
          String.iteri (fun i c -> tags.(lo + i) <- c) s
      | _ -> ())
    payloads;
  let verdict_of i =
    match tags.(i) with
    | 'C' -> Svm.Explore.Clean
    | 'D' -> Svm.Explore.Deadlocked
    | _ ->
        (* 'V', or a cell past the cut whose shard was never dealt:
           recompute locally — deterministic either way, and for 'V'
           this recovers the violation record the wire elides. *)
        Svm.Explore.sweep_cell plan i
  in
  Svm.Explore.sweep_merge ?metrics ?on_progress plan ~verdict_of

(* An explore job's one payload back into its result. The
   counterexample is rebuilt by executing its schedule once and must be
   the run the worker reported — same crashes, same truncation, the
   same rejection by the property — or the payload is refused. *)
let explore ?metrics (e : Worker.explore) ~payloads =
  let ( let* ) = Result.bind in
  let* s =
    match payloads with
    | [| Some payload |] -> Proto.explore_summary_of_json payload
    | _ -> Error "the explore job finished without its one result"
  in
  let* counterexample =
    match s.Proto.xs_cex with
    | None -> Ok None
    | Some c -> (
        match
          Svm.Explore.run_of_schedule ~max_crashes:e.Worker.params.Proto.ex_max_crashes
            ~max_steps:e.Worker.params.Proto.ex_max_steps ~make:e.Worker.make
            c.Proto.cx_schedule
        with
        | Error m -> Error ("the counterexample does not replay: " ^ m)
        | Ok run ->
            if
              run.Svm.Explore.crashed <> c.Proto.cx_crashed
              || run.Svm.Explore.truncated <> c.Proto.cx_truncated
              || e.Worker.property run <> Error c.Proto.cx_message
            then Error "the replayed counterexample is not the reported run"
            else Ok (Some (run, c.Proto.cx_message)))
  in
  Option.iter (fun into -> Svm.Metrics.merge ~into s.Proto.xs_metrics) metrics;
  Ok
    {
      Svm.Explore.explored = s.Proto.xs_explored;
      counterexample;
      exhausted_budget = s.Proto.xs_exhausted;
      pruned_states = s.Proto.xs_pruned_states;
      pruned_commutes = s.Proto.xs_pruned_commutes;
      pruned_source = s.Proto.xs_pruned_source;
    }

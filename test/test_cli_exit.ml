(* The one exit-code convention of the asmsim binary, asserted against
   the real executable: 0 clean, 1 finding, 2 usage-or-input error,
   3 internal/distributed failure. Every row forks ../bin/asmsim.exe
   (a dune dep of this test) through /bin/sh. *)

let exe = Unix.realpath "../bin/asmsim.exe"

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let run_case args =
  let cmd = Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe) args in
  match Unix.system cmd with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "stopped by signal %d" s

(* A corpus directory no earlier run has touched. *)
let corpus_dir = tmp (Printf.sprintf "asmsim-cli-corpus-%d" (Unix.getpid ()))

let table =
  [
    (* 0 — clean *)
    ("canonical 3,1,1", 0);
    ("classes -t 4 --x-max 5", 0);
    ("sweep --algo safe_agreement --runs 200 --out " ^ tmp "cli0.replay", 0);
    ( "sweep --algo safe_agreement_no_cancel --expect-violation --out "
      ^ tmp "cli1.replay",
      0 );
    (* --jobs 0 = one domain per core, on both fan-out subcommands *)
    ("sweep --algo safe_agreement --runs 200 --jobs 0 --out "
     ^ tmp "cli4.replay", 0);
    ( "explore --algo safe_agreement_no_cancel --expect-violation --jobs 0",
      0 );
    (* a hit run budget is partial coverage, not a finding *)
    ("explore --algo safe_agreement --crashes 2 --runs 5000 --jobs 2", 0);
    (* the DSL surface: check/compile/fmt on the shipped examples, a
       sweep of a scenario file, and the registry listing *)
    ("sdl check ../examples/x_safe_agreement.sdl", 0);
    ("sdl compile ../examples/safe_agreement_no_cancel.sdl", 0);
    ("sdl fmt ../examples/x_safe_agreement_first_subset.sdl", 0);
    ( "sweep --scenario-file ../examples/x_safe_agreement.sdl --out "
      ^ tmp "cli5.replay",
      0 );
    ("scenarios", 0);
    ("scenarios --json --scenario-dir ../examples", 0);
    ("stats --scenario-file ../examples/safe_agreement_no_cancel.sdl --json", 0);
    ("corpus " ^ corpus_dir, 0);
    (* 1 — finding *)
    ("sweep --algo safe_agreement_no_cancel --out " ^ tmp "cli2.replay", 1);
    ("explore --algo safe_agreement_no_cancel --crashes 1", 1);
    (* a malformed address is a miss like any other, never an internal
       error *)
    ("corpus " ^ corpus_dir ^ " --cat zz", 1);
    (* 2 — usage or input error *)
    ("definitely-not-a-subcommand", 2);
    ("canonical", 2);
    ("canonical not-a-model", 2);
    ("sweep --algo safe_agreement --no-such-flag", 2);
    ("run-task --task nope", 2);
    ("simulate --task nope --target 3,1,1", 2);
    ("experiment NO_SUCH_EXPERIMENT", 2);
    ("sweep --algo no_such_scenario", 2);
    (* resize below the scenario's minimum names the valid range *)
    ("sweep --algo safe_agreement -n 1", 2);
    ("explore --algo x_safe_agreement_first_subset -n 3", 2);
    (* neither --algo nor --scenario-file *)
    ("sweep", 2);
    ("soak --until 10", 2);
    ("sweep --scenario-file /no/such/file.sdl", 2);
    (* a file that is not DSL at all still fails with a typed parse
       error, not an exception *)
    ("sdl check ../bin/asmsim.exe", 2);
    ("sdl fmt /no/such/file.sdl", 2);
    (* an xsa whose owner election the x 1 model cannot host is a
       validation error, before anything executes *)
    ("sdl check " ^ tmp "cli_xsa_x1.sdl", 2);
    ("explore --scenario-file " ^ tmp "cli_xsa_x1.sdl", 2);
    ("stats ../examples/x_safe_agreement.sdl --algo safe_agreement", 2);
    ("sweep --algo safe_agreement --tiers gamma-rays", 2);
    ("explore --algo no_such_scenario", 2);
    ("replay /no/such/file.replay", 2);
    ("serve --resume no-such-job --journal-dir /tmp/asmsim-cli-nojobs", 2);
    ("stats", 2);
    (* 3 — internal / distributed failure *)
    ( "sweep --algo safe_agreement_no_cancel --dist 2 --resume no-such-job \
       --journal-dir /tmp/asmsim-cli-nojobs --out " ^ tmp "cli3.replay",
      3 );
  ]

let xsa_x1_src =
  {|scenario "xsa_x1" { nprocs 3 min 2 x 1 objects { xsa XSA x 1 }
  process all { propose XSA [] pid let v = decide XSA [] decide v }
  property agreement in 0 .. nprocs - 1 }|}

let exit_codes () =
  Out_channel.with_open_bin (tmp "cli_xsa_x1.sdl") (fun oc ->
      output_string oc xsa_x1_src);
  List.iter
    (fun (args, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "asmsim %s" args)
        expected (run_case args))
    table

let corpus_cat_malformed () =
  let out = tmp (Printf.sprintf "asmsim-cli-cat-%d.err" (Unix.getpid ())) in
  let cmd =
    Printf.sprintf "%s corpus %s --cat zz >/dev/null 2>%s" (Filename.quote exe)
      (Filename.quote corpus_dir) (Filename.quote out)
  in
  Alcotest.(check bool) "exit 1" true (Unix.system cmd = Unix.WEXITED 1);
  let err = In_channel.with_open_bin out In_channel.input_all in
  let needle = "no valid record" in
  let rec found i =
    i + String.length needle <= String.length err
    && (String.sub err i (String.length needle) = needle || found (i + 1))
  in
  Alcotest.(check bool) "says no valid record" true (found 0)

(* --runs R stops the explorer after exactly R runs, whatever --jobs. *)
let explore_runs_exact () =
  List.iter
    (fun jobs ->
      let out = tmp (Printf.sprintf "asmsim-cli-runs-%d-%d.out" (Unix.getpid ()) jobs) in
      let cmd =
        Printf.sprintf
          "%s explore --algo safe_agreement --crashes 2 --runs 5000 --jobs %d \
           >%s 2>/dev/null"
          (Filename.quote exe) jobs (Filename.quote out)
      in
      Alcotest.(check bool) "exit 0" true (Unix.system cmd = Unix.WEXITED 0);
      let lines =
        String.split_on_char '\n' (In_channel.with_open_bin out In_channel.input_all)
      in
      let explored =
        List.find_opt (String.starts_with ~prefix:"explored ") lines
        |> Option.value ~default:"(no explored line)"
      in
      Alcotest.(check bool)
        (Printf.sprintf "--jobs %d: %s" jobs explored)
        true
        (String.starts_with ~prefix:"explored 5000 run(s)," explored
        && String.ends_with ~suffix:"(run budget hit; coverage partial)"
             explored))
    [ 1; 2 ]

let suite =
  [
    ( "cli-exit",
      [
        Alcotest.test_case "exit-code table" `Quick exit_codes;
        Alcotest.test_case "explore --runs is exact at --jobs 1 and 2" `Quick
          explore_runs_exact;
        Alcotest.test_case "corpus --cat of a malformed address" `Quick
          corpus_cat_malformed;
      ] );
  ]

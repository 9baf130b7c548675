(* The Scenario DSL front to back: the parser's golden shapes and typed
   failures (never exceptions, even on garbage), the validator's
   rejection table, the fmt -> parse round-trip law on generated
   scenarios, and the compiled-twin differentials — a DSL transcription
   of a builtin scenario must sweep to the byte-identical outcome,
   replay artifact included. *)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Sdl.Ast.error_to_string e)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let parse_ok src = ok_or_fail (Sdl.Parser.parse src)

let golden_src =
  {|# a comment
scenario "golden" {
  doc "the parser golden"
  nprocs 3 min 2
  x 2
  explore_steps 8
  objects {
    reg R
    xsa X2 x 2 first_subset_only
    sa SA no_cancel
  }
  process 0 .. 1 {
    write R [] (pid * 2)
    repeat 2 {
      propose X2 [1] pid
    }
    let v = decide X2 [1]
    decide v + 1
  }
  process 2 {
    let w = read R [] default 7
    decide w
  }
  property agreement in 0 .. nprocs
  property stall_bound "X2" bound 3
}|}

let parser_golden () =
  let sc = parse_ok golden_src in
  Alcotest.(check string) "name" "golden" sc.Sdl.Ast.sc_name;
  Alcotest.(check string) "doc" "the parser golden" sc.Sdl.Ast.sc_doc;
  Alcotest.(check int) "nprocs" 3 sc.Sdl.Ast.sc_nprocs;
  Alcotest.(check int) "min" 2 sc.Sdl.Ast.sc_min_nprocs;
  Alcotest.(check int) "x" 2 sc.Sdl.Ast.sc_x;
  Alcotest.(check bool) "seeded_bug" false sc.Sdl.Ast.sc_seeded_bug;
  Alcotest.(check int) "explore_steps" 8 sc.Sdl.Ast.sc_explore_steps;
  Alcotest.(check int) "objects" 3 (List.length sc.Sdl.Ast.sc_objects);
  Alcotest.(check int) "blocks" 2 (List.length sc.Sdl.Ast.sc_procs);
  Alcotest.(check int) "props" 2 (List.length sc.Sdl.Ast.sc_props);
  (match (List.nth sc.Sdl.Ast.sc_objects 1).Sdl.Ast.o_kind with
  | Sdl.Ast.Xsa { x; first_subset_only; static_owners } ->
      Alcotest.(check int) "xsa x" 2 x;
      Alcotest.(check bool) "xsa fso" true first_subset_only;
      Alcotest.(check bool) "xsa static" false static_owners
  | _ -> Alcotest.fail "second object should be an xsa");
  match (List.hd sc.Sdl.Ast.sc_procs).Sdl.Ast.pb_sel with
  | Sdl.Ast.Range (0, 1) -> ()
  | _ -> Alcotest.fail "first block should select 0 .. 1"

(* Broken sources and a substring their error must mention. Every row
   must come back [Error] — an exception is a test failure. *)
let parse_reject_table =
  [
    ("", "scenario");
    ("scenario {", "name");
    ("scenario \"a\" { x 1 }", "nprocs");
    ("scenario \"a\" { nprocs 2 }", "x");
    ("scenario \"a\" { nprocs 2 x 1 objects { reg pid } process all { decide \
      0 } property agreement in 0 .. 1 }", "cannot be used as an object name");
    ("scenario \"a\" { nprocs 2 x 1 process all { decide 0 } property \
      agreement in 0 .. 1 } trailing", "trailing input");
    ("scenario \"a\" { nprocs 2 x 1 frobnicate 3 }", "frobnicate");
    ("scenario \"a\" { nprocs 2 x 1 objects { gadget G } }", "gadget");
  ]

let parser_rejects () =
  List.iter
    (fun (src, needle) ->
      match Sdl.Parser.parse src with
      | Ok _ -> Alcotest.failf "accepted: %s" src
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle msg) then
            Alcotest.failf "error %S lacks %S" msg needle)
    parse_reject_table

(* A bare object decide at statement level (the shape Pretty prints for
   an unbound [Decide_obj]) parses, its result dropped — pinning the
   parse(to_string sc) = sc contract for programmatically built ASTs. *)
let parser_bare_object_decide () =
  let sc =
    parse_ok
      "scenario \"a\" { nprocs 2 x 1 objects { sa S } process all { propose \
       S [] pid decide S [] decide 0 } property agreement in 0 .. 1 }"
  in
  (match (List.hd sc.Sdl.Ast.sc_procs).Sdl.Ast.pb_body with
  | [ _; { Sdl.Ast.st_desc = Sdl.Ast.Call c; _ }; _ ] -> (
      match c.Sdl.Ast.c_desc with
      | Sdl.Ast.Decide_obj { obj = "S"; key = [] } -> ()
      | _ -> Alcotest.fail "second statement should be an object decide")
  | _ -> Alcotest.fail "expected three statements");
  ok_or_fail (Sdl.Validate.validate sc);
  (* and the printed form round-trips *)
  let printed = Sdl.Pretty.to_string sc in
  let sc' = parse_ok printed in
  if not (Sdl.Ast.equal_ignoring_spans sc sc') then
    Alcotest.failf "bare object decide does not round-trip:\n%s" printed

(* Structural nesting is depth-capped with a typed error — a wire
   client cannot drive the recursive-descent parser into
   Stack_overflow with nested parens or nested blocks. *)
let parser_depth_capped () =
  let wrap_expr n =
    Printf.sprintf
      "scenario \"a\" { nprocs 2 x 1 process all { decide %s0%s } property \
       agreement in 0 .. 1 }"
      (String.concat "" (List.init n (fun _ -> "(")))
      (String.concat "" (List.init n (fun _ -> ")")))
  in
  let wrap_blocks n =
    Printf.sprintf
      "scenario \"a\" { nprocs 2 x 1 process all { %syield%s decide 0 } \
       property agreement in 0 .. 1 }"
      (String.concat "" (List.init n (fun _ -> "repeat 2 { ")))
      (String.concat "" (List.init n (fun _ -> " }")))
  in
  (* comfortably inside the cap: accepted *)
  (match Sdl.Parser.parse (wrap_expr 20) with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "20 nested parens rejected: %s"
        (Sdl.Ast.error_to_string e));
  (* past the cap — including the tens-of-thousands range that used to
     overflow the stack — a typed error, never an exception *)
  List.iter
    (fun src ->
      match Sdl.Parser.parse src with
      | Ok _ -> Alcotest.fail "over-deep source accepted"
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle:"nest" msg) then
            Alcotest.failf "depth error %S lacks %S" msg "nest"
      | exception e ->
          Alcotest.failf "deep source raised %s" (Printexc.to_string e))
    [ wrap_expr 100; wrap_blocks 100; wrap_expr 30_000; wrap_blocks 8_000 ]

(* A deterministic little byte mangler: the parser (and lexer under it)
   must return typed errors on arbitrary input, never raise and never
   loop. Seeds a generator with chopped/spliced variants of the golden
   source plus raw noise. *)
let parser_never_raises () =
  let st = Random.State.make [| 0xfade; 17 |] in
  let noise len =
    String.init len (fun _ -> Char.chr (Random.State.int st 256))
  in
  let n = String.length golden_src in
  for i = 0 to 199 do
    let src =
      match i mod 4 with
      | 0 -> String.sub golden_src 0 (Random.State.int st (n + 1))
      | 1 ->
          let cut = Random.State.int st n in
          String.sub golden_src 0 cut ^ noise 5
          ^ String.sub golden_src cut (n - cut)
      | 2 -> noise (Random.State.int st 64)
      | _ ->
          String.map
            (fun c -> if Random.State.int st 10 = 0 then '"' else c)
            golden_src
    in
    match Sdl.Parser.parse src with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e) src
  done

(* Sources the parser accepts but the validator must reject, with a
   substring of the reason. *)
let validate_reject_table =
  [
    (* at least one property *)
    ("scenario \"a\" { nprocs 2 x 1 process all { decide pid } }", "property");
    (* duplicate object names *)
    ( "scenario \"a\" { nprocs 2 x 1 objects { reg R reg R } process all { \
       decide 0 } property agreement in 0 .. 1 }",
      "duplicate" );
    (* decide inside repeat *)
    ( {|scenario "a" { nprocs 2 x 1 process all { repeat 2 { decide 0 } }
        property agreement in 0 .. 1 }|},
      "inside 'repeat'" );
    (* decide buried in an if branch inside the repeat counts too *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 3 { if pid == 0 { decide 1 } } decide 0 }
        property agreement in 0 .. 1 }|},
      "inside 'repeat'" );
    (* nested repeats multiply past the unroll cap *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 255 { repeat 255 { yield } } decide 0 }
        property agreement in 0 .. 1 }|},
      "cap" );
    (* ... even when the naive product wraps the native int negative
       (255^8 overflows 63-bit ints): saturating arithmetic still
       rejects instead of silently accepting *)
    ( {|scenario "a" { nprocs 2 x 1 process all {
          repeat 255 { repeat 255 { repeat 255 { repeat 255 {
          repeat 255 { repeat 255 { repeat 255 { repeat 255 {
          yield } } } } } } } } decide 0 }
        property agreement in 0 .. 1 }|},
      "cap" );
    (* body must end decided *)
    ( {|scenario "a" { nprocs 2 x 1 objects { reg R } process all { write R [] 1 }
        property agreement in 0 .. 1 }|},
      "decide" );
    (* unbound variable *)
    ( {|scenario "a" { nprocs 2 x 1 process all { decide zig }
        property agreement in 0 .. 1 }|},
      "zig" );
    (* ts needs x >= 2 *)
    ( {|scenario "a" { nprocs 2 x 1 objects { ts T } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "x" );
    (* cons ports above the model arity *)
    ( {|scenario "a" { nprocs 2 x 1 objects { cons C ports 2 } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "port" );
    (* xsa arity above the model arity *)
    ( {|scenario "a" { nprocs 3 x 2 objects { xsa X x 3 } process all { decide 0 }
        property agreement in 0 .. 1 }|},
      "x" );
    (* op/kind mismatch: read on a queue *)
    ( {|scenario "a" { nprocs 2 x 2 objects { queue Q }
        process all { let v = read Q [] decide v }
        property agreement in 0 .. 1 }|},
      "read" );
    (* property ranges must be schedule-independent: no pid *)
    ( {|scenario "a" { nprocs 2 x 1 process all { decide 0 }
        property agreement in 0 .. pid }|},
      "pid" );
    (* coverage: two blocks claiming pid 1 *)
    ( {|scenario "a" { nprocs 3 x 1 process 0 .. 1 { decide 0 }
        process 1 .. 2 { decide 0 } property agreement in 0 .. 1 }|},
      "block" );
    (* coverage: pid 2 unclaimed *)
    ( {|scenario "a" { nprocs 3 x 1 process 0 .. 1 { decide 0 }
        property agreement in 0 .. 1 }|},
      "block" );
    (* xsa owner election runs test&set: x 1 needs static owners *)
    ( {|scenario "a" { nprocs 3 x 1 objects { xsa XSA x 1 }
        process all { propose XSA [] pid let v = decide XSA [] decide v }
        property agreement in 0 .. 2 }|},
      "static_owners" );
    (* port discipline: 2 unconditional proposers on a 1-port cons *)
    ( {|scenario "a" { nprocs 2 x 1 objects { cons C ports 1 }
        process all { let v = propose C [0] pid decide v }
        property agreement in 0 .. 1 }|},
      "port" );
  ]

let validator_rejects () =
  List.iter
    (fun (src, needle) ->
      let sc = parse_ok src in
      match Sdl.Validate.validate sc with
      | Ok () -> Alcotest.failf "validated: %s" src
      | Error e ->
          let msg = Sdl.Ast.error_to_string e in
          if not (contains ~needle msg) then
            Alcotest.failf "error %S lacks %S" msg needle)
    validate_reject_table

let validator_accepts_golden () =
  ok_or_fail (Sdl.Validate.validate (parse_ok golden_src))

(* The x 1 xsa the validator still accepts — fixed owners, no test&set
   — must compile and run clean through both the explorer and the
   sweeper. *)
let xsa_static_x1_src =
  {|scenario "xsa_static_x1" { nprocs 3 min 2 x 1 explore_steps 10
  objects { xsa XSA x 1 static_owners }
  process all { propose XSA [] (10 + pid) let v = decide XSA [] decide v }
  property agreement in 10 .. 10 + nprocs - 1 }|}

let xsa_static_x1_runs () =
  let s =
    match Experiments.Scenario.of_source xsa_static_x1_src with
    | Ok s -> s
    | Error m -> Alcotest.failf "rejected: %s" m
  in
  (match Experiments.Harness.explore_scenario ~max_crashes:1 s with
  | Ok r ->
      Alcotest.(check bool) "explore clean" true
        (r.Svm.Explore.counterexample = None)
  | Error m -> Alcotest.failf "explore refused: %s" m);
  let o = Experiments.Harness.sweep_scenario s in
  Alcotest.(check bool) "sweep clean" true (o.Svm.Explore.found = None)

(* fmt -> parse must be the identity up to spans, and generated
   scenarios must validate: the generator, printer, parser and
   validator agree on the language. *)
let roundtrip =
  QCheck.Test.make ~name:"fmt -> parse round-trips generated scenarios"
    ~count:200
    QCheck.(small_nat)
    (fun seed ->
      let sc = Sdl.Gen.scenario ~seed in
      (match Sdl.Validate.validate sc with
      | Ok () -> ()
      | Error e ->
          QCheck.Test.fail_reportf "generated scenario invalid: %s"
            (Sdl.Ast.error_to_string e));
      let printed = Sdl.Pretty.to_string sc in
      match Sdl.Parser.parse printed with
      | Error e ->
          QCheck.Test.fail_reportf "printed form does not parse: %s\n%s"
            (Sdl.Ast.error_to_string e) printed
      | Ok sc' ->
          if not (Sdl.Ast.equal_ignoring_spans sc sc') then
            QCheck.Test.fail_reportf "round-trip changed the scenario:\n%s"
              printed;
          (* and printing is a fixpoint: fmt(parse(fmt sc)) = fmt sc *)
          String.equal printed (Sdl.Pretty.to_string sc'))

(* ------------------------------------------------------------------ *)
(* Compiled-twin differentials: the DSL transcription of a builtin
   sweeps to the byte-identical outcome. [found.replay] is the whole
   replay artifact as bytes — comparing it transitively compares the
   violation, the shrunk schedule, the trace and the metadata. *)

let read_example name =
  let path = Filename.concat "../examples" name in
  In_channel.with_open_bin path In_channel.input_all

let ok_or_fail' = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let twin_outcome src_name builtin_name =
  let builtin = ok_or_fail' (Experiments.Scenario.find builtin_name)
  and dsl =
    ok_or_fail' (Experiments.Scenario.of_source (read_example src_name))
  in
  ( Experiments.Harness.sweep_scenario builtin,
    Experiments.Harness.sweep_scenario dsl )

let check_twin src_name builtin_name ~expect_found () =
  let b, d = twin_outcome src_name builtin_name in
  Alcotest.(check int) "runs" b.Svm.Explore.runs d.Svm.Explore.runs;
  Alcotest.(check bool)
    "exhausted" b.Svm.Explore.exhausted d.Svm.Explore.exhausted;
  match (b.Svm.Explore.found, d.Svm.Explore.found) with
  | None, None ->
      if expect_found then Alcotest.fail "expected both sweeps to find"
  | Some fb, Some fd ->
      if not expect_found then Alcotest.fail "expected both sweeps clean";
      Alcotest.(check string)
        "replay artifact bytes" fb.Svm.Explore.replay fd.Svm.Explore.replay;
      Alcotest.(check string)
        "violation message" fb.Svm.Explore.violation.Svm.Monitor.message
        fd.Svm.Explore.violation.Svm.Monitor.message
  | Some _, None -> Alcotest.fail "builtin found a violation, the twin did not"
  | None, Some _ -> Alcotest.fail "the twin found a violation, builtin did not"

(* The wire cap ([Dist.Proto] cannot depend on [Sdl], so the constant
   is duplicated) must stay equal to the compiler's. *)
let source_cap_pinned () =
  Alcotest.(check int)
    "Proto.max_source_bytes = Compile.max_source_bytes"
    Sdl.Compile.max_source_bytes Dist.Proto.max_source_bytes;
  let big =
    "scenario \"big\" { # " ^ String.make Sdl.Compile.max_source_bytes 'x'
  in
  match Sdl.Compile.load big with
  | Ok _ -> Alcotest.fail "oversized source compiled"
  | Error m ->
      if not (contains ~needle:"cap" m) then
        Alcotest.failf "cap error %S does not mention the cap" m

(* Scenario.find resolution: a registered DSL source shadows the builtin
   of the same name, and resizing goes through the DSL's own min. *)
let registration_shadows () =
  let src = read_example "x_safe_agreement.sdl" in
  let _ = ok_or_fail' (Experiments.Scenario.register_source src) in
  let s = ok_or_fail' (Experiments.Scenario.find "x_safe_agreement") in
  (match s.Experiments.Scenario.origin with
  | Experiments.Scenario.Sdl_source _ -> ()
  | Experiments.Scenario.Builtin -> Alcotest.fail "find ignored the registration");
  let resized =
    ok_or_fail' (Experiments.Scenario.find ~nprocs:5 "x_safe_agreement")
  in
  Alcotest.(check int) "resized" 5 resized.Experiments.Scenario.nprocs;
  match Experiments.Scenario.find ~nprocs:2 "x_safe_agreement" with
  | Ok _ -> Alcotest.fail "below-min size accepted"
  | Error m ->
      if not (contains ~needle:"valid nprocs" m) then
        Alcotest.failf "resize error %S does not name the range" m

let suite =
  [
    ( "sdl-parser",
      [
        Alcotest.test_case "golden shape" `Quick parser_golden;
        Alcotest.test_case "typed rejections" `Quick parser_rejects;
        Alcotest.test_case "bare object decide" `Quick
          parser_bare_object_decide;
        Alcotest.test_case "nesting depth capped" `Quick parser_depth_capped;
        Alcotest.test_case "never raises on garbage" `Quick parser_never_raises;
      ] );
    ( "sdl-validate",
      [
        Alcotest.test_case "rejection table" `Quick validator_rejects;
        Alcotest.test_case "accepts the golden" `Quick validator_accepts_golden;
        Alcotest.test_case "x 1 xsa with static owners runs" `Quick
          xsa_static_x1_runs;
      ] );
    ( "sdl-roundtrip",
      [ QCheck_alcotest.to_alcotest roundtrip ] );
    ( "sdl-twins",
      [
        Alcotest.test_case "x_safe_agreement (clean)" `Quick
          (check_twin "x_safe_agreement.sdl" "x_safe_agreement"
             ~expect_found:false);
        Alcotest.test_case "safe_agreement_no_cancel (seeded)" `Quick
          (check_twin "safe_agreement_no_cancel.sdl" "safe_agreement_no_cancel"
             ~expect_found:true);
        Alcotest.test_case "x_safe_agreement_first_subset (seeded)" `Quick
          (check_twin "x_safe_agreement_first_subset.sdl"
             "x_safe_agreement_first_subset" ~expect_found:true);
      ] );
    ( "sdl-wire",
      [
        Alcotest.test_case "source cap pinned to the wire's" `Quick
          source_cap_pinned;
        Alcotest.test_case "registration shadows builtins" `Quick
          registration_shadows;
      ] );
  ]

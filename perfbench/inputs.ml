(* The benchmark's own inputs. Every job list is a pure function of the
   [--seed] argument, drawn here with the standard library's generator;
   nothing comes from the program's own input generators (Sdl.Gen), so a
   later change to the program cannot silently change what is measured.

   Each workload is a sequence of blocks. A block holds every job class
   of the workload once, in a seed-shuffled order; soak slices also
   draw their schedule seeds from it. Any run that completes a few
   blocks therefore measures the same mix of costs, whatever the seed,
   while the seed still picks the concrete inputs. *)

let rng ~seed ~block = Random.State.make [| 0x5eed; seed; block |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* DSL sources: the benchmark's copies                                  *)
(* ------------------------------------------------------------------ *)

(* Seeded-bug twin of the builtin [safe_agreement_no_cancel]. *)
let sa_no_cancel_src =
  {|scenario "safe_agreement_no_cancel" {
  doc "SEEDED BUG: safe agreement without the crash-cancel step"
  nprocs 2 min 2
  x 1
  seeded_bug
  explore_steps 10

  objects {
    sa SA no_cancel
  }

  process all {
    propose SA [] pid
    let v = decide SA []
    decide v
  }

  property agreement in 0 .. nprocs - 1
}
|}

(* Seeded-bug twin of the builtin [x_safe_agreement_first_subset]. *)
let xsa_first_subset_src =
  {|scenario "x_safe_agreement_first_subset" {
  doc "SEEDED BUG: x-safe agreement whose decide only consults the first owner subset"
  nprocs 4 min 4
  x 2
  seeded_bug
  explore_steps 10

  objects {
    xsa XSA x 2 first_subset_only
  }

  process all {
    propose XSA [] (10 + pid)
    let v = decide XSA []
    decide v
  }

  property agreement in 10 .. 10 + nprocs - 1
}
|}

(* Healthy twin of the builtin [safe_agreement], shipped to the service
   as source text. *)
let safe_agreement_src =
  {|scenario "safe_agreement" {
  doc "Figure 1 safe agreement: agreement + validity"
  nprocs 3 min 2
  x 1
  explore_steps 12

  objects {
    sa SA
  }

  process all {
    propose SA [] pid
    let v = decide SA []
    decide v
  }

  property agreement in 0 .. nprocs - 1
}
|}

(* A scenario named by the job: a builtin, or DSL source text. *)
type scenario = Builtin of string | Source of string

(* ------------------------------------------------------------------ *)
(* explore-clean                                                        *)
(* ------------------------------------------------------------------ *)

type clean = { c_scn : string; c_crashes : int; c_depth : int }

(* Each scenario with 1 and with 2 crashes, at the depth that makes
   every job cost about the same. safe_agreement is dedup-heavy, the
   x_safe_agreement pair sleep-set-heavy. *)
let clean_classes =
  [|
    { c_scn = "safe_agreement"; c_crashes = 1; c_depth = 11 };
    { c_scn = "safe_agreement"; c_crashes = 2; c_depth = 11 };
    { c_scn = "x_safe_agreement"; c_crashes = 1; c_depth = 13 };
    { c_scn = "x_safe_agreement"; c_crashes = 2; c_depth = 12 };
    { c_scn = "x_safe_agreement_abortable"; c_crashes = 1; c_depth = 13 };
    { c_scn = "x_safe_agreement_abortable"; c_crashes = 2; c_depth = 12 };
  |]

let clean_block ~seed block = shuffle (rng ~seed ~block) (Array.copy clean_classes)

(* ------------------------------------------------------------------ *)
(* explore-bugs                                                         *)
(* ------------------------------------------------------------------ *)

type bug = {
  b_src : string;  (** seeded-bug twin, compiled per job *)
  b_depth : int;  (** exploration depth *)
  b_window : int;  (** sweep op-window *)
}

(* Two thirds x_safe_agreement_first_subset, whose counterexample path
   is the long one, so the median job is one of its. *)
let bug_block ~seed block =
  shuffle (rng ~seed ~block)
    [|
      { b_src = xsa_first_subset_src; b_depth = 16; b_window = 6 };
      { b_src = xsa_first_subset_src; b_depth = 17; b_window = 7 };
      { b_src = sa_no_cancel_src; b_depth = 18; b_window = 8 };
    |]

(* ------------------------------------------------------------------ *)
(* soak-corpus                                                          *)
(* ------------------------------------------------------------------ *)

type soak =
  | Fresh of { scn : string; soak_seed : int; schedules : int }
      (** a slice never soaked before: findings are appended *)
  | Resoak of int
      (** the slice of the [n]-th fresh job again: every finding is a
          content-address hit *)
  | Clean of { soak_seed : int; schedules : int }
      (** a clean safe_agreement slice: execution-bound *)

let fresh_schedules = 2400
let clean_schedules = 320

(* Block [b] holds fresh slice number [b], so a re-soak can always name
   a slice stored by this block or an earlier one. *)
let soak_block ~seed block =
  let st = rng ~seed ~block in
  let slice_seed () = 1 + Random.State.int st 0x3fffffff in
  [|
    Fresh
      {
        scn = "x_safe_agreement_first_subset";
        soak_seed = slice_seed ();
        schedules = fresh_schedules;
      };
    Clean { soak_seed = slice_seed (); schedules = clean_schedules };
    Resoak (Random.State.int st (block + 1));
  |]

(* ------------------------------------------------------------------ *)
(* service                                                              *)
(* ------------------------------------------------------------------ *)

type net_mode =
  | Sweep of { tiers : string list; window : int }
  | Explore of { crashes : int; depth : int }

type net = { n_scn : scenario; n_mode : net_mode }

(* Fault sweeps of the paper's BG simulations across tiers and windows,
   and exhaustive explorations, one of them shipped as DSL source. *)
let service_block ~seed block =
  shuffle (rng ~seed ~block)
    [|
      { n_scn = Builtin "bg_sec3"; n_mode = Sweep { tiers = [ "crash" ]; window = 6 } };
      { n_scn = Builtin "bg_sec3";
        n_mode = Sweep { tiers = [ "crash"; "omission" ]; window = 4 } };
      { n_scn = Builtin "bg_sec4"; n_mode = Sweep { tiers = [ "crash" ]; window = 8 } };
      { n_scn = Builtin "bg_sec4";
        n_mode = Sweep { tiers = [ "crash"; "omission" ]; window = 6 } };
      { n_scn = Builtin "safe_agreement"; n_mode = Explore { crashes = 1; depth = 10 } };
      { n_scn = Source safe_agreement_src; n_mode = Explore { crashes = 2; depth = 10 } };
    |]

(* The [i]-th job of a workload, generated block by block on demand. *)
let nth (block_of : seed:int -> int -> 'a array) ~seed =
  let n = Array.length (block_of ~seed 0) in
  let cache = Hashtbl.create 16 in
  fun i ->
    let b = i / n in
    let blk =
      match Hashtbl.find_opt cache b with
      | Some blk -> blk
      | None ->
          let blk = block_of ~seed b in
          Hashtbl.replace cache b blk;
          blk
    in
    blk.(i mod n)

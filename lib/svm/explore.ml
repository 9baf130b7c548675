type 'a run = {
  outcomes : 'a Exec.outcome array;
  crashed : int list;
  truncated : bool;
  schedule : string;
}

type 'a result = {
  explored : int;
  counterexample : ('a run * string) option;
  exhausted_budget : bool;
  pruned_states : int;
  pruned_commutes : int;
  pruned_source : int;
}

type 'a pstate = Running of 'a Prog.t | Done of 'a | Crashed

let outcomes_of states =
  Array.map
    (function
      | Running _ -> Exec.Blocked
      | Done v -> Exec.Decided v
      | Crashed -> Exec.Crashed)
    states

type choice = Step of int | Crash of int

let pp_choice = function
  | Step p -> string_of_int p
  | Crash p -> Printf.sprintf "X%d" p

let schedule_string rev_choices =
  String.concat "." (List.rev_map pp_choice rev_choices)

exception Found

let note metrics name =
  match metrics with
  | None -> ()
  | Some m -> Metrics.incr (Metrics.counter m name)

let note_by metrics name by =
  match metrics with
  | None -> ()
  | Some m -> Metrics.incr ~by (Metrics.counter m name)

let heartbeat on_progress runs =
  match on_progress with None -> () | Some f -> f ~runs

(* ------------------------------------------------------------------ *)
(* Fingerprints: op-result histories                                    *)
(* ------------------------------------------------------------------ *)

(* A process's continuation is a closure, so it cannot be compared — but
   programs are deterministic values, so the continuation is a function
   of the sequence of op results the process has received. Histories of
   encoded results therefore stand in for continuations in state keys.
   The encoding is typed per op constructor: two histories can only
   compare equal position-by-position, and equal prefixes imply the next
   op (hence the next result's type) is the same, so the comparison
   never confuses values of different types. *)
type enc =
  | E_unit
  | E_bool of bool
  | E_univ of Univ.t
  | E_univ_opt of Univ.t option
  | E_scan of Univ.t option list

let encode_result : type r. r Op.t -> r -> enc =
 fun op r ->
  match op with
  | Op.Reg_read _ -> E_univ_opt r
  | Op.Reg_write _ -> E_unit
  | Op.Snap_set _ -> E_unit
  | Op.Snap_scan _ -> E_scan (Array.to_list r)
  | Op.Ts _ -> E_bool r
  | Op.Cons_propose _ -> E_univ r
  | Op.Kset_propose _ -> E_univ r
  | Op.Queue_enq _ -> E_unit
  | Op.Queue_deq _ -> E_univ_opt r
  | Op.Cas _ -> E_bool r
  | Op.Oracle_query _ -> E_univ r
  | Op.Yield -> E_unit

(* ------------------------------------------------------------------ *)
(* Footprints: what a process's next operation touches                  *)
(* ------------------------------------------------------------------ *)

(* Per-operation footprints, the basis of the commutation (independence)
   relations and of the incremental store signature. Oracle queries are
   keyed by the querying pid because the environment tracks
   per-(family, pid) query counts — two different processes querying
   the same oracle touch different cells.

   Two relations are defined over them. The coarse one
   ([coarse_indep_r]) says two operations on the same instance conflict
   unless both only read. Many such pairs in fact commute, and for the
   single-writer snapshot objects at the heart of the paper's
   constructions — every process writes its own component — *all*
   sibling writes commute. The refined relation ([rf_indep]), the one
   the sleep filter applies, is evaluated against the current store
   state (Godefroid's conditional independence), which is sound exactly
   because the sleep filter runs at the state the two candidate
   operations would both execute from; the coarse one only decides
   which survivors count as source-set prunes. *)
type rfp =
  | R_none
  | R_oracle of Op.fam * int
  | R_read of Op.fam * Op.key
  | R_write of Op.fam * Op.key * Univ.t
  | R_cas of Op.fam * Op.key
  | R_snap_set of Op.fam * Op.key
  | R_snap_scan of Op.fam * Op.key
  | R_ts of Op.fam * Op.key
  | R_cons of Op.fam * Op.key * int
  | R_kset of Op.fam * Op.key
  | R_enq of Op.fam * Op.key
  | R_deq of Op.fam * Op.key

let rfootprint (type a) ~pid (prog : a Prog.t) =
  match prog with
  | Prog.Done _ -> R_none
  | Prog.Step (op, _) -> (
      match op with
      | Op.Yield -> R_none
      | Op.Oracle_query (f, _) -> R_oracle (f, pid)
      | Op.Reg_read (f, k) -> R_read (f, k)
      | Op.Reg_write (f, k, v) -> R_write (f, k, v)
      | Op.Cas (f, k, _, _) -> R_cas (f, k)
      | Op.Snap_set (f, k, _) -> R_snap_set (f, k)
      | Op.Snap_scan (f, k) -> R_snap_scan (f, k)
      | Op.Ts (f, k) -> R_ts (f, k)
      | Op.Cons_propose (f, k, _) -> R_cons (f, k, pid)
      | Op.Kset_propose (f, k, _) -> R_kset (f, k)
      | Op.Queue_enq (f, k, _) -> R_enq (f, k)
      | Op.Queue_deq (f, k) -> R_deq (f, k))


(* Same shared-object location, without allocating the [option] pair
   an extraction function would — this runs once per (sleep entry ×
   explored branch). *)
let rsame_loc a b =
  match (a, b) with
  | ( ( R_read (f1, k1)
      | R_write (f1, k1, _)
      | R_cas (f1, k1)
      | R_snap_set (f1, k1)
      | R_snap_scan (f1, k1)
      | R_ts (f1, k1)
      | R_cons (f1, k1, _)
      | R_kset (f1, k1)
      | R_enq (f1, k1)
      | R_deq (f1, k1) ),
      ( R_read (f2, k2)
      | R_write (f2, k2, _)
      | R_cas (f2, k2)
      | R_snap_set (f2, k2)
      | R_snap_scan (f2, k2)
      | R_ts (f2, k2)
      | R_cons (f2, k2, _)
      | R_kset (f2, k2)
      | R_enq (f2, k2)
      | R_deq (f2, k2) ) ) ->
      String.equal f1 f2 && k1 = k2
  | _ -> false

(* Do the two *next* operations of two distinct processes commute at
   the current state of [env] — same final store and the same result
   delivered to each process, whichever goes first? Each rule below is
   an exact claim about [Env.apply]:
   - sibling [Snap_set]s write different components (writer
     discipline), so they always commute;
   - equal-value register writes leave the same store either way;
   - [Ts] on a won instance is a pure read returning [false];
   - [Cons_propose] on a decided instance returns the decision, but
     still *joins* the accessor set — commuting additionally needs the
     join to be harmless in both orders (both already accessors, or
     room for both under the port bound, the accessor list being
     canonically sorted);
   - enqueue and dequeue on a nonempty queue act on opposite ends;
     two dequeues on an empty queue are both no-op reads. *)
let rf_indep env a b =
  match (a, b) with
  | R_none, _ | _, R_none -> true
  | R_oracle (f1, p1), R_oracle (f2, p2) -> not (String.equal f1 f2 && p1 = p2)
  | R_oracle _, _ | _, R_oracle _ -> true
  | _ -> (
      (not (rsame_loc a b))
      ||
      match (a, b) with
      | R_read _, R_read _ -> true
      | R_snap_scan _, R_snap_scan _ -> true
      | R_snap_set _, R_snap_set _ -> true
      | R_write (_, _, v1), R_write (_, _, v2) -> v1 = v2
      | R_read (f, k), R_write (_, _, v) | R_write (f, k, v), R_read _ ->
          Env.peek_register env f k = Some v
      | R_ts (f, k), R_ts _ -> Env.peek_ts env f k
      | R_cons (f, k, p), R_cons (_, _, q) ->
          Env.cons_decided env f k
          &&
          let acc = Env.cons_accessors env f k in
          let joins =
            (if List.mem p acc then 0 else 1)
            + if List.mem q acc then 0 else 1
          in
          List.length acc + joins <= Env.x env
      | R_enq (f, k), R_deq _ | R_deq (f, k), R_enq _ ->
          Env.queue_length env f k > 0
      | R_deq (f, k), R_deq _ -> Env.queue_length env f k = 0
      | _ -> false)

(* The coarse (state-blind) relation on two shared-object footprints:
   distinct instances, or two reads. Only consulted once
   [rf_indep env a b] has said [true], which settles every [R_none] and
   [R_oracle] pair the same way the coarse relation would. *)
let coarse_indep_r a b =
  let is_read = function R_read _ | R_snap_scan _ -> true | _ -> false in
  (not (rsame_loc a b)) || (is_read a && is_read b)

let rloc = function
  | R_none | R_oracle _ -> None
  | R_read (f, k)
  | R_write (f, k, _)
  | R_cas (f, k)
  | R_snap_set (f, k)
  | R_snap_scan (f, k)
  | R_ts (f, k)
  | R_cons (f, k, _)
  | R_kset (f, k)
  | R_enq (f, k)
  | R_deq (f, k) ->
      Some (f, k)

(* ------------------------------------------------------------------ *)
(* Interned names                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything a visited key mentions that is not already a small int is
   named by an id in the interning table of one engine pass: a
   process's history, one store entry, one oracle query count, one
   decided value. Within one
   table id equality is exactly (polymorphic) equality of the named
   values, so two keys made of ids are equal exactly when the states
   they name agree component by component. Id 0 is never handed out
   (see [Visited.Intern]), which leaves it for the root history.

   A history id names a (history-so-far id, next result) pair, so a
   process's whole history is one id, extended in O(1) per step, and
   id equality is history equality. *)
type 'a name =
  | N_hist of int * enc
  | N_entry of (Op.fam * Op.key) * Env.instance_sig
  | N_oracle of (Op.fam * int) * int
  | N_value of 'a

type 'a intern = 'a name Visited.Intern.t

let name_id (tbl : 'a intern) n =
  Visited.Intern.id tbl ~hash:(Hashtbl.hash_param 64 256 n) n

let intern_step tbl pk op r = name_id tbl (N_hist (pk, encode_result op r))

(* ------------------------------------------------------------------ *)
(* The store signature                                                  *)
(* ------------------------------------------------------------------ *)

(* The store fingerprint, maintained incrementally: the same two sorted
   association lists [Env.canonical] would produce, each entry carrying
   its interned id (an [N_entry] or [N_oracle] name). One operation
   touches one instance, so a step re-interns one entry and shares the
   untouched tail. Backtracking restores the previous value by pointer
   — the lists are immutable. *)
type esig = {
  es_inst : (int * (Op.fam * Op.key) * Env.instance_sig) list;
  es_orc : (int * (Op.fam * int) * int) list;
}

let entry tbl k s = (name_id tbl (N_entry (k, s)), k, s)
let oracle tbl k n = (name_id tbl (N_oracle (k, n)), k, n)

let esig_of_canonical tbl c =
  let inst, orc = Env.canonical_parts c in
  {
    es_inst = List.map (fun (k, s) -> entry tbl k s) inst;
    es_orc = List.map (fun (k, n) -> oracle tbl k n) orc;
  }

(* Sorted-assoc update with structural sharing: [Some s] inserts or
   replaces, [None] removes. Returns the input physically when nothing
   changed. *)
let rec sig_update tbl key v l =
  match l with
  | [] -> ( match v with None -> l | Some s -> [ entry tbl key s ])
  | ((_, k', s') as e) :: tl ->
      let c = compare key k' in
      if c < 0 then match v with None -> l | Some s -> entry tbl key s :: l
      else if c = 0 then
        match v with
        | None -> tl
        | Some s -> if s = s' then l else entry tbl key s :: tl
      else
        let tl' = sig_update tbl key v tl in
        if tl' == tl then l else e :: tl'

let rec orc_bump tbl key l =
  match l with
  | [] -> [ oracle tbl key 1 ]
  | ((_, k', n) as e) :: tl ->
      let c = compare key k' in
      if c < 0 then oracle tbl key 1 :: l
      else if c = 0 then oracle tbl key (n + 1) :: tl
      else e :: orc_bump tbl key tl

(* Advance the fingerprint across one applied operation, whose refined
   footprint names the single location it can have touched. Must run
   after [Env.apply] (it re-reads the touched instance). *)
let esig_step tbl env es fp ~pid =
  match fp with
  | R_none -> es
  | R_oracle (f, _) -> { es with es_orc = orc_bump tbl (f, pid) es.es_orc }
  | _ -> (
      match rloc fp with
      | None -> es
      | Some (f, k) ->
          let l = sig_update tbl (f, k) (Env.instance_sig env f k) es.es_inst in
          if l == es.es_inst then es else { es with es_inst = l })

(* ------------------------------------------------------------------ *)
(* Visited-state keys                                                   *)
(* ------------------------------------------------------------------ *)

(* The visited-state key. Everything that determines the remainder of a
   run's record is in here: remaining depth budget (via the depth),
   crash order so far, each process's status (with its op-result history
   standing in for its continuation), the store, and the sleep set (a
   state revisited with a different sleep set explores a different
   transition subset, so it must not be deduplicated against the first
   visit — including the sleep set in the key is the standard
   conservative fix). Only the schedule string falls outside the key,
   which is why properties must not read it (see the .mli).

   A key is one flat int array, hashed and compared as ints:

   {v [| depth; #crashed; crashed...; proc ids...; #done; pid, value id...;
        #entries; store-entry ids...; #oracles; oracle ids...; sleep codes... |] v}

   The crash list is the reverse crash order. A proc id is a running
   process's history id, [-1] crashed or [-2] finished (ids are never
   negative); there is one per process, a number fixed within a table.
   Finished processes' decided values follow as (pid, value id) pairs
   sorted by pid, then the store signature's entry and oracle ids in
   their sorted order, then the sleep set, sorted by construction (see
   [sleep_insert]), one code per (choice, tag) entry. Every variable
   segment but the last is length-prefixed, so the array parses
   uniquely, and each id names its value exactly (see [name]): two keys
   are equal exactly when every component is. Sleep tags mark
   source-set entries (see [rsleep_filter]); two visits that differ
   only in tags may split their prunes between the two counters, so the
   tags are key content. *)
let sleep_code (u, tag) =
  let c = match u with Step p -> 2 * p | Crash p -> (2 * p) + 1 in
  (2 * c) + if tag then 1 else 0

let rec put_list a i = function
  | [] -> i
  | x :: tl ->
      Array.unsafe_set a i x;
      put_list a (i + 1) tl

let rec put_done a i = function
  | [] -> i
  | (p, vid, _) :: tl ->
      Array.unsafe_set a i p;
      Array.unsafe_set a (i + 1) vid;
      put_done a (i + 2) tl

let rec put_ids a i = function
  | [] -> i
  | (id, _, _) :: tl ->
      Array.unsafe_set a i id;
      put_ids a (i + 1) tl

let rec put_sleep a i = function
  | [] -> ()
  | e :: tl ->
      Array.unsafe_set a i (sleep_code e);
      put_sleep a (i + 1) tl

let vkey ~depth ~rev_crashed ~pkey ~dvals ~es ~sleep =
  let nc = List.length rev_crashed in
  let np = Array.length pkey in
  let nd = List.length dvals in
  let ni = List.length es.es_inst in
  let no = List.length es.es_orc in
  let a =
    Array.make (5 + nc + np + (2 * nd) + ni + no + List.length sleep) 0
  in
  a.(0) <- depth;
  a.(1) <- nc;
  let i = put_list a 2 rev_crashed in
  Array.blit pkey 0 a i np;
  let i = i + np in
  a.(i) <- nd;
  let i = put_done a (i + 1) dvals in
  a.(i) <- ni;
  let i = put_ids a (i + 1) es.es_inst in
  a.(i) <- no;
  let i = put_ids a (i + 1) es.es_orc in
  put_sleep a i sleep;
  a

(* Any pure function of the key is a valid hash — equality on the bucket
   is exact, so collisions cost a comparison, never a wrong answer. A
   multiply-xor fold with a final avalanche, so the low bits the tables
   index by depend on every component. *)
let vkey_hash (k : int array) =
  let h = ref (Array.length k) in
  for i = 0 to Array.length k - 1 do
    h := (!h lxor Array.unsafe_get k i) * 0x2545F4914F6CDD1D
  done;
  let h = !h lxor (!h lsr 31) in
  let h = h * 0x1B873593A5A5A5 in
  h lxor (h lsr 29)

(* Insert a finished process's decided value, with its id, keeping the
   list sorted by pid so completion order cannot split equal states. *)
let dval tbl pid v = (pid, name_id tbl (N_value v), v)

let rec dvals_add tbl pid v = function
  | [] -> [ dval tbl pid v ]
  | ((p, _, _) as e) :: tl ->
      if pid < p then dval tbl pid v :: e :: tl else e :: dvals_add tbl pid v tl

(* Sorted insert keeping the sleep list canonical by construction
   (choices are unique within a list, so ordering by choice is total).
   The sleep filters only keep, drop or retag entries in place, so
   sortedness is preserved down the tree and the visited key can embed
   the list as-is instead of sorting at every arrival. *)
let rec sleep_insert b = function
  | [] -> [ (b, false) ]
  | (u, _) as e :: tl ->
      if compare b u < 0 then (b, false) :: e :: tl
      else e :: sleep_insert b tl

(* Crashing commutes with another process's step (same final state, same
   crash order) but never with another crash (the [crashed] list
   records crash order, which properties may observe). *)
let sleep_filter_crash t_pid sleep =
  List.filter
    (fun (u, _) -> match u with Crash _ -> false | Step q -> q <> t_pid)
    sleep

(* The refined footprint of every process's next operation at the
   current node ([R_none] for finished or crashed processes), computed
   once per node and shared by every branch's sleep filter and store
   signature step. *)
let node_fps states =
  Array.mapi
    (fun pid s ->
      match s with Running p -> rfootprint ~pid p | Done _ | Crashed -> R_none)
    states

(* ------------------------------------------------------------------ *)
(* Engine C: shared visited table + work stealing + source-set pruning  *)
(* ------------------------------------------------------------------ *)

(* Sleep entries are tagged: [true] means the entry's survival through
   some past filter relied on the refined relation where the coarse one
   would have evicted it. Pruning a tagged entry is a source-set cut
   (counted separately); the tag is part of the visited key, so the
   prune tallies stay functions of the key alone. The filter runs
   BEFORE [Env.apply] — the refined rules are conditions on the state
   both candidate operations execute from. *)
(* [fps] is the node's [node_fps]. Written as a direct recursion (not
   [List.filter_map]) so the hot path allocates no closure. *)
let rec rsleep_filter env states fps fp_t t_pid sleep =
  match sleep with
  | [] -> []
  | ((u, tag) as e) :: tl -> (
      match u with
      | Crash q ->
          if q <> t_pid then e :: rsleep_filter env states fps fp_t t_pid tl
          else rsleep_filter env states fps fp_t t_pid tl
      | Step q ->
          if q = t_pid then rsleep_filter env states fps fp_t t_pid tl
          else (
            match states.(q) with
            | Running _ ->
                let fu = fps.(q) in
                if rf_indep env fu fp_t then
                  if tag || coarse_indep_r fu fp_t then
                    e :: rsleep_filter env states fps fp_t t_pid tl
                  else (u, true) :: rsleep_filter env states fps fp_t t_pid tl
                else rsleep_filter env states fps fp_t t_pid tl
            | Done _ | Crashed -> rsleep_filter env states fps fp_t t_pid tl))

(* A unit of work-stealing work: a subtree root owned outright by
   whichever worker runs it (private env copy, private arrays).
   [w_branches = Some rest] resumes a split node's remaining branch
   list — the node's visited-table insertion already happened on the
   splitting worker, so the resume goes straight to the branch loop.
   [w_sched] is the pretty-printed schedule prefix of the subtree
   root, so terminals can render their schedule without carrying the
   choice list. *)
type 'a witem = {
  w_env : Env.t;
  w_states : 'a pstate array;
  w_pkey : int array;
  w_done : (int * int * 'a) list;
  w_esig : esig;
  w_depth : int;
  w_crashes : int;
  w_rev_crashed : int list;
  w_sched : string;
  w_sleep : (choice * bool) list;
  w_branches : choice list option;
}

(* Why a pass stopped before covering the tree. *)
type 'a stop =
  | Cex of 'a run * string  (** the property rejected this run *)
  | Budget  (** the [max_runs]-th run completed *)
  | Raised of exn * Printexc.raw_backtrace
      (** the property, [on_progress] or a program raised *)

(* Shared read-mostly engine state. [g_stop] is the one-way abort: the
   first stop is recorded, every worker drains, and the caller turns it
   into the result — directly when one domain ran the pass, since that
   pass is the serial DFS, or by a serial rerun otherwise. *)
type 'a cshared = {
  g_visited : int array Visited.t option;
  g_intern : 'a intern;
      (* names histories, store entries and decided values for every
         key of this pass (see [name]) *)
  g_runs : int Atomic.t;
  g_stop : 'a stop option Atomic.t;
  g_run_cap : int;
  g_max_steps : int;
  g_max_crashes : int;
  g_property : 'a run -> (unit, string) Stdlib.result;
  g_progress : (runs:int -> unit) option;
}

(* Per-worker tallies, folded after the join. All deterministic in a
   clean pass — see the closure argument in DESIGN §14 — and in any
   one-domain pass, except [c_splits]. *)
type cworker = {
  mutable c_runs : int;
  mutable c_truncated : int;
  mutable c_pruned_states : int;
  mutable c_pruned_commutes : int;
  mutable c_pruned_source : int;
  mutable c_splits : int;
  c_vstats : Visited.stats;
}

let fresh_cworker () =
  {
    c_runs = 0;
    c_truncated = 0;
    c_pruned_states = 0;
    c_pruned_commutes = 0;
    c_pruned_source = 0;
    c_splits = 0;
    c_vstats = Visited.fresh_stats ();
  }

exception Abort

let stopped g = Option.is_some (Atomic.get g.g_stop)

(* Record the first stop and unwind this worker; the others see
   [stopped] at their next node. *)
let stop g why =
  ignore (Atomic.compare_and_set g.g_stop None (Some why) : bool);
  raise Abort

let cseen g acc key =
  match g.g_visited with
  | None -> false
  | Some tbl -> Visited.seen_or_add tbl ~hash:(vkey_hash key) key acc.c_vstats

(* Run one work item to completion (or abort). Branches are taken in
   pid order, each process's step before its crash, so with one domain
   the pass is a fixed serial DFS; with more, whenever a sibling worker
   is starving the remainder of the current node's branch list is split
   off as a new item. *)
let crun (g : 'a cshared) (acc : cworker) pool ~worker (it : 'a witem) =
  let dedup = g.g_visited <> None in
  let env = it.w_env in
  let states = it.w_states in
  (* [pkey] mirrors [states] as flat ints (history id / -1 crashed /
     -2 done), so a visited key's process component is one blit.
     [dvals] carries finished processes' decided values with their ids,
     sorted by pid. [esig] is the store fingerprint. All three advance
     on descent and restore (an int or pointer store) on backtrack. *)
  let pkey = it.w_pkey in
  let dvals = ref it.w_done in
  let esig = ref it.w_esig in
  (* The schedule rendered incrementally along the path: append on
     descent, truncate on backtrack. O(1) per step instead of a
     per-terminal list reversal and concat. *)
  let sbuf = Buffer.create 64 in
  Buffer.add_string sbuf it.w_sched;
  let ckey depth rev_crashed sleep =
    vkey ~depth ~rev_crashed ~pkey ~dvals:!dvals ~es:!esig ~sleep
  in
  let complete ~truncated rev_crashed =
    let run =
      {
        outcomes = outcomes_of states;
        crashed = List.rev rev_crashed;
        truncated;
        schedule = Buffer.contents sbuf;
      }
    in
    acc.c_runs <- acc.c_runs + 1;
    if truncated then acc.c_truncated <- acc.c_truncated + 1;
    let total = Atomic.fetch_and_add g.g_runs 1 + 1 in
    (match g.g_property run with
    | Ok () -> ()
    | Error msg -> stop g (Cex (run, msg)));
    if total >= g.g_run_cap then stop g Budget;
    if worker = 0 then heartbeat g.g_progress total
  in
  let rec node depth crashes rev_crashed sleep resume =
    if stopped g then raise Abort;
    match resume with
    | Some branches -> expand (fps_here ()) depth crashes rev_crashed sleep branches
    | None ->
        let live =
          let rec go i l =
            if i < 0 then l
            else
              go (i - 1)
                (match states.(i) with
                | Running _ -> i :: l
                | Done _ | Crashed -> l)
          in
          go (Array.length states - 1) []
        in
        if live = [] || depth >= g.g_max_steps then begin
          if dedup && cseen g acc (ckey depth rev_crashed []) then
            acc.c_pruned_states <- acc.c_pruned_states + 1
          else complete ~truncated:(live <> []) rev_crashed
        end
        else if dedup && cseen g acc (ckey depth rev_crashed sleep) then
          acc.c_pruned_states <- acc.c_pruned_states + 1
        else
          let branches =
            List.concat_map
              (fun pid ->
                Step pid
                :: (if crashes < g.g_max_crashes then [ Crash pid ] else []))
              live
          in
          expand (fps_here ()) depth crashes rev_crashed sleep branches
  and fps_here () =
    (* States are restored between descents, so the node's footprints
       cannot go stale. Skipped when not dedup'ing: the filter and the
       store signature are the only consumers. *)
    if not dedup then [||] else node_fps states
  and expand fps depth crashes rev_crashed sleep = function
    | [] -> ()
    | b :: rest -> (
        if stopped g then raise Abort;
        let sleeping =
          if dedup then
            List.find_map (fun (u, tag) -> if u = b then Some tag else None)
              sleep
          else None
        in
        match sleeping with
        | Some tag ->
            if tag then acc.c_pruned_source <- acc.c_pruned_source + 1
            else acc.c_pruned_commutes <- acc.c_pruned_commutes + 1;
            expand fps depth crashes rev_crashed sleep rest
        | None ->
            (* [b] will be explored, so subsequent branches — run here
               or offloaded — see it asleep. *)
            let sleep' = if dedup then sleep_insert b sleep else sleep in
            let offloaded =
              rest <> []
              && Par.want_work pool
              && Par.push pool ~worker
                   {
                     w_env = Env.copy env;
                     w_states = Array.copy states;
                     w_pkey = Array.copy pkey;
                     w_done = !dvals;
                     w_esig = !esig;
                     w_depth = depth;
                     w_crashes = crashes;
                     w_rev_crashed = rev_crashed;
                     w_sched = Buffer.contents sbuf;
                     w_sleep = sleep';
                     w_branches = Some rest;
                   }
            in
            if offloaded then acc.c_splits <- acc.c_splits + 1;
            let spos = Buffer.length sbuf in
            if spos > 0 then Buffer.add_char sbuf '.';
            Buffer.add_string sbuf (pp_choice b);
            (match b with
            | Step pid -> (
                match states.(pid) with
                | Running prog ->
                    (* Filter BEFORE applying: the refined rules are
                       conditions on the pre-step state. *)
                    let child_sleep =
                      if dedup then
                        rsleep_filter env states fps fps.(pid) pid sleep
                      else []
                    in
                    let cp = Env.checkpoint env in
                    let saved_pk = pkey.(pid) in
                    let saved_dv = !dvals in
                    let saved_es = !esig in
                    (match prog with
                    | Prog.Done v ->
                        states.(pid) <- Done v;
                        if dedup then begin
                          pkey.(pid) <- -2;
                          dvals := dvals_add g.g_intern pid v saved_dv
                        end
                    | Prog.Step (op, k) ->
                        let r = Env.apply env ~pid op in
                        if dedup then begin
                          pkey.(pid) <- intern_step g.g_intern saved_pk op r;
                          esig :=
                            esig_step g.g_intern env saved_es fps.(pid) ~pid
                        end;
                        states.(pid) <- Running (k r));
                    node (depth + 1) crashes rev_crashed child_sleep None;
                    Env.rollback env cp;
                    states.(pid) <- Running prog;
                    pkey.(pid) <- saved_pk;
                    dvals := saved_dv;
                    esig := saved_es
                | Done _ | Crashed -> assert false)
            | Crash pid ->
                let saved = states.(pid) in
                let saved_pk = pkey.(pid) in
                states.(pid) <- Crashed;
                pkey.(pid) <- -1;
                let child_sleep =
                  if dedup then sleep_filter_crash pid sleep else []
                in
                node (depth + 1) (crashes + 1) (pid :: rev_crashed) child_sleep
                  None;
                states.(pid) <- saved;
                pkey.(pid) <- saved_pk);
            Buffer.truncate sbuf spos;
            if not offloaded then expand fps depth crashes rev_crashed sleep' rest)
  in
  Env.enable_journal env;
  (try node it.w_depth it.w_crashes it.w_rev_crashed it.w_sleep it.w_branches
   with
  | Abort -> ()
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set g.g_stop None (Some (Raised (e, bt))) : bool));
  Env.disable_journal env

let rec exhaustive ?max_crashes ?(max_runs = 2_000_000) ?metrics ?on_progress
    ?(jobs = 1) ?(oversubscribe = false) ?(dedup = true) ~max_steps ~make
    ~property () =
  if jobs < 1 then invalid_arg "Explore.exhaustive: jobs must be >= 1";
  let njobs =
    if oversubscribe then jobs else min jobs (Domain.recommended_domain_count ())
  in
  let intern = Visited.Intern.create () in
  let g =
    {
      g_visited = (if dedup then Some (Visited.create ~buckets:131072 ()) else None);
      g_intern = intern;
      g_runs = Atomic.make 0;
      g_stop = Atomic.make None;
      g_run_cap = max_runs;
      g_max_steps = max_steps;
      g_max_crashes = Option.value max_crashes ~default:0;
      g_property = property;
      g_progress = on_progress;
    }
  in
  let accs = Array.init njobs (fun _ -> fresh_cworker ()) in
  let env0, progs = make () in
  let root =
    {
      w_env = env0;
      w_states = Array.map (fun p -> Running p) progs;
      w_pkey = Array.make (Array.length progs) 0;
      w_done = [];
      w_esig = esig_of_canonical intern (Env.canonical env0);
      w_depth = 0;
      w_crashes = 0;
      w_rev_crashed = [];
      w_sched = "";
      w_sleep = [];
      w_branches = None;
    }
  in
  let pool =
    Par.run_dynamic ~jobs:njobs ~oversubscribe:true ~roots:[ root ]
      (fun pool ~worker it ->
        if not (stopped g) then crun g accs.(worker) pool ~worker it)
  in
  match Atomic.get g.g_stop with
  | Some _ when njobs > 1 ->
      (* Which run stops a parallel pass depends on timing; the serial
         DFS defines the counterexample, the budget cut and the
         exception. Nothing from this pass is kept — no metrics were
         recorded yet. *)
      exhaustive ?max_crashes ~max_runs ?metrics ?on_progress ~jobs:1 ~dedup
        ~max_steps ~make ~property ()
  | Some (Raised (e, bt)) -> Printexc.raise_with_backtrace e bt
  | stop ->
      let counterexample =
        match stop with Some (Cex (run, msg)) -> Some (run, msg) | _ -> None
      in
      let exhausted_budget =
        match stop with Some Budget -> true | _ -> false
      in
      let sum f = Array.fold_left (fun n a -> n + f a) 0 accs in
      let explored = sum (fun a -> a.c_runs) in
      let truncated = sum (fun a -> a.c_truncated) in
      let pruned_states = sum (fun a -> a.c_pruned_states) in
      let pruned_commutes = sum (fun a -> a.c_pruned_commutes) in
      let pruned_source = sum (fun a -> a.c_pruned_source) in
      let hits = sum (fun a -> a.c_vstats.Visited.hits) in
      let misses = sum (fun a -> a.c_vstats.Visited.misses) in
      (match metrics with
      | None -> ()
      | Some m ->
          note_by metrics "explore.runs" explored;
          if truncated > 0 then note_by metrics "explore.truncated" truncated;
          if Option.is_some counterexample then note metrics "explore.counterexamples";
          note_by metrics "explore.pruned_states" pruned_states;
          note_by metrics "explore.pruned_commutes" pruned_commutes;
          note_by metrics "explore.pruned_source" pruned_source;
          note_by metrics "explore.visited.hits" hits;
          note_by metrics "explore.visited.misses" misses;
          (* Timing-dependent tallies: only when the registry accepts
             wall-clock-ish values, so snapshot-compared runs stay
             byte-identical at any job count. *)
          if Metrics.wall_clock m then begin
            note_by metrics "explore.par.steals" (Par.steals pool);
            note_by metrics "explore.par.splits" (sum (fun a -> a.c_splits));
            Array.iteri
              (fun i a ->
                note_by metrics
                  (Printf.sprintf "explore.par.d%d.runs" i)
                  a.c_runs;
                note_by metrics
                  (Printf.sprintf "explore.par.d%d.visited_hits" i)
                  a.c_vstats.Visited.hits;
                note_by metrics
                  (Printf.sprintf "explore.par.d%d.visited_misses" i)
                  a.c_vstats.Visited.misses)
              accs
          end);
      {
        explored;
        counterexample;
        exhausted_budget;
        pruned_states;
        pruned_commutes;
        pruned_source;
      }

(* Re-execute one schedule string, as [pp_choice] renders it, from a
   fresh [make ()]. Every choice must be enabled where it is taken — a
   running process, a crash within the budget, no step past the depth
   bound — and the schedule must end exactly where a run ends, so only
   a run the explorer could have completed is accepted. *)
let run_of_schedule ?(max_crashes = 0) ~max_steps ~make schedule =
  let env, progs = make () in
  let states = Array.map (fun p -> Running p) progs in
  let choice tok =
    let crash = String.length tok > 1 && tok.[0] = 'X' in
    let digits = if crash then String.sub tok 1 (String.length tok - 1) else tok in
    match int_of_string_opt digits with
    | Some p when p >= 0 && p < Array.length states && string_of_int p = digits
      ->
        Some (if crash then Crash p else Step p)
    | _ -> None
  in
  let rec go depth crashes rev_crashed = function
    | [] ->
        let live = Array.exists (function Running _ -> true | _ -> false) states in
        if live && depth < max_steps then Error "the schedule ends mid-run"
        else
          Ok
            {
              outcomes = outcomes_of states;
              crashed = List.rev rev_crashed;
              truncated = live;
              schedule;
            }
    | tok :: rest -> (
        if depth >= max_steps then Error "the schedule exceeds the depth bound"
        else
          match choice tok with
          | None -> Error (Printf.sprintf "bad choice %S" tok)
          | Some (Step p) -> (
              match states.(p) with
              | Running (Prog.Done v) ->
                  states.(p) <- Done v;
                  go (depth + 1) crashes rev_crashed rest
              | Running (Prog.Step (op, k)) ->
                  states.(p) <- Running (k (Env.apply env ~pid:p op));
                  go (depth + 1) crashes rev_crashed rest
              | Done _ | Crashed ->
                  Error (Printf.sprintf "choice %s: p%d is not running" tok p))
          | Some (Crash p) -> (
              match states.(p) with
              | Running _ when crashes < max_crashes ->
                  states.(p) <- Crashed;
                  go (depth + 1) (crashes + 1) (p :: rev_crashed) rest
              | _ -> Error (Printf.sprintf "choice %s is not enabled" tok)))
  in
  match
    go 0 0 [] (if schedule = "" then [] else String.split_on_char '.' schedule)
  with
  | r -> r
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Reference engine: the original copy-per-branch DFS                   *)
(* ------------------------------------------------------------------ *)

(* No journal, no dedup, no sleep sets: the reference the soundness
   oracle compares engine C against (and the bench's EX baseline). *)
let exhaustive_copy ?(max_crashes = 0) ?(max_runs = 2_000_000) ~max_steps ~make
    ~property () =
  let env0, progs = make () in
  let explored = ref 0 in
  let counterexample = ref None in
  let exhausted = ref false in
  let finish states crashed truncated rev_choices =
    let run =
      {
        outcomes = outcomes_of states;
        crashed = List.rev crashed;
        truncated;
        schedule = schedule_string rev_choices;
      }
    in
    incr explored;
    (match property run with
    | Ok () -> ()
    | Error msg ->
        counterexample := Some (run, msg);
        raise Found);
    if !explored >= max_runs then begin
      exhausted := true;
      raise Found
    end
  in
  let rec dfs env states depth crashes crashed rev_choices =
    let live =
      Array.to_list states
      |> List.mapi (fun i s -> (i, s))
      |> List.filter_map (fun (i, s) ->
             match s with Running _ -> Some i | Done _ | Crashed -> None)
    in
    if live = [] then finish states crashed false rev_choices
    else if depth >= max_steps then finish states crashed true rev_choices
    else
      List.iter
        (fun pid ->
          (match states.(pid) with
          | Running prog ->
              let env' = Env.copy env in
              let states' = Array.copy states in
              (match prog with
              | Prog.Done v -> states'.(pid) <- Done v
              | Prog.Step (op, k) ->
                  let r = Env.apply env' ~pid op in
                  states'.(pid) <- Running (k r));
              dfs env' states' (depth + 1) crashes crashed
                (Step pid :: rev_choices)
          | Done _ | Crashed -> assert false);
          if crashes < max_crashes then begin
            let states' = Array.copy states in
            states'.(pid) <- Crashed;
            dfs (Env.copy env) states' (depth + 1) (crashes + 1)
              (pid :: crashed)
              (Crash pid :: rev_choices)
          end)
        live
  in
  (try dfs env0 (Array.map (fun p -> Running p) progs) 0 0 [] []
   with Found -> ());
  {
    explored = !explored;
    counterexample = !counterexample;
    exhausted_budget = !exhausted;
    pruned_states = 0;
    pruned_commutes = 0;
    pruned_source = 0;
  }

(* ------------------------------------------------------------------ *)
(* Systematic fault-box sweeping under online monitors                  *)
(* ------------------------------------------------------------------ *)

type fault_point = { victim : int; op : int; kind : Adversary.fault_kind }

type fault_schedule = { scheduler : string; faults : fault_point list }

let pp_fault_point ppf { victim; op; kind } =
  Format.fprintf ppf "p%d@op%d%s" victim op
    (match kind with
    | Adversary.Crash_stop -> ""
    | k -> ":" ^ Adversary.fault_kind_name k)

let pp_fault_schedule ppf { scheduler; faults } =
  Format.fprintf ppf "%s + [%s]" scheduler
    (String.concat "; "
       (List.map (Format.asprintf "%a" pp_fault_point) faults))

type found = {
  fault : fault_schedule;
  shrunk : fault_schedule;
  violation : Monitor.violation;  (** from the run of the shrunk schedule *)
  shrink_runs : int;
  replay : string;
}

type sweep_outcome = {
  runs : int;
  found : found option;
  deadlock : fault_schedule option;
  exhausted : bool;
}

let default_schedulers ~nprocs =
  [
    ("round-robin", fun () -> Adversary.round_robin ());
    ("priority-asc", fun () -> Adversary.priority (List.init nprocs Fun.id));
    ( "priority-desc",
      fun () -> Adversary.priority (List.rev (List.init nprocs Fun.id)) );
    ("random(1)", fun () -> Adversary.random ~seed:1);
    ("random(2)", fun () -> Adversary.random ~seed:2);
  ]

type verdict = Clean | Deadlocked | Violating of Monitor.violation

let run_fault ?(budget = 20_000) ~make ~monitors ~scheduler faults =
  let env, progs = make () in
  let specs =
    List.map
      (fun { victim; op; kind } ->
        {
          Adversary.kind;
          trigger = Adversary.Crash_at_local { pid = victim; step = op };
        })
      faults
  in
  let adversary = Adversary.with_faults (scheduler ()) specs in
  match
    Exec.run ~budget ~record_trace:true ~monitors:(monitors ()) ~env ~adversary
      progs
  with
  | r ->
      (* "All processes stuck" is a finding of the omission tier, not a
         crash of the checker: the run ended with nobody decided and
         nobody even runnable. *)
      let halted =
        Array.for_all
          (function
            | Exec.Crashed | Exec.Stuck -> true
            | Exec.Decided _ | Exec.Blocked -> false)
          r.Exec.outcomes
      in
      if halted && r.Exec.stuck <> [] then Deadlocked else Clean
  | exception Monitor.Violation v -> Violating v
  | exception Adversary.Deadlock -> Deadlocked

(* Delta-debugging: drop fault points, then weaken surviving fault kinds
   toward plain crash-stop, then pull the op-indices toward 0, then try
   collapsing the scheduler to round-robin. The scheduler is resolved
   once up front, every candidate — including the scheduler collapse —
   is validated through the same [attempt] path, and the last accepted
   (schedule, violation) pair is carried through, so the result is a
   genuine violating schedule with its own violation. *)
let shrink ?budget ~make ~monitors ~schedulers fault violation0 =
  let runs = ref 0 in
  let best = ref (fault, violation0) in
  let resolve name =
    match List.assoc_opt name schedulers with
    | Some s -> Some (name, s)
    | None -> None
  in
  let attempt (name, scheduler) faults =
    incr runs;
    match run_fault ?budget ~make ~monitors ~scheduler faults with
    | Violating v ->
        best := ({ scheduler = name; faults }, v);
        true
    | Clean | Deadlocked -> false
  in
  let sched =
    match resolve fault.scheduler with
    | Some s -> s
    | None ->
        invalid_arg
          (Printf.sprintf "Explore.shrink: scheduler %S is not in schedulers"
             fault.scheduler)
  in
  let violates faults = attempt sched faults in
  let rec drop_points faults =
    let rec try_drop i =
      if i >= List.length faults then faults
      else
        let candidate = List.filteri (fun j _ -> j <> i) faults in
        if violates candidate then drop_points candidate else try_drop (i + 1)
    in
    try_drop 0
  in
  let weaken_kinds faults =
    List.mapi
      (fun i p ->
        if p.kind = Adversary.Crash_stop then p
        else
          let weakened = { p with kind = Adversary.Crash_stop } in
          let candidate =
            List.mapi (fun j q -> if j = i then weakened else q) faults
          in
          if violates candidate then weakened else p)
      faults
  in
  let lower_indices faults =
    List.mapi
      (fun i p ->
        let rec lowest cand =
          if cand >= p.op then p
          else
            let candidate =
              List.mapi
                (fun j q -> if j = i then { p with op = cand } else q)
                faults
            in
            if violates candidate then { p with op = cand }
            else lowest (cand + 1)
        in
        lowest 0)
      faults
  in
  let faults = lower_indices (weaken_kinds (drop_points fault.faults)) in
  (if fault.scheduler <> "round-robin" then
     match resolve "round-robin" with
     | Some rr -> ignore (attempt rr faults : bool)
     | None -> ());
  let shrunk, violation = !best in
  (shrunk, violation, !runs)

let fault_sets ~nprocs ~kinds ~max_faults ~op_window =
  let kinds = match kinds with [] -> [ Adversary.Crash_stop ] | ks -> ks in
  let rec assignments = function
    | [] -> [ [] ]
    | pid :: rest ->
        let tails = assignments rest in
        List.concat_map
          (fun kind ->
            List.concat_map
              (fun op ->
                List.map (fun tl -> { victim = pid; op; kind } :: tl) tails)
              (List.init op_window Fun.id))
          kinds
  in
  let sizes = List.init (max 0 max_faults) (fun s -> s + 1) in
  [] (* the fault-free schedule first *)
  :: List.concat_map
       (fun size ->
         Combin.subsets ~n:nprocs ~size |> List.concat_map assignments)
       sizes

(* ------------------------------------------------------------------ *)
(* Sweep sharding hooks: the cell grid and the in-order merge           *)
(* ------------------------------------------------------------------ *)

(* The flattened scheduler × fault-set product, in sweep order. Like an
   exploration {!plan}, the grid is a pure function of the sweep
   parameters: a coordinator and its worker processes enumerate the
   same descriptors, so a cell index fully identifies one run. *)
type 'a sweep_plan = {
  sp_make : unit -> Env.t * 'a Prog.t array;
  sp_monitors : unit -> 'a Monitor.t list;
  sp_schedulers : (string * (unit -> Adversary.t)) list;
  sp_descriptors : (string * (unit -> Adversary.t) * fault_point list) array;
  sp_budget : int option;
  sp_meta : (string * string) list;
  sp_max_runs : int;
}

let sweep_plan ?(kinds = [ Adversary.Crash_stop ]) ?(max_faults = 1)
    ?(op_window = 6) ?(max_runs = 5_000) ?budget ?schedulers ?(meta = [])
    ~make ~monitors () =
  let env0, _ = make () in
  let nprocs = Env.nprocs env0 in
  let schedulers =
    match schedulers with
    | Some s -> s
    | None -> default_schedulers ~nprocs
  in
  let fault_box = fault_sets ~nprocs ~kinds ~max_faults ~op_window in
  (* Flatten the scheduler × fault-set product into run descriptors in
     sweep order; each descriptor is one independent run (fresh env,
     programs, monitors, adversary), so runs parallelise with no shared
     state and the merge reads verdicts back in sweep order —
     byte-identical outcomes at any job or worker count. *)
  let descriptors =
    List.concat_map
      (fun (sched_name, scheduler) ->
        List.map (fun faults -> (sched_name, scheduler, faults)) fault_box)
      schedulers
    |> Array.of_list
  in
  {
    sp_make = make;
    sp_monitors = monitors;
    sp_schedulers = schedulers;
    sp_descriptors = descriptors;
    sp_budget = budget;
    sp_meta = meta;
    sp_max_runs = max_runs;
  }

let sweep_cells p = min (Array.length p.sp_descriptors) p.sp_max_runs

let sweep_cell p i =
  let _, scheduler, faults = p.sp_descriptors.(i) in
  run_fault ?budget:p.sp_budget ~make:p.sp_make ~monitors:p.sp_monitors
    ~scheduler faults

let sweep_cell_schedule p i =
  let sched_name, _, faults = p.sp_descriptors.(i) in
  { scheduler = sched_name; faults }

(* In-order merge of per-cell verdicts. [verdict_of] may be backed by
   in-process results or by tags shipped from worker processes; a
   remote [Violating] carries no violation payload, so such callers map
   the tag back through {!sweep_cell} (deterministic) before merging —
   which is also why shrinking always happens here, locally, after the
   merge. *)
let sweep_merge ?metrics ?on_progress p ~verdict_of =
  let n_dispatch = sweep_cells p in
  let runs = ref 0 in
  let found = ref None in
  let deadlock = ref None in
  let exhausted = ref false in
  (try
     for i = 0 to n_dispatch - 1 do
       let verdict = verdict_of i in
       incr runs;
       note metrics "sweep.runs";
       heartbeat on_progress !runs;
       let sched_name, _, faults = p.sp_descriptors.(i) in
       match verdict with
       | Clean -> note metrics "sweep.verdict.clean"
       | Deadlocked ->
           note metrics "sweep.verdict.deadlocked";
           if !deadlock = None then
             deadlock := Some { scheduler = sched_name; faults }
       | Violating v ->
           note metrics "sweep.verdict.violating";
           let fault = { scheduler = sched_name; faults } in
           let shrunk, violation, shrink_runs =
             shrink ?budget:p.sp_budget ~make:p.sp_make ~monitors:p.sp_monitors
               ~schedulers:p.sp_schedulers fault v
           in
           note_by metrics "sweep.shrink_runs" shrink_runs;
           let replay =
             let t =
               match violation.Monitor.trace with
               | Some t -> t
               | None -> Trace.create () (* run_fault records traces *)
             in
             Trace.to_replay
               ~meta:
                 (p.sp_meta
                 @ [
                     ("monitor", violation.Monitor.monitor);
                     ("message", violation.Monitor.message);
                     ("step", string_of_int violation.Monitor.step);
                     ("pid", string_of_int violation.Monitor.pid);
                     ( "schedule",
                       Format.asprintf "%a" pp_fault_schedule shrunk );
                   ])
               t
           in
           found := Some { fault; shrunk; violation; shrink_runs; replay };
           raise Found
     done;
     if Array.length p.sp_descriptors > p.sp_max_runs then exhausted := true
   with Found -> ());
  {
    runs = !runs;
    found = !found;
    deadlock = !deadlock;
    exhausted = !exhausted;
  }

let sweep_faults ?kinds ?max_faults ?op_window ?max_runs ?budget ?schedulers
    ?meta ?metrics ?on_progress ?(jobs = 1) ?oversubscribe ~make ~monitors ()
    =
  let p =
    sweep_plan ?kinds ?max_faults ?op_window ?max_runs ?budget ?schedulers
      ?meta ~make ~monitors ()
  in
  let n_dispatch = sweep_cells p in
  let best = Atomic.make max_int in
  let rec note_violating i =
    let cur = Atomic.get best in
    if i < cur && not (Atomic.compare_and_set best cur i) then
      note_violating i
  in
  let run_one i =
    match sweep_cell p i with
    | Violating _ as v ->
        note_violating i;
        v
    | v -> v
  in
  let results =
    Par.run ~jobs ?oversubscribe
      ~skip:(fun i -> i > Atomic.get best)
      ~tasks:n_dispatch run_one
  in
  sweep_merge ?metrics ?on_progress p ~verdict_of:(fun i ->
      match results.(i) with
      | Some v -> v
      | None ->
          (* skipped past the first violation; only reachable if the
             merge still needs it, and re-running is deterministic *)
          sweep_cell p i)

let sweep_crashes ?max_crashes ?op_window ?max_runs ?budget ?schedulers ?meta
    ?metrics ?on_progress ?jobs ?oversubscribe ~make ~monitors () =
  sweep_faults
    ~kinds:[ Adversary.Crash_stop ]
    ?max_faults:max_crashes ?op_window ?max_runs ?budget ?schedulers ?meta
    ?metrics ?on_progress ?jobs ?oversubscribe ~make ~monitors ()

let replay ?budget ?metrics ~make ~monitors decisions =
  let env, progs = make () in
  let adversary = Adversary.of_replay decisions in
  match
    Exec.run ?budget ~record_trace:true ~monitors:(monitors ()) ?metrics ~env
      ~adversary progs
  with
  | r -> Ok r
  | exception Monitor.Violation v -> Error v

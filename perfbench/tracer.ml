(* The traced run's recorder. Everything is measured from outside the
   program: spans wrap calls into its public functions, and the
   callbacks the program calls back into (a scenario's [make] and
   [exhaustive_property], the steps of its programs) are wrapped through
   the public [Scenario.t] record and [Svm.Prog.t] constructors.

   Spans of the calling domain are kept in memory and written out at
   exit. Callbacks that run on worker domains, millions of times per
   job, are tallied into per-domain accumulators instead of spans. *)

let now_ns = Sysprobe.now_ns

type span = {
  id : int;
  parent : int;  (** [-1] for a job's root span *)
  job : int;
  layer : string;
  name : string;
  t0 : int;  (** ns, monotonic *)
  t1 : int;
}

let on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let job = ref (-1)

let span ~layer name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now_ns () in
    let close () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      spans := { id; parent; job = !job; layer; name; t0; t1 } :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* Self time per layer: a span's duration minus what its children
   cover (children nest strictly: one calling domain). *)
let self_ns_by_layer () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 - s.t0)
          + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let by = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by s.layer
        (self + Option.value ~default:0 (Hashtbl.find_opt by s.layer)))
    !spans;
  by

let write_jsonl file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"job\":%d,\"layer\":%S,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.job s.layer s.name s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Callback tallies                                                     *)
(* ------------------------------------------------------------------ *)

let max_passes = 8

type acc = {
  prop_calls : int array;  (** per engine pass (= [make] call) *)
  mutable prop_ns : int;
  mutable ops : int;
}

let accs : acc list ref = ref []
let accs_lock = Mutex.create ()

let acc_key =
  Domain.DLS.new_key (fun () ->
      let a = { prop_calls = Array.make max_passes 0; prop_ns = 0; ops = 0 } in
      Mutex.protect accs_lock (fun () -> accs := a :: !accs);
      a)

(* Sum of every domain's tallies since the last [reset_tallies]; call
   it only once the job's domains have joined. *)
type tallies = { calls : int array; prop_ns_total : int; ops_total : int }

let tallies () =
  Mutex.protect accs_lock (fun () ->
      let calls = Array.make max_passes 0 in
      let ns = ref 0 and ops = ref 0 in
      List.iter
        (fun a ->
          Array.iteri (fun i c -> calls.(i) <- calls.(i) + c) a.prop_calls;
          ns := !ns + a.prop_ns;
          ops := !ops + a.ops)
        !accs;
      { calls; prop_ns_total = !ns; ops_total = !ops })

let reset_tallies () =
  Mutex.protect accs_lock (fun () ->
      List.iter
        (fun a ->
          Array.fill a.prop_calls 0 max_passes 0;
          a.prop_ns <- 0;
          a.ops <- 0)
        !accs)

(* Engine passes of the current job: one [make] call each. *)
let pass_starts : int list ref = ref []
let current_pass = Atomic.make 0

let begin_job () =
  reset_tallies ();
  pass_starts := [];
  Atomic.set current_pass 0

(* Wrap an explorable scenario: count and time [make] (one call per
   engine pass) and time every [exhaustive_property] call, attributed
   to the pass it belongs to. *)
let explore_probe (s : Experiments.Scenario.t) =
  {
    s with
    Experiments.Scenario.make =
      (fun () ->
        pass_starts := now_ns () :: !pass_starts;
        Atomic.set current_pass (List.length !pass_starts - 1);
        span ~layer:"explore" "make" s.Experiments.Scenario.make);
    exhaustive_property =
      (fun r ->
        let a = Domain.DLS.get acc_key in
        let pass = min (max_passes - 1) (Atomic.get current_pass) in
        let t0 = now_ns () in
        let v = s.Experiments.Scenario.exhaustive_property r in
        a.prop_ns <- a.prop_ns + (now_ns () - t0);
        a.prop_calls.(pass) <- a.prop_calls.(pass) + 1;
        v);
  }

(* Count every operation the scenario's programs execute, by wrapping
   each step's continuation. *)
let rec count_steps : type a. a Svm.Prog.t -> a Svm.Prog.t = function
  | Svm.Prog.Done v -> Svm.Prog.Done v
  | Svm.Prog.Step (op, k) ->
      Svm.Prog.Step
        ( op,
          fun r ->
            let a = Domain.DLS.get acc_key in
            a.ops <- a.ops + 1;
            count_steps (k r) )

let exec_probe (s : Experiments.Scenario.t) =
  {
    s with
    Experiments.Scenario.make =
      (fun () ->
        let env, progs = s.Experiments.Scenario.make () in
        (env, Array.map count_steps progs));
  }

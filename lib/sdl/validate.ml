(* Static validation of a parsed scenario — everything that can be
   rejected before a single operation executes.

   Checked here:
   - model sanity: nprocs/min/x bounds;
   - object declarations: unique names, cons port counts within the
     model's x, consensus-number-2 objects (ts, queue) only when
     x >= 2, xsa arity within the model (and x >= 2 unless its owners
     are static);
   - process blocks: every pid in [0, nprocs) covered by exactly one
     block (checked again by {!Compile} at every resize);
   - statements: objects exist and are used at the right kind, let
     variables are in scope, loop bounds are positive and the total
     statically-unrolled size is capped (a submission-safety bound —
     DSL sources are accepted over the wire);
   - best-effort static port discipline: an unconditional propose on a
     consensus object from more distinct pids than it has ports is
     rejected here (the environment still enforces the dynamic rule);
   - properties: at least one, range bounds are closed over [nprocs]
     only, k and stall bounds positive;
   - termination: every process body decides on every path, with no
     unreachable statements after a decide.

   All failures are typed {!Ast.error}s. *)

open Ast

exception Reject of Ast.error

let reject span msg = raise (Reject { e_span = span; e_msg = msg })

let rejectf span fmt = Printf.ksprintf (reject span) fmt

(* The statically-unrolled statement budget: repeat bodies multiply. *)
let max_unrolled = 10_000

let max_repeat = 256

let find_obj objs name = List.find_opt (fun o -> o.o_name = name) objs

let kind_name = function
  | Reg -> "reg"
  | Snap -> "snap"
  | Cons _ -> "cons"
  | Ts -> "ts"
  | Queue -> "queue"
  | Sa _ -> "sa"
  | Xsa _ -> "xsa"
  | Ac -> "ac"

(* ---- expressions ---- *)

let rec check_expr ~vars e =
  match e.e_desc with
  | Int _ | Pid | Nprocs -> ()
  | Var v ->
      if not (List.mem v vars) then
        rejectf e.e_span "unbound variable %S (bind it with 'let %s = ...')" v
          v
  | Binop (_, a, b) ->
      check_expr ~vars a;
      check_expr ~vars b

(* Property ranges close over nprocs only: they are evaluated once per
   scenario size, outside any process. *)
let rec check_size_expr what e =
  match e.e_desc with
  | Int _ | Nprocs -> ()
  | Pid -> rejectf e.e_span "%s cannot depend on 'pid'" what
  | Var v -> rejectf e.e_span "%s cannot reference the variable %S" what v
  | Binop (_, a, b) ->
      check_size_expr what a;
      check_size_expr what b

(* ---- calls and statements ---- *)

let check_obj_use objs span ~verb name ok =
  match find_obj objs name with
  | None -> rejectf span "unknown object %S in '%s'" name verb
  | Some o ->
      if not (ok o.o_kind) then
        rejectf span "'%s' does not apply to the %s object %S" verb
          (kind_name o.o_kind) name

let check_call objs ~vars c =
  match c.c_desc with
  | Read { obj; key = _; default } ->
      check_obj_use objs c.c_span ~verb:"read" obj (function
        | Reg -> true
        | _ -> false);
      Option.iter (check_expr ~vars) default
  | Deq { obj; key = _; default } ->
      check_obj_use objs c.c_span ~verb:"deq" obj (function
        | Queue -> true
        | _ -> false);
      Option.iter (check_expr ~vars) default
  | Scan_max { obj; key = _; default } ->
      check_obj_use objs c.c_span ~verb:"scan_max" obj (function
        | Snap -> true
        | _ -> false);
      Option.iter (check_expr ~vars) default
  | Propose { obj; key = _; value } ->
      check_obj_use objs c.c_span ~verb:"propose" obj (function
        | Sa _ | Xsa _ | Ac | Cons _ -> true
        | _ -> false);
      check_expr ~vars value
  | Decide_obj { obj; key = _ } ->
      check_obj_use objs c.c_span ~verb:"decide" obj (function
        | Sa _ | Xsa _ -> true
        | _ -> false)
  | Ts_call { obj; key = _ } ->
      check_obj_use objs c.c_span ~verb:"ts" obj (function
        | Ts -> true
        | _ -> false)

(* A decide anywhere inside the body — including nested in if branches
   or inner repeats — would cut a surrounding loop short. *)
let rec contains_decide stmts =
  List.exists
    (fun s ->
      match s.st_desc with
      | Decide _ -> true
      | If (_, then_, else_) ->
          contains_decide then_ || contains_decide else_
      | Repeat (_, body) -> contains_decide body
      | _ -> false)
    stmts

(* Returns the unrolled weight of the statement list. [vars] is the
   lexical scope: bindings made inside a nested block do not escape
   it. *)
let rec check_stmts objs ~vars stmts : int =
  match stmts with
  | [] -> 0
  | st :: rest -> (
      let after_decide () =
        match rest with
        | [] -> ()
        | next :: _ ->
            reject next.st_span "unreachable statement after 'decide'"
      in
      match st.st_desc with
      | Decide e ->
          check_expr ~vars e;
          after_decide ();
          1
      | Let (v, c) ->
          check_call objs ~vars c;
          1 + check_stmts objs ~vars:(v :: vars) rest
      | Call c ->
          check_call objs ~vars c;
          1 + check_stmts objs ~vars rest
      | Write { obj; key = _; value } ->
          check_obj_use objs st.st_span ~verb:"write" obj (function
            | Reg -> true
            | _ -> false);
          check_expr ~vars value;
          1 + check_stmts objs ~vars rest
      | Set { obj; key = _; value } ->
          check_obj_use objs st.st_span ~verb:"set" obj (function
            | Snap -> true
            | _ -> false);
          check_expr ~vars value;
          1 + check_stmts objs ~vars rest
      | Enq { obj; key = _; value } ->
          check_obj_use objs st.st_span ~verb:"enq" obj (function
            | Queue -> true
            | _ -> false);
          check_expr ~vars value;
          1 + check_stmts objs ~vars rest
      | Yield -> 1 + check_stmts objs ~vars rest
      | Repeat (n, body) ->
          if n < 1 then
            rejectf st.st_span "repeat bound must be positive (got %d)" n;
          if n > max_repeat then
            rejectf st.st_span "repeat bound %d exceeds the cap %d" n
              max_repeat;
          let w = check_stmts objs ~vars body in
          if contains_decide body then
            reject st.st_span
              "'decide' inside 'repeat' would cut the loop short: decide \
               after the loop instead";
          (* Saturating: reject before multiplying so nested repeats
             cannot wrap the native int past the cap (255^8 overflows
             63-bit ints to a negative that would pass the final
             comparison). *)
          if w > max_unrolled / n then
            rejectf st.st_span
              "repeat unrolls to more than %d statements (cap %d): shrink \
               the repeat bounds"
              max_unrolled max_unrolled;
          (n * w) + 1 + check_stmts objs ~vars rest
      | If (cond, then_, else_) ->
          check_expr ~vars cond;
          let wt = check_stmts objs ~vars then_ in
          let we = check_stmts objs ~vars else_ in
          1 + wt + we + check_stmts objs ~vars rest)

(* Every path through the statement list ends in a decide. *)
let rec ends_decided stmts =
  match List.rev stmts with
  | [] -> false
  | last :: _ -> (
      match last.st_desc with
      | Decide _ -> true
      | If (_, t, e) -> ends_decided t && ends_decided e
      | _ -> false)

(* ---- best-effort static port discipline ----

   Count, per consensus object and key, the pids that propose on it
   unconditionally (outside any if); more than the declared ports is a
   certain violation, rejected before execution. Conditional accesses
   are left to the environment's dynamic check. *)

let static_cons_accesses ~nprocs sc =
  let tbl : (string * key, (int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let note obj key pid =
    let k = (obj, key) in
    let set =
      match Hashtbl.find_opt tbl k with
      | Some s -> s
      | None ->
          let s = Hashtbl.create 8 in
          Hashtbl.add tbl k s;
          s
    in
    Hashtbl.replace set pid ()
  in
  let rec scan_stmts pid stmts =
    List.iter
      (fun st ->
        match st.st_desc with
        | Let (_, { c_desc = Propose { obj; key; _ }; _ })
        | Call { c_desc = Propose { obj; key; _ }; _ } -> (
            match find_obj sc.sc_objects obj with
            | Some { o_kind = Cons _; _ } -> note obj key pid
            | _ -> ())
        | Repeat (_, body) -> scan_stmts pid body
        | If _ -> ()  (* conditional: dynamic check only *)
        | _ -> ())
      stmts
  in
  List.iter
    (fun pb ->
      let pids =
        match pb.pb_sel with
        | All -> List.init nprocs Fun.id
        | Range (lo, hi) ->
            List.filter (fun p -> p >= lo && p <= hi)
              (List.init nprocs Fun.id)
      in
      List.iter (fun pid -> scan_stmts pid pb.pb_body) pids)
    sc.sc_procs;
  tbl

let check_port_discipline ~nprocs sc =
  let tbl = static_cons_accesses ~nprocs sc in
  Hashtbl.iter
    (fun (obj, key) set ->
      match find_obj sc.sc_objects obj with
      | Some { o_kind = Cons { ports }; o_span; _ } ->
          let n = Hashtbl.length set in
          if n > ports then
            rejectf o_span
              "port discipline: %d processes propose unconditionally on \
               cons %S key [%s], but it declares only %d port(s)"
              n obj
              (String.concat "," (List.map string_of_int key))
              ports
      | _ -> ())
    tbl

(* ---- process coverage (size-dependent; re-run by Compile) ---- *)

let check_coverage ~nprocs sc =
  let owner = Array.make nprocs None in
  List.iter
    (fun pb ->
      let lo, hi =
        match pb.pb_sel with All -> (0, nprocs - 1) | Range (lo, hi) -> (lo, hi)
      in
      if lo < 0 || hi < lo then
        rejectf pb.pb_span "malformed pid range %d..%d" lo hi;
      if hi >= nprocs then
        rejectf pb.pb_span
          "process block %d..%d is out of range for nprocs %d (pids are \
           0..%d)"
          lo hi nprocs (nprocs - 1);
      for p = lo to hi do
        match owner.(p) with
        | Some _ ->
            rejectf pb.pb_span "pid %d is covered by two process blocks" p
        | None -> owner.(p) <- Some pb
      done)
    sc.sc_procs;
  Array.iteri
    (fun p o ->
      if o = None then
        rejectf sc.sc_span
          "pid %d has no process block (cover it with 'process all' or an \
           explicit range)"
          p)
    owner

(* ---- the scenario ---- *)

let check_sized ~nprocs sc =
  check_coverage ~nprocs sc;
  check_port_discipline ~nprocs sc

let validate_exn sc =
  if sc.sc_nprocs < 1 then
    rejectf sc.sc_span "nprocs must be at least 1 (got %d)" sc.sc_nprocs;
  if sc.sc_min_nprocs < 1 then
    rejectf sc.sc_span "min nprocs must be at least 1 (got %d)"
      sc.sc_min_nprocs;
  if sc.sc_min_nprocs > sc.sc_nprocs then
    rejectf sc.sc_span "min nprocs %d exceeds the default nprocs %d"
      sc.sc_min_nprocs sc.sc_nprocs;
  if sc.sc_x < 1 then rejectf sc.sc_span "x must be at least 1 (got %d)" sc.sc_x;
  if sc.sc_explore_steps < 0 then
    rejectf sc.sc_span "explore_steps must be non-negative (got %d)"
      sc.sc_explore_steps;
  (* objects *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun o ->
      if Hashtbl.mem seen o.o_name then
        rejectf o.o_span "duplicate object name %S" o.o_name;
      Hashtbl.add seen o.o_name ();
      match o.o_kind with
      | Reg | Snap | Sa _ | Ac -> ()
      | Cons { ports } ->
          if ports < 1 then
            rejectf o.o_span "cons %S must declare at least 1 port" o.o_name;
          if ports > sc.sc_x then
            rejectf o.o_span
              "cons %S declares %d ports but the model allows x = %d"
              o.o_name ports sc.sc_x
      | Ts ->
          if sc.sc_x < 2 then
            rejectf o.o_span
              "test&set %S has consensus number 2: it needs x >= 2 (model \
               has x = %d)"
              o.o_name sc.sc_x
      | Queue ->
          if sc.sc_x < 2 then
            rejectf o.o_span
              "queue %S has consensus number 2: it needs x >= 2 (model has \
               x = %d)"
              o.o_name sc.sc_x
      | Xsa { x; static_owners; _ } ->
          if x < 1 then
            rejectf o.o_span "xsa %S must have arity x >= 1" o.o_name;
          (* Dynamic owner election runs X_compete, whose test&set
             objects are built from 2-port consensus. *)
          if (not static_owners) && sc.sc_x < 2 then
            rejectf o.o_span
              "xsa %S elects its owners with test&set (consensus number \
               2): it needs x >= 2 or static_owners (model has x = %d)"
              o.o_name sc.sc_x;
          if x > sc.sc_x then
            rejectf o.o_span
              "xsa %S has arity %d but the model allows x = %d" o.o_name x
              sc.sc_x;
          if sc.sc_min_nprocs < x then
            rejectf o.o_span
              "xsa %S with arity %d needs at least %d processes (min \
               nprocs is %d)"
              o.o_name x x sc.sc_min_nprocs)
    sc.sc_objects;
  (* process blocks *)
  if sc.sc_procs = [] then
    reject sc.sc_span "the scenario has no process blocks";
  List.iter
    (fun pb ->
      let w = check_stmts sc.sc_objects ~vars:[] pb.pb_body in
      if w > max_unrolled then
        rejectf pb.pb_span
          "process body unrolls to %d statements (cap %d): shrink the \
           repeat bounds"
          w max_unrolled;
      if not (ends_decided pb.pb_body) then
        reject pb.pb_span
          "a process body must end in 'decide' on every path")
    sc.sc_procs;
  (* properties *)
  if sc.sc_props = [] then
    reject sc.sc_span
      "the scenario declares no property (add at least one 'property')";
  List.iter
    (fun p ->
      match p.p_desc with
      | Agreement { lo; hi } | Validity { lo; hi } | Integrity { lo; hi } ->
          check_size_expr "a property range" lo;
          check_size_expr "a property range" hi
      | K_agreement { k; lo; hi } ->
          if k < 1 then rejectf p.p_span "k_agreement needs k >= 1 (got %d)" k;
          check_size_expr "a property range" lo;
          check_size_expr "a property range" hi
      | Stall_bound { prefix; bound } ->
          if prefix = "" then
            reject p.p_span "stall_bound needs a non-empty family prefix";
          if bound < 1 then
            rejectf p.p_span "stall_bound needs bound >= 1 (got %d)" bound)
    sc.sc_props;
  (* size-dependent checks at the default size *)
  check_sized ~nprocs:sc.sc_nprocs sc

let validate sc : (unit, Ast.error) result =
  match validate_exn sc with () -> Ok () | exception Reject e -> Error e

(* Size-dependent re-validation for resizes, used by {!Compile}. *)
let validate_sized ~nprocs sc : (unit, Ast.error) result =
  match check_sized ~nprocs sc with
  | () -> Ok ()
  | exception Reject e -> Error e

(* Seeded generator of random well-typed scenarios.

   Pure function of the seed (its own [Random.State], never the global
   generator), so test failures replay from the printed seed. Every
   generated scenario passes {!Validate.validate} by construction: the
   fmt→parse round-trip qcheck in test_sdl.ml drives thousands of
   seeds through [Pretty.to_string] / [Parser.parse] and asserts both
   the round-trip and the validator's acceptance. *)

open Ast

type objs = {
  regs : string list;
  snaps : string list;
  queues : string list;
  tss : string list;
  sas : string list;
  xsas : string list;
  acs : string list;
}

let sp = dummy_span

let mk_e d = { e_desc = d; e_span = sp }

let pick rs l = List.nth l (Random.State.int rs (List.length l))

let opt rs l = if l = [] then None else Some (pick rs l)

(* Expressions over the given variable scope; comparisons only at the
   top of an [if] condition (the grammar allows one, non-nested). *)
let rec gen_arith rs ~vars depth =
  if depth = 0 || Random.State.int rs 3 = 0 then
    match Random.State.int rs (if vars = [] then 3 else 4) with
    | 0 -> mk_e (Int (Random.State.int rs 21 - 10))
    | 1 -> mk_e Pid
    | 2 -> mk_e Nprocs
    | _ -> mk_e (Var (pick rs vars))
  else
    let op = pick rs [ Add; Sub; Mul; Div; Mod ] in
    mk_e (Binop (op, gen_arith rs ~vars (depth - 1), gen_arith rs ~vars (depth - 1)))

let gen_cond rs ~vars =
  if Random.State.bool rs then
    let op = pick rs [ Eq; Ne; Lt; Le; Gt; Ge ] in
    mk_e (Binop (op, gen_arith rs ~vars 1, gen_arith rs ~vars 1))
  else gen_arith rs ~vars 2

let gen_key rs = List.init (Random.State.int rs 3) (fun _ -> Random.State.int rs 4)

let gen_default rs ~vars =
  if Random.State.bool rs then Some (gen_arith rs ~vars 1) else None

let mk_c d = { c_desc = d; c_span = sp }

let mk_s d = { st_desc = d; st_span = sp }

(* One non-terminal statement; [fresh] mints variable names. Returns
   the statement and the variable it binds, if any. *)
let rec gen_stmt rs ~objs ~vars ~fresh depth =
  let candidates =
    List.concat
      [
        (if objs.regs <> [] then [ `Write; `Let_read ] else []);
        (if objs.snaps <> [] then [ `Set; `Let_scan ] else []);
        (if objs.queues <> [] then [ `Enq; `Let_deq ] else []);
        (if objs.tss <> [] then [ `Let_ts ] else []);
        (if objs.sas <> [] then [ `Sa_round ] else []);
        (if objs.xsas <> [] then [ `Xsa_round ] else []);
        (if objs.acs <> [] then [ `Let_ac ] else []);
        [ `Yield ];
        (if depth > 0 then [ `Repeat; `If ] else []);
      ]
  in
  match pick rs candidates with
  | `Write ->
      ( [
          mk_s
            (Write
               {
                 obj = pick rs objs.regs;
                 key = gen_key rs;
                 value = gen_arith rs ~vars 2;
               });
        ],
        None )
  | `Set ->
      ( [
          mk_s
            (Set
               {
                 obj = pick rs objs.snaps;
                 key = gen_key rs;
                 value = gen_arith rs ~vars 2;
               });
        ],
        None )
  | `Enq ->
      ( [
          mk_s
            (Enq
               {
                 obj = pick rs objs.queues;
                 key = gen_key rs;
                 value = gen_arith rs ~vars 2;
               });
        ],
        None )
  | `Let_read ->
      let v = fresh () in
      ( [
          mk_s
            (Let
               ( v,
                 mk_c
                   (Read
                      {
                        obj = pick rs objs.regs;
                        key = gen_key rs;
                        default = gen_default rs ~vars;
                      }) ));
        ],
        Some v )
  | `Let_deq ->
      let v = fresh () in
      ( [
          mk_s
            (Let
               ( v,
                 mk_c
                   (Deq
                      {
                        obj = pick rs objs.queues;
                        key = gen_key rs;
                        default = gen_default rs ~vars;
                      }) ));
        ],
        Some v )
  | `Let_scan ->
      let v = fresh () in
      ( [
          mk_s
            (Let
               ( v,
                 mk_c
                   (Scan_max
                      {
                        obj = pick rs objs.snaps;
                        key = gen_key rs;
                        default = gen_default rs ~vars;
                      }) ));
        ],
        Some v )
  | `Let_ts ->
      let v = fresh () in
      ( [
          mk_s
            (Let (v, mk_c (Ts_call { obj = pick rs objs.tss; key = gen_key rs })));
        ],
        Some v )
  | `Let_ac ->
      let v = fresh () in
      ( [
          mk_s
            (Let
               ( v,
                 mk_c
                   (Propose
                      {
                        obj = pick rs objs.acs;
                        key = gen_key rs;
                        value = gen_arith rs ~vars 1;
                      }) ));
        ],
        Some v )
  | `Sa_round ->
      (* propose then decide, the canonical safe-agreement round; the
         decide is sometimes left unbound (a bare statement whose
         result is dropped) so the round-trip covers that shape too *)
      let obj = pick rs objs.sas in
      let key = gen_key rs in
      let propose =
        mk_s (Call (mk_c (Propose { obj; key; value = gen_arith rs ~vars 1 })))
      in
      if Random.State.bool rs then
        let v = fresh () in
        ([ propose; mk_s (Let (v, mk_c (Decide_obj { obj; key }))) ], Some v)
      else ([ propose; mk_s (Call (mk_c (Decide_obj { obj; key }))) ], None)
  | `Xsa_round ->
      let obj = pick rs objs.xsas in
      let key = gen_key rs in
      let propose =
        mk_s (Call (mk_c (Propose { obj; key; value = gen_arith rs ~vars 1 })))
      in
      if Random.State.bool rs then
        let v = fresh () in
        ([ propose; mk_s (Let (v, mk_c (Decide_obj { obj; key }))) ], Some v)
      else ([ propose; mk_s (Call (mk_c (Decide_obj { obj; key }))) ], None)
  | `Yield -> ([ mk_s Yield ], None)
  | `Repeat ->
      let n = 1 + Random.State.int rs 3 in
      let body, _ = gen_body rs ~objs ~vars ~fresh (depth - 1) in
      ([ mk_s (Repeat (n, body)) ], None)
  | `If ->
      let cond = gen_cond rs ~vars in
      let then_, _ = gen_body rs ~objs ~vars ~fresh (depth - 1) in
      let else_ =
        if Random.State.bool rs then fst (gen_body rs ~objs ~vars ~fresh (depth - 1))
        else []
      in
      ([ mk_s (If (cond, then_, else_)) ], None)

(* A non-deciding statement list, threading let-bound vars. *)
and gen_body rs ~objs ~vars ~fresh depth =
  let len = 1 + Random.State.int rs 3 in
  let rec go i vars acc =
    if i = 0 then (List.concat (List.rev acc), vars)
    else
      let stmts, bound = gen_stmt rs ~objs ~vars ~fresh depth in
      let vars = match bound with Some v -> v :: vars | None -> vars in
      go (i - 1) vars (stmts :: acc)
  in
  go len vars []

let mk_o name kind = { o_name = name; o_kind = kind; o_span = sp }

let scenario ~seed : scenario =
  let rs = Random.State.make [| 0x5d1; seed |] in
  let x = 1 + Random.State.int rs 2 in
  let nprocs = max x (2 + Random.State.int rs 3) in
  (* objects: always a register; the rest by coin flips within the
     model's x *)
  let regs = [ "R" ] in
  let snaps = if Random.State.bool rs then [ "SM" ] else [] in
  let queues = if x >= 2 && Random.State.bool rs then [ "Q" ] else [] in
  let tss = if x >= 2 && Random.State.bool rs then [ "T" ] else [] in
  let sas = if Random.State.bool rs then [ "SA" ] else [] in
  let xsas = if Random.State.bool rs then [ "XSA" ] else [] in
  let acs = if Random.State.bool rs then [ "AC" ] else [] in
  let objs = { regs; snaps; queues; tss; sas; xsas; acs } in
  let sc_objects =
    List.concat
      [
        List.map (fun n -> mk_o n Reg) regs;
        List.map (fun n -> mk_o n Snap) snaps;
        List.map (fun n -> mk_o n Queue) queues;
        List.map (fun n -> mk_o n Ts) tss;
        List.map
          (fun n -> mk_o n (Sa { no_cancel = Random.State.bool rs }))
          sas;
        List.map
          (fun n ->
            mk_o n
              (Xsa
                 {
                   x;
                   first_subset_only = Random.State.bool rs;
                   (* dynamic owner election needs test&set, x >= 2 *)
                   static_owners = x < 2;
                 }))
          xsas;
        List.map (fun n -> mk_o n Ac) acs;
      ]
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  let body, vars = gen_body rs ~objs ~vars:[] ~fresh 2 in
  let body = body @ [ mk_s (Decide (gen_arith rs ~vars 2)) ] in
  let procs = [ { pb_sel = All; pb_body = body; pb_span = sp } ] in
  let wide = { e_desc = Int (-1_000_000); e_span = sp } in
  let wide_hi =
    mk_e (Binop (Mul, mk_e (Int 1_000_000), mk_e Nprocs))
  in
  let props =
    [ { p_desc = Validity { lo = wide; hi = wide_hi }; p_span = sp } ]
    @
    if Random.State.bool rs then
      [ { p_desc = K_agreement { k = nprocs; lo = wide; hi = wide_hi }; p_span = sp } ]
    else []
  in
  {
    sc_name = Printf.sprintf "gen_%d" seed;
    sc_doc = (if Random.State.bool rs then "generated scenario" else "");
    sc_nprocs = nprocs;
    sc_min_nprocs = max x 2;
    sc_x = x;
    sc_seeded_bug = false;
    sc_explore_steps = 6 + Random.State.int rs 6;
    sc_objects;
    sc_procs = procs;
    sc_props = props;
    sc_span = sp;
  }

let source ~seed = Pretty.to_string (scenario ~seed)

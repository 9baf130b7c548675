(* A domain-shared insert-if-absent table: one plain array of immutable
   chains, read without a lock and extended under a per-stripe mutex.
   See the .mli for the linearizability argument; the re-walk under the
   lock in [seen_or_add] is the one step the whole construction leans
   on. *)

(* One block per entry, immutable once published. *)
type 'k chain = Nil | Cons of { hash : int; key : 'k; next : 'k chain }

(* A stripe guards the buckets whose index is congruent to it modulo
   the stripe count. [n] counts the entries it has published; it is
   only touched under [lock]. *)
type stripe = { lock : Mutex.t; mutable n : int }

type 'k t = { buckets : 'k chain array; mask : int; stripes : stripe array }

type stats = { mutable hits : int; mutable misses : int }

let fresh_stats () = { hits = 0; misses = 0 }

let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

(* Rounded bucket count, and its stripe count: one stripe per 1024
   buckets, between 1 and 64 — a small table gets a single mutex, an
   engine C table one per core on any host this runs on. *)
let geometry buckets =
  let cap = pow2 (max 16 buckets) 16 in
  (cap, min 64 (max 1 (cap / 1024)))

let make_stripes n = Array.init n (fun _ -> { lock = Mutex.create (); n = 0 })

let create ?(buckets = 65536) () =
  let cap, nstripes = geometry buckets in
  (* [Nil] is an immediate, so this allocates no young block for the
     major-heap array to point at — creating a table forces no minor
     collection. *)
  {
    buckets = Array.make cap Nil;
    mask = cap - 1;
    stripes = make_stripes nstripes;
  }

(* Walk [chain] up to (not including) the physically equal [stop]. *)
let rec mem hash key stop chain =
  chain != stop
  &&
  match chain with
  | Nil -> false
  | Cons c -> (c.hash = hash && c.key = key) || mem hash key stop c.next

let seen_or_add t ~hash key stats =
  let b = hash land t.mask in
  let head = Array.unsafe_get t.buckets b in
  if mem hash key Nil head then begin
    stats.hits <- stats.hits + 1;
    true
  end
  else begin
    let s = Array.unsafe_get t.stripes (b land (Array.length t.stripes - 1)) in
    (* Under the lock the bucket is final: every insert into it
       happened under this same lock. Only the entries published since
       [head] was read can be new, so the re-walk stops there. *)
    let found =
      Mutex.protect s.lock (fun () ->
          let cur = Array.unsafe_get t.buckets b in
          mem hash key head cur
          || begin
               Array.unsafe_set t.buckets b (Cons { hash; key; next = cur });
               s.n <- s.n + 1;
               false
             end)
    in
    if found then stats.hits <- stats.hits + 1
    else stats.misses <- stats.misses + 1;
    found
  end

let distinct t = Array.fold_left (fun n s -> n + s.n) 0 t.stripes

(* The same table naming its keys: the first caller to publish a key
   picks its id under the stripe lock, everyone else adopts it. *)
module Intern = struct
  type 'k ichain =
    | INil
    | ICons of { hash : int; key : 'k; id : int; next : 'k ichain }

  type 'k t = { ibuckets : 'k ichain array; imask : int; istripes : stripe array }

  let create ?(buckets = 65536) () =
    let cap, nstripes = geometry buckets in
    {
      ibuckets = Array.make cap INil;
      imask = cap - 1;
      istripes = make_stripes nstripes;
    }

  let rec find hash key stop chain =
    if chain == stop then -1
    else
      match chain with
      | INil -> -1
      | ICons c ->
          if c.hash = hash && c.key = key then c.id else find hash key stop c.next

  let id t ~hash key =
    let b = hash land t.imask in
    let head = Array.unsafe_get t.ibuckets b in
    let i = find hash key INil head in
    if i >= 0 then i
    else begin
      let nstripes = Array.length t.istripes in
      let si = b land (nstripes - 1) in
      let s = Array.unsafe_get t.istripes si in
      Mutex.protect s.lock (fun () ->
          let cur = Array.unsafe_get t.ibuckets b in
          let i = find hash key head cur in
          if i >= 0 then i
          else begin
            (* Stripe-local numbering: [n·stripes + stripe] with
               [n >= 1] is distinct across stripes, never 0, and needs
               no shared counter. *)
            s.n <- s.n + 1;
            let fresh = (s.n * nstripes) + si in
            Array.unsafe_set t.ibuckets b
              (ICons { hash; key; id = fresh; next = cur });
            fresh
          end)
    end

  let count t = Array.fold_left (fun n s -> n + s.n) 0 t.istripes
end

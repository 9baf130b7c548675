(** A shared, domain-safe visited-state table for the explorer.

    One table is shared by every exploring domain, so a state
    fingerprinted by one domain is never re-expanded by a sibling — the
    cross-domain deduplication that makes parallel exploration pay for
    itself. The structure is one plain array of immutable bucket chains
    (made by [Array.make], so creating a table costs one allocation and
    forces no collection) plus a few mutexes, one per {e stripe} of
    buckets: one stripe per 1024 buckets, between 1 and 64.

    {b Linearizability.} [seen_or_add] behaves as an atomic
    insert-if-absent: for any set of concurrent calls with the same key,
    exactly one returns [false] (the insertion) and every other returns
    [true]. The argument is local to one bucket:

    - a lookup reads the bucket's chain with a plain load and walks it
      without a lock. Entries are never removed and chains are
      immutable, so a key found there really is in the table (the call
      linearizes at that read); OCaml 5's memory model guarantees a
      racing reader sees a chain node fully initialised, never a
      half-built block;
    - a miss takes the bucket's stripe mutex and re-reads the chain
      under it. Every insert into the bucket happened under that same
      mutex, so this read sees them all; the call re-walks the entries
      published since its first read and, if the key is still absent,
      publishes a new head with a plain store before unlocking (the
      call linearizes at that store). Two racing inserters of one key
      are thus serialised by the mutex, and the second finds the
      first's entry.

    Lookups that hit never write or lock; a miss costs one uncontended
    mutex round trip in the common case. *)

type 'k t

type stats = {
  mutable hits : int;  (** key was already present *)
  mutable misses : int;  (** key was inserted by this call *)
}

val fresh_stats : unit -> stats
(** A zeroed per-domain statistics record. Each domain mutates its own
    (plain, unsynchronised) record; fold them after joining. *)

val create : ?buckets:int -> unit -> 'k t
(** [create ()] builds an empty table. [buckets] (default [65536]) is
    rounded up to a power of two; chains grow without bound, so the
    table never refuses an insert, it only walks longer chains. *)

val seen_or_add : 'k t -> hash:int -> 'k -> stats -> bool
(** [seen_or_add t ~hash key stats] returns [true] if [key] was already
    present and inserts it (returning [false]) otherwise, atomically
    with respect to every other domain. [hash] must be a pure function
    of [key] (the same key must always arrive with the same hash); keys
    are compared with polymorphic equality after an exact hash match. *)

val distinct : 'k t -> int
(** Number of distinct keys inserted so far (per-stripe counters,
    O(stripes)). Racy while inserts are in flight; exact after the
    inserting domains are joined. *)

(** A concurrent hash-consing (interning) table.

    [id t key] names [key] with a small integer: the first caller to
    publish a key picks its id, every later caller — in any domain —
    gets that same id back. Within one table, id equality is exactly
    key equality, so a chain of keys can be summarised by one integer
    and compared in O(1). The explorer uses this to collapse
    per-process operation histories, store entries and decided values
    to ids, making every visited key one flat [int array].

    The structure and the linearizability argument are {!t}'s: a lookup
    walks the chain without a lock, a miss re-walks under the stripe
    mutex and names the key there. Ids are numbered per stripe —
    [n * stripes + stripe] for the stripe's [n]-th key, [n >= 1] — so
    they are distinct across stripes, never 0, and need no shared
    counter. Their numeric values depend on scheduling, so ids are
    process-local names: never compare them across tables, persist
    them, or let them reach deterministic output — only their
    {e equalities} are stable. *)
module Intern : sig
  type 'k t

  val create : ?buckets:int -> unit -> 'k t
  (** [buckets] (default [65536]) is rounded up to a power of two. Id 0
      is never allocated — callers may use it as a root/empty id. *)

  val id : 'k t -> hash:int -> 'k -> int
  (** Atomic find-or-name. [hash] must be a pure function of [key];
      keys are compared with polymorphic equality after an exact hash
      match. The result is always positive. *)

  val count : 'k t -> int
  (** Number of distinct keys named so far. Post-run reporting only. *)
end

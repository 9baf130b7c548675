(** A crash-safe, content-addressed corpus of replay artifacts,
    modeled on cemented block stores: an append-only {e tail} file plus
    immutable {e cemented} segment files with indexes.

    Layout under the corpus directory:

    {v
    tail.seg                    appends land here, flushed per record
    segments/seg-00000001.cor   immutable cemented segments
    segments/seg-00000001.idx   seal + offset/length/digest rows (rebuildable)
    v}

    A segment's {e seal} is the header of its idx file,
    [idx 2 <n> <segment-md5> <rows-md5>]: the MD5 of the bytes the store
    meant to write into the segment, and the MD5 of the index rows that
    follow.

    Durability contract:
    - {e Appends} ({!add}) are complete framed records, flushed to the
      OS but not fsynced: a crash loses at most the uncemented tail,
      and a torn final append is truncated away on reopen (the same
      "a record exists only once its terminator does" rule as
      [Dist.Journal]).
    - {e Cementing} ({!cement}) makes the tail immutable with the full
      atomic discipline — fsync the tail file, rename it into
      [segments/], fsync the directories, then write the index through
      a fsynced temp-file rename. The seal is computed over the bytes
      held in memory since they were verified or appended, never over
      bytes read back from disk. A crash at any instant leaves either
      the old state or the new state; a segment whose index write was
      interrupted is rescanned and re-sealed from its own bytes on the
      next open.
    - {e Opening} verifies every cemented byte: each segment against its
      seal, with one MD5 over the segment and one over its idx rows.
      When either MD5 mismatches, or the idx is missing or predates
      seals, every record of the segment is re-verified against its
      content address instead, and a clean segment is re-sealed. A
      cemented record whose bytes no longer hash to their recorded
      address is {e quarantined} — reported as typed data, never a
      crash, and excluded from the index and from dedup.
    - {e Reads} ({!find}, {!iter}) re-verify each record's content
      address as they re-read it from disk.
    - {e Compaction} ({!compact}) merges all cemented segments into
      one. It seals only input it verified in the same call — each
      input segment must still match its seal or pass the per-record
      scan — and the output is byte-identity-checked against that
      input before the old segments are dropped. It refuses to run
      while any record is quarantined. *)

type t

type reason =
  | Q_digest of { expected : string; actual : string }
      (** framing intact, content does not hash to its address *)
  | Q_malformed of string  (** framing destroyed from this offset on *)

type quarantine = {
  q_file : string;  (** segment file, relative to the corpus dir *)
  q_offset : int;  (** byte offset of the corrupt record *)
  q_reason : reason;
}

val pp_quarantine : Format.formatter -> quarantine -> unit

(** Crash/corruption injection for the robustness tests — armed at
    {!open_}, fires once. *)
type chaos =
  | Kill_at_append of int
      (** SIGKILL this process immediately after the [n]-th append of
          this store's lifetime returns (record complete, uncemented) *)
  | Torn_at_append of int
      (** write only a prefix of the [n]-th appended record, flush the
          torn bytes, then SIGKILL this process *)
  | Bitflip_after_cement
      (** after the next successful cement, flip one payload bit inside
          the newly cemented segment file *)

val open_ :
  ?log:Svm.Log.t -> ?fsync:bool -> ?chaos:chaos -> string -> (t, string) result
(** Open (creating if needed) the corpus at a directory. Recovery runs
    here: the tail is truncated to its last complete valid record, and
    every cemented segment is checked against its seal. A segment that
    fails the check, or has no sealed idx, falls back to re-verifying
    each of its records — corrupt ones land in {!quarantined}; a clean
    one is re-sealed. Recovery actions (tail truncation, quarantines) are
    reported on [log] at [Warn]. [fsync] (default [true]) controls
    whether cement syncs reach the disk or only the OS. *)

val add : t -> Record.t -> [ `Added of string | `Duplicate of string ]
(** Append a record to the tail unless its content address is already
    present (cemented or in the tail); returns the address either way. *)

val mem : t -> string -> bool
(** Is this content address present (and not quarantined)? A string
    that is not a hex digest is never present. *)

val find : t -> string -> Record.t option
(** Re-read a record by content address, re-verifying it from disk.
    [None] if absent (a string that is not a hex digest included) — or
    if the bytes on disk no longer verify, in which case the record is
    quarantined and dropped from the index. *)

val cement : t -> unit
(** Turn the tail into an immutable, sealed segment (no-op on an empty
    tail). *)

val count : t -> int
(** Valid records: cemented + tail, duplicates counted once. *)

val tail_count : t -> int
(** Records in the uncemented tail — what a crash right now may lose. *)

val segments : t -> int
(** Number of cemented segment files. *)

val quarantined : t -> quarantine list
(** Corrupt cemented records found so far, oldest first. *)

val iter : t -> (digest:string -> Record.t -> unit) -> unit
(** Every valid record in storage order (cemented segments in id order,
    offset order within a segment, then the tail). Records are re-read
    and re-verified from disk; a record that fails verification here is
    quarantined and skipped. *)

val fold : t -> init:'a -> f:('a -> digest:string -> Record.t -> 'a) -> 'a

val compact : t -> (int, string) result
(** Merge all cemented segments into a single fresh segment; the tail
    is cemented first. Every input segment is re-read and must still
    match its seal (or pass a per-record scan), and the output bytes
    are verified to be the byte-identical concatenation of the input
    records before the old segments are removed. Returns the number of
    records in the compacted segment. Refuses ([Error]) when any record
    is quarantined or any input segment changed since it was
    verified. *)

val close : t -> unit
(** Flush and close the tail (no cement implied). *)

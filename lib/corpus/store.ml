type reason =
  | Q_digest of { expected : string; actual : string }
  | Q_malformed of string

type quarantine = { q_file : string; q_offset : int; q_reason : reason }

let pp_quarantine ppf q =
  Format.fprintf ppf "%s @@ byte %d: %s" q.q_file q.q_offset
    (match q.q_reason with
    | Q_digest { expected; actual } ->
        Printf.sprintf "digest mismatch (recorded %s, content hashes to %s)"
          expected actual
    | Q_malformed m -> Printf.sprintf "malformed framing (%s)" m)

type chaos =
  | Kill_at_append of int
  | Torn_at_append of int
  | Bitflip_after_cement

(* An entry is (content address, byte offset, byte length). The address
   is the raw 16-byte MD5; hex exists only at the API. *)
type entry = { e_digest : string; e_off : int; e_len : int }

type location = Cemented of int | In_tail

(* A cemented segment. [seal] is the MD5 of its bytes, verified at open
   or computed over what cement/compact meant to write; [loc] is the one
   location value every index row of this segment shares. *)
type seg = {
  id : int;
  seal : Digest.t;
  loc : location;
  entries : entry array;  (** offset order *)
}

type t = {
  dir : string;
  seg_dir : string;
  fsync : bool;
  index : (string, location) Hashtbl.t;  (** raw digest -> location *)
  mutable segs : seg list;  (** ascending segment id *)
  mutable tail_oc : out_channel;
  tail_bytes : Buffer.t;
      (** the tail file's content as the store meant to write it: the
          recovered valid tail plus every append since *)
  mutable tail_entries : entry list;  (** newest first *)
  mutable quarantine : quarantine list;  (** oldest first *)
  mutable appends : int;  (** lifetime appends, for the chaos hooks *)
  mutable chaos : chaos option;
}

let tail_file t = Filename.concat t.dir "tail.seg"
let seg_name id = Printf.sprintf "seg-%08d.cor" id
let idx_name id = Printf.sprintf "seg-%08d.idx" id
let seg_rel id = Filename.concat "segments" (seg_name id)
let seg_file t id = Filename.concat t.seg_dir (seg_name id)
let idx_file t id = Filename.concat t.seg_dir (idx_name id)
let next_seg_id t = 1 + List.fold_left (fun acc s -> max acc s.id) 0 t.segs

let raw_digest hex =
  match Digest.from_hex hex with
  | d -> Some d
  | exception Invalid_argument _ -> None

let mkdir_p d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* Directory fsync: the rename/create is not durable until the
   directory entry is. Some filesystems refuse fsync on a directory fd;
   that is a capability gap, not a corruption, so it is swallowed. *)
let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let fsync_oc oc = Unix.fsync (Unix.descr_of_out_channel oc)

(* Read a whole file into [!buf], growing it as needed; returns the byte
   count. Plain [Unix.read] into one reused buffer: an in_channel per
   file would keep its own 64 KiB buffer alive until finalisation. *)
let read_into buf path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if Bytes.length !buf <= size then buf := Bytes.create (size + 1);
      let rec go off =
        if off = Bytes.length !buf then begin
          let b = Bytes.create (2 * off) in
          Bytes.blit !buf 0 b 0 off;
          buf := b
        end;
        match Unix.read fd !buf off (Bytes.length !buf - off) with
        | 0 -> off
        | n -> go (off + n)
      in
      go 0)

let read_slice path ~off ~len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      if in_channel_length ic < off + len then None
      else begin
        seek_in ic off;
        Some (really_input_string ic len)
      end)

let sigkill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

(* ------------------------------------------------------------------ *)
(* Segment indexes                                                     *)
(* ------------------------------------------------------------------ *)

(* An idx file is a seal plus an accelerator, never the truth:

   {v
   idx 2 <n> <segment-md5> <rows-md5>\n
   <off> <len> <digest>\n      (n rows, offset order)
   v}

   Open trusts the rows only when the segment's bytes hash to the
   segment MD5 and the rows hash to the rows MD5; anything else — a
   mismatch, an [idx 1] file from an older store, no idx at all — is
   settled by re-verifying every record from the segment's own bytes. *)

let render_rows entries =
  let b = Buffer.create (48 * Array.length entries) in
  Array.iter
    (fun e ->
      Printf.bprintf b "%d %d %s\n" e.e_off e.e_len (Digest.to_hex e.e_digest))
    entries;
  Buffer.contents b

let write_idx ~seg_dir ~fsync id ~seal entries =
  let rows = render_rows entries in
  let tmp = Filename.concat seg_dir (idx_name id ^ ".tmp") in
  let oc = open_out_bin tmp in
  Printf.fprintf oc "idx 2 %d %s %s\n" (Array.length entries)
    (Digest.to_hex seal)
    (Digest.to_hex (Digest.string rows));
  output_string oc rows;
  flush oc;
  if fsync then fsync_oc oc;
  close_out oc;
  Sys.rename tmp (Filename.concat seg_dir (idx_name id));
  if fsync then fsync_dir seg_dir

(* The rows of an idx file from [pos] on, or [None] if any is unreadable. *)
let parse_rows s pos =
  let row line =
    match String.split_on_char ' ' line with
    | [ off; len; hex ] -> (
        match
          (int_of_string_opt off, int_of_string_opt len, raw_digest hex)
        with
        | Some e_off, Some e_len, Some e_digest ->
            Some { e_digest; e_off; e_len }
        | _ -> None)
    | _ -> None
  in
  let rec go pos acc =
    if pos >= String.length s then Some (List.rev acc)
    else
      match String.index_from_opt s pos '\n' with
      | None -> None
      | Some nl -> (
          match row (String.sub s pos (nl - pos)) with
          | None -> None
          | Some e -> go (nl + 1) (e :: acc))
  in
  go pos []

(* [Some (seal, rows)] for a readable idx file, where [seal] is the
   segment MD5 it vouches for — only from an [idx 2] header whose rows
   still hash to their recorded MD5. Rows of any readable idx serve the
   per-record scan's resync. *)
let load_idx scratch path =
  match read_into scratch path with
  | exception Unix.Unix_error _ -> None
  | n -> (
      let s = Bytes.sub_string !scratch 0 n in
      match String.index_opt s '\n' with
      | None -> None
      | Some nl -> (
          let header = String.split_on_char ' ' (String.sub s 0 nl) in
          let count_ok c rows = int_of_string_opt c = Some (List.length rows) in
          match (header, parse_rows s (nl + 1)) with
          | [ "idx"; "1"; c ], Some rows when count_ok c rows ->
              Some (None, rows)
          | [ "idx"; "2"; c; seal; rows_md5 ], Some rows when count_ok c rows
            ->
              let rows_intact =
                Digest.to_hex (Digest.substring s (nl + 1) (n - nl - 1))
                = rows_md5
              in
              Some ((if rows_intact then raw_digest seal else None), rows)
          | _ -> None))

(* Do the rows cover a segment of [len] bytes exactly, back to back? *)
let rows_tile rows len =
  List.fold_left
    (fun pos e ->
      match pos with
      | Some p when e.e_off = p && e.e_len > 0 -> Some (p + e.e_len)
      | _ -> None)
    (Some 0) rows
  = Some len

(* ------------------------------------------------------------------ *)
(* Opening: verify cemented segments, recover the tail                 *)
(* ------------------------------------------------------------------ *)

let entry_of_record r ~off ~len =
  { e_digest = Digest.from_hex (Record.digest r); e_off = off; e_len = len }

(* Walk one cemented segment, re-verifying every record. Framing damage
   loses synchronization from the corrupt point on; the idx (when it
   has a row past that point) restores it, so one flipped length digit
   does not swallow the rest of the segment. *)
let scan_segment ~file ~idx buf =
  let len = String.length buf in
  let entries = ref [] and quarantine = ref [] in
  let resync pos =
    match idx with
    | None -> None
    | Some rows ->
        List.find_map
          (fun e -> if e.e_off > pos then Some e.e_off else None)
          rows
  in
  let quarantine_gap pos upto reason =
    quarantine := { q_file = file; q_offset = pos; q_reason = reason } :: !quarantine;
    upto
  in
  let rec go pos =
    if pos < len then
      match Record.parse_at buf pos with
      | Ok (r, n) ->
          entries := entry_of_record r ~off:pos ~len:n :: !entries;
          go (pos + n)
      | Error (Record.Digest_mismatch { expected; actual }) -> (
          (* Framing intact: the structural extent is knowable, so only
             this record is lost. *)
          match Record.skip_at buf pos with
          | Ok n -> go (quarantine_gap pos (pos + n) (Q_digest { expected; actual }))
          | Error _ ->
              ignore
                (quarantine_gap pos len
                   (Q_digest { expected; actual })))
      | Error (Record.Malformed m) -> (
          match resync pos with
          | Some next when next > pos -> go (quarantine_gap pos next (Q_malformed m))
          | _ ->
              ignore
                (quarantine_gap pos len
                   (Q_malformed (m ^ "; remainder of segment unreadable"))))
      | Error Record.Truncated ->
          ignore
            (quarantine_gap pos len
               (Q_malformed "segment ends mid-record"))
  in
  go 0;
  (List.rev !entries, List.rev !quarantine)

(* The tail is mutable and the only file a crash can tear: recovery is
   the journal rule — a record exists only once its complete, valid
   bytes do. Truncate to the last good record boundary. Entries come
   back newest first. *)
let scan_tail buf =
  let len = String.length buf in
  let entries = ref [] in
  let rec go pos =
    if pos >= len then pos
    else
      match Record.parse_at buf pos with
      | Ok (r, n) ->
          entries := entry_of_record r ~off:pos ~len:n :: !entries;
          go (pos + n)
      | Error _ -> pos
  in
  let valid = go 0 in
  (!entries, valid)

let list_seg_ids seg_dir =
  if not (Sys.file_exists seg_dir) then []
  else
    Sys.readdir seg_dir |> Array.to_list
    |> List.filter_map (fun f ->
           Scanf.sscanf_opt f "seg-%08d.cor%!" (fun id -> id))
    |> List.sort compare

(* One cemented segment at open: one MD5 over its bytes when its idx
   seal vouches for them, else the per-record scan — re-sealed when
   clean, which also upgrades older idx files in place. *)
let open_segment ~seg_dir ~fsync scratch id =
  let file = seg_rel id in
  let idx = load_idx scratch (Filename.concat seg_dir (idx_name id)) in
  let len = read_into scratch (Filename.concat seg_dir (seg_name id)) in
  let seal = Digest.subbytes !scratch 0 len in
  match idx with
  | Some (Some s, rows) when s = seal && rows_tile rows len ->
      (seal, Array.of_list rows, [])
  | _ ->
      let entries, q =
        scan_segment ~file ~idx:(Option.map snd idx)
          (Bytes.sub_string !scratch 0 len)
      in
      let entries = Array.of_list entries in
      if q = [] then write_idx ~seg_dir ~fsync id ~seal entries;
      (seal, entries, q)

let open_ ?(log = Svm.Log.null) ?(fsync = true) ?chaos dir =
  match
    mkdir_p dir;
    mkdir_p (Filename.concat dir "segments")
  with
  | exception Unix.Unix_error (e, _, p) ->
      Error (Printf.sprintf "cannot create %s: %s" p (Unix.error_message e))
  | () ->
      let seg_dir = Filename.concat dir "segments" in
      (* A crash mid-compaction can leave its temp file behind; it was
         never renamed, so it is not part of the corpus. *)
      (try Sys.remove (Filename.concat seg_dir "compact.tmp")
       with Sys_error _ -> ());
      let index = Hashtbl.create 256 in
      let quarantine = ref [] in
      let scratch = ref (Bytes.create 65536) in
      let segs =
        List.map
          (fun id ->
            let seal, entries, q = open_segment ~seg_dir ~fsync scratch id in
            quarantine := !quarantine @ q;
            let loc = Cemented id in
            Array.iter
              (fun e ->
                if not (Hashtbl.mem index e.e_digest) then
                  Hashtbl.add index e.e_digest loc)
              entries;
            { id; seal; loc; entries })
          (list_seg_ids seg_dir)
      in
      (* Tail recovery: truncate to the last complete valid record. *)
      let tail_path = Filename.concat dir "tail.seg" in
      let tail_bytes = Buffer.create 4096 in
      let tail_entries =
        if not (Sys.file_exists tail_path) then []
        else begin
          let size = read_into scratch tail_path in
          let buf = Bytes.sub_string !scratch 0 size in
          let entries, valid = scan_tail buf in
          Buffer.add_substring tail_bytes buf 0 valid;
          if size > valid then begin
            Svm.Log.warnf log "torn tail: truncating %s from %d to %d bytes"
              tail_path size valid;
            let fd = Unix.openfile tail_path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd valid)
          end;
          entries
        end
      in
      List.iter
        (fun q ->
          Svm.Log.warnf log "quarantined record in %s at offset %d" q.q_file
            q.q_offset)
        !quarantine;
      let tail_oc =
        open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 tail_path
      in
      List.iter
        (fun e ->
          if not (Hashtbl.mem index e.e_digest) then
            Hashtbl.add index e.e_digest In_tail)
        tail_entries;
      Ok
        {
          dir;
          seg_dir;
          fsync;
          index;
          segs;
          tail_oc;
          tail_bytes;
          tail_entries;
          quarantine = !quarantine;
          appends = 0;
          chaos;
        }

(* ------------------------------------------------------------------ *)
(* Appends and cementing                                               *)
(* ------------------------------------------------------------------ *)

let mem t d =
  match raw_digest d with
  | Some d -> Hashtbl.mem t.index d
  | None -> false

let add t r =
  let hex = Record.digest r in
  let d = Digest.from_hex hex in
  if Hashtbl.mem t.index d then `Duplicate hex
  else begin
    let bytes = Record.to_bytes r in
    t.appends <- t.appends + 1;
    (match t.chaos with
    | Some (Torn_at_append n) when t.appends = n ->
        (* Die mid-append: half the record reaches the file, the rest
           never will — exactly the torn tail reopen must cut away. *)
        output_string t.tail_oc
          (String.sub bytes 0 (max 1 (String.length bytes / 2)));
        flush t.tail_oc;
        sigkill_self ()
    | _ -> ());
    output_string t.tail_oc bytes;
    flush t.tail_oc;
    t.tail_entries <-
      {
        e_digest = d;
        e_off = Buffer.length t.tail_bytes;
        e_len = String.length bytes;
      }
      :: t.tail_entries;
    Buffer.add_string t.tail_bytes bytes;
    Hashtbl.replace t.index d In_tail;
    (match t.chaos with
    | Some (Kill_at_append n) when t.appends = n -> sigkill_self ()
    | _ -> ());
    `Added hex
  end

let bitflip_in t id e =
  (* Flip one bit of the last payload byte of the record: framing
     survives, the content no longer hashes to its address. *)
  if e.e_len >= 2 then begin
    let fd = Unix.openfile (seg_file t id) [ Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let pos = e.e_off + e.e_len - 2 in
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let b = Bytes.create 1 in
        if Unix.read fd b 0 1 = 1 then begin
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
          ignore (Unix.lseek fd pos Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1)
        end)
  end

let cement t =
  if t.tail_entries <> [] then begin
    flush t.tail_oc;
    if t.fsync then fsync_oc t.tail_oc;
    close_out t.tail_oc;
    let id = next_seg_id t in
    (* write → fsync file (above) → rename → fsync directory: after the
       rename is durable the segment is immutable; the idx write below
       is recoverable (rescanned and re-sealed) if we die first. *)
    Sys.rename (tail_file t) (seg_file t id);
    if t.fsync then begin
      fsync_dir t.seg_dir;
      fsync_dir t.dir
    end;
    let entries = Array.of_list (List.rev t.tail_entries) in
    let seal = Digest.string (Buffer.contents t.tail_bytes) in
    write_idx ~seg_dir:t.seg_dir ~fsync:t.fsync id ~seal entries;
    let loc = Cemented id in
    Array.iter (fun e -> Hashtbl.replace t.index e.e_digest loc) entries;
    t.segs <- t.segs @ [ { id; seal; loc; entries } ];
    t.tail_entries <- [];
    Buffer.reset t.tail_bytes;
    t.tail_oc <-
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (tail_file t);
    match t.chaos with
    | Some Bitflip_after_cement ->
        t.chaos <- None;
        bitflip_in t id entries.(0)
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Verified reads                                                      *)
(* ------------------------------------------------------------------ *)

let count t = Hashtbl.length t.index
let tail_count t = List.length t.tail_entries
let segments t = List.length t.segs
let quarantined t = t.quarantine

let live t e loc = Hashtbl.find_opt t.index e.e_digest = Some loc

let entry_of t d =
  let is_d e = e.e_digest = d in
  match Hashtbl.find_opt t.index d with
  | None -> None
  | Some (Cemented id) ->
      Option.bind (List.find_opt (fun s -> s.id = id) t.segs) (fun s ->
          Array.find_opt is_d s.entries)
      |> Option.map (fun e -> (seg_rel id, e))
  | Some In_tail ->
      List.find_opt is_d t.tail_entries |> Option.map (fun e -> ("tail.seg", e))

let quarantine_now t ~file ~e reason =
  t.quarantine <- t.quarantine @ [ { q_file = file; q_offset = e.e_off; q_reason = reason } ];
  Hashtbl.remove t.index e.e_digest

(* Verify a record freshly off the disk; corruption discovered here —
   even in records that verified at open time — quarantines the record
   rather than surfacing garbage or an exception. *)
let read_verified t ~file e =
  (* The tail out_channel is flushed on every append, so the file is
     current for readers. *)
  match read_slice (Filename.concat t.dir file) ~off:e.e_off ~len:e.e_len with
  | None ->
      quarantine_now t ~file ~e (Q_malformed "record extends past end of file");
      None
  | Some buf -> (
      match Record.parse_at buf 0 with
      | Ok (r, _) when Record.digest r = Digest.to_hex e.e_digest -> Some r
      | Ok _ ->
          quarantine_now t ~file ~e
            (Q_malformed "record bytes changed identity");
          None
      | Error (Record.Digest_mismatch { expected; actual }) ->
          quarantine_now t ~file ~e (Q_digest { expected; actual });
          None
      | Error (Record.Malformed m) ->
          quarantine_now t ~file ~e (Q_malformed m);
          None
      | Error Record.Truncated ->
          quarantine_now t ~file ~e (Q_malformed "record truncated");
          None)

let find t d =
  match Option.bind (raw_digest d) (entry_of t) with
  | None -> None
  | Some (file, e) -> read_verified t ~file e

let iter t f =
  let visit ~file loc e =
    if live t e loc then
      match read_verified t ~file e with
      | Some r -> f ~digest:(Digest.to_hex e.e_digest) r
      | None -> ()
  in
  List.iter
    (fun s -> Array.iter (visit ~file:(seg_rel s.id) s.loc) s.entries)
    t.segs;
  List.iter (visit ~file:"tail.seg" In_tail) (List.rev t.tail_entries)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun ~digest r -> acc := f !acc ~digest r);
  !acc

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* An input segment may feed a sealed output only once this call has
   verified it: its bytes still match its seal, or every record at the
   offsets the index holds re-verifies. *)
let verified_input s bytes len =
  Digest.subbytes bytes 0 len = s.seal
  ||
  match
    scan_segment ~file:(seg_rel s.id) ~idx:None
      (Bytes.sub_string bytes 0 len)
  with
  | entries, [] -> Array.of_list entries = s.entries
  | _ -> false

let compact t =
  cement t;
  if t.quarantine <> [] then
    Error
      (Printf.sprintf
         "%d quarantined record(s); compaction refuses to rewrite a corpus it \
          cannot fully verify"
         (List.length t.quarantine))
  else if List.length t.segs <= 1 then
    Ok (match t.segs with [] -> 0 | s :: _ -> Array.length s.entries)
  else begin
    (* Gather the input as the exact bytes of every live record, in
       storage order, deduplicated the same way the index is. *)
    let scratch = ref (Bytes.create 65536) in
    let buf = Buffer.create 4096 in
    let entries = ref [] in
    let rec gather = function
      | [] -> Ok ()
      | s :: rest ->
          let len = read_into scratch (seg_file t s.id) in
          if not (verified_input s !scratch len) then
            Error
              (Printf.sprintf
                 "%s no longer matches what was verified at open; input \
                  segments left untouched (reopen to re-verify)"
                 (seg_rel s.id))
          else begin
            Array.iter
              (fun e ->
                if live t e s.loc then begin
                  entries := { e with e_off = Buffer.length buf } :: !entries;
                  Buffer.add_subbytes buf !scratch e.e_off e.e_len
                end)
              s.entries;
            gather rest
          end
    in
    match gather t.segs with
    | Error _ as e -> e
    | Ok () ->
        let entries = Array.of_list (List.rev !entries) in
        let input = Buffer.contents buf in
        let id = next_seg_id t in
        let tmp = Filename.concat t.seg_dir "compact.tmp" in
        let oc = open_out_bin tmp in
        output_string oc input;
        flush oc;
        if t.fsync then fsync_oc oc;
        close_out oc;
        (* Byte-identity check against the input, read back from disk:
           the swap happens only once the new segment provably carries
           exactly the records the old ones did. *)
        let n = read_into scratch tmp in
        if Bytes.sub_string !scratch 0 n <> input then begin
          (try Sys.remove tmp with Sys_error _ -> ());
          Error "compaction output does not match its input byte-for-byte; \
                 input segments left untouched"
        end
        else begin
          let old = t.segs in
          let seal = Digest.string input in
          Sys.rename tmp (seg_file t id);
          if t.fsync then fsync_dir t.seg_dir;
          write_idx ~seg_dir:t.seg_dir ~fsync:t.fsync id ~seal entries;
          let loc = Cemented id in
          Array.iter (fun e -> Hashtbl.replace t.index e.e_digest loc) entries;
          t.segs <- [ { id; seal; loc; entries } ];
          List.iter
            (fun s ->
              (try Sys.remove (seg_file t s.id) with Sys_error _ -> ());
              try Sys.remove (idx_file t s.id) with Sys_error _ -> ())
            old;
          if t.fsync then fsync_dir t.seg_dir;
          Ok (Array.length entries)
        end
  end

let close t =
  flush t.tail_oc;
  close_out t.tail_oc

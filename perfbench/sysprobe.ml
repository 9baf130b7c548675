(* What the operating system knows about the benchmark and its children:
   CPU time, peak resident set, and the child processes themselves
   (the [asmsim serve] daemon and its [work --connect] workers). Linux
   /proc only. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* USER_HZ: the unit of the utime/stime fields of /proc/PID/stat. *)
let clk_tck = 100.

(* User + system CPU seconds of a live child, from /proc/PID/stat
   (fields 14 and 15; the command name in parentheses may hold
   spaces, so fields are counted after the closing one). *)
let child_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.
  | Some s -> (
      let rest =
        let i = String.rindex s ')' in
        String.sub s (i + 2) (String.length s - i - 2)
      in
      match String.split_on_char ' ' rest with
      | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags
        :: _minflt :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _
        ->
          (float_of_string utime +. float_of_string stime) /. clk_tck
      | _ -> 0.)

(* This process, all domains. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let status_kb ~field pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match read_file path with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ k; v ] when k = field ->
              Scanf.sscanf (String.trim v) "%d" (fun n -> n)
          | _ -> acc)
        0
        (String.split_on_char '\n' s)

(* Peak resident set in KiB; [0] is this process. *)
let peak_rss_kb pid = status_kb ~field:"VmHWM" pid

(* ------------------------------------------------------------------ *)
(* Children                                                             *)
(* ------------------------------------------------------------------ *)

let children : int list ref = ref []

let spawn ?(stdout = Unix.stdout) ~stderr_file prog args =
  let err =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null stdout err
  in
  Unix.close err;
  Unix.close null;
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

(* Wait for [pid] up to [timeout] seconds, then SIGKILL it and reap. *)
let reap ?(timeout = 10.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  forget pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Poll [file] until [f] finds what it looks for in its contents. *)
let wait_in_file ?(timeout = 20.) file f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Option.bind (read_file file) f with
    | Some v -> Ok v
    | None ->
        if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "timed out waiting on %s" file)
        else begin
          Unix.sleepf 0.002;
          go ()
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun n f -> n + du (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

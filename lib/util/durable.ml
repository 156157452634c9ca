(* Durable file writes and transient-error retry.

   [atomic_write] is the single audited path through which checkpoint
   and other crash-safe artifacts reach disk (lint rule r9-durability
   flags direct [open_out*] in durability-audited modules).  The
   sequence is the classic tmp + fsync + rename + parent-dir fsync:

     1. write the full payload to [path ^ ".tmp"];
     2. fsync the tmp file so its bytes are on the platter;
     3. [Sys.rename] tmp over [path] (atomic within a filesystem);
     4. fsync the containing directory so the rename itself is durable.

   A crash at any point leaves either the complete old file or the
   complete new file at [path]; the tmp file may survive as garbage but
   is overwritten by the next write. *)

let rec retry_transient ?(attempts = 64) f =
  if attempts <= 1 then f ()
  else
    match f () with
    | v -> v
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      retry_transient ~attempts:(attempts - 1) f

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error ((Unix.EACCES | Unix.ENOSYS | Unix.EISDIR), _, _) ->
    (* Some filesystems refuse O_RDONLY opens of directories; the rename
       is still atomic, just not guaranteed durable across power loss. *)
    ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try Unix.fsync fd
        with Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.EROFS), _, _) -> ())

let atomic_write_with ~path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     write oc;
     flush oc;
     retry_transient (fun () -> Unix.fsync (Unix.descr_of_out_channel oc));
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let atomic_write ~path data = atomic_write_with ~path (fun oc -> output_string oc data)

(** Crash-safe file output: write to a temp file, rename into place.

    Every artifact the fuzzer persists (traces, checkpoints, crash corpora,
    metrics snapshots) goes through this module so that a process killed mid-write
    never leaves a truncated file at the destination path. The temp file
    lives next to the target ([<path>.tmp.<pid>]) so the final [rename] is
    atomic on POSIX filesystems; an aborted write leaves the destination
    untouched. *)

type staged
(** An in-progress write: an open channel on the temp file. *)

val stage : string -> staged
(** [stage path] opens [<path>.tmp.<pid>] for writing (binary mode,
    truncating any stale temp from a previous crashed run). *)

val channel : staged -> out_channel
(** The channel to write through. *)

val commit : staged -> unit
(** Close the channel and rename the temp file onto the destination.
    Idempotent; after [commit] the write is durable under kill. *)

val abort : staged -> unit
(** Close the channel and delete the temp file, leaving any previous
    destination file untouched. Idempotent, never raises. *)

val with_out : string -> (out_channel -> 'a) -> 'a
(** [with_out path f] stages, runs [f], and commits on success. If [f]
    raises, the temp file is removed and the exception re-raised — the
    destination is only ever replaced by a complete file. *)

val write_string : string -> string -> unit
(** [write_string path s] atomically replaces [path] with contents [s]. *)

val read_string : string -> string
(** [read_string path] reads the whole file (binary). Raises [Sys_error]
    on missing or unreadable files. *)

(** The versioned binary envelope of on-disk checkpoints and on-pipe
    sync frames: [magic | version byte | MD5 of payload | payload],
    where the payload is a [Marshal] image. The header layout is frozen
    across versions, so the digest can be verified before the version
    byte is interpreted. *)

type spec = {
  magic : string;  (** distinct per format, so one never passes for another *)
  version : int;  (** the version this build writes and reads, < 256 *)
  noun : string;  (** names the format in error messages *)
}

val encode : spec -> 'a -> string

val decode : spec -> string -> pos:int -> len:int -> ('a, string) result
(** Decode the envelope in the [len] bytes of [s] from [pos], in place:
    nothing is copied out of [s]. The first failed check, in a frozen
    order, is the one-line [Error]: too short, bad magic, payload digest
    mismatch, version mismatch, unreadable payload. Digest before
    version means corruption is never misreported as version skew, even
    when the rot hits the version byte, while a clean envelope from
    another build reports a genuine version mismatch. As with
    [Marshal.from_string], the result type is the caller's claim. *)

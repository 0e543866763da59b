(** CRC-32 (IEEE 802.3 polynomial, the zlib/ethernet one).

    Used by the checkpoint layer to detect on-disk corruption before any
    section is decoded, so a damaged image is a clean typed error.
    Slicing-by-8 over native ints: eight bytes per table step, values
    identical to the classic byte-at-a-time loop. *)

(** Checksum of [len] bytes of [b] starting at [pos].
    Defaults cover the whole buffer. *)
val bytes : ?pos:int -> ?len:int -> Bytes.t -> int32

val string : string -> int32

(** Streaming interface: [update crc b pos len] extends a running
    checksum ([init] is the empty-message value). *)
val init : int32

val update : int32 -> Bytes.t -> int -> int -> int32

(** Finalised value of a running checksum. *)
val finish : int32 -> int32

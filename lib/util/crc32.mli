(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial).

    Used by the coverage database to checksum every snapshot line and
    to derive cheap campaign-configuration fingerprints. CRC-32 detects
    every single-byte corruption and every burst shorter than 32 bits —
    exactly the torn-write and bit-rot failures a crash-safe snapshot
    must notice — while staying dependency-free and fast (one table
    lookup per byte). It is {e not} a cryptographic hash; fingerprints
    guard against accidental mismatch, not adversaries. *)

val string : string -> int32
(** CRC-32 of the whole string. *)

val update : int32 -> string -> int32
(** zlib-style incremental form: [update 0l s = string s] and
    [update (update 0l a) b = string (a ^ b)] — the pre/post inversion
    happens inside, so the running value is always a finished CRC. *)

val to_hex : int32 -> string
(** Lower-case, zero-padded 8-character hex rendering. *)

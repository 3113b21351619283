(** The digest of a final shared-memory image that every backend reports
    as its [memory_checksum]: FNV-1a-64 over the pages in order, each
    page preceded by a presence tag (0x01, then its bytes; or 0xFF alone
    for a page no node holds a coherent copy of).

    The state is a native [int] and nothing is allocated. *)

type t

val init : t
(** The FNV-1a-64 offset basis. *)

val page : t -> Bytes.t -> t
(** Mix in a present page: the 0x01 tag, then every byte. *)

val absent : t -> t
(** Mix in the 0xFF tag of an absent page. *)

val finish : t -> int
(** The low 62 bits of the 64-bit hash, a non-negative [int]. *)

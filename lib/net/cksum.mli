(** The Internet checksum (RFC 1071) over strings, byte ranges and buffer
    aggregates, plus the IO-Lite checksum cache (Section 3.9).

    The checksum cache exploits IO-Lite's system-wide unique buffer
    identity: a slice's (chunk, generation, offset, length) names its
    contents immutably, so the 16-bit sum computed for it can be reused
    every time the same slice is transmitted — eliminating the last
    data-touching operation when serving cached files. Generation numbers
    invalidate entries automatically when buffer storage is recycled.

    On top of the identity cache, partial sums are memoized {e in the
    aggregate rope itself} (see {!Iolite_core.Iobuf.Agg.fold_summary}):
    the ones'-complement sum is associative under a byte-parity swap, so
    a warm re-checksum of a structurally shared subtree is a single memo
    read and re-checksumming a Flash-Lite response (fresh header ⊕
    shared body) costs one leaf scan plus an O(log n) combine. *)

val of_string : string -> int
(** 16-bit ones'-complement Internet checksum of the whole string. *)

val of_bytes : Bytes.t -> off:int -> len:int -> int

val sum16 : int -> int -> int
(** Fold two 16-bit partial sums (ones'-complement addition). *)

val sub16 : int -> int -> int
(** Ones'-complement subtraction: [sub16 a b] removes [b]'s
    contribution from [a] (RFC 1624). Exact modulo 65535; the result may
    be the 0xFFFF representative of the zero class where a direct scan
    yields 0x0000 — compare derived sums modulo 0xFFFF. *)

val swap16 : int -> int
(** Byte-swap a 16-bit sum — folding a slice that starts at an odd
    global offset (RFC 1071 byte-order identity). *)

val finish : int -> int
(** Ones' complement of a folded sum: the on-the-wire checksum value. *)

val parity_combine : llen:int -> int -> int -> int
(** [parity_combine ~llen l r] folds partial sum [r] — of a segment
    beginning [llen] bytes into the stream — onto [l], byte-swapping [r]
    when [llen] is odd. The combine step of the checksum algebra. *)

val of_agg : Iolite_core.Iobuf.Agg.t -> int
(** Checksum of an aggregate's contents, slice by slice (uncached
    reference implementation; no memo reads or writes). *)

type summary = { sum : int; scanned : int; folds : int }
(** A computed sum plus its cost: [scanned] data bytes actually touched
    and [folds] combine steps performed. *)

type derivation = {
  dsums : int array;  (** finished per-packet wire checksums *)
  dscanned : int;  (** data bytes actually touched *)
  dfolds : int;  (** combine steps performed *)
}

val of_agg_memo : Iolite_core.Iobuf.Agg.t -> summary
(** Whole-aggregate sum through the rope memo, without buffer-identity
    caching: descends only unmemoized subtrees and seeds their memo
    slots. Warm re-sum of a shared aggregate = one memo read. *)

val packet_sums_memo : Iolite_core.Iobuf.Agg.t -> mtu:int -> derivation
(** Per-MTU-packet checksums for the identity-less ([Spliced]/sendfile)
    path, derived in one in-order walk: a leaf contained in a single
    packet is served from (or seeds) its rope memo; a leaf split across
    packets scans all fragments but the last, which is derived from the
    whole-leaf memo by ones'-complement subtraction. Warm cost is the
    interior-fragment bytes only — sendfile stops being charged full
    re-scans, but without content identity it cannot reach the
    Flash-Lite zero (Section 4.4). *)

(** Per-slice checksum cache. *)
module Cache : sig
  type t

  val create : ?enabled:bool -> ?max_entries:int -> unit -> t

  val enabled : t -> bool
  val set_enabled : t -> bool -> unit

  val slice_sum : t -> Iolite_core.Iobuf.Slice.t -> int * bool
  (** [(partial_sum, was_hit)] for the slice's contents (sum assumes the
      slice starts at even parity). A hit means no data was touched. *)

  val find_key :
    t -> chunk:int -> generation:int -> off:int -> len:int -> int option
  (** Probe the table for a raw identity key (the components of
      {!Iolite_core.Iobuf.Slice.uid}): a hit sets the entry's reference
      bit; either outcome is counted in {!hits} or {!misses}. Offset and
      length must be below 2^17 and the generation below 2^28
      ([Invalid_argument] otherwise). *)

  val insert_key :
    t -> chunk:int -> generation:int -> off:int -> len:int -> int -> unit
  (** Cache a sum for a key that {!find_key} has just missed, first
      evicting by second chance when the table holds [max_entries]
      entries. The key must be absent. *)

  val agg_sum :
    t -> Iolite_core.Iobuf.Agg.t -> int * int
  (** Fold a whole aggregate: [(checksum_sum, bytes_computed)] where
      [bytes_computed] counts only the bytes whose sum was {e not} served
      from the cache — the quantity the cost model charges for. When the
      cache is enabled the fold runs top-down through the rope memo:
      shared warm subtrees are O(1) memo reads (counted as hits, one per
      slice covered) and only unmemoized leaves fall back to the
      identity table. Disabled, every byte is scanned and nothing is
      memoized (the fig 11 no-cksum measurement mode). *)

  val range_sum :
    t -> Iolite_core.Iobuf.Agg.t -> off:int -> len:int -> summary
  (** Checksum sum of the byte range [off, off+len), combining subtree
      memos for fully-covered subtrees and deriving boundary-leaf
      fragments by ones'-complement subtraction from the whole-leaf memo
      when the fragment's complement is smaller than the fragment.
      Fragment sums gain full buffer identity and land in the cache. *)

  val packet_sums :
    t -> Iolite_core.Iobuf.Agg.t -> mtu:int -> derivation
  (** Wire checksums for each MTU-sized packet of the aggregate, computed
      during one segmentation walk (never re-walking the aggregate per
      packet). Every slice fragment is keyed by buffer identity, so a
      warm resend of the same body with the same segmentation touches no
      data at all. *)

  val hits : t -> int
  val misses : t -> int

  val slices_summed : t -> int
  (** Total slices folded through {!agg_sum}/{!packet_sums}, accumulated
      from the aggregates' O(1) [Agg.num_slices] (not by re-counting). *)

  val memo_slices : t -> int
  (** Of {!hits}, the slices answered by rope-memo subtree reads rather
      than identity-table probes. *)

  val entry_count : t -> int

  val evictions : t -> int
  (** Entries evicted one-by-one by the second-chance sweep. *)

  val resets : t -> int
  (** Full-table fallback resets (expected to stay 0). *)

  val reset_stats : t -> unit
end

(** BSD mbuf encapsulation of IO-Lite buffers (Section 4.1).

    The prototype adapts the BSD network subsystem by storing bulk data
    out-of-line: an mbuf's external-data pointer refers to an IO-Lite
    buffer while small items (protocol headers) stay inline. This keeps
    the entire protocol stack unmodified while making network send
    buffers reference — rather than copy — cached file data.

    An mbuf chain is what the simulated TCP layer queues for
    transmission. [wired_bytes] is the memory the chain pins in wired
    kernel space: full payload for a copied chain, only the small mbuf
    headers for an IO-Lite chain. *)

type t =
  | Inline of { data : Bytes.t; len : int }
      (** data copied into the mbuf itself: the first [len] bytes of
          [data], either the small inline area or a 2 KB cluster *)
  | External of Iolite_core.Iobuf.Agg.t
      (** out-of-line reference to IO-Lite buffers (aggregate is owned by
          the chain and freed with it) *)

type chain

type clusters
(** A free list of 2 KB mbuf clusters. A kernel owns one: copied chains
    take their clusters from it and {!free} gives them back, so steady
    state allocates no cluster storage. It holds at most the peak number
    of clusters in flight, so it needs no cap. *)

exception Freed
(** Raised by {!iter} on a chain that has been freed: its clusters may
    already hold another chain's bytes. *)

val clusters : unit -> clusters
(** An empty free list. *)

val mbuf_header_size : int
(** Bookkeeping bytes per mbuf (128 in BSD). *)

val inline_limit : int
(** Largest payload stored inline (the BSD [MLEN] payload area). *)

val of_agg_zero_copy : ?pkt_cksums:int array -> Iolite_core.Iobuf.Agg.t -> chain
(** Encapsulate without copying: one [External] mbuf per slice; takes
    ownership of the aggregate. [pkt_cksums], when supplied, carries the
    per-MTU-packet wire checksums derived during segmentation so the
    driver never re-walks the payload. *)

val of_agg_copied :
  clusters -> Iolite_core.Iosys.t -> Iolite_core.Iobuf.Agg.t -> chain
(** Conventional path: copies the payload into mbuf clusters taken from
    the free list (charges a [Copy] touch); does {e not} take ownership
    of the aggregate. *)

val of_string : clusters -> string -> chain
(** Copied inline/cluster chain from flat data. *)

val length : chain -> int
(** Payload bytes. *)

val wired_bytes : chain -> int
(** Wired kernel memory pinned by the chain. *)

val mbuf_count : chain -> int

val packet_cksums : chain -> int array option
(** Per-packet wire checksums attached at encapsulation time, if any. *)

val iter : chain -> (t -> unit) -> unit
(** Raises {!Freed} once the chain has been freed. *)

val free : chain -> unit
(** Releases external aggregate references and returns a copied chain's
    clusters to the free list it took them from. Idempotent. *)

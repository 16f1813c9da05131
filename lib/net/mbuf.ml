module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys

type t = Inline of { data : Bytes.t; len : int } | External of Iolite_core.Iobuf.Agg.t

(* Free 2 KB clusters, reused last-freed first. Every cluster on the
   list came back from a freed chain, so the list never holds more than
   the peak number of clusters in flight. *)
type clusters = { mutable spare : Bytes.t list }

type chain = {
  mbufs : t list;
  payload : int;
  units : int; (* mbuf structures in the chain *)
  wired : int;
  pkt_cksums : int array option;
  home : clusters option; (* where a copied chain's clusters go back *)
  mutable freed : bool;
}

exception Freed

let mbuf_header_size = 128
let inline_limit = 108 (* BSD MLEN payload area *)
let cluster_size = 2048 (* BSD MCLBYTES *)

let clusters () = { spare = [] }

let take_cluster pool =
  match pool.spare with
  | b :: rest ->
    pool.spare <- rest;
    b
  | [] -> Bytes.create cluster_size

let of_agg_zero_copy ?pkt_cksums agg =
  let payload = Iobuf.Agg.length agg in
  (* One mbuf per slice: each out-of-line pointer needs its own header. *)
  let units = max 1 (Iobuf.Agg.num_slices agg) in
  {
    mbufs = [ External agg ];
    payload;
    units;
    wired = units * mbuf_header_size;
    pkt_cksums;
    home = None;
    freed = false;
  }

(* The copied chain of [n] payload bytes: one inline mbuf when the
   payload fits, otherwise one mbuf per [cluster_size] cluster taken
   from [pool]. [next dst pos len] writes the payload's next [len] bytes
   into [dst] at [pos], so each byte is copied once, straight into its
   mbuf. *)
let copied pool n next =
  let mbuf data len =
    next data 0 len;
    Inline { data; len }
  in
  let rec split pos acc =
    if pos >= n then List.rev acc
    else begin
      let take = min cluster_size (n - pos) in
      let m = mbuf (take_cluster pool) take in
      split (pos + take) (m :: acc)
    end
  in
  let mbufs = if n <= inline_limit then [ mbuf (Bytes.create n) n ] else split 0 [] in
  let units = List.length mbufs in
  {
    mbufs;
    payload = n;
    units;
    wired = (units * mbuf_header_size) + n;
    pkt_cksums = None;
    home = Some pool;
    freed = false;
  }

let of_string pool s =
  let read = ref 0 in
  copied pool (String.length s) (fun dst pos len ->
      Bytes.blit_string s !read dst pos len;
      read := !read + len)

let of_agg_copied pool sys agg =
  let n = Iobuf.Agg.length agg in
  Iosys.touch sys Iosys.Copy n;
  copied pool n (Iobuf.Agg.reader agg)

let length c = c.payload
let wired_bytes c = c.wired
let mbuf_count c = c.units
let packet_cksums c = c.pkt_cksums

let iter c f =
  if c.freed then raise Freed;
  List.iter f c.mbufs

let free c =
  if not c.freed then begin
    c.freed <- true;
    List.iter
      (fun m ->
        match (m, c.home) with
        | External agg, _ -> Iobuf.Agg.free agg
        | Inline { data; _ }, Some pool when Bytes.length data = cluster_size ->
          pool.spare <- data :: pool.spare
        | Inline _, _ -> ())
      c.mbufs
  end

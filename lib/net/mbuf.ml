module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys

type t = Inline of string | External of Iolite_core.Iobuf.Agg.t

type chain = {
  mbufs : t list;
  payload : int;
  units : int; (* mbuf structures in the chain *)
  pkt_cksums : int array option;
  mutable freed : bool;
}

let mbuf_header_size = 128
let inline_limit = 108 (* BSD MLEN payload area *)
let cluster_size = 2048 (* BSD MCLBYTES *)

let of_agg_zero_copy ?pkt_cksums agg =
  let payload = Iobuf.Agg.length agg in
  (* One mbuf per slice: each out-of-line pointer needs its own header. *)
  let units = max 1 (Iobuf.Agg.num_slices agg) in
  { mbufs = [ External agg ]; payload; units; pkt_cksums; freed = false }

(* The copied chain of [n] payload bytes: one inline mbuf when the
   payload fits, otherwise one mbuf per [cluster_size] cluster.
   [next dst pos len] writes the payload's next [len] bytes into [dst] at
   [pos], so each byte is copied once, straight into its mbuf. *)
let copied n next =
  let mbuf len =
    let dst = Bytes.create len in
    next dst 0 len;
    Inline (Bytes.unsafe_to_string dst)
  in
  let rec split pos acc =
    if pos >= n then List.rev acc
    else begin
      let take = min cluster_size (n - pos) in
      let m = mbuf take in
      split (pos + take) (m :: acc)
    end
  in
  let mbufs = if n <= inline_limit then [ mbuf n ] else split 0 [] in
  { mbufs; payload = n; units = List.length mbufs; pkt_cksums = None; freed = false }

let of_string s =
  let read = ref 0 in
  copied (String.length s) (fun dst pos len ->
      Bytes.blit_string s !read dst pos len;
      read := !read + len)

let of_agg_copied sys agg =
  let n = Iobuf.Agg.length agg in
  Iosys.touch sys Iosys.Copy n;
  copied n (Iobuf.Agg.reader agg)

let length c = c.payload

let wired_bytes c =
  let inline_payload =
    List.fold_left
      (fun acc m -> match m with Inline s -> acc + String.length s | External _ -> acc)
      0 c.mbufs
  in
  (c.units * mbuf_header_size) + inline_payload

let mbuf_count c = c.units
let packet_cksums c = c.pkt_cksums

let iter c f = List.iter f c.mbufs

let free c =
  if not c.freed then begin
    c.freed <- true;
    List.iter
      (fun m -> match m with External agg -> Iobuf.Agg.free agg | Inline _ -> ())
      c.mbufs
  end

module Iobuf = Iolite_core.Iobuf

(* Fold a 32+-bit accumulator down to 16 bits. *)
let fold_carries acc =
  let acc = ref acc in
  while !acc > 0xFFFF do
    acc := (!acc land 0xFFFF) + (!acc lsr 16)
  done;
  !acc

let sum16 a b = fold_carries (a + b)
let swap16 s = ((s land 0xFF) lsl 8) lor ((s lsr 8) land 0xFF)
let finish s = lnot (fold_carries s) land 0xFFFF

(* Ones'-complement subtraction: [a ⊖ b] adds the ones'-complement
   negation of [b]. Exact modulo 65535; the result may be the 0xFFFF
   representative of the zero class where a direct scan of the bytes
   would produce 0x0000 (the RFC 1624 ±0 ambiguity) — both complement to
   checksums any receiver accepts. *)
let sub16 a b = fold_carries (a + (lnot b land 0xFFFF))

(* Fold a right-hand partial sum that starts [llen] bytes into the
   stream onto [l]: a segment starting at an odd offset contributes its
   sum byte-swapped (RFC 1071). *)
let parity_combine ~llen l r = sum16 l (if llen land 1 = 1 then swap16 r else r)

(* Sum 16-bit big-endian words, eight bytes at a time: a 32-bit
   big-endian half [w1 * 2^16 + w2] is congruent to [w1 + w2] modulo
   65535, and the fold keeps exactly that residue, so adding the two
   halves of each 64-bit word gives the word-wise sum's fold. The
   accumulator is zero only for all-zero data either way, so the folded
   result is the same representative too. A trailing odd byte is the
   high byte of a zero-padded final word. *)
let of_bytes data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Cksum.of_bytes: range";
  let acc = ref 0 in
  let i = ref off in
  let stop = off + len in
  let wstop = off + (len land lnot 7) in
  while !i < wstop do
    let w = Bytes.get_int64_be data !i in
    acc :=
      !acc
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFF_FFFF);
    i := !i + 8
  done;
  while !i + 1 < stop do
    acc := !acc + Bytes.get_uint16_be data !i;
    i := !i + 2
  done;
  if !i < stop then acc := !acc + (Bytes.get_uint8 data !i lsl 8);
  fold_carries !acc

let of_string s = of_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let slice_range_raw s ~off ~len =
  of_bytes (Iobuf.Slice.backing s) ~off:(Iobuf.Slice.chunk_off s + off) ~len

let slice_sum_raw s = slice_range_raw s ~off:0 ~len:(Iobuf.Slice.len s)

(* Fold per-slice sums into an aggregate sum, tracking byte parity. *)
let fold_slices f agg =
  let acc = ref 0 in
  let parity_even = ref true in
  Iobuf.Agg.iter_slices agg (fun s ->
      let sum = f s in
      let sum = if !parity_even then sum else swap16 sum in
      acc := sum16 !acc sum;
      if Iobuf.Slice.len s land 1 = 1 then parity_even := not !parity_even);
  !acc

let of_agg agg = fold_slices slice_sum_raw agg

type summary = { sum : int; scanned : int; folds : int }
type derivation = { dsums : int array; dscanned : int; dfolds : int }

(* Whole-aggregate sum through the rope memo, without buffer-identity
   caching: only subtrees with no valid memo are descended, and only
   unmemoized leaves are scanned. A warm re-sum of a shared subtree is a
   single memo read; the cold cost seeds every node on the way up. *)
let of_agg_memo agg =
  let scanned = ref 0 in
  let folds = ref 0 in
  let leaf s =
    scanned := !scanned + Iobuf.Slice.len s;
    slice_sum_raw s
  in
  let combine ~llen l r =
    incr folds;
    parity_combine ~llen l r
  in
  match Iobuf.Agg.fold_summary agg ~leaf ~combine ~on_memo:(fun ~nslices:_ -> ())
  with
  | None -> { sum = 0; scanned = 0; folds = 0 }
  | Some sum -> { sum; scanned = !scanned; folds = !folds }

(* Per-MTU-packet wire checksums, identity-less but structure-aware
   (the Spliced/sendfile concession): whole-leaf sums are memoized in
   the rope, so a leaf falling inside one packet costs nothing warm, and
   a leaf split across packets re-scans all but its final fragment —
   that one is derived by ones'-complement subtraction from the leaf
   memo. Without system-wide buffer identity the per-fragment sums
   themselves cannot be cached, which is exactly why sendfile keeps
   paying a partial re-scan that Flash-Lite does not (Section 4.4). *)
let packet_sums_memo agg ~mtu =
  if mtu <= 0 then invalid_arg "Cksum.packet_sums_memo: mtu";
  let total = Iobuf.Agg.length agg in
  let npkts = if total = 0 then 0 else ((total - 1) / mtu) + 1 in
  let sums = Array.make npkts 0 in
  let scanned = ref 0 and folds = ref 0 in
  let pkt = ref 0 and fill = ref 0 and acc = ref 0 in
  let flush () =
    sums.(!pkt) <- finish !acc;
    acc := 0;
    fill := 0;
    incr pkt
  in
  let add_frag sum len =
    acc := parity_combine ~llen:!fill !acc sum;
    incr folds;
    fill := !fill + len;
    if !fill = mtu then flush ()
  in
  Iobuf.Agg.iter_slices_memo agg (fun s memo set ->
      let slen = Iobuf.Slice.len s in
      (* A leaf that begins when the packet already holds [fill] bytes
         splits into a first fragment of at most [mtu - fill] bytes, then
         fragments of at most [mtu]. *)
      let first = min slen (mtu - !fill) in
      if slen = 0 then ()
      else if first = slen then begin
        match memo with
        | Some w ->
          (* Leaf wholly inside the current packet, memo valid: free. *)
          add_frag w slen
        | None ->
          scanned := !scanned + slen;
          let v = slice_sum_raw s in
          set v;
          add_frag v slen
      end
      else begin
        let o = ref 0 and l = ref first in
        let next () =
          o := !o + !l;
          l := min mtu (slen - !o)
        in
        match memo with
        | Some w ->
          (* Scan every fragment but the last; derive the last from the
             whole-leaf memo by subtraction, parity-adjusted to the
             fragment's offset within the leaf. *)
          let prefix = ref 0 in
          while !o + !l < slen do
            scanned := !scanned + !l;
            let v = slice_range_raw s ~off:!o ~len:!l in
            add_frag v !l;
            prefix := parity_combine ~llen:!o !prefix v;
            next ()
          done;
          let v = sub16 w !prefix in
          add_frag (if !o land 1 = 1 then swap16 v else v) !l
        | None ->
          (* Cold: scan fragment-wise (each byte once) and seed the
             whole-leaf memo from the same pass. *)
          let leaf_acc = ref 0 in
          while !o < slen do
            scanned := !scanned + !l;
            let v = slice_range_raw s ~off:!o ~len:!l in
            add_frag v !l;
            leaf_acc := parity_combine ~llen:!o !leaf_acc v;
            next ()
          done;
          set !leaf_acc
      end);
  if !fill > 0 then flush ();
  { dsums = sums; dscanned = !scanned; dfolds = !folds }

module Cache = struct
  (* A flat identity table. Entry [e] (0 <= e < count) maps the key
     ⟨chunks.(e), words.(e)⟩ to [sums.(e)], with its second-chance
     reference bit in [refd]. A key is the chunk id plus one int packing
     generation, offset-in-chunk and length (see [word]). [index] is an
     open-addressing hash over entry numbers (e + 1; 0 = empty), probed
     linearly and kept at most half full. Entries never move, so the
     clock hand sweeping entry numbers visits them in insertion order:
     a referenced entry has its bit cleared and is passed over (it comes
     round again last), the first unreferenced one is evicted and its
     number taken by the new key, which the hand has just passed — the
     FIFO of keys with re-queueing that a queue-based clock keeps. The
     arrays grow by doubling, up to [max_entries]. *)
  type t = {
    mutable enabled : bool;
    max_entries : int;
    mutable chunks : int array;
    mutable words : int array;
    mutable sums : int array;
    mutable refd : Bytes.t;
    mutable count : int;
    mutable hand : int;
    mutable index : int array;
    mutable mask : int;
    mutable pend_chunk : int; (* key of the last missed probe *)
    mutable pend_word : int;
    mutable hits : int;
    mutable misses : int;
    mutable agg_slices : int; (* slices folded via agg_sum, O(1) per agg *)
    mutable memo_slices : int; (* slices answered by subtree memos *)
    mutable evictions : int;
    mutable resets : int;
  }

  let initial_capacity = 16

  let create ?(enabled = true) ?(max_entries = 65536) () =
    let cap = max 1 (min initial_capacity max_entries) in
    {
      enabled;
      max_entries;
      chunks = Array.make cap 0;
      words = Array.make cap 0;
      sums = Array.make cap 0;
      refd = Bytes.make cap '\000';
      count = 0;
      hand = 0;
      index = Array.make (2 * initial_capacity) 0;
      mask = (2 * initial_capacity) - 1;
      pend_chunk = 0;
      pend_word = 0;
      hits = 0;
      misses = 0;
      agg_slices = 0;
      memo_slices = 0;
      evictions = 0;
      resets = 0;
    }

  let enabled t = t.enabled
  let set_enabled t v = t.enabled <- v

  (* Offset-in-chunk and length are each below 2^17 (a chunk is 64 KB),
     which leaves 28 bits of a non-negative int for the generation. The
     chunk id, which grows with every chunk a run allocates, keeps a word
     of its own. *)
  let word ~generation ~off ~len =
    if (off lor len) lsr 17 <> 0 || generation lsr 28 <> 0 then
      invalid_arg "Cksum.Cache: identity out of packing range";
    (generation lsl 34) lor (off lsl 17) lor len

  let home t chunk word =
    let h = (chunk * 0x1E3779B97F4A7C15) + word in
    let h = (h lxor (h lsr 32)) * 0x3F58476D1CE4E5B9 in
    (h lxor (h lsr 29)) land t.mask

  (* The entry holding the key, or -1. Touches nothing. *)
  let lookup t chunk word =
    let rec probe i =
      let e = Array.unsafe_get t.index i - 1 in
      if e < 0 then -1
      else if Array.unsafe_get t.chunks e = chunk && Array.unsafe_get t.words e = word
      then e
      else probe ((i + 1) land t.mask)
    in
    probe (home t chunk word)

  let index_add t e =
    let rec probe i =
      if Array.unsafe_get t.index i = 0 then Array.unsafe_set t.index i (e + 1)
      else probe ((i + 1) land t.mask)
    in
    probe (home t t.chunks.(e) t.words.(e))

  (* Remove entry [e] from the index by backward shifting (no
     tombstones): each later slot of the probe run moves into the hole
     unless its home lies cyclically in (hole, slot]. *)
  let index_remove t e =
    let rec find i = if t.index.(i) = e + 1 then i else find ((i + 1) land t.mask) in
    let hole = ref (find (home t t.chunks.(e) t.words.(e))) in
    let j = ref ((!hole + 1) land t.mask) in
    while t.index.(!j) <> 0 do
      let f = t.index.(!j) - 1 in
      let h = home t t.chunks.(f) t.words.(f) in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        t.index.(!hole) <- t.index.(!j);
        t.index.(!j) <- 0;
        hole := !j
      end;
      j := (!j + 1) land t.mask
    done;
    t.index.(!hole) <- 0

  (* Called only when every entry is in use and [count < max_entries]. *)
  let grow t =
    let cap = Array.length t.chunks in
    let cap' = min (2 * cap) t.max_entries in
    let extend a = Array.append a (Array.make (cap' - cap) 0) in
    t.chunks <- extend t.chunks;
    t.words <- extend t.words;
    t.sums <- extend t.sums;
    t.refd <- Bytes.extend t.refd 0 (cap' - cap);
    Bytes.fill t.refd cap (cap' - cap) '\000';
    let slots = ref (Array.length t.index) in
    while !slots < 2 * cap' do
      slots := 2 * !slots
    done;
    if !slots > Array.length t.index then begin
      t.index <- Array.make !slots 0;
      t.mask <- !slots - 1;
      for e = 0 to t.count - 1 do
        index_add t e
      done
    end

  (* Bounded second-chance eviction: every sweep step either evicts or
     clears a reference bit, so one full rotation plus one step always
     evicts; the full-table reset survives only as a fallback for a
     table with no entry to evict (counted, so it cannot hide). Returns
     the freed entry number, or -1. *)
  let evict_one t =
    let n = t.count in
    let victim = ref (-1) and budget = ref (n + 1) in
    while !victim < 0 && !budget > 0 && n > 0 do
      decr budget;
      let e = t.hand in
      t.hand <- (if e + 1 = n then 0 else e + 1);
      if Bytes.unsafe_get t.refd e <> '\000' then Bytes.unsafe_set t.refd e '\000'
      else begin
        index_remove t e;
        t.evictions <- t.evictions + 1;
        victim := e
      end
    done;
    if !victim < 0 then begin
      Array.fill t.index 0 (Array.length t.index) 0;
      t.count <- 0;
      t.hand <- 0;
      t.resets <- t.resets + 1
    end;
    !victim

  let insert t chunk word sum =
    let e = if t.count >= t.max_entries then evict_one t else -1 in
    let e =
      if e >= 0 then e
      else begin
        if t.count = Array.length t.chunks then grow t;
        t.count <- t.count + 1;
        t.count - 1
      end
    in
    t.chunks.(e) <- chunk;
    t.words.(e) <- word;
    t.sums.(e) <- sum;
    Bytes.set t.refd e '\000';
    index_add t e

  (* The cached sum of the key (setting its reference bit), or -1. *)
  let find t chunk word =
    let e = lookup t chunk word in
    if e >= 0 then begin
      Bytes.unsafe_set t.refd e '\001';
      t.hits <- t.hits + 1;
      Array.unsafe_get t.sums e
    end
    else -1

  let find_key t ~chunk ~generation ~off ~len =
    let sum = find t chunk (word ~generation ~off ~len) in
    if sum >= 0 then Some sum
    else begin
      t.misses <- t.misses + 1;
      None
    end

  let insert_key t ~chunk ~generation ~off ~len sum =
    insert t chunk (word ~generation ~off ~len) sum

  (* Probe for bytes [off, off+len) of slice [s], keyed by the
     fragment's own identity (a fragment of a slice names the same
     contents as a slice made over its range): the cached sum, or -1
     after counting a miss and remembering the key for [fill]. *)
  let probe t s ~off ~len =
    let chunk = Iobuf.Slice.chunk_id s in
    let w =
      word ~generation:(Iobuf.Slice.generation s)
        ~off:(Iobuf.Slice.chunk_off s + off) ~len
    in
    let sum = find t chunk w in
    if sum < 0 then begin
      t.misses <- t.misses + 1;
      t.pend_chunk <- chunk;
      t.pend_word <- w
    end;
    sum

  (* Cache the sum computed after a missed [probe]. *)
  let fill t sum = insert t t.pend_chunk t.pend_word sum

  (* A fragment's sum through the table (or scanned, when disabled);
     [scanned] grows by [len] unless the table answered. *)
  let fragment_sum t s ~off ~len ~scanned =
    if not t.enabled then begin
      t.misses <- t.misses + 1;
      scanned := !scanned + len;
      slice_range_raw s ~off ~len
    end
    else begin
      let sum = probe t s ~off ~len in
      if sum >= 0 then sum
      else begin
        scanned := !scanned + len;
        let sum = slice_range_raw s ~off ~len in
        fill t sum;
        sum
      end
    end

  let leaf_sum t s ~scanned = fragment_sum t s ~off:0 ~len:(Iobuf.Slice.len s) ~scanned

  let slice_sum t s =
    let misses = t.misses in
    let sum = leaf_sum t s ~scanned:(ref 0) in
    (sum, t.misses = misses)

  let agg_sum t agg =
    t.agg_slices <- t.agg_slices + Iobuf.Agg.num_slices agg;
    let computed = ref 0 in
    if not t.enabled then
      (* Measurement mode (fig 11 no-cksum bars): every byte scanned,
         no memo reads or writes anywhere. *)
      let sum = fold_slices (fun s -> leaf_sum t s ~scanned:computed) agg in
      (sum, !computed)
    else begin
      (* Top-down memo combine: a warm shared subtree is one memo read,
         an unmemoized leaf falls back to the identity table, and only
         table misses touch data. *)
      let on_memo ~nslices =
        t.hits <- t.hits + nslices;
        t.memo_slices <- t.memo_slices + nslices
      in
      match
        Iobuf.Agg.fold_summary agg
          ~leaf:(fun s -> leaf_sum t s ~scanned:computed)
          ~combine:parity_combine ~on_memo
      with
      | None -> (0, 0)
      | Some sum -> (sum, !computed)
    end

  (* Checksum of [off, off+len) by subtree memos plus ones'-complement
     subtraction at the boundary leaves: a partially-covered leaf probes
     the identity table for the fragment first; on a miss, if the
     whole-leaf memo is valid and the fragment is more than half the
     leaf, the two complement fragments are scanned instead and the
     fragment derived as whole ⊖ prefix ⊖ suffix (parity-adjusted). *)
  let range_sum t agg ~off ~len =
    let scanned = ref 0 and folds = ref 0 in
    if not t.enabled then begin
      let sum =
        match
          Iobuf.Agg.fold_summary_range agg ~off ~len
            ~leaf:(fun s ->
              scanned := !scanned + Iobuf.Slice.len s;
              slice_sum_raw s)
            ~leaf_part:(fun s ~off ~len ~whole:_ ->
              scanned := !scanned + len;
              slice_range_raw s ~off ~len)
            ~combine:(fun ~llen l r ->
              incr folds;
              parity_combine ~llen l r)
            ~on_memo:(fun ~nslices:_ -> ())
        with
        | None -> 0
        | Some sum -> sum
      in
      (* Even disabled, the range fold must not memoize: scanned counts
         every byte. (fold_summary_range fills memos for fully-covered
         subtrees, so the disabled path scans leaf-by-leaf above.) *)
      { sum; scanned = !scanned; folds = !folds }
    end
    else begin
      let leaf s = leaf_sum t s ~scanned in
      let leaf_part s ~off ~len ~whole =
        let slen = Iobuf.Slice.len s in
        let sum = probe t s ~off ~len in
        if sum >= 0 then sum
        else begin
          let sum =
            match whole with
            | Some w when slen - len < len ->
              (* Complements are smaller: scan them and subtract. *)
              let p = slice_range_raw s ~off:0 ~len:off in
              let f = slice_range_raw s ~off:(off + len) ~len:(slen - off - len) in
              scanned := !scanned + (slen - len);
              folds := !folds + 2;
              let v = sub16 (sub16 w p) (if (off + len) land 1 = 1 then swap16 f else f) in
              if off land 1 = 1 then swap16 v else v
            | Some _ | None ->
              scanned := !scanned + len;
              slice_range_raw s ~off ~len
          in
          fill t sum;
          sum
        end
      in
      let combine ~llen l r =
        incr folds;
        parity_combine ~llen l r
      in
      let on_memo ~nslices =
        t.hits <- t.hits + nslices;
        t.memo_slices <- t.memo_slices + nslices
      in
      match
        Iobuf.Agg.fold_summary_range agg ~off ~len ~leaf ~leaf_part ~combine
          ~on_memo
      with
      | None -> { sum = 0; scanned = 0; folds = 0 }
      | Some sum -> { sum; scanned = !scanned; folds = !folds }
    end

  (* Per-MTU-packet wire checksums in one in-order walk ("during
     segmentation"): each packet's payload is a run of slice fragments
     whose partial sums carry full buffer identity, so a warm resend of
     the same body with the same segmentation derives every packet
     checksum from cached fragment sums without touching a byte — the
     aggregate is never re-walked per packet. A leaf that begins when
     the packet holds [fill] bytes splits into a first fragment of at
     most [mtu - fill] bytes, then fragments of at most [mtu]. *)
  let packet_sums t agg ~mtu =
    if mtu <= 0 then invalid_arg "Cksum.Cache.packet_sums: mtu";
    t.agg_slices <- t.agg_slices + Iobuf.Agg.num_slices agg;
    let total = Iobuf.Agg.length agg in
    let npkts = if total = 0 then 0 else ((total - 1) / mtu) + 1 in
    let sums = Array.make npkts 0 in
    let scanned = ref 0 and folds = ref 0 in
    let pkt = ref 0 and fill = ref 0 and acc = ref 0 in
    Iobuf.Agg.iter_slices agg (fun s ->
        let slen = Iobuf.Slice.len s in
        let o = ref 0 in
        while !o < slen do
          let l = min (slen - !o) (mtu - !fill) in
          let sum = fragment_sum t s ~off:!o ~len:l ~scanned in
          acc := parity_combine ~llen:!fill !acc sum;
          incr folds;
          fill := !fill + l;
          if !fill = mtu then begin
            sums.(!pkt) <- finish !acc;
            acc := 0;
            fill := 0;
            incr pkt
          end;
          o := !o + l
        done);
    if !fill > 0 then sums.(!pkt) <- finish !acc;
    { dsums = sums; dscanned = !scanned; dfolds = !folds }

  let hits t = t.hits
  let misses t = t.misses
  let slices_summed t = t.agg_slices
  let memo_slices t = t.memo_slices
  let entry_count t = t.count
  let evictions t = t.evictions
  let resets t = t.resets

  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0;
    t.agg_slices <- 0;
    t.memo_slices <- 0;
    t.evictions <- 0;
    t.resets <- 0
end

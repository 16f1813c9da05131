(* The full benchmark harness.

   Two sections:
   - Bechamel micro-benchmarks of the IO-Lite primitives (real wall-clock
     cost of the library's own operations);
   - the paper-reproduction harness: every figure of the evaluation
     (Figs. 3-13), printed as tables + ASCII plots in simulated-testbed
     units (Mb/s on the 1999 cost model).

   Usage:
     dune exec bench/main.exe                 # micro + all figures (scale 0.5)
     dune exec bench/main.exe -- micro        # micro-benchmarks only
     dune exec bench/main.exe -- figures 1.0  # figures at a given scale
     dune exec bench/main.exe -- figures 0.5 --metrics --trace out.json
         # figures with per-point metric registries printed and every
         # kernel's trace collected into one Chrome trace-event file
     dune exec bench/main.exe -- obs [label] [out.json]
         # observability overhead: asserts the disabled-tracer guard adds
         # no measurable per-event cost (history in ./BENCH_obs.json)
     dune exec bench/main.exe -- cache [label] [out.json] [entries]
         # unified-file-cache scaling: lookup/carve/evict against files
         # holding 1k/10k entries (default ./BENCH_cache.json, appended)
     dune exec bench/main.exe -- agg [label] [out.json]
         # deep-aggregate scaling section: repeated 1 KB appends up to ~MBs,
         # splits at random offsets, byte gets at random indices. Prints
         # each op as measured and writes machine-readable JSON (default
         # ./BENCH_agg.json).
         # If the output file already holds a run history, the new run is
         # appended to its "runs" array, so the checked-in BENCH_agg.json
         # accumulates the perf trajectory across PRs.
     dune exec bench/main.exe -- <scenario> [label] [out.json] [tiny]
         # one extension sweep of Experiments.scenarios (scale, async,
         # write, tier) at its recorded size, or at its test-suite size
         # with "tiny"; prints the tables and appends the run to the
         # scenario's history (default ./BENCH_<scenario>.json).
*)

open Bechamel
open Toolkit
module Iosys = Iolite_core.Iosys
module Iobuf = Iolite_core.Iobuf
module Transfer = Iolite_core.Transfer
module Filecache = Iolite_core.Filecache
module Cksum = Iolite_net.Cksum
module Http = Iolite_httpd.Http
module Vm = Iolite_mem.Vm
module Pdomain = Iolite_mem.Pdomain
module Scenario = Iolite_workload.Scenario

let sprintf = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures                                            *)
(* ------------------------------------------------------------------ *)

let fixture () =
  let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
  let d = Iosys.new_domain sys ~name:"bench" in
  let pool =
    Iobuf.Pool.create sys ~name:"bench"
      ~acl:(Vm.Only (Pdomain.Set.singleton d))
  in
  (sys, d, pool)

let test_pool_alloc_free =
  let _, d, pool = fixture () in
  Test.make ~name:"pool: alloc+seal+free 4KB buffer"
    (Staged.stage (fun () ->
         let b = Iobuf.Pool.alloc pool ~producer:d 4096 in
         Iobuf.Buffer.seal b;
         Iobuf.Buffer.decr_ref b))

let test_agg_of_string =
  let _, d, pool = fixture () in
  let payload = String.make 4096 'x' in
  Test.make ~name:"agg: of_string 4KB (+free)"
    (Staged.stage (fun () ->
         Iobuf.Agg.free (Iobuf.Agg.of_string pool ~producer:d payload)))

(* A 256 KB aggregate of four 64 KB slices; divide by 262144 for the
   host ns/byte of one modelled copy. *)
let agg_256k () =
  let sys, d, pool = fixture () in
  (sys, d, pool, Iobuf.Agg.of_string pool ~producer:d (String.make 262144 'y'))

let test_agg_to_string =
  let sys, _, _, agg = agg_256k () in
  Test.make ~name:"agg: to_string 256KB (4 slices)"
    (Staged.stage (fun () -> ignore (Iobuf.Agg.to_string sys agg)))

let test_agg_copy_to_pool =
  let sys, d, pool, agg = agg_256k () in
  Test.make ~name:"agg: copy_to_pool 256KB"
    (Staged.stage (fun () ->
         Iobuf.Agg.free (Iobuf.Agg.copy_to_pool sys agg pool ~producer:d)))

let test_agg_concat_split =
  let _, d, pool = fixture () in
  let a = Iobuf.Agg.of_string pool ~producer:d (String.make 1024 'a') in
  let b = Iobuf.Agg.of_string pool ~producer:d (String.make 1024 'b') in
  Test.make ~name:"agg: concat + split + free"
    (Staged.stage (fun () ->
         let ab = Iobuf.Agg.concat a b in
         let l, r = Iobuf.Agg.split ab ~at:1500 in
         Iobuf.Agg.free l;
         Iobuf.Agg.free r;
         Iobuf.Agg.free ab))

let test_cksum_cold =
  let _, d, pool = fixture () in
  let agg = Iobuf.Agg.of_string pool ~producer:d (String.make 4096 'c') in
  Test.make ~name:"cksum: 4KB computed (uncached)"
    (Staged.stage (fun () -> ignore (Cksum.of_agg agg)))

let test_cksum_cached =
  let _, d, pool = fixture () in
  let cache = Cksum.Cache.create () in
  let agg = Iobuf.Agg.of_string pool ~producer:d (String.make 4096 'c') in
  let _ = Cksum.Cache.agg_sum cache agg in
  Test.make ~name:"cksum: 4KB via checksum cache (hit)"
    (Staged.stage (fun () -> ignore (Cksum.Cache.agg_sum cache agg)))

(* A Flash-Lite response as the send path sees it: a fresh 200-byte
   header before a cached 12 KB body, checksummed per 1500-byte packet
   with every fragment sum already in the identity table. *)
let test_packet_sums_warm =
  let _, d, pool = fixture () in
  let cache = Cksum.Cache.create () in
  let header = Iobuf.Agg.of_string pool ~producer:d (String.make 200 'h') in
  let body = Iobuf.Agg.of_string pool ~producer:d (String.make 12288 'b') in
  let resp = Iobuf.Agg.concat header body in
  ignore (Cksum.Cache.packet_sums cache resp ~mtu:1500);
  Test.make ~name:"net: packet_sums warm 12 KB response"
    (Staged.stage (fun () -> ignore (Cksum.Cache.packet_sums cache resp ~mtu:1500)))

(* The conventional send: copy a 10 KB response into mbuf clusters and
   free the chain, as the drain does. *)
let test_mbuf_copied =
  let sys, d, pool = fixture () in
  let clusters = Iolite_net.Mbuf.clusters () in
  let agg = Iobuf.Agg.of_string pool ~producer:d (String.make 10240 'm') in
  Test.make ~name:"net: of_agg_copied 10 KB"
    (Staged.stage (fun () ->
         Iolite_net.Mbuf.free (Iolite_net.Mbuf.of_agg_copied clusters sys agg)))

let test_response_header =
  Test.make ~name:"http: response_header"
    (Staged.stage (fun () ->
         ignore (Http.response_header ~keep_alive:false ~content_length:12345 ())))

let test_parse_request =
  let req = Http.request_string "/doc/r1234" in
  Test.make ~name:"http: parse_request"
    (Staged.stage (fun () -> ignore (Http.parse_request req)))

let test_transfer_warm =
  let sys, d, pool = fixture () in
  ignore pool;
  let reader = Iosys.new_domain sys ~name:"reader" in
  let pool2 =
    Iobuf.Pool.create sys ~name:"shared"
      ~acl:(Vm.Only (Pdomain.Set.of_list [ d; reader ]))
  in
  let agg = Iobuf.Agg.of_string pool2 ~producer:d (String.make 4096 't') in
  Iobuf.Agg.free (Transfer.send sys agg ~to_:reader);
  Test.make ~name:"transfer: warm cross-domain send 4KB"
    (Staged.stage (fun () -> Iobuf.Agg.free (Transfer.send sys agg ~to_:reader)))

let test_cache_hit =
  let sys, d, pool = fixture () in
  let cache = Filecache.create ~register_with_pageout:false sys () in
  Filecache.insert cache ~file:1 ~off:0
    (Iobuf.Agg.of_string pool ~producer:d (String.make 65536 'f'));
  Test.make ~name:"filecache: lookup hit 16KB range"
    (Staged.stage (fun () ->
         match Filecache.lookup cache ~file:1 ~off:8192 ~len:16384 with
         | Some a -> Iobuf.Agg.free a
         | None -> assert false))

let test_zipf =
  let z = Iolite_util.Zipf.create ~n:37703 ~alpha:1.0 in
  let rng = Iolite_util.Rng.create 3L in
  Test.make ~name:"workload: zipf sample (n=37703)"
    (Staged.stage (fun () -> ignore (Iolite_util.Zipf.sample z rng)))

let test_sim_engine =
  Test.make ~name:"sim: spawn+run 100-event engine"
    (Staged.stage (fun () ->
         let e = Iolite_sim.Engine.create () in
         Iolite_sim.Engine.spawn e (fun () ->
             for _ = 1 to 100 do
               Iolite_sim.Engine.Proc.sleep 0.001
             done);
         Iolite_sim.Engine.run e))

(* Divide by 65536 for the host ns/byte of synthetic file contents. *)
let test_content_fill =
  let data = Bytes.create 65536 in
  Test.make ~name:"fs: fill_bytes 64KB synthetic content"
    (Staged.stage (fun () ->
         Iolite_fs.Filestore.fill_bytes data 0 65536 ~file:7 ~off:(1 lsl 20)))

let micro_tests =
  [
    test_pool_alloc_free;
    test_agg_of_string;
    test_agg_to_string;
    test_agg_copy_to_pool;
    test_agg_concat_split;
    test_cksum_cold;
    test_cksum_cached;
    test_packet_sums_warm;
    test_mbuf_copied;
    test_response_header;
    test_parse_request;
    test_transfer_warm;
    test_cache_hit;
    test_zipf;
    test_sim_engine;
    test_content_fill;
  ]

let run_micro () =
  print_endline "== Micro-benchmarks (Bechamel, real wall-clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* stabilize:false — Bechamel's per-sample Gc.compact stabilization
     permanently degrades the OCaml 5.1 runtime's page reuse, ballooning
     the RSS of everything that runs afterwards (observed: the figure
     harness OOMs after micro-benchmarks run with stabilization). Our
     operations are allocation-light, so estimates are unaffected. *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols (List.hd instances) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-42s %10.1f ns/op\n%!" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    micro_tests

(* ------------------------------------------------------------------ *)
(* Deep-aggregate scaling                                              *)
(* ------------------------------------------------------------------ *)

(* Stresses the cost of aggregate recombination as aggregates get deep:
   repeated append (the stdiol/pipe/mbuf/response-assembly pattern),
   split at random offsets, and random byte indexing. These are the
   operations whose asymptotics changed when Agg moved from a flat slice
   list to a rope; the recorded numbers in BENCH_agg.json are the
   regression baseline for later PRs. *)

(* One history entry: [iters] operations of [op] on an aggregate of
   [pieces] slices of [piece_size] bytes took [total_ns] host ns. *)
let entry ~op ~pieces ~piece_size ~iters total_ns =
  Scenario.
    [
      str "op" op;
      count "pieces" pieces;
      int "piece_size" ~unit:"bytes" piece_size;
      count "iters" iters;
      float ~clock:Host "total_ns" ~unit:"ns" ~dp:0 total_ns;
      float ~clock:Host "ns_per_op" ~unit:"ns" ~dp:1
        (total_ns /. float_of_int iters);
    ]

let ns_per_op row = Scenario.get_float row "ns_per_op"

(* A section's entries in measurement order, each printed as it lands. *)
let recorder () =
  let entries = ref [] in
  ( (fun row ->
      Printf.printf "  %-18s %10d iters %12.2f ns/op\n%!"
        (Scenario.get_str row "op")
        (Scenario.get_int row "iters")
        (ns_per_op row);
      entries := row :: !entries),
    fun () -> List.rev !entries )

let now_ns () = Unix.gettimeofday () *. 1e9

let bench_append pool d ~pieces ~piece_size =
  let piece =
    Iobuf.Agg.of_string pool ~producer:d (String.make piece_size 'p')
  in
  let t0 = now_ns () in
  let acc = ref (Iobuf.Agg.empty ()) in
  for _ = 1 to pieces do
    let next = Iobuf.Agg.concat !acc piece in
    Iobuf.Agg.free !acc;
    acc := next
  done;
  let dt = now_ns () -. t0 in
  Iobuf.Agg.free piece;
  (!acc, entry ~op:"append" ~pieces ~piece_size ~iters:pieces dt)

let bench_split agg ~iters rng =
  let total = Iobuf.Agg.length agg in
  let pieces = Iobuf.Agg.num_slices agg in
  let t0 = now_ns () in
  for _ = 1 to iters do
    let at = Iolite_util.Rng.int rng (total + 1) in
    let l, r = Iobuf.Agg.split agg ~at in
    Iobuf.Agg.free l;
    Iobuf.Agg.free r
  done;
  entry ~op:"split" ~pieces ~piece_size:(total / max 1 pieces) ~iters
    (now_ns () -. t0)

let bench_get agg ~iters rng =
  let total = Iobuf.Agg.length agg in
  let pieces = Iobuf.Agg.num_slices agg in
  let sink = ref 0 in
  let t0 = now_ns () in
  for _ = 1 to iters do
    let i = Iolite_util.Rng.int rng total in
    sink := !sink + Char.code (Iobuf.Agg.get agg i)
  done;
  ignore !sink;
  entry ~op:"get" ~pieces ~piece_size:(total / max 1 pieces) ~iters
    (now_ns () -. t0)

(* A history that cannot be extended is left untouched and the bench
   exits non-zero: recorded runs are never discarded. *)
let exit_on_error = function
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "  %s\n%!" msg;
    exit 1

let append_json_run ~benchmark ~out ~label entries =
  exit_on_error (Scenario.record ~benchmark ~label ~out [ Scenario.one entries ])

let run_agg ~label ~out =
  Printf.printf "\n== Deep-aggregate scaling (label: %s) ==\n" label;
  let _, d, pool = fixture () in
  let rng = Iolite_util.Rng.create 42L in
  let record, entries = recorder () in
  List.iter
    (fun pieces ->
      let agg, append = bench_append pool d ~pieces ~piece_size:1024 in
      record append;
      (* Split/get stress only the deepest aggregate. *)
      if pieces = 1024 then begin
        record (bench_split agg ~iters:1000 rng);
        record (bench_get agg ~iters:10000 rng)
      end;
      Iobuf.Agg.free agg)
    [ 128; 256; 512; 1024; 2048 ];
  append_json_run ~benchmark:"deep-agg" ~out ~label (entries ())

(* ------------------------------------------------------------------ *)
(* Checksum scaling                                                    *)
(* ------------------------------------------------------------------ *)

(* Measures the cost of re-checksumming a shared deep aggregate — the
   per-send operation of the network path — plus deriving per-MTU-packet
   checksums during segmentation. The recorded runs in BENCH_cksum.json
   are labeled: the pre-memo per-slice-cache numbers ("slice-cache
   baseline") are the regression baseline that the rope-memo runs are
   compared against. *)

let time_op ~op ~pieces ~piece_size ~iters f =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  entry ~op ~pieces ~piece_size ~iters (now_ns () -. t0)

let run_cksum ~label ~out ~pieces =
  Printf.printf "\n== Checksum scaling (label: %s, %d slices) ==\n" label
    pieces;
  let _, d, pool = fixture () in
  let piece_size = 1024 in
  let mtu = 1460 in
  (* A [pieces]-slice aggregate built like a cached response body: many
     1 KB buffers concatenated, the whole rope shared across "sends". *)
  let agg =
    let acc = ref (Iobuf.Agg.empty ()) in
    for i = 1 to pieces do
      let piece =
        Iobuf.Agg.of_string pool ~producer:d
          (String.make piece_size (Char.chr (Char.code 'a' + (i mod 26))))
      in
      let next = Iobuf.Agg.concat !acc piece in
      Iobuf.Agg.free !acc;
      Iobuf.Agg.free piece;
      acc := next
    done;
    !acc
  in
  let total = Iobuf.Agg.length agg in
  let record, entries = recorder () in
  (* Uncached full scan: the per-send cost a system with no checksum
     reuse pays (and the Spliced/sendfile path before this PR). *)
  record
    (time_op ~op:"of_agg_cold" ~pieces ~piece_size ~iters:200 (fun () ->
         ignore (Cksum.of_agg agg)));
  (* Cold through the cache: scan + insert for every slice. *)
  record
    (time_op ~op:"agg_sum_cold" ~pieces ~piece_size ~iters:50 (fun () ->
         let cache = Cksum.Cache.create () in
         ignore (Cksum.Cache.agg_sum cache agg)));
  (* Warm re-checksum of the shared aggregate: the per-send cost of
     transmitting an already-summed response body. *)
  let cache = Cksum.Cache.create () in
  ignore (Cksum.Cache.agg_sum cache agg);
  record
    (time_op ~op:"agg_sum_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         ignore (Cksum.Cache.agg_sum cache agg)));
  (* Per-packet derivation, naive: one Agg.sub + cache fold per MTU
     packet per send (what segmentation costs without range algebra). *)
  let pkt_cache = Cksum.Cache.create () in
  let naive_packets () =
    let off = ref 0 in
    while !off < total do
      let len = min mtu (total - !off) in
      let p = Iobuf.Agg.sub agg ~off:!off ~len in
      ignore (Cksum.Cache.agg_sum pkt_cache p);
      Iobuf.Agg.free p;
      off := !off + len
    done
  in
  naive_packets ();
  record
    (time_op ~op:"pkt_naive_warm" ~pieces ~piece_size ~iters:100 naive_packets);
  (* Per-packet derivation during segmentation: one identity-keyed walk
     per send, no per-packet sub-aggregates. *)
  let seg_cache = Cksum.Cache.create () in
  ignore (Cksum.Cache.packet_sums seg_cache agg ~mtu);
  record
    (time_op ~op:"pkt_derived_warm" ~pieces ~piece_size ~iters:500 (fun () ->
         ignore (Cksum.Cache.packet_sums seg_cache agg ~mtu)));
  (* Identity-less structural variant (the sendfile path). *)
  ignore (Cksum.packet_sums_memo agg ~mtu);
  record
    (time_op ~op:"pkt_memo_warm" ~pieces ~piece_size ~iters:200 (fun () ->
         ignore (Cksum.packet_sums_memo agg ~mtu)));
  Iobuf.Agg.free agg;
  append_json_run ~benchmark:"cksum" ~out ~label (entries ())

(* ------------------------------------------------------------------ *)
(* Cross-domain transfer scaling                                       *)
(* ------------------------------------------------------------------ *)

(* Measures the per-send cost of cross-domain transfer as aggregates get
   deep — the operation under every pipe write, socket send, and cache
   delivery. Cold = first-ever transfer to a fresh domain (per-chunk map
   operations are unavoidable); warm = repeated transfer on the same
   stream, which the paper says must cost no VM work and which should
   therefore be independent of the slice count. The recorded runs in
   BENCH_transfer.json are labeled: the pre-optimisation numbers
   ("slice-walk baseline") walked every slice per send and are the
   regression baseline the memoized chunk-set/grant-epoch runs are
   compared against. *)

let run_transfer ~label ~out ~pieces =
  Printf.printf "\n== Cross-domain transfer (label: %s, %d slices) ==\n" label
    pieces;
  let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
  let d = Iosys.new_domain sys ~name:"producer" in
  (* Public ACL so freshly minted consumer domains can map (the cold
     case); IO-Lite's file pool has the same shape. *)
  let pool = Iobuf.Pool.create sys ~name:"xfer" ~acl:Vm.Public in
  let piece_size = 1024 in
  let agg =
    let acc = ref (Iobuf.Agg.empty ()) in
    for i = 1 to pieces do
      let piece =
        Iobuf.Agg.of_string pool ~producer:d
          (String.make piece_size (Char.chr (Char.code 'a' + (i mod 26))))
      in
      let next = Iobuf.Agg.concat !acc piece in
      Iobuf.Agg.free !acc;
      Iobuf.Agg.free piece;
      acc := next
    done;
    !acc
  in
  let record, entries = recorder () in
  (* Cold send: the consumer has never seen the stream's chunks, so every
     one of them must be mapped. *)
  record
    (time_op ~op:"send_cold" ~pieces ~piece_size ~iters:200 (fun () ->
         let r = Iosys.new_domain sys ~name:"cold" in
         Iobuf.Agg.free (Transfer.send sys agg ~to_:r)));
  (* Warm send: same aggregate, same consumer — the steady state of a
     persistent connection serving cached data. *)
  let reader = Iosys.new_domain sys ~name:"reader" in
  Iobuf.Agg.free (Transfer.send sys agg ~to_:reader);
  record
    (time_op ~op:"send_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         Iobuf.Agg.free (Transfer.send sys agg ~to_:reader)));
  (* Consumer-side enforcement on the warm stream. *)
  record
    (time_op ~op:"check_warm" ~pieces ~piece_size ~iters:2000 (fun () ->
         Transfer.check_readable sys reader agg));
  Iobuf.Agg.free agg;
  append_json_run ~benchmark:"transfer" ~out ~label (entries ())

(* ------------------------------------------------------------------ *)
(* Unified file cache scaling                                          *)
(* ------------------------------------------------------------------ *)

(* Measures the per-operation cost of the unified file cache as files
   accumulate entries — the regime of the paper's Fig. 8 trace replays,
   where a single large file can be cached as thousands of
   insert/carve remainders. [insert_seq] appends ascending entries (the
   fixture build); [lookup_warm] repeats one exact-bounds hit at the
   file's tail; [lookup_rand] hits a random entry per op (cold index
   probe); [lookup_span16] covers 16 entries per hit; [carve_replace]
   overwrites a random whole entry (carve + reinsert); [evict_drain]
   evicts half the entries through the policy. The recorded runs in
   BENCH_cache.json are labeled: the pre-optimization numbers
   ("list-baseline") walked offset-sorted per-file lists and are the
   regression baseline the interval-index runs are compared against. *)

let run_cache ~label ~out ~scales =
  Printf.printf "\n== Unified file cache scaling (label: %s) ==\n" label;
  let record, entries = recorder () in
  List.iter
    (fun n ->
      let sys = Iosys.create ~capacity:(256 * 1024 * 1024) () in
      let d = Iosys.new_domain sys ~name:"bench" in
      let pool =
        Iobuf.Pool.create sys ~name:"cachebench"
          ~acl:(Vm.Only (Pdomain.Set.singleton d))
      in
      let cache = Filecache.create ~register_with_pageout:false sys () in
      let esz = 128 in
      let payload = String.make esz 'e' in
      let rng = Iolite_util.Rng.create 7L in
      let next = ref 0 in
      record
        (time_op ~op:"insert_seq" ~pieces:n ~piece_size:esz ~iters:n (fun () ->
             Filecache.insert cache ~file:1 ~off:(!next * esz)
               (Iobuf.Agg.of_string pool ~producer:d payload);
             incr next));
      let last_off = (n - 1) * esz in
      record
        (time_op ~op:"lookup_warm" ~pieces:n ~piece_size:esz ~iters:5000
           (fun () ->
             match Filecache.lookup cache ~file:1 ~off:last_off ~len:esz with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"lookup_rand" ~pieces:n ~piece_size:esz ~iters:5000
           (fun () ->
             let k = Iolite_util.Rng.int rng n in
             match Filecache.lookup cache ~file:1 ~off:(k * esz) ~len:esz with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"lookup_span16" ~pieces:n ~piece_size:esz ~iters:2000
           (fun () ->
             let k = Iolite_util.Rng.int rng (n - 16) in
             match
               Filecache.lookup cache ~file:1 ~off:(k * esz) ~len:(16 * esz)
             with
             | Some a -> Iobuf.Agg.free a
             | None -> assert false));
      record
        (time_op ~op:"carve_replace" ~pieces:n ~piece_size:esz ~iters:2000
           (fun () ->
             let k = Iolite_util.Rng.int rng n in
             Filecache.insert cache ~file:1 ~off:(k * esz)
               (Iobuf.Agg.of_string pool ~producer:d payload)));
      record
        (time_op ~op:"evict_drain" ~pieces:n ~piece_size:esz ~iters:(n / 2)
           (fun () -> ignore (Filecache.evict_one cache))))
    scales;
  append_json_run ~benchmark:"cache" ~out ~label (entries ())

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* The tracer's contract is that a disabled tracer costs one mutable
   bool load and branch per potential event — nothing measurable on hot
   paths. This section measures it: a bare counting loop, the same loop
   with the [if Trace.enabled t then emit] guard the call sites use,
   and (for context) the loop with the tracer armed and emitting. The
   recorded runs in BENCH_obs.json track that the disabled-path delta
   stays in the noise across PRs. *)

module Trace = Iolite_obs.Trace

let run_obs ~label ~out =
  Printf.printf "\n== Observability overhead (label: %s) ==\n" label;
  let iters = 5_000_000 in
  let sink = ref 0 in
  (* Best-of-three per variant: the quantity of interest is a
     per-iteration delta of a few tenths of a ns, easily swamped by a
     scheduling blip in a single run. *)
  let best op f =
    let total e = Scenario.get_float e "total_ns" in
    List.init 3 (fun _ -> time_op ~op ~pieces:0 ~piece_size:0 ~iters f)
    |> List.fold_left (fun a e -> if total e < total a then e else a)
         (entry ~op ~pieces:0 ~piece_size:0 ~iters infinity)
  in
  let record, entries = recorder () in
  let bare =
    best "bare_loop" (fun () -> sink := !sink + 1)
  in
  record bare;
  let tr = Trace.create () in
  let disabled =
    best "disabled_guard" (fun () ->
        sink := !sink + 1;
        if Trace.enabled tr then
          Trace.instant tr ~cat:"bench" ~name:"ev" ())
  in
  record disabled;
  (* The causal-tracing additions ride the same contract: a disabled
     flow emitter and a disabled attribution note are each one bool
     load and branch. *)
  let flow = Iolite_obs.Flow.create tr in
  record
    (best "disabled_flow" (fun () ->
         sink := !sink + 1;
         if Iolite_obs.Flow.enabled flow then
           Iolite_obs.Flow.step flow ~id:1 ()));
  let attr = Iolite_obs.Attrib.create () in
  record
    (best "disabled_attrib" (fun () ->
         sink := !sink + 1;
         if Iolite_obs.Attrib.enabled attr then
           Iolite_obs.Attrib.note attr ~ctx:1 Iolite_obs.Attrib.Queue 1e-9));
  (* The write-back layer's per-cluster telemetry is one pre-resolved
     counter-cell bump plus the same disabled-tracer guard — no name
     lookups on the flush path. *)
  let wcell =
    Iolite_obs.Metrics.counter (Iolite_obs.Metrics.create ()) "write.clustered"
  in
  record
    (best "disabled_wb_count" (fun () ->
         sink := !sink + 1;
         wcell := !wcell + 1;
         if Trace.enabled tr then
           Trace.instant tr ~cat:"wb" ~name:"cluster" ()));
  (* Context: cost with the tracer armed (buffering an instant event).
     Cleared each batch so the buffer does not grow without bound. *)
  let vnow = ref 0.0 in
  Trace.enable tr
    ~clock:(fun () -> vnow := !vnow +. 1e-9; !vnow)
    ~scope:(fun () -> None);
  let enabled_iters = 200_000 in
  let enabled =
    let e =
      time_op ~op:"enabled_instant" ~pieces:0 ~piece_size:0
        ~iters:enabled_iters (fun () ->
          sink := !sink + 1;
          if Trace.enabled tr then
            Trace.instant tr ~cat:"bench" ~name:"ev" ())
    in
    Trace.clear tr;
    e
  in
  record enabled;
  ignore !sink;
  let delta = ns_per_op disabled -. ns_per_op bare in
  (* "No measurable cost": within 2 ns/event of the bare loop — the
     guard is one field load and a branch (~0.4 ns in release builds;
     dev builds pay an un-inlined call, ~1.5 ns). Compare 100+ ns for
     an enabled emission and tens of microseconds for the simulated
     operations the guards sit on. *)
  if delta <= 2.0 then
    Printf.printf
      "  PASS: disabled tracer adds %.2f ns/event over the bare loop\n" delta
  else
    Printf.printf
      "  WARN: disabled tracer adds %.2f ns/event over the bare loop \
       (> 2.0 ns budget)\n"
      delta;
  append_json_run ~benchmark:"obs" ~out ~label (entries ())

(* ------------------------------------------------------------------ *)
(* Extension sweeps                                                    *)
(* ------------------------------------------------------------------ *)

(* Every history section takes [LABEL] [OUT] [ARG]: the run's label,
   the history file, and a section-specific size. *)
let history_args ~out rest =
  match rest with
  | [] -> ("current", out, None)
  | [ label ] -> (label, out, None)
  | label :: out :: rest -> (label, out, List.nth_opt rest 0)

(* ARG is cksum's and transfer's slice count and cache's entry count. *)
let micros =
  let pieces n = Option.value n ~default:1024 in
  [
    ("agg", fun ~label ~out _ -> run_agg ~label ~out);
    ("cksum", fun ~label ~out n -> run_cksum ~label ~out ~pieces:(pieces n));
    ( "transfer",
      fun ~label ~out n -> run_transfer ~label ~out ~pieces:(pieces n) );
    ( "cache",
      fun ~label ~out n ->
        run_cache ~label ~out
          ~scales:(match n with Some n -> [ n ] | None -> [ 1000; 10_000 ]) );
    ("obs", fun ~label ~out _ -> run_obs ~label ~out);
  ]

let find_scenario name =
  List.find_opt
    (fun (sc : Scenario.t) -> sc.name = name)
    Iolite_workload.Experiments.scenarios

let run_scenario (sc : Scenario.t) ~label ~out size =
  let size =
    match size with
    | None | Some "full" -> Scenario.Full
    | Some "tiny" -> Tiny
    | Some s ->
      Printf.eprintf "%s: size %S is neither full nor tiny\n" sc.name s;
      exit 2
  in
  Printf.printf "\n== %s (label: %s) ==\n%!" sc.name label;
  let runs = sc.run size in
  Scenario.print runs;
  exit_on_error (Scenario.record ~benchmark:sc.benchmark ~label ~out runs)

(* ------------------------------------------------------------------ *)
(* Paper figures                                                       *)
(* ------------------------------------------------------------------ *)

let run_figures ?(metrics = false) ?trace_out scale =
  Printf.printf
    "\n== Paper reproduction: Figs. 3-13 (simulated 1999 testbed; scale %.2f) ==\n"
    scale;
  let module E = Iolite_workload.Experiments in
  let sink =
    match trace_out with
    | None -> None
    | Some _ -> Some (Trace.Sink.create ())
  in
  E.set_observability ~metrics ?sink ();
  Fun.protect
    ~finally:(fun () ->
      (match (sink, trace_out) with
      | Some s, Some path ->
        Trace.Sink.write s path;
        Printf.printf "  wrote %d trace events to %s\n%!"
          (Trace.Sink.count s) path
      | _ -> ());
      E.set_observability ())
    (fun () -> E.run_all ~scale ())

let () =
  match Array.to_list Sys.argv with
  | _ :: "micro" :: _ -> run_micro ()
  | _ :: name :: rest when List.mem_assoc name micros ->
    let label, out, n = history_args ~out:(sprintf "BENCH_%s.json" name) rest in
    (List.assoc name micros) ~label ~out (Option.map int_of_string n)
  | _ :: "figures" :: rest ->
    (* figures [SCALE] [--metrics] [--trace FILE] *)
    let scale = ref 0.5 in
    let metrics = ref false in
    let trace_out = ref None in
    let rec parse = function
      | [] -> ()
      | "--metrics" :: tl ->
        metrics := true;
        parse tl
      | "--trace" :: file :: tl ->
        trace_out := Some file;
        parse tl
      | s :: tl ->
        scale := float_of_string s;
        parse tl
    in
    parse rest;
    run_figures ~metrics:!metrics ?trace_out:!trace_out !scale
  | _ :: name :: rest when Option.is_some (find_scenario name) ->
    let sc = Option.get (find_scenario name) in
    let label, out, size = history_args ~out:sc.file rest in
    run_scenario sc ~label ~out size
  | _ ->
    run_micro ();
    run_figures 0.5

(* One benchmark repeat of the IO-Lite reproduction.

   [bench.exe --workload W --seed N [--traced FILE]] builds the
   workload's inputs (a fixed data set; request streams drawn from the
   seed) and drives them through two paths, each on fresh
   default-configured kernels: the IO-Lite path (Flash-Lite,
   IOL_read/IOL_write) and the conventional path (Flash,
   read_string/write_string). It prints one JSON object on stdout:

   - "virtual": results on the simulated 1999 machine's clock. They are
     a pure function of the seed, so two repeats must print them
     byte-identically (run.py checks this).
   - "host": the simulator's own cost on the host clock.
   - "traced": with [--traced FILE], only the IO-Lite path runs, up to
     the end of a short slice at the start of the measured window, with
     the program's own tracing and wait-state attribution armed over
     that slice. This section holds the per-layer time breakdown, and a
     Chrome trace (the kernel's virtual-clock events plus host-clock
     spans around the benchmark's calls into the program) goes to FILE.
   - "attempted"/"failed"/"errors": the output checks.

   run.py repeats this program, reduces the repeats to the reported
   metrics and declares each metric's clock, unit and direction. *)

module Engine = Iolite_sim.Engine
module Proc = Engine.Proc
module Kernel = Iolite_os.Kernel
module Process = Iolite_os.Process
module Sock = Iolite_os.Sock
module Fileio = Iolite_os.Fileio
module Cpu = Iolite_os.Cpu
module Flash = Iolite_httpd.Flash
module Http = Iolite_httpd.Http
module Cgi = Iolite_httpd.Cgi
module Wtrace = Iolite_workload.Trace
module Otrace = Iolite_obs.Trace
module Metrics = Iolite_obs.Metrics
module Attrib = Iolite_obs.Attrib
module Flow = Iolite_obs.Flow
module Policy = Iolite_core.Policy
module Filecache = Iolite_core.Filecache
module Iobuf = Iolite_core.Iobuf
module Iosys = Iolite_core.Iosys
module Physmem = Iolite_mem.Physmem
module Disk = Iolite_fs.Disk
module Link = Iolite_net.Link
module Filestore = Iolite_fs.Filestore
module Rng = Iolite_util.Rng

(* Simulated seconds: warm-up, measured window, and the traced slice at
   the start of the window. *)
let warmup_s = 8.0
let window_s = 20.0
let traced_s = 2.0

(* [Engine.run] is timed in steps of this many simulated seconds. Every
   repeat of a seed replays the same steps, so run.py can compare each
   step's host time across repeats. *)
let step_s = 0.25

type path = Iolite | Conventional

(* ------------------------------------------------------------------ *)
(* Host clock and host-clock spans                                     *)
(* ------------------------------------------------------------------ *)

let host_origin = Unix.gettimeofday ()

(* Spans around the benchmark's own calls into the program, on the host
   clock; armed only for a traced repeat. *)
let host_trace = Otrace.create ()

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = Otrace.span host_trace ~cat:"host" ~name f in
  (r, Unix.gettimeofday () -. t0)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ------------------------------------------------------------------ *)
(* Per-path bookkeeping: exact virtual-time latency samples and checks *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

(* One path's operations, latencies and checks, pooled over its
   sub-runs. *)
type leg = {
  mutable ws : float;  (** measured window, virtual seconds *)
  mutable we : float;
  mutable ops : int;  (** operations finished over the whole run *)
  mutable failed : int;
  mutable errors : string list;
  mutable win_ops : int;
  mutable win_bytes : int;
  mutable win_probed : int;  (** file reads/requests checked for residency *)
  mutable win_resident : int;  (** ... whose whole file was cached when sent *)
  all : Samples.t;  (** per-operation latency, window only *)
  classes : (string * Samples.t) list;
  mutable bench_host_s : float;
      (** host time the benchmark itself spends inside [Engine.run]
          (payload generation, content checks), excluded from the
          simulator's cost *)
}

let new_leg classes =
  {
    ws = 0.0;
    we = 0.0;
    ops = 0;
    failed = 0;
    errors = [];
    win_ops = 0;
    win_bytes = 0;
    win_probed = 0;
    win_resident = 0;
    all = Samples.create ();
    classes = List.map (fun c -> (c, Samples.create ())) classes;
    bench_host_s = 0.0;
  }

let in_window l t = t >= l.ws && t <= l.we

let sample l cls ~t0 ~t1 =
  if in_window l t1 then Samples.add (List.assoc cls l.classes) (t1 -. t0)

let fail l msg =
  l.ops <- l.ops + 1;
  l.failed <- l.failed + 1;
  if List.length l.errors < 5 then l.errors <- msg :: l.errors

(* A completed, checked operation of class [cls] moving [bytes];
   [resident] tells whether the whole file it read was cached when it
   was started (file reads only). *)
let finish ?resident l cls ~t0 ~t1 ~bytes =
  l.ops <- l.ops + 1;
  if in_window l t1 then begin
    l.win_ops <- l.win_ops + 1;
    l.win_bytes <- l.win_bytes + bytes;
    Option.iter
      (fun r ->
        l.win_probed <- l.win_probed + 1;
        if r then l.win_resident <- l.win_resident + 1)
      resident;
    Samples.add l.all (t1 -. t0);
    Samples.add (List.assoc cls l.classes) (t1 -. t0)
  end

let bench_work l f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  l.bench_host_s <- l.bench_host_s +. (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Kernel counters over the measured window                            *)
(* ------------------------------------------------------------------ *)

(* Counter readings; the difference of two is what the kernel did in
   between, and the sum of such differences covers several sub-runs. *)
type counts = {
  c_metrics : Metrics.snapshot;
  c_cpu_busy : float;
  c_cpu_switches : int;
  c_disk_busy : float;
  c_disk_reads : int;
  c_disk_writes : int;
  c_disk_written : int;
  c_link_bytes : int;
  c_cgi_served : int;  (** FastCGI documents served over the pipe *)
}

let read_counts ~cgi_served k =
  let disk = Kernel.disk k in
  {
    c_metrics = Metrics.snapshot (Kernel.metrics k);
    c_cpu_busy = Cpu.busy_time (Kernel.cpu k);
    c_cpu_switches = Cpu.switches (Kernel.cpu k);
    c_disk_busy = Disk.busy_time disk;
    c_disk_reads = Disk.reads disk;
    c_disk_writes = Disk.writes disk;
    c_disk_written = Disk.bytes_written disk;
    c_link_bytes = Link.bytes_sent (Kernel.link k);
    c_cgi_served = cgi_served ();
  }

(* Field-by-field arithmetic on readings: [diff] for what happened
   between two, [add] to total several sub-runs. *)
let combine ~int ~float a b =
  let keys =
    List.sort_uniq String.compare
      (List.map fst a.c_metrics @ List.map fst b.c_metrics)
  in
  let get s key = Metrics.snapshot_get s key in
  {
    c_metrics =
      List.map (fun key -> (key, int (get a.c_metrics key) (get b.c_metrics key))) keys;
    c_cpu_busy = float a.c_cpu_busy b.c_cpu_busy;
    c_cpu_switches = int a.c_cpu_switches b.c_cpu_switches;
    c_disk_busy = float a.c_disk_busy b.c_disk_busy;
    c_disk_reads = int a.c_disk_reads b.c_disk_reads;
    c_disk_writes = int a.c_disk_writes b.c_disk_writes;
    c_disk_written = int a.c_disk_written b.c_disk_written;
    c_link_bytes = int a.c_link_bytes b.c_link_bytes;
    c_cgi_served = int a.c_cgi_served b.c_cgi_served;
  }

let diff ~before ~after = combine ~int:( - ) ~float:( -. ) after before
let add = combine ~int:( + ) ~float:( +. )

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

(* The IO-Lite path's per-layer counters: [d] is what the kernels did
   over measured windows totalling [seconds] of simulated time. *)
let layer_metrics l d ~seconds =
  let c name = Metrics.snapshot_get d.c_metrics name in
  let ops = l.win_ops in
  let p99 cls =
    1e3 *. percentile (Samples.sorted (List.assoc cls l.classes)) 0.99
  in
  let class_p99 cls = if List.mem_assoc cls l.classes then p99 cls else 0.0 in
  [
    ("cpu.util", ratio d.c_cpu_busy seconds);
    ("cpu.us_per_op", 1e6 *. ratio d.c_cpu_busy (float_of_int ops));
    ("cpu.switches_per_op", iratio d.c_cpu_switches ops);
    ( "net.cksum_scanned_ratio",
      iratio (c "net.cksum_bytes") (c "net.cksum_bytes_total") );
    ( "link.util",
      ratio
        (float_of_int (8 * d.c_link_bytes))
        ((Kernel.default_config ()).Kernel.link_bits_per_sec *. seconds) );
    ( "transfer.warm_ratio",
      iratio (c "transfer.warm_hits")
        (c "transfer.warm_hits" + c "transfer.cold_walks") );
    ("bytes.copied_per_op", iratio (c "bytes.copied") ops);
    ("pool.fresh", float_of_int (c "pool.fresh"));
    ("cache.hit_ratio", iratio l.win_resident l.win_probed);
    ("cache.eviction_per_op", iratio (c "cache.eviction") ops);
    ("cache.fill_coalesced", float_of_int (c "cache.fill_coalesced"));
    ( "cache.readahead_hit_ratio",
      iratio (c "cache.readahead_hit") (c "cache.readahead_issued") );
    ("vm.pageout_pages", float_of_int (c "vm.pageout_pages"));
    ( "vm.pageout_entry_evictions",
      float_of_int (c "vm.pageout_entry_evictions") );
    ("vm.page_fault", float_of_int (c "vm.page_fault"));
    ("disk.reads", float_of_int d.c_disk_reads);
    ("disk.writes", float_of_int d.c_disk_writes);
    ("disk.util", ratio d.c_disk_busy seconds);
    ( "disk.batched_ratio",
      iratio (c "disk.batched") (d.c_disk_reads + d.c_disk_writes) );
    ("write.cluster_writes", float_of_int (c "write.cluster_writes"));
    ( "write.extents_per_cluster",
      iratio (d.c_disk_written / 4096) (c "write.cluster_writes") );
    ("write.flushes", float_of_int (c "write.flushes"));
    ("write.superseded", float_of_int (c "write.superseded"));
    ("write.throttled", float_of_int (c "write.throttled"));
    ("lat.read_p99_ms", class_p99 "read");
    ("lat.write_p99_ms", class_p99 "write");
    ("lat.fsync_p99_ms", class_p99 "fsync");
    ("cgi.served", float_of_int d.c_cgi_served);
    ("lat.static_p99_ms", class_p99 "static");
    ("lat.cgi_p99_ms", class_p99 "cgi");
    ("lat.samples", float_of_int l.all.Samples.n);
  ]

(* ------------------------------------------------------------------ *)
(* Traced slice: self time per span category, attribution shares       *)
(* ------------------------------------------------------------------ *)

let span_cats = [ "os"; "net"; "disk"; "wb"; "httpd" ]

(* A span's self time is its duration minus the part of it covered by
   the spans nested inside it on the same simulated process. *)
let self_times tr =
  let by_tid = Hashtbl.create 64 in
  Otrace.iter_events tr (fun e ->
      match e.Otrace.eph with
      | Otrace.Complete dur ->
        let l = Option.value (Hashtbl.find_opt by_tid e.etid) ~default:[] in
        Hashtbl.replace by_tid e.etid ((e.ets, dur, e.ecat) :: l)
      | Otrace.Instant | Otrace.Flow _ -> ());
  let totals = Hashtbl.create 8 in
  let credit cat v =
    Hashtbl.replace totals cat
      (v +. Option.value (Hashtbl.find_opt totals cat) ~default:0.0)
  in
  let eps = 1e-12 in
  Hashtbl.iter
    (fun _ spans ->
      let spans =
        List.sort
          (fun (a, da, _) (b, db, _) ->
            match Float.compare a b with 0 -> Float.compare db da | c -> c)
          spans
      in
      (* Stack of open spans: (end, category, duration, covered, cover_end). *)
      let stack = ref [] in
      let close (_, cat, dur, covered, _) = credit cat (dur -. covered) in
      List.iter
        (fun (ts, dur, cat) ->
          let te = ts +. dur in
          let rec unwind () =
            match !stack with
            | ((pe, _, _, _, _) as top) :: rest when te > pe +. eps ->
              close top;
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (pe, pcat, pdur, covered, cover_end) :: rest ->
            let from = Float.max ts cover_end in
            let covered = covered +. Float.max 0.0 (te -. from) in
            stack := (pe, pcat, pdur, covered, Float.max cover_end te) :: rest
          | [] -> ());
          stack := (te, cat, dur, 0.0, ts) :: !stack)
        spans;
      List.iter close !stack)
    by_tid;
  List.map
    (fun cat ->
      (cat, Option.value (Hashtbl.find_opt totals cat) ~default:0.0))
    span_cats

let traced_metrics k l =
  let tr = Kernel.trace k in
  let totals = Attrib.totals (Kernel.attrib k) in
  let wall = List.assoc "wall" totals in
  let shares =
    List.map
      (fun c -> (Printf.sprintf "attrib.%s_share" c, ratio (List.assoc c totals) wall))
      [ "queue"; "disk_service"; "coalesced_wait"; "vm_stall"; "cpu" ]
  in
  let ops = float_of_int (max 1 l.win_ops) in
  let spans =
    List.map
      (fun (cat, s) -> (Printf.sprintf "span.%s.self_ms" cat, 1e3 *. s /. ops))
      (self_times tr)
  in
  shares
  @ spans
  @ [
      ("attrib.requests", float_of_int (Attrib.completed (Kernel.attrib k)));
      ("trace.events", float_of_int (Otrace.event_count tr));
      ("trace.dropped", float_of_int (Otrace.dropped tr));
    ]

(* ------------------------------------------------------------------ *)
(* Kernels and the warm start                                          *)
(* ------------------------------------------------------------------ *)

(* The default configuration with GDS for the unified cache, as the
   paper's Flash-Lite (and every figure's kernel) uses. *)
let make_kernel () =
  let config =
    { (Kernel.default_config ()) with Kernel.cache_policy = Policy.gds () }
  in
  Kernel.create ~config (Engine.create ())

(* Insert whole files, most popular first, without disk latency, and
   stop after the first insert that evicts or once the cache holds 9/10
   of the I/O budget — so the warm start never churns the cache it is
   filling. Returns (bytes inserted, bytes resident). *)
let warm_start k ~path ~ranks =
  let sys = Kernel.sys k in
  let cache, pool =
    match path with
    | Iolite -> (Kernel.unified_cache k, Kernel.file_pool k)
    | Conventional -> (Kernel.conv_cache k, Kernel.page_pool k)
  in
  let store = Kernel.store k in
  let kd = Iosys.kernel sys in
  let budget = Physmem.io_budget (Iosys.physmem sys) * 9 / 10 in
  let evictions () =
    Filecache.evictions cache
    + Metrics.get (Kernel.metrics k) "vm.pageout_entry_evictions"
  in
  let load file size =
    let chunk = Iobuf.Pool.max_alloc in
    let parts =
      List.init
        ((size + chunk - 1) / chunk)
        (fun i ->
          let off = i * chunk in
          let b =
            Iobuf.Pool.alloc ~paged:true pool ~producer:kd (min chunk (size - off))
          in
          Iosys.with_fill_mode sys `Dma (fun () ->
              Filestore.fill_buffer store b ~file ~off);
          Iobuf.Buffer.seal b;
          Iobuf.Agg.of_buffer_owned b)
    in
    let agg = Iobuf.Agg.concat_list parts in
    List.iter Iobuf.Agg.free parts;
    Filecache.insert cache ~file ~off:0 agg
  in
  let rec go filled = function
    | [] -> filled
    | _ when Filecache.total_bytes cache >= budget -> filled
    | rank :: rest -> (
      match Filestore.lookup store (Wtrace.file_path ~rank) with
      | None -> go filled rest
      | Some file ->
        let size = Filestore.size store file in
        (* The kernel's own cache admission limit. *)
        if size = 0 || size > budget / 8 then go filled rest
        else begin
          let before = evictions () in
          load file size;
          if evictions () = before then go (filled + size) rest
          else filled + size
        end)
  in
  let filled = go 0 ranks in
  (filled, Filecache.total_bytes cache)

(* ------------------------------------------------------------------ *)
(* Web workloads                                                       *)
(* ------------------------------------------------------------------ *)

let clients = 64
let cgi_doc_size = 20 * 1024
let log_len = 400_000

type web_input = {
  trace : Wtrace.t;
  log : int array;
  prefix : int;  (** requests sample uniformly from [log.(0..prefix-1)] *)
  ranks : int list;  (** distinct files of the prefix, most popular first *)
}

(* The data set is fixed: the synthetic MERGED trace and the request log
   the paper's subtrace figures (9-11) draw from, so web-mem's 30 MB
   prefix is Fig. 10's 30 MB point. The seed drives the clients. *)
let web_input ~dataset_bytes =
  let trace = Wtrace.synthesize Wtrace.merged in
  let log = Wtrace.request_log trace ~seed:0x50B74ACEL ~count:log_len in
  let prefix =
    match dataset_bytes with
    | Some target -> Wtrace.prefix_for_dataset trace ~log ~target_bytes:target
    | None -> log_len
  in
  let seen = Array.make (Wtrace.file_count trace) false in
  for i = 0 to prefix - 1 do
    seen.(log.(i)) <- true
  done;
  let ranks = ref [] in
  for r = Array.length seen - 1 downto 0 do
    if seen.(r) then ranks := r :: !ranks
  done;
  { trace; log; prefix; ranks = !ranks }

let response_len size =
  String.length (Http.response_header ~content_length:size ()) + size

(* What one sub-run leaves behind for the report; the kernel itself is
   dropped, so the next sub-run starts from a clean heap. Operations,
   latencies and checks accumulate in the path's [leg]. *)
type result = {
  window : counts;  (** what the kernel did over the measured window *)
  traced : (string * float) list;  (** traced slice; [] when untraced *)
  setup_s : float;  (** host: kernel, files, warm start, server *)
  warm_s : float;  (** host: the warm start alone *)
  warm_fill : int;
  warm_resident : int;
  run_s : float;  (** host: inside [Engine.run], benchmark work excluded *)
  slice_s : float;  (** host: the first [traced_s] of the window alone *)
  steps : float list;  (** host: each [step_s] of [run_s], in run order *)
  alloc_words : float;
}

(* Warm-up, then the measured window. A traced sub-run arms tracing and
   attribution at the window start, stops after the traced slice and
   writes the Chrome trace. *)
let run_leg ?(cgi_served = fun () -> 0) k l ~trace_file ~setup_s ~warm_s
    ~warm_fill ~warm_resident =
  let engine = Kernel.engine k in
  l.ws <- warmup_s;
  l.we <- warmup_s +. window_s;
  let w0 = allocated_words () in
  let steps = ref [] in
  (* Host time to [until], benchmark work excluded, one step at a time. *)
  let run until =
    let rec go total =
      let t = Engine.now engine in
      if t >= until then total
      else begin
        let stop = Float.min until (step_s *. Float.floor ((t /. step_s) +. 1.0)) in
        let b0 = l.bench_host_s in
        let (), d = timed "engine.run" (fun () -> Engine.run ~until:stop engine) in
        let d = d -. (l.bench_host_s -. b0) in
        steps := d :: !steps;
        go (total +. d)
      end
    in
    go 0.0
  in
  let t_warm = run l.ws in
  let before = read_counts ~cgi_served k in
  if Option.is_some trace_file then begin
    Kernel.enable_tracing k;
    Otrace.set_capacity (Kernel.trace k) (Some 2_000_000);
    l.we <- l.ws +. traced_s
  end;
  let t_slice = run (l.ws +. traced_s) in
  let t_rest = if Option.is_some trace_file then 0.0 else run l.we in
  let alloc_words = allocated_words () -. w0 in
  let after = read_counts ~cgi_served k in
  let traced =
    match trace_file with
    | None -> []
    | Some file ->
      let m = traced_metrics k l in
      let sink = Otrace.Sink.create () in
      Otrace.Sink.absorb sink ~label:"IO-Lite kernel (virtual clock)"
        (Kernel.trace k);
      Otrace.Sink.absorb sink ~label:"benchmark (host clock)" host_trace;
      Otrace.Sink.write sink file;
      m
  in
  {
    window = diff ~before ~after;
    traced;
    setup_s;
    warm_s;
    warm_fill;
    warm_resident;
    run_s = t_warm +. t_slice +. t_rest;
    slice_s = t_slice;
    steps = List.rev !steps;
    alloc_words;
  }

let web_classes = [ "static"; "cgi" ]

let web_leg ~path ~input ~seed ~stream l ~trace_file =
  let (k, server), t_kernel =
    timed "setup.kernel" (fun () ->
        let k = make_kernel () in
        Wtrace.register_files input.trace k ~prefix_ranks:None;
        let variant =
          match path with
          | Iolite -> Flash.Iolite
          | Conventional -> Flash.Conventional
        in
        (k, Flash.start ~variant ~cgi_doc_size k ~port:80))
  in
  let (fill, resident), t_warm =
    timed "setup.warm" (fun () ->
        warm_start k ~path ~ranks:input.ranks)
  in
  let engine = Kernel.engine k in
  let listener = Flash.listener server in
  let store = Kernel.store k in
  let cache =
    match path with
    | Iolite -> Kernel.unified_cache k
    | Conventional -> Kernel.conv_cache k
  in
  (* Every client draws from its own stream, so both legs see the same
     per-client request sequences. *)
  let root =
    Rng.create (Int64.logxor seed (Int64.add 0x5EEDC11E47L (Int64.of_int stream)))
  in
  for c = 0 to clients - 1 do
    let rng = Rng.split root in
    Engine.spawn engine ~name:(Printf.sprintf "client-%d" c) (fun () ->
        let rec loop () =
          let url, cls, expect, resident =
            if Rng.int rng 10 = 0 then
              ("/cgi", "cgi", response_len cgi_doc_size, None)
            else
              let rank = input.log.(Rng.int rng input.prefix) in
              let url = Wtrace.file_path ~rank in
              let size = Wtrace.file_size input.trace ~rank in
              let resident =
                match Filestore.lookup store url with
                | Some file -> Filecache.file_bytes cache ~file >= size
                | None -> false
              in
              (url, "static", response_len size, Some resident)
          in
          let t0 = Engine.now engine in
          (match
             let conn = Sock.connect k listener in
             let n = Sock.request conn (Http.request_string url) in
             Sock.close conn;
             n
           with
          | n when n = expect ->
            finish ?resident l cls ~t0 ~t1:(Engine.now engine) ~bytes:n
          | n -> fail l (Printf.sprintf "%s: %d bytes, expected %d" url n expect)
          | exception Failure msg -> fail l (Printf.sprintf "%s: %s" url msg));
          loop ()
        in
        loop ())
  done;
  let cgi_served () =
    Option.fold ~none:0 ~some:Cgi.requests_served (Flash.cgi_handle server)
  in
  run_leg ~cgi_served k l ~trace_file
    ~setup_s:(t_kernel +. t_warm) ~warm_s:t_warm
    ~warm_fill:fill ~warm_resident:resident

(* ------------------------------------------------------------------ *)
(* file-rw: one writer, four readers, no network                       *)
(* ------------------------------------------------------------------ *)

let nfiles = 128
let blk = 4096

(* File sizes are fixed (not seeded): 128 KB to 384 KB in 4 KB steps,
   256 KB on average, 32 MB in all. Equal sizes would put the five
   processes into lockstep on the FIFO CPU, and every read would take
   the same virtual time. *)
let sizes =
  let r = Rng.create 0x512E5L in
  Array.init nfiles (fun _ -> blk * (32 + Rng.int r 65))
let wblocks = 16
let readers = 4
let magic = 0x10117E

(* The writer's payload for one 4 KB block: a header naming (file,
   block, generation) and a filler derived from them, so a reader can
   tell which write produced the bytes it got. *)
let payload ~fi ~block ~gen =
  let b = Bytes.create blk in
  Bytes.set_int32_le b 0 (Int32.of_int magic);
  Bytes.set_int32_le b 4 (Int32.of_int fi);
  Bytes.set_int32_le b 8 (Int32.of_int block);
  Bytes.set_int32_le b 12 (Int32.of_int gen);
  for i = 16 to blk - 1 do
    Bytes.unsafe_set b i
      (Char.unsafe_chr (((i * 131) + (fi * 7) + (block * 17) + (gen * 29)) land 255))
  done;
  b

let equal_range a aoff b boff len =
  let rec words i =
    if i + 8 > len then bytes i
    else
      Int64.equal (Bytes.get_int64_ne a (aoff + i)) (Bytes.get_int64_ne b (boff + i))
      && words (i + 8)
  and bytes i =
    i >= len
    || (Bytes.unsafe_get a (aoff + i) = Bytes.unsafe_get b (boff + i) && bytes (i + 1))
  in
  words 0

type rw_state = {
  files : int array;  (** file ids *)
  mirror : Bytes.t array;  (** latest written image of each file *)
  gens : int array array;  (** per 4 KB block: generations written so far *)
}

(* Every 4 KB block of a whole-file read must hold either the file's
   original contents or a payload the writer has written to that block.
   The common case is one comparison against the latest image. *)
let check_image st ~fi image =
  let fsize = sizes.(fi) in
  equal_range image 0 st.mirror.(fi) 0 fsize
  ||
  let file = st.files.(fi) in
  let block_ok block =
    let off = block * blk in
    Filestore.check_string ~file ~off (Bytes.sub_string image off blk)
    ||
    let gen = Int32.to_int (Bytes.get_int32_le image (off + 12)) in
    gen >= 1
    && gen <= st.gens.(fi).(block)
    && equal_range image off (payload ~fi ~block ~gen) 0 blk
  in
  let rec all b = b >= fsize / blk || (block_ok b && all (b + 1)) in
  all 0

let check_agg st ~fi agg =
  let fsize = sizes.(fi) in
  Iobuf.Agg.length agg = fsize
  &&
  let fast =
    Iobuf.Agg.fold_bytes agg ~init:(0, true) ~f:(fun (pos, ok) b off len ->
        (pos + len, ok && equal_range b off st.mirror.(fi) pos len))
  in
  snd fast
  ||
  let image = Bytes.create fsize in
  ignore
    (Iobuf.Agg.fold_bytes agg ~init:0 ~f:(fun pos b off len ->
         Bytes.blit b off image pos len;
         pos + len));
  check_image st ~fi image

(* Seeded visiting order: every file once per round, in a fresh random
   order each round, so each process spreads its work over the whole
   set the same way whatever the seed. *)
let shuffled_files rng =
  let order = Array.init nfiles Fun.id and next = ref nfiles in
  fun () ->
    if !next = nfiles then begin
      Rng.shuffle rng order;
      next := 0
    end;
    incr next;
    order.(!next - 1)

(* Run [f] as one attributed request when the kernel is observing. *)
let as_request k ~tag f =
  if Kernel.observing k then begin
    let id = Flow.fresh (Kernel.flow k) in
    let a = Kernel.attrib k in
    Proc.with_ctx id (fun () ->
        Attrib.begin_request a ~ctx:id ~tag;
        let r = f () in
        Attrib.end_request a ~ctx:id;
        r)
  end
  else f ()

let file_classes = [ "read"; "rewrite"; "write"; "fsync" ]

let file_leg ~path ~seed ~stream l ~trace_file =
  let (k, st), t_setup =
    timed "setup.kernel" (fun () ->
        let k = make_kernel () in
        let files =
          Array.init nfiles (fun i ->
              Kernel.add_file k ~name:(Printf.sprintf "/rw/%03d" i) ~size:sizes.(i))
        in
        let mirror =
          Array.map
            (fun file ->
              Bytes.init (Filestore.size (Kernel.store k) file) (fun off ->
                  Filestore.content_byte ~file ~off))
            files
        in
        let gens = Array.map (fun size -> Array.make (size / blk) 0) sizes in
        (k, { files; mirror; gens }))
  in
  let engine = Kernel.engine k in
  let now () = Engine.now engine in
  let guard what f =
    try f () with e -> fail l (Printf.sprintf "%s: %s" what (Printexc.to_string e))
  in
  let root =
    Rng.create (Int64.logxor seed (Int64.add 0xF11E5EEDL (Int64.of_int stream)))
  in
  let wrng = Rng.split root in
  let wnext = shuffled_files wrng in
  ignore
    (Process.spawn k ~name:"writer" (fun proc ->
         let rec loop () =
           let fi = wnext () in
           let first = Rng.int wrng ((sizes.(fi) / blk) - wblocks + 1) in
           let file = st.files.(fi) in
           guard "rewrite" (fun () ->
               let t0 = now () in
               as_request k ~tag:"rewrite" (fun () ->
                   for j = 0 to wblocks - 1 do
                     let block = first + j in
                     let data =
                       bench_work l (fun () ->
                           let gen = st.gens.(fi).(block) + 1 in
                           st.gens.(fi).(block) <- gen;
                           let b = payload ~fi ~block ~gen in
                           Bytes.blit b 0 st.mirror.(fi) (block * blk) blk;
                           Bytes.unsafe_to_string b)
                     in
                     let off = block * blk in
                     let tw = now () in
                     (match path with
                     | Iolite ->
                       Fileio.iol_write proc ~file ~off
                         (Iobuf.Agg.of_string (Process.pool proc)
                            ~producer:(Process.domain proc) data)
                     | Conventional -> Fileio.write_string proc ~file ~off data);
                     sample l "write" ~t0:tw ~t1:(now ())
                   done;
                   let tf = now () in
                   Fileio.fsync proc ~file;
                   sample l "fsync" ~t0:tf ~t1:(now ()));
               finish l "rewrite" ~t0 ~t1:(now ()) ~bytes:(wblocks * blk));
           loop ()
         in
         loop ()));
  for r = 0 to readers - 1 do
    let next = shuffled_files (Rng.split root) in
    ignore
      (Process.spawn k ~name:(Printf.sprintf "reader-%d" r) (fun proc ->
           let rec loop () =
             let fi = next () in
             let file = st.files.(fi) in
             let fsize = sizes.(fi) in
             guard "read" (fun () ->
                 let t0 = now () in
                 let resident =
                   Filecache.file_bytes (Kernel.unified_cache k) ~file >= fsize
                 in
                 let ok =
                   as_request k ~tag:"read" (fun () ->
                       match path with
                       | Iolite ->
                         let agg = Fileio.iol_read proc ~file ~off:0 ~len:fsize in
                         let ok = bench_work l (fun () -> check_agg st ~fi agg) in
                         Iobuf.Agg.free agg;
                         ok
                       | Conventional ->
                         let s = Fileio.read_string proc ~file ~off:0 ~len:fsize in
                         bench_work l (fun () ->
                             String.length s = fsize
                             && check_image st ~fi (Bytes.unsafe_of_string s)))
                 in
                 if ok then finish ~resident l "read" ~t0 ~t1:(now ()) ~bytes:fsize
                 else fail l (Printf.sprintf "read /rw/%03d: content check failed" fi));
             loop ()
           in
           loop ()))
  done;
  run_leg k l ~trace_file ~setup_s:t_setup ~warm_s:0.0 ~warm_fill:0 ~warm_resident:0

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_floats l = json_obj (List.map (fun (k, v) -> (k, json_float v)) l)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (web-mem|web-disk|file-rw) --seed N [--traced FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and trace_file = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := w;
      parse rest
    | "--seed" :: n :: rest ->
      (match Int64.of_string_opt n with
      | Some n -> seed := Some n
      | None -> usage ());
      parse rest
    | "--traced" :: f :: rest ->
      trace_file := Some f;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let trace_file = !trace_file in
  if Option.is_some trace_file then
    Otrace.enable host_trace
      ~clock:(fun () -> Unix.gettimeofday () -. host_origin)
      ~scope:(fun () -> Some "bench");
  (* web-disk runs two sub-runs per path, each on fresh kernels with its
     own client streams: its throughput and tail vary with which cold
     files the streams hit, and one 20 s window leaves that too noisy. *)
  let run_sub, classes, subruns, trace_s =
    match !workload with
    | "web-mem" ->
      let input, trace_s =
        timed "setup.trace" (fun () ->
            web_input ~dataset_bytes:(Some (30 * 1024 * 1024)))
      in
      (web_leg ~input, web_classes, 1, trace_s)
    | "web-disk" ->
      let input, trace_s =
        timed "setup.trace" (fun () -> web_input ~dataset_bytes:None)
      in
      (web_leg ~input, web_classes, 2, trace_s)
    | "file-rw" -> (file_leg, file_classes, 1, 0.0)
    | _ -> usage ()
  in
  let run_path path ~trace_file =
    let l = new_leg classes in
    let n = if Option.is_some trace_file then 1 else subruns in
    let rs =
      List.init n (fun stream ->
          run_sub ~path ~seed ~stream l
            ~trace_file:(if stream = 0 then trace_file else None))
    in
    (l, rs, float_of_int n *. (l.we -. l.ws))
  in
  let paths =
    run_path Iolite ~trace_file
    :: (if Option.is_some trace_file then []
        else [ run_path Conventional ~trace_file:None ])
  in
  let sum f = List.fold_left (fun acc (_, rs, _) ->
      List.fold_left (fun acc r -> acc +. f r) acc rs) 0.0 paths in
  let isum f = List.fold_left (fun acc (l, _, _) -> acc + f l) 0 paths in
  let mbps (l, _, seconds) = float_of_int (8 * l.win_bytes) /. seconds /. 1e6 in
  let ((io_leg, io_rs, io_seconds) as io) = List.hd paths in
  let io0 = List.hd io_rs in
  let lat = Samples.sorted io_leg.all in
  let speedup =
    match paths with
    | [ _; conv ] ->
      [ ("sim_speedup", ratio (mbps io) (mbps conv)); ("conv.sim_mbps", mbps conv) ]
    | _ -> []
  in
  let window =
    List.fold_left (fun acc r -> add acc r.window) io0.window (List.tl io_rs)
  in
  let virt =
    [
      ("sim_mbps", mbps io);
      ("sim_p50_ms", 1e3 *. percentile lat 0.5);
      ("sim_p99_ms", 1e3 *. percentile lat 0.99);
    ]
    @ speedup
    @ layer_metrics io_leg window ~seconds:io_seconds
    @ [
        ("setup.warm_fill_mb", float_of_int io0.warm_fill /. 1048576.0);
        ("setup.warm_resident_mb", float_of_int io0.warm_resident /. 1048576.0);
      ]
  in
  let ops = isum (fun l -> l.ops) in
  let host =
    [
      ("setup_s", trace_s +. sum (fun r -> r.setup_s));
      ("setup.trace_s", trace_s);
      ("setup.warm_s", sum (fun r -> r.warm_s));
      ("run_s", sum (fun r -> r.run_s));
      ("ops", float_of_int ops);
      ("alloc_words", sum (fun r -> r.alloc_words));
      ("slice_s", io0.slice_s);
      ( "heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0 );
    ]
  in
  let errors = List.concat_map (fun (l, _, _) -> List.rev l.errors) paths in
  print_endline
    (json_obj
       [
         ("workload", json_string !workload);
         ("seed", Int64.to_string seed);
         ("virtual", json_floats virt);
         ("host", json_floats host);
         ( "steps",
           "[" ^ String.concat ", "
                   (List.concat_map
                      (fun (_, rs, _) ->
                        List.concat_map (fun r -> List.map json_float r.steps) rs)
                      paths)
           ^ "]" );
         ("traced", json_floats io0.traced);
         ("attempted", string_of_int ops);
         ("failed", string_of_int (isum (fun l -> l.failed)));
         ("errors", "[" ^ String.concat ", " (List.map json_string errors) ^ "]");
       ])

open Iolite_fs
module Engine = Iolite_sim.Engine
module Proc = Engine.Proc

let run_sim f =
  let e = Engine.create () in
  Engine.spawn e f;
  Engine.run e;
  Engine.now e

(* FIFO reference model: what a device servicing [(op, file, off,
   bytes)] one at a time in arrival order counts — (completions, reads,
   writes, bytes read, bytes written) — and charges, with the
   sequential discount against the previous request. The queued
   elevator is checked against it. *)
let fifo_model ~positioning_s ~sequential_positioning_s ~bytes_per_sec reqs =
  let n = ref 0 and reads = ref 0 and writes = ref 0 in
  let rbytes = ref 0 and wbytes = ref 0 in
  let time = ref 0.0 and last = ref (-1, -1) in
  List.iter
    (fun (op, file, off, bytes) ->
      incr n;
      if op = `Read then (incr reads; rbytes := !rbytes + bytes)
      else (incr writes; wbytes := !wbytes + bytes);
      let pos =
        if !last = (file, off) then sequential_positioning_s else positioning_s
      in
      time := !time +. pos +. (float_of_int bytes /. bytes_per_sec);
      last := (file, off + bytes))
    reqs;
  ((!n, !reads, !writes, !rbytes, !wbytes), !time)

(* A serial request stream pays exactly position-then-transfer per
   request, discounted when sequential. *)
let test_disk_latency_model () =
  let d =
    Disk.create ~positioning_s:0.008 ~sequential_positioning_s:0.0005
      ~bytes_per_sec:12e6 ()
  in
  let elapsed =
    run_sim (fun () ->
        Disk.read d ~file:1 ~off:0 ~bytes:120_000;
        (* Sequential follow-up is cheap. *)
        Disk.read d ~file:1 ~off:120_000 ~bytes:120_000;
        (* Different file seeks again. *)
        Disk.read d ~file:2 ~off:0 ~bytes:0)
  in
  let expect = 0.008 +. 0.01 +. 0.0005 +. 0.01 +. 0.008 in
  Alcotest.(check (float 1e-6)) "latency" expect elapsed;
  Alcotest.(check int) "reads counted" 3 (Disk.reads d);
  Alcotest.(check int) "bytes counted" 240_000 (Disk.bytes_read d)

let test_disk_fifo_queueing () =
  let d = Disk.create ~positioning_s:0.01 ~bytes_per_sec:1e9 () in
  let order = ref [] in
  let e = Engine.create () in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        Disk.read d ~file:i ~off:0 ~bytes:1;
        order := i :: !order)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo service" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 1e-6)) "serialized" 0.03 (Engine.now e)

let test_disk_write_accounting () =
  let d = Disk.create () in
  ignore
    (run_sim (fun () -> Disk.write d ~file:1 ~off:0 ~bytes:5000));
  Alcotest.(check int) "writes" 1 (Disk.writes d);
  Alcotest.(check int) "bytes written" 5000 (Disk.bytes_written d);
  Alcotest.(check bool) "busy time positive" true (Disk.busy_time d > 0.0)

(* Contiguous requests from different fibers, submitted interleaved:
   the elevator sorts them back into file order inside the batch so the
   later half rides the sequential discount. Arrival (FIFO) order pays
   full positioning for both. *)
let test_disk_elevator_discount () =
  let positioning_s = 0.01 and sequential_positioning_s = 0.001 in
  let bytes_per_sec = 1e9 in
  (* Arrival order: second half first, then an unrelated file, then
     the first half. *)
  let arrivals = [ (1, 1000); (9, 0); (1, 0) ] in
  let d = Disk.create ~positioning_s ~sequential_positioning_s ~bytes_per_sec () in
  let e = Engine.create () in
  List.iter
    (fun (file, off) ->
      Engine.spawn e (fun () -> Disk.read d ~file ~off ~bytes:1000))
    arrivals;
  Engine.run e;
  let _, fifo_time =
    fifo_model ~positioning_s ~sequential_positioning_s ~bytes_per_sec
      (List.map (fun (file, off) -> (`Read, file, off, 1000)) arrivals)
  in
  (* Elevator order is 1:0, 1:1000 (discounted), 9:0. *)
  Alcotest.(check (float 1e-9)) "fifo: three full seeks" 0.030003 fifo_time;
  Alcotest.(check (float 1e-9)) "queued: one discounted" 0.021003
    (Engine.now e)

(* An async submission overlaps the submitter's own compute: total
   elapsed is max(cpu, disk), not the sum. *)
let test_disk_async_overlap () =
  let d = Disk.create ~positioning_s:0.01 ~bytes_per_sec:1e9 () in
  let completed_at = ref nan in
  let elapsed =
    run_sim (fun () ->
        Disk.submit d ~op:`Read ~file:1 ~off:0 ~bytes:1000 (fun () ->
            completed_at := Proc.now ());
        (* Compute while the disk positions and transfers. *)
        Proc.sleep 0.05)
  in
  Alcotest.(check (float 1e-9)) "disk done during compute" 0.010001
    !completed_at;
  Alcotest.(check (float 1e-9)) "total is max, not sum" 0.05 elapsed;
  Alcotest.(check int) "read accounted" 1 (Disk.reads d)

(* qcheck oracle: the queued elevator services exactly the multiset of
   requests the FIFO model does (same op/byte totals, every completion
   fires) and never starves — with at most [qdepth] requests
   outstanding, a request admitted while batch [k] is in flight
   completes by batch [k+1]. *)
let test_disk_elevator_oracle =
  let gen =
    QCheck.Gen.(list_size (1 -- 24) (triple (0 -- 4) (0 -- 15) (1 -- 5000)))
  in
  QCheck.Test.make ~count:60 ~name:"elevator services FIFO's multiset"
    (QCheck.make gen) (fun reqs ->
      let op_of i = if i mod 4 = 0 then `Write else `Read in
      let serve () =
        let d =
          Disk.create ~qdepth:24 ~positioning_s:0.01
            ~sequential_positioning_s:0.001 ~bytes_per_sec:1e6 ()
        in
        let e = Engine.create () in
        let done_ = ref 0 in
        List.iteri
          (fun i (file, block, bytes) ->
            Engine.spawn e (fun () ->
                (* Stagger some submissions into later batches. *)
                if i mod 3 = 2 then Proc.sleep 0.005;
                let submit_batch = Disk.batches d in
                Disk.submit d ~op:(op_of i) ~file ~off:(block * 4096) ~bytes
                  (fun () ->
                    incr done_;
                    let turn = Disk.batches d - submit_batch in
                    if turn > 1 then
                      Alcotest.failf "starved: waited %d batch turns" turn)))
          reqs;
        Engine.run e;
        (!done_, Disk.reads d, Disk.writes d, Disk.bytes_read d,
         Disk.bytes_written d)
      in
      let counts, _ =
        fifo_model ~positioning_s:0.01 ~sequential_positioning_s:0.001
          ~bytes_per_sec:1e6
          (List.mapi
             (fun i (file, block, bytes) -> (op_of i, file, block * 4096, bytes))
             reqs)
      in
      serve () = counts)

let test_filestore_registration () =
  let fs = Filestore.create () in
  let a = Filestore.add fs ~name:"/a" ~size:100 in
  let b = Filestore.add fs ~name:"/b" ~size:2000 in
  Alcotest.(check int) "count" 2 (Filestore.file_count fs);
  Alcotest.(check int) "total" 2100 (Filestore.total_bytes fs);
  Alcotest.(check (option int)) "lookup a" (Some a) (Filestore.lookup fs "/a");
  Alcotest.(check (option int)) "lookup b" (Some b) (Filestore.lookup fs "/b");
  Alcotest.(check (option int)) "lookup missing" None (Filestore.lookup fs "/c");
  Alcotest.(check string) "name" "/b" (Filestore.name fs b);
  Alcotest.(check int) "size" 2000 (Filestore.size fs b);
  Alcotest.(check bool) "metadata grows" true (Filestore.metadata_bytes fs > 0)

let test_filestore_duplicate_rejected () =
  let fs = Filestore.create () in
  ignore (Filestore.add fs ~name:"/a" ~size:1);
  Alcotest.(check bool) "duplicate" true
    (match Filestore.add fs ~name:"/a" ~size:2 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_filestore_unknown_id () =
  let fs = Filestore.create () in
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Filestore.size fs 42))

let test_content_deterministic () =
  for file = 0 to 3 do
    for off = 0 to 100 do
      Alcotest.(check char) "stable content"
        (Filestore.content_byte ~file ~off)
        (Filestore.content_byte ~file ~off)
    done
  done;
  (* Different files differ somewhere. *)
  let differs = ref false in
  for off = 0 to 63 do
    if Filestore.content_byte ~file:1 ~off <> Filestore.content_byte ~file:2 ~off
    then differs := true
  done;
  Alcotest.(check bool) "files differ" true !differs

let test_content_has_newlines () =
  let newlines = ref 0 in
  for off = 0 to 9999 do
    if Filestore.content_byte ~file:5 ~off = '\n' then incr newlines
  done;
  (* Roughly 1/96 of bytes. *)
  Alcotest.(check bool) "newline density plausible" true
    (!newlines > 40 && !newlines < 250)

let test_fill_buffer_and_check () =
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"t"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let fs = Filestore.create () in
  let file = Filestore.add fs ~name:"/x" ~size:10_000 in
  let b = Iolite_core.Iobuf.Pool.alloc pool ~producer:d 512 in
  Filestore.fill_buffer fs b ~file ~off:100;
  Iolite_core.Iobuf.Buffer.seal b;
  let agg = Iolite_core.Iobuf.Agg.of_buffer_owned b in
  let s = Iolite_core.Iobuf.Agg.to_string sys agg in
  Alcotest.(check bool) "contents match generator" true
    (Filestore.check_string ~file ~off:100 s);
  Alcotest.(check bool) "offset matters" false
    (Filestore.check_string ~file ~off:0 s);
  Iolite_core.Iobuf.Agg.free agg

(* The content function as it was first written, one byte at a time:
   the oracle for every bulk path. Keep it verbatim. *)
let reference_byte ~file ~off =
  let z = (file * 0x9E3779B9) lxor (off * 0x85EBCA6B) in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  let z = z lxor (z lsr 16) in
  let v = abs z mod 96 in
  if v = 95 then '\n' else Char.chr (32 + v)

let reference ~file ~off len =
  String.init len (fun i -> reference_byte ~file ~off:(off + i))

(* Frozen literals: a change to the content function, or to the
   reference above, fails here first. *)
let test_content_golden () =
  List.iter
    (fun (what, file, off, golden) ->
      Alcotest.(check string) (what ^ " reference") golden (reference ~file ~off 64);
      let b = Bytes.create 64 in
      Filestore.fill_bytes b 0 64 ~file ~off;
      Alcotest.(check string) (what ^ " fill_bytes") golden (Bytes.to_string b);
      Alcotest.(check string) (what ^ " content_byte") golden
        (String.init 64 (fun i -> Filestore.content_byte ~file ~off:(off + i))))
    [
      ( "file 0 at 0", 0, 0,
        " )rO5c tKSHt]ByS$X\n</kB,/.[xPR;EXJ6&pwYH]0TR=~'J0@{xKYo,?m%:Es7(" );
      ( "file 7 at 1 MiB", 7, 1 lsl 20,
        "(D)>S]WHhlOO*Oa)Ov0<$J*VKo2i=K(7]J?X>QmAuTy%n`b_>F7tjv<sBGAxXWV$" );
    ]

(* Every bulk path equals the reference byte for byte. [fill_buffer]
   needs a registered file, so it runs on one of [stored] files at the
   same offset, over at most one buffer. *)
let test_content_oracle =
  let stored = 16 in
  let sys = Iolite_core.Iosys.create () in
  let d = Iolite_core.Iosys.new_domain sys ~name:"d" in
  let pool =
    Iolite_core.Iobuf.Pool.create sys ~name:"oracle"
      ~acl:(Iolite_mem.Vm.Only (Iolite_mem.Pdomain.Set.singleton d))
  in
  let fs = Filestore.create () in
  for i = 0 to stored - 1 do
    ignore (Filestore.add fs ~name:(Printf.sprintf "/f%d" i) ~size:0)
  done;
  let gen =
    QCheck.Gen.(
      map
        (fun (file, off, pos, (len, flip)) -> (file, off, pos, len, flip))
        (quad (0 -- (1 lsl 20)) (0 -- (1 lsl 40)) (0 -- 100)
           (pair (0 -- (70 * 1024)) (0 -- max_int))))
  in
  let print (file, off, pos, len, flip) =
    Printf.sprintf "file=%d off=%d pos=%d len=%d flip=%d" file off pos len flip
  in
  QCheck.Test.make ~count:100 ~name:"bulk content equals the reference"
    (QCheck.make ~print gen) (fun (file, off, pos, len, flip) ->
      let expect = reference ~file ~off len in
      (* fill_bytes, at a destination offset, leaving its neighbours. *)
      let data = Bytes.make (pos + len + 8) '#' in
      Filestore.fill_bytes data pos len ~file ~off;
      let bulk_ok =
        Bytes.sub_string data pos len = expect
        && Bytes.sub_string data 0 pos = String.make pos '#'
        && Bytes.sub_string data (pos + len) 8 = "########"
      in
      let byte_ok =
        String.init len (fun i -> Filestore.content_byte ~file ~off:(off + i))
        = expect
      in
      let buffer_ok =
        let file = file mod stored in
        let n = max 1 (min len Iolite_core.Iobuf.Pool.max_alloc) in
        let b = Iolite_core.Iobuf.Pool.alloc pool ~producer:d n in
        Filestore.fill_buffer fs b ~file ~off;
        let got = Iolite_core.Iobuf.Buffer.sub_string b ~off:0 ~len:n in
        Iolite_core.Iobuf.Buffer.decr_ref b;
        got = reference ~file ~off n
      in
      (* Changing any one byte by a nonzero amount mod 256 is caught:
         the first, the last and a random one. *)
      let rejects i =
        let delta = 1 + ((flip lsr 20) mod 255) in
        let bad = Bytes.of_string expect in
        Bytes.set bad i (Char.chr ((Char.code expect.[i] + delta) land 255));
        not (Filestore.check_string ~file ~off (Bytes.to_string bad))
      in
      let check_ok =
        Filestore.check_string ~file ~off expect
        && (len = 0 || List.for_all rejects [ 0; len - 1; flip mod len ])
      in
      bulk_ok && byte_ok && buffer_ok && check_ok)

let test_iter () =
  let fs = Filestore.create () in
  ignore (Filestore.add fs ~name:"/a" ~size:10);
  ignore (Filestore.add fs ~name:"/b" ~size:20);
  let seen = ref [] in
  Filestore.iter fs (fun id ~name ~size -> seen := (id, name, size) :: !seen);
  Alcotest.(check int) "visited all" 2 (List.length !seen)

let suites =
  [
    ( "fs.disk",
      [
        Alcotest.test_case "latency model" `Quick test_disk_latency_model;
        Alcotest.test_case "fifo queueing" `Quick test_disk_fifo_queueing;
        Alcotest.test_case "write accounting" `Quick test_disk_write_accounting;
        Alcotest.test_case "elevator discount" `Quick test_disk_elevator_discount;
        Alcotest.test_case "async overlap" `Quick test_disk_async_overlap;
        QCheck_alcotest.to_alcotest test_disk_elevator_oracle;
      ] );
    ( "fs.filestore",
      [
        Alcotest.test_case "registration" `Quick test_filestore_registration;
        Alcotest.test_case "duplicate rejected" `Quick test_filestore_duplicate_rejected;
        Alcotest.test_case "unknown id" `Quick test_filestore_unknown_id;
        Alcotest.test_case "deterministic content" `Quick test_content_deterministic;
        Alcotest.test_case "newline density" `Quick test_content_has_newlines;
        Alcotest.test_case "fill buffer" `Quick test_fill_buffer_and_check;
        Alcotest.test_case "golden content" `Quick test_content_golden;
        QCheck_alcotest.to_alcotest test_content_oracle;
        Alcotest.test_case "iter" `Quick test_iter;
      ] );
  ]

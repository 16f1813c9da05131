(* The extension-sweep registry at its test-suite size: every
   scenario's acceptance assertions, same-seed determinism of the
   virtual fields, the declared fields against the committed histories'
   headers and entry lines, and the history appender. *)

module S = Iolite_workload.Scenario
module E = Iolite_workload.Experiments

let scenario name = List.find (fun (s : S.t) -> s.name = name) E.scenarios

(* One tiny run per scenario, shared by the check, determinism and
   schema cases. *)
let tiny =
  List.map (fun (s : S.t) -> (s.name, lazy (s.run S.Tiny))) E.scenarios

let runs name = Lazy.force (List.assoc name tiny)

let check_case name =
  Alcotest.test_case (name ^ " check at tiny") `Quick (fun () ->
      match (scenario name).check (runs name) with
      | Ok () -> ()
      | Error failed -> Alcotest.fail (String.concat "; " failed))

(* --------------------------- determinism -------------------------- *)

(* Host-clock fields (wall_ns_per_req, timer_ns_per_op) measure the
   simulator, not the model; everything else must repeat exactly. *)
let virtual_only row = List.filter (fun (f : S.field) -> f.clock <> S.Host) row

let same_rows what first again =
  let show rows =
    S.json_of_run ~label:what
      { S.suffix = ""; entries = rows; extras = []; report = ignore }
  in
  let first = List.map virtual_only first
  and again = List.map virtual_only again in
  Alcotest.(check string) (what ^ " rows repeat") (show first) (show again);
  Alcotest.(check bool) (what ^ " values repeat exactly") true (first = again)

let entries name = List.concat_map (fun (r : S.run) -> r.entries) (runs name)

let rerun_case name =
  Alcotest.test_case (name ^ " repeats at the same seed") `Quick (fun () ->
      let again =
        List.concat_map
          (fun (r : S.run) -> r.entries)
          ((scenario name).run S.Tiny)
      in
      same_rows name (entries name) again)

let test_write_sweep_repeats () =
  same_rows "write sweep" (entries "write") (E.write_sweep ())

let test_tier_probe_repeats () =
  let probe =
    List.concat_map
      (fun (r : S.run) -> Option.to_list (List.assoc_opt "probe" r.extras))
      (runs "tier")
  in
  same_rows "tier probe" probe [ E.tier_probe_run () ]

(* ------------------------ committed histories --------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let committed (s : S.t) = read_file (Filename.concat ".." s.file)

(* The "units" object of a history: one ["key": "unit"] pair a line. *)
let units_of text =
  let start = Str.search_forward (Str.regexp_string "\"units\": {\n") text 0 in
  let stop = Str.search_forward (Str.regexp_string "\n  }") text start in
  String.sub text start (stop - start)
  |> String.split_on_char '\n'
  |> List.tl
  |> List.map (fun line -> Scanf.sscanf line " %S: %S" (fun k v -> (k, v)))

(* Keys a committed history declares for its recorded runs only. *)
let recorded_only = [ "eager_over_delayed_disk_ops" ]

let test_units_match_committed () =
  List.iter
    (fun (s : S.t) ->
      let declared = S.units (runs s.name) in
      let recorded = units_of (committed s) in
      let sort = List.sort compare in
      Alcotest.(check (list (pair string string)))
        (s.file ^ " units = declared fields")
        (sort declared)
        (sort
           (List.filter (fun (k, _) -> not (List.mem k recorded_only)) recorded)))
    E.scenarios

(* Keys of a JSON object line, in order. *)
let keys line =
  let re = Str.regexp "\"\\([a-z_0-9]+\\)\": " in
  let rec go pos acc =
    match Str.search_forward re line pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (Str.matched_group 1 line :: acc)
  in
  go 0 []

let is_prefix p l =
  List.length p <= List.length l && List.filteri (fun i _ -> i < List.length p) l = p

(* The newest committed entry line's keys lead the declared fields in
   declared order (later fields are appended), and each committed extra
   row has exactly the declared keys, so a fresh run appends lines of
   the same shape. *)
let test_entry_keys_match_committed () =
  List.iter
    (fun (s : S.t) ->
      let lines = String.split_on_char '\n' (committed s) in
      let newest_with prefix =
        List.fold_left
          (fun acc l -> if String.starts_with ~prefix l then Some l else acc)
          None lines
        |> Option.get
      in
      let run = List.nth (runs s.name) (List.length (runs s.name) - 1) in
      let names row = List.map (fun (f : S.field) -> f.name) row in
      let declared = names (List.hd run.entries) in
      let recorded = keys (newest_with "        {\"") in
      Alcotest.(check bool)
        (Printf.sprintf "%s entry keys [%s] lead the declared [%s]" s.file
           (String.concat "," recorded) (String.concat "," declared))
        true (is_prefix recorded declared);
      List.iter
        (fun (name, row) ->
          Alcotest.(check (list string))
            (s.file ^ " " ^ name ^ " keys")
            (List.tl (keys (newest_with (Printf.sprintf "      %S: {" name))))
            (names row))
        run.extras)
    E.scenarios

(* The write check's constant is the recorded write-through point. *)
let test_recorded_eager_point () =
  let eager =
    List.find
      (fun l -> Str.string_match (Str.regexp ".*\"point\": \"eager\"") l 0)
      (String.split_on_char '\n' (committed (scenario "write")))
  in
  let field k =
    let re = Str.regexp (Printf.sprintf "\"%s\": \\([0-9]+\\)" k) in
    ignore (Str.search_forward re eager 0);
    int_of_string (Str.matched_group 1 eager)
  in
  Alcotest.(check int) "eager writes" 576 (field "writes");
  Alcotest.(check int) "eager disk writes" 576 (field "disk_writes")

(* ----------------------------- appender ---------------------------- *)

let units = [ ("n", "count") ]
let run_json label = Printf.sprintf "    {\n      \"label\": %S\n    }" label

let temp_path () =
  let p = Filename.temp_file "bench" ".json" in
  Sys.remove p;
  p

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A history's bytes before its closing "\n  ]\n}". *)
let runs_prefix text =
  let body = String.trim text in
  String.sub body 0 (String.length body - String.length "\n  ]\n}")

let append out label =
  S.append_json_text ~benchmark:"b" ~units ~out ~run_json:(run_json label)

let test_fresh_file_gets_header () =
  let out = temp_path () in
  Alcotest.(check (result string string)) "wrote" (Ok "wrote") (append out "r1");
  Alcotest.(check string) "fresh history"
    "{\n  \"benchmark\": \"b\",\n  \"units\": {\n    \"n\": \"count\"\n  },\n\
    \  \"runs\": [\n    {\n      \"label\": \"r1\"\n    }\n  ]\n}\n"
    (read_file out);
  Sys.remove out

let test_append_keeps_earlier_runs () =
  List.iter
    (fun trailing ->
      let out = temp_path () in
      ignore (append out "r1");
      let before = read_file out in
      let kept = runs_prefix before in
      write_file out (String.trim before ^ trailing);
      Alcotest.(check (result string string))
        "appended" (Ok "appended run to") (append out "r2");
      let after = read_file out in
      Alcotest.(check string) "earlier bytes kept" kept
        (String.sub after 0 (String.length kept));
      Alcotest.(check string) "new run appended, history closed"
        (",\n" ^ run_json "r2" ^ "\n  ]\n}\n")
        (String.sub after (String.length kept)
           (String.length after - String.length kept));
      Sys.remove out)
    [ ""; "\n"; " \n\t\n" ]

let test_append_to_committed_history () =
  List.iter
    (fun (s : S.t) ->
      let before = committed s in
      let out = temp_path () in
      write_file out before;
      let last = List.nth (runs s.name) (List.length (runs s.name) - 1) in
      let run_json = S.json_of_run ~label:"test" last in
      ignore
        (S.append_json_text ~benchmark:s.benchmark ~units ~out ~run_json);
      let kept = runs_prefix before in
      Alcotest.(check string)
        (s.file ^ " prefix kept")
        (kept ^ ",\n" ^ run_json ^ "\n  ]\n}\n")
        (read_file out);
      Sys.remove out)
    E.scenarios

let test_malformed_left_untouched () =
  let out = temp_path () in
  let junk = "{\n  \"runs\": [\n    {}\n  ],\n  \"extra\": 1\n}\n" in
  write_file out junk;
  (match append out "r" with
  | Ok v -> Alcotest.failf "malformed history accepted (%s)" v
  | Error _ -> ());
  Alcotest.(check string) "file untouched" junk (read_file out);
  Sys.remove out

let () =
  Alcotest.run "scenarios"
    [
      ( "scenarios",
        List.map check_case [ "scale"; "async"; "write"; "tier" ]
        @ [
            rerun_case "scale";
            rerun_case "async";
            Alcotest.test_case "write sweep repeats at the same seed" `Quick
              test_write_sweep_repeats;
            Alcotest.test_case "tier probe repeats at the same seed" `Quick
              test_tier_probe_repeats;
            Alcotest.test_case "units match committed headers" `Quick
              test_units_match_committed;
            Alcotest.test_case "entry keys match committed lines" `Quick
              test_entry_keys_match_committed;
            Alcotest.test_case "recorded eager point" `Quick
              test_recorded_eager_point;
          ] );
      ( "history",
        [
          Alcotest.test_case "fresh file gets units header" `Quick
            test_fresh_file_gets_header;
          Alcotest.test_case "append keeps earlier runs" `Quick
            test_append_keeps_earlier_runs;
          Alcotest.test_case "append to committed histories" `Quick
            test_append_to_committed_history;
          Alcotest.test_case "malformed history left untouched" `Quick
            test_malformed_left_untouched;
        ] );
    ]

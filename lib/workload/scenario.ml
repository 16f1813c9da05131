type clock = Virtual | Host | Plain
type value = Int of int | Str of string | Float of int * float
type field = { name : string; unit : string; clock : clock; value : value }
type row = field list

let count name v = { name; unit = "count"; clock = Plain; value = Int v }
let int name ~unit v = { name; unit; clock = Plain; value = Int v }

let float ?(clock = Virtual) name ~unit ~dp v =
  { name; unit; clock; value = Float (dp, v) }

let str name v = { name; unit = ""; clock = Plain; value = Str v }

let unit_label f =
  match f.clock with
  | Virtual -> f.unit ^ " (virtual)"
  | Host -> f.unit ^ " (host wall-clock)"
  | Plain -> f.unit

let find row name =
  match List.find_opt (fun f -> f.name = name) row with
  | Some f -> f.value
  | None -> invalid_arg ("Scenario: no field " ^ name)

let get_int row name =
  match find row name with
  | Int v -> v
  | _ -> invalid_arg ("Scenario: not an int field: " ^ name)

let get_float row name =
  match find row name with
  | Float (_, v) -> v
  | _ -> invalid_arg ("Scenario: not a float field: " ^ name)

let get_str row name =
  match find row name with
  | Str v -> v
  | _ -> invalid_arg ("Scenario: not a string field: " ^ name)

type run = {
  suffix : string;
  entries : row list;
  extras : (string * row) list;
  report : unit -> unit;
}

type size = Full | Tiny

type t = {
  name : string;
  doc : string;
  file : string;
  benchmark : string;
  run : size -> run list;
  check : run list -> (unit, string list) result;
}

let one ?(suffix = "") ?(extras = []) ?(report = ignore) entries =
  { suffix; entries; extras; report }

let verdict conds =
  match List.filter_map (fun (ok, msg) -> if ok then None else Some msg) conds with
  | [] -> Ok ()
  | failed -> Error failed

let each_entry f runs =
  verdict (List.concat_map (fun r -> List.concat_map f r.entries) runs)

let extra run name = List.assoc name run.extras

let sum run name =
  List.fold_left (fun acc e -> acc + get_int e name) 0 run.entries

let units runs =
  let named prefix row = List.map (fun (f : field) -> (prefix ^ f.name, f)) row in
  List.concat_map
    (fun r ->
      List.concat_map (named "") r.entries
      @ List.concat_map (fun (n, row) -> named (n ^ ".") row) r.extras)
    runs
  |> List.fold_left
       (fun acc (key, f) ->
         match f.value with
         | Str _ -> acc
         | Int _ | Float _ ->
           if List.mem_assoc key acc then acc else (key, unit_label f) :: acc)
       []
  |> List.rev

let render = function
  | Int v -> string_of_int v
  | Str s -> Printf.sprintf "%S" s
  | Float (dp, v) -> Printf.sprintf "%.*f" dp v

let json_of_row row =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (f : field) -> Printf.sprintf "%S: %s" f.name (render f.value))
         row)
  ^ "}"

let json_of_run ~label run =
  let entries =
    String.concat ",\n"
      (List.map (fun r -> "        " ^ json_of_row r) run.entries)
  in
  let extras =
    String.concat ""
      (List.map
         (fun (n, r) -> Printf.sprintf ",\n      %S: %s" n (json_of_row r))
         run.extras)
  in
  Printf.sprintf
    "    {\n      \"label\": %S,\n      \"entries\": [\n%s\n      ]%s\n    }"
    label entries extras

let print_rows = function
  | [] -> ()
  | first :: _ as rows ->
    let cell (f : field) = match f.value with Str s -> s | v -> render v in
    print_endline
      (Iolite_util.Table.render
         ~header:(List.map (fun (f : field) -> f.name) first)
         ~rows:(List.map (List.map cell) rows))

let print runs =
  List.iter
    (fun r ->
      if r.suffix <> "" then Printf.printf "\n%s:\n" (String.trim r.suffix);
      print_rows r.entries;
      List.iter
        (fun (n, row) ->
          Printf.printf "%s:\n" n;
          print_rows [ row ])
        r.extras;
      r.report ())
    runs

let units_json units =
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "    %S: %S" k v) units)
  ^ "\n  }"

(* The checked-in BENCH_*.json files accumulate the perf trajectory
   across PRs instead of being clobbered per run: recorded runs are
   never discarded. *)
let append_json_text ~benchmark ~units ~out ~run_json =
  let closing = "\n  ]\n}" in
  let existing =
    match open_in_bin out with
    | exception Sys_error _ -> None
    | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Some s
  in
  let content =
    match existing with
    | None ->
      Ok
        ( Printf.sprintf
            "{\n  \"benchmark\": %S,\n  \"units\": %s,\n  \"runs\": [\n%s%s\n"
            benchmark (units_json units) run_json closing,
          "wrote" )
    | Some s ->
      let body = String.trim s in
      let n = String.length body and k = String.length closing in
      if n > k && String.sub body (n - k) k = closing then
        Ok
          ( String.sub body 0 (n - k) ^ ",\n" ^ run_json ^ closing ^ "\n",
            "appended run to" )
      else
        Error
          (Printf.sprintf "%s is not a run history ending in %S; left untouched"
             out closing)
  in
  Result.bind content (fun (content, verb) ->
      try
        let oc = open_out_bin out in
        output_string oc content;
        close_out oc;
        Ok verb
      with Sys_error e -> Error (Printf.sprintf "could not write %s: %s" out e))

let record ~benchmark ~label ~out runs =
  let units = units runs in
  List.fold_left
    (fun acc r ->
      Result.bind acc (fun () ->
          append_json_text ~benchmark ~units ~out
            ~run_json:(json_of_run ~label:(label ^ r.suffix) r)
          |> Result.map (fun verb -> Printf.printf "  %s %s\n%!" verb out)))
    (Ok ()) runs

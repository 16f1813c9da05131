type request = { path : string; keep_alive : bool }

(* Messages are concatenations of constant pieces: the parts after the
   request path, and the header lines around the two numbers. *)
let request_fields =
  "\r\nHost: server.example.edu\r\nUser-Agent: repro-client/1.0\r\nAccept: */*\r\n"

let request_tail_close = " HTTP/1.0" ^ request_fields ^ "\r\n"
let request_tail_keep_alive = " HTTP/1.1" ^ request_fields ^ "Connection: keep-alive\r\n\r\n"

let request_string ?(keep_alive = false) path =
  "GET " ^ path ^ if keep_alive then request_tail_keep_alive else request_tail_close

(* [s] has [prefix] at [at], ASCII case ignored. *)
let has_prefix_ci s ~at prefix =
  let n = String.length prefix in
  at + n <= String.length s
  &&
  let rec go i =
    i >= n
    || Char.lowercase_ascii s.[at + i] = Char.lowercase_ascii prefix.[i] && go (i + 1)
  in
  go 0

(* Some header line of [s] after the request line (which ends at [eol])
   is [Connection:] with [keep-alive] among its comma-separated tokens.
   Lines end in CRLF; the empty line ends the headers. *)
let connection_keep_alive s eol =
  let n = String.length s in
  let rec line start =
    let start = if start < n && s.[start] = '\n' then start + 1 else start in
    let stop = match String.index_from_opt s start '\r' with Some e -> e | None -> n in
    if stop <= start then false
    else if
      has_prefix_ci s ~at:start "connection:"
      && List.exists
           (fun tok -> String.lowercase_ascii (String.trim tok) = "keep-alive")
           (String.split_on_char ','
              (String.sub s (start + 11) (stop - start - 11)))
    then true
    else stop < n && line (stop + 1)
  in
  line (eol + 1)

let parse_request s =
  match String.index_opt s '\r' with
  | None -> None
  | Some eol -> (
    match String.split_on_char ' ' (String.sub s 0 eol) with
    | [ "GET"; path; proto ] ->
      let keep_alive =
        String.equal proto "HTTP/1.1" || connection_keep_alive s eol
      in
      Some { path; keep_alive }
    | _ -> None)

let response_fields =
  "\r\nDate: Thu, 04 Feb 1999 21:00:00 GMT\r\nServer: Flash/0.1 (FreeBSD \
   2.2.6)\r\nContent-Type: text/html\r\nLast-Modified: Mon, 01 Feb 1999 \
   09:00:00 GMT\r\nContent-Length: "

let response_header ?(status = 200) ?(keep_alive = false) ~content_length () =
  String.concat ""
    [
      (if keep_alive then "HTTP/1.1 " else "HTTP/1.0 ");
      string_of_int status;
      (match status with
      | 200 -> " OK"
      | 404 -> " Not Found"
      | 502 -> " Bad Gateway"
      | _ -> " Unknown");
      response_fields;
      string_of_int content_length;
      (if keep_alive then "\r\nConnection: keep-alive\r\n\r\n"
       else "\r\nConnection: close\r\n\r\n");
    ]

let not_found_body = "<html><body><h1>404 Not Found</h1></body></html>"

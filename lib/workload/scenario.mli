(** One harness for the extension sweeps (C1M scale, async disk,
    clustered write-back, NVMM tier).

    A scenario runs at one of two fixed sizes and returns rows of
    declared fields. Each field carries its name, unit, clock and
    number format together with its value, so the history file's
    ["units"] header, its JSON entry lines and the printed table all
    come from one declaration. The bench binary, the CLI and the test
    suite drive every scenario through this record. *)

type clock =
  | Virtual  (** the modelled 1999 machine *)
  | Host  (** the simulator's own wall clock *)
  | Plain  (** counts and sizes: no clock *)

type value =
  | Int of int
  | Str of string  (** labels: no unit, not in the units header *)
  | Float of int * float  (** decimals, value *)

type field = { name : string; unit : string; clock : clock; value : value }
type row = field list

val count : string -> int -> field
(** An integer field in unit ["count"]. *)

val int : string -> unit:string -> int -> field
(** An integer field with no clock (bytes, MB, ...). *)

val float : ?clock:clock -> string -> unit:string -> dp:int -> float -> field
(** A float printed with [dp] decimals; [clock] defaults to [Virtual]. *)

val str : string -> string -> field

val get_int : row -> string -> int
val get_float : row -> string -> float
val get_str : row -> string -> string
(** Field accessors; raise [Invalid_argument] on a missing name or a
    value of another kind. *)

type run = {
  suffix : string;  (** appended to the history label: [""] or [" tiered"] *)
  entries : row list;
  extras : (string * row) list;
      (** named rows written after ["entries"] (write's ["crash"],
          tier's ["probe"]); their units are keyed ["name.field"] *)
  report : unit -> unit;  (** printed after the tables (async's tail) *)
}

type size =
  | Full  (** the recorded configuration *)
  | Tiny  (** the test-suite size *)

type t = {
  name : string;  (** CLI command and bench argument *)
  doc : string;
  file : string;  (** the history file, e.g. [BENCH_async.json] *)
  benchmark : string;  (** its ["benchmark"] name *)
  run : size -> run list;
  check : run list -> (unit, string list) result;
      (** the scenario's acceptance assertions *)
}

val one :
  ?suffix:string ->
  ?extras:(string * row) list ->
  ?report:(unit -> unit) ->
  row list ->
  run
(** A run of [entries]; no suffix, extras or report by default. *)

val verdict : (bool * string) list -> (unit, string list) result
(** [Ok ()] when every condition holds, else the failed messages. *)

val each_entry :
  (row -> (bool * string) list) -> run list -> (unit, string list) result
(** [verdict] over the conditions of every entry of every run. *)

val extra : run -> string -> row
(** The named extra row; raises [Not_found]. *)

val sum : run -> string -> int
(** An integer field summed over the run's entries. *)

val units : run list -> (string * string) list
(** Field name to unit with its clock (["s (virtual)"],
    ["ns (host wall-clock)"], ["count"]) over every non-string field of
    the runs, in first-seen order. *)

val json_of_run : label:string -> run -> string
(** One history entry, indented for the ["runs"] array. *)

val print : run list -> unit
(** One table per run (columns are the field names), then each extra
    row, then the run's report. *)

val append_json_text :
  benchmark:string ->
  units:(string * string) list ->
  out:string ->
  run_json:string ->
  (string, string) result
(** Append one run to a JSON history file. A missing file is created
    with the units header; a file ending in ["\n  ]\n}"] (trailing
    whitespace aside) gets the run appended and its earlier bytes kept;
    any other file is left untouched. [Ok] carries what was done
    (["wrote"] / ["appended run to"]), [Error] why nothing was. *)

val record :
  benchmark:string -> label:string -> out:string -> run list -> (unit, string) result
(** Append every run to the history [out], labelled [label ^ suffix],
    with the runs' {!units} as a fresh file's header; stops at the first
    error. *)

(** On-disk file population with deterministic synthetic contents.

    Files are registered with a name and size; contents are a pure
    function of (file id, offset), so any byte read back — directly, via
    the unified cache, over a pipe, or off a socket — can be checked for
    integrity without storing the data set anywhere. A small inode table
    models file-system metadata; metadata lives in the (separate, "old")
    buffer cache as in the prototype (Section 4.2), accounted as wired
    kernel memory. *)

type t

val create : ?metadata_bytes_per_file:int -> unit -> t

val add : t -> name:string -> size:int -> int
(** Registers a file, returning its id. Raises [Invalid_argument] on a
    duplicate name or negative size. *)

val lookup : t -> string -> int option
val name : t -> int -> string
val size : t -> int -> int
(** Raise [Not_found] for unknown ids. *)

val file_count : t -> int
val total_bytes : t -> int
val metadata_bytes : t -> int
(** Metadata footprint to wire in kernel memory. *)

val content_byte : file:int -> off:int -> char
(** The defining content function. It is frozen: the recorded figures
    and every integrity check depend on it byte for byte. *)

val fill_bytes : Bytes.t -> int -> int -> file:int -> off:int -> unit
(** [fill_bytes data pos len ~file ~off] writes the file's contents at
    [off, off + len) into [data] at [pos], equal byte for byte to
    {!content_byte}; the bulk kernel behind every fill. Raises
    [Invalid_argument] when [pos, pos + len) is not within [data]. *)

val fill_buffer : t -> Iolite_core.Iobuf.Buffer.t -> file:int -> off:int -> unit
(** Fill a whole (unsealed) buffer with the file's contents starting at
    [off]. The content function is defined at every offset, so a buffer
    reaching past EOF holds generated bytes there too, not zeros;
    callers size their buffers to the file. Raises [Not_found] for an
    unknown file. *)

val check_string : file:int -> off:int -> string -> bool
(** Integrity check: does the string equal the file contents at [off]?
    Stops at the first mismatch. *)

val iter : t -> (int -> name:string -> size:int -> unit) -> unit

type inode = { iname : string; isize : int }

type t = {
  metadata_bytes_per_file : int;
  mutable inodes : inode array;
  mutable count : int;
  by_name : (string, int) Hashtbl.t;
  mutable total : int;
}

let create ?(metadata_bytes_per_file = 256) () =
  {
    metadata_bytes_per_file;
    inodes = Array.make 64 { iname = ""; isize = 0 };
    count = 0;
    by_name = Hashtbl.create 256;
    total = 0;
  }

let add t ~name ~size =
  if size < 0 then invalid_arg "Filestore.add: negative size";
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Filestore.add: duplicate file " ^ name);
  if t.count = Array.length t.inodes then begin
    let bigger = Array.make (2 * t.count) { iname = ""; isize = 0 } in
    Array.blit t.inodes 0 bigger 0 t.count;
    t.inodes <- bigger
  end;
  let id = t.count in
  t.inodes.(id) <- { iname = name; isize = size };
  t.count <- t.count + 1;
  Hashtbl.replace t.by_name name id;
  t.total <- t.total + size;
  id

let check_id t id =
  if id < 0 || id >= t.count then raise Not_found

let lookup t name = Hashtbl.find_opt t.by_name name

let name t id =
  check_id t id;
  t.inodes.(id).iname

let size t id =
  check_id t id;
  t.inodes.(id).isize

let file_count t = t.count
let total_bytes t = t.total
let metadata_bytes t = t.count * t.metadata_bytes_per_file

(* SplitMix-style avalanche of (file, off): cheap, deterministic, and
   distinct across files and offsets. The file and offset enter as the
   terms [file * file_mix] and [off * off_mix]; a run of consecutive
   offsets steps the offset term by [off_mix], so the bulk paths below
   compute the file term once and never multiply by the offset. *)
let file_mix = 0x9E3779B9
let off_mix = 0x85EBCA6B

(* The byte's character code. Mostly printable text with newlines
   roughly every 64 bytes, so the line-oriented utilities (wc, grep) see
   realistic input. The [abs] is branchless: [s] is all ones exactly
   when [z] is negative. *)
let[@inline] code fterm oterm =
  let z = fterm lxor oterm in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  let z = z lxor (z lsr 16) in
  let s = z asr (Sys.int_size - 1) in
  let v = ((z lxor s) - s) mod 96 in
  if v = 95 then 10 else 32 + v

let content_byte ~file ~off = Char.chr (code (file * file_mix) (off * off_mix))

let fill_bytes data pos len ~file ~off =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Filestore.fill_bytes: range";
  let fterm = file * file_mix in
  let oterm = ref (off * off_mix) in
  for i = pos to pos + len - 1 do
    Bytes.unsafe_set data i (Char.unsafe_chr (code fterm !oterm));
    oterm := !oterm + off_mix
  done

let fill_buffer t buf ~file ~off =
  check_id t file;
  Iolite_core.Iobuf.Buffer.fill_with buf (fun data pos len ->
      fill_bytes data pos len ~file ~off)

let check_string ~file ~off s =
  let fterm = file * file_mix in
  let n = String.length s in
  let rec go i oterm =
    i = n
    || Char.code (String.unsafe_get s i) = code fterm oterm
       && go (i + 1) (oterm + off_mix)
  in
  go 0 (off * off_mix)

let iter t f =
  for id = 0 to t.count - 1 do
    let inode = t.inodes.(id) in
    f id ~name:inode.iname ~size:inode.isize
  done

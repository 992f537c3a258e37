(* The simulated NVM pool: a bounded, byte-addressable image. In PMDK an
   NVM image is a regular file holding the persistent heap (§4.3 fn. 3);
   here it is either a flat [Bytes.t] or a copy-on-write view: a
   read-only base image plus a cache-line-granular overlay.

   Flat pools back recording runs. COW pools back crash images,
   checkpoint resumes and quiet oracle runs: [cow] is O(1) instead of an
   O(pool_size) copy, reads fall through to the base, and the first write
   to a line copies just that 64-byte line into the overlay — so a 4-16 MB
   pool costs only the dirty lines the execution actually touches. A
   fresh pool for a quiet run is [zeroed], a view over one shared,
   never-written zero buffer per size. The base MUST stay unmodified
   while the overlay is alive; [Crash_sim] guarantees this by checking
   each image before feeding the next trace event, and [copy] detaches an
   image into an independent flat pool.

   A COW view serves accesses through a small direct-mapped line cache:
   slot [line land 63] remembers which buffer holds that line (its
   private overlay copy, or the base while the line is clean), so a hit
   reads or writes without hashing or allocating. The overlay [Hashtbl]
   stays the source of truth for [digest], [flatten], [overlay_lines] and
   [cow_bytes]; the cache only mirrors it.

   Out-of-bounds accesses raise [Fault], the simulated segmentation fault:
   resuming from a corrupted crash image may follow garbage pointers, and
   the paper treats such visible crashes as detected inconsistencies. *)

exception Fault of { addr : int; len : int }

let line_size = 64
let line_of_addr addr = addr lsr 6

let cache_slots = 64
let cache_mask = cache_slots - 1

type cow = {
  base : Bytes.t;                      (* read-only while overlay lives *)
  overlay : (int, Bytes.t) Hashtbl.t;  (* line -> private line copy *)
  (* direct-mapped line cache, indexed by [line land cache_mask] *)
  tags : int array;                    (* cached line, -1 = empty slot *)
  bufs : Bytes.t array;                (* buffer holding that line *)
  offs : int array;                    (* addr - offs indexes into bufs *)
  mutable cow_bytes : int;             (* bytes copied into the overlay *)
}

type repr =
  | Flat of Bytes.t
  | Cow of cow

type t = {
  repr : repr;
  size : int;
}

let create size =
  if size <= 0 then invalid_arg "Pmem.create";
  { repr = Flat (Bytes.make size '\000'); size }

let size t = t.size

let check t addr len =
  if addr < 0 || len < 0 || addr + len > t.size then
    raise (Fault { addr; len })

(* ---------- COW internals ---------- *)

(* Cache slot serving reads of [line]; a miss refills it from the
   overlay, or from the base when the line is clean. *)
let cow_ro c line =
  let s = line land cache_mask in
  if c.tags.(s) <> line then begin
    (match Hashtbl.find_opt c.overlay line with
     | Some b -> c.bufs.(s) <- b; c.offs.(s) <- line lsl 6
     | None -> c.bufs.(s) <- c.base; c.offs.(s) <- 0);
    c.tags.(s) <- line
  end;
  s

(* Copy [line] out of the base into the overlay. *)
let cow_copy_line c size line =
  let start = line lsl 6 in
  let len = min line_size (size - start) in
  let b = Bytes.create len in
  Bytes.blit c.base start b 0 len;
  Hashtbl.add c.overlay line b;
  c.cow_bytes <- c.cow_bytes + len;
  b

(* Cache slot holding a private (writable) copy of [line], created on
   first write; index it with [addr land (line_size - 1)]. A line only
   ever lives in its own slot and every copy re-points that slot, so a
   hit on a base-resident entry proves the overlay has no copy yet: only
   a miss consults the overlay. *)
let cow_rw c size line =
  let s = line land cache_mask in
  if c.tags.(s) <> line then begin
    let b =
      match Hashtbl.find_opt c.overlay line with
      | Some b -> b
      | None -> cow_copy_line c size line
    in
    c.tags.(s) <- line; c.bufs.(s) <- b; c.offs.(s) <- line lsl 6
  end
  else if c.bufs.(s) == c.base then begin
    c.bufs.(s) <- cow_copy_line c size line; c.offs.(s) <- line lsl 6
  end;
  s

let cow_write c size addr s off len =
  let rec go addr off remaining =
    if remaining > 0 then begin
      let line = addr lsr 6 in
      let line_end = (line + 1) * line_size in
      let chunk = min remaining (line_end - addr) in
      let slot = cow_rw c size line in
      Bytes.blit_string s off c.bufs.(slot) (addr land (line_size - 1)) chunk;
      go (addr + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go addr off len

(* Read [addr .. addr+len) into [out] at [off], line by line. *)
let cow_read_into c addr out off len =
  let rec go addr off remaining =
    if remaining > 0 then begin
      let line = addr lsr 6 in
      let line_end = (line + 1) * line_size in
      let chunk = min remaining (line_end - addr) in
      let slot = cow_ro c line in
      Bytes.blit c.bufs.(slot) (addr - c.offs.(slot)) out off chunk;
      go (addr + chunk) (off + chunk) (remaining - chunk)
    end
  in
  go addr off len

(* ---------- accesses ---------- *)

let read_u64 t addr =
  check t addr 8;
  match t.repr with
  | Flat buf -> Int64.to_int (Bytes.get_int64_le buf addr)
  | Cow c ->
    if addr land (line_size - 1) <= line_size - 8 then
      let s = cow_ro c (addr lsr 6) in
      Int64.to_int (Bytes.get_int64_le c.bufs.(s) (addr - c.offs.(s)))
    else begin
      let tmp = Bytes.create 8 in
      cow_read_into c addr tmp 0 8;
      Int64.to_int (Bytes.get_int64_le tmp 0)
    end

let write_u64 t addr v =
  check t addr 8;
  match t.repr with
  | Flat buf -> Bytes.set_int64_le buf addr (Int64.of_int v)
  | Cow c ->
    if addr land (line_size - 1) <= line_size - 8 then begin
      let s = cow_rw c t.size (addr lsr 6) in
      Bytes.set_int64_le c.bufs.(s) (addr land (line_size - 1)) (Int64.of_int v)
    end
    else begin
      let tmp = Bytes.create 8 in
      Bytes.set_int64_le tmp 0 (Int64.of_int v);
      cow_write c t.size addr (Bytes.unsafe_to_string tmp) 0 8
    end

let read_u8 t addr =
  check t addr 1;
  match t.repr with
  | Flat buf -> Char.code (Bytes.get buf addr)
  | Cow c ->
    let s = cow_ro c (addr lsr 6) in
    Char.code (Bytes.get c.bufs.(s) (addr - c.offs.(s)))

let write_u8 t addr v =
  check t addr 1;
  match t.repr with
  | Flat buf -> Bytes.set buf addr (Char.chr (v land 0xff))
  | Cow c ->
    let s = cow_rw c t.size (addr lsr 6) in
    Bytes.set c.bufs.(s) (addr land (line_size - 1)) (Char.chr (v land 0xff))

let read_bytes t addr len =
  check t addr len;
  match t.repr with
  | Flat buf -> Bytes.sub_string buf addr len
  | Cow c ->
    let out = Bytes.create len in
    cow_read_into c addr out 0 len;
    Bytes.unsafe_to_string out

let write_bytes t addr s =
  let len = String.length s in
  check t addr len;
  match t.repr with
  | Flat buf -> Bytes.blit_string s 0 buf addr len
  | Cow c -> cow_write c t.size addr s 0 len

(* Write [s[off .. off+len)] at [addr] without building a substring; the
   Trace arena uses this to replay store payloads zero-copy. *)
let write_sub t addr s off len =
  check t addr len;
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Pmem.write_sub";
  match t.repr with
  | Flat buf -> Bytes.blit_string s off buf addr len
  | Cow c -> cow_write c t.size addr s off len

(* ---------- whole-pool operations ---------- *)

let flatten t =
  match t.repr with
  | Flat buf -> Bytes.copy buf
  | Cow c ->
    let out = Bytes.copy c.base in
    Hashtbl.iter
      (fun line b -> Bytes.blit b 0 out (line lsl 6) (Bytes.length b))
      c.overlay;
    out

let snapshot t =
  match t.repr with
  | Flat buf -> Bytes.to_string buf
  | Cow _ -> Bytes.unsafe_to_string (flatten t)

let of_snapshot s =
  { repr = Flat (Bytes.of_string s); size = String.length s }

(* An independent flat pool with the same contents; detaches a COW image
   from its base. *)
let copy t = { repr = Flat (flatten t); size = t.size }

let cow_of_bytes base =
  { repr =
      Cow { base; overlay = Hashtbl.create 32;
            tags = Array.make cache_slots (-1);
            bufs = Array.make cache_slots Bytes.empty;
            offs = Array.make cache_slots 0; cow_bytes = 0 };
    size = Bytes.length base }

(* O(1) copy-on-write view of [t]. [t]'s bytes MUST NOT change while the
   view is in use (writes to the view never touch [t]). *)
let rec cow t =
  match t.repr with
  | Flat buf -> cow_of_bytes buf
  | Cow _ -> cow (copy t)

(* One all-zero buffer per pool size, shared by every [zeroed] view and
   never written: views only ever write their own overlay. *)
let zero_bases : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4

(* A fresh pool that reads exactly like [create size], in O(1): a COW view
   over the shared zero buffer of that size, instead of zero-filling a
   new 2-16 MB pool per quiet run. *)
let zeroed size =
  if size <= 0 then invalid_arg "Pmem.zeroed";
  let base =
    match Hashtbl.find_opt zero_bases size with
    | Some b -> b
    | None ->
      let b = Bytes.make size '\000' in
      Hashtbl.add zero_bases size b;
      b
  in
  cow_of_bytes base

let is_cow t = match t.repr with Cow _ -> true | Flat _ -> false

(* Lines copied into the overlay so far (0 for a flat pool). *)
let overlay_lines t =
  match t.repr with Flat _ -> 0 | Cow c -> Hashtbl.length c.overlay

(* Bytes physically copied to build this view: O(dirty lines), compared
   to [size t] for the flat-copy path. *)
let cow_bytes t =
  match t.repr with Flat _ -> 0 | Cow c -> c.cow_bytes

(* ---------- content digests ---------- *)

(* FNV-1a-style 64-bit mixing (widths wrap to OCaml's 63-bit int, which
   is fine: digests are only compared for equality). *)
let mix h v = (h lxor v) * 0x100000001b3

let mix_string h s =
  let len = String.length s in
  let h = ref (mix h len) in
  let b = Bytes.unsafe_of_string s in
  let i = ref 0 in
  while !i + 8 <= len do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b !i));
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Char.code (String.unsafe_get s !i));
    incr i
  done;
  !h

(* [mix_sub h s off len] = [mix_string h (String.sub s off len)] without
   materializing the substring. *)
let mix_sub h s off len =
  let h = ref (mix h len) in
  let b = Bytes.unsafe_of_string s in
  let i = ref 0 in
  while !i + 8 <= len do
    h := mix !h (Int64.to_int (Bytes.get_int64_le b (off + !i)));
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Char.code (String.unsafe_get s (off + !i)));
    incr i
  done;
  !h

(* 64-bit content digest. For a COW view, pass the digest of the base as
   [seed] (Crash_sim maintains it incrementally): only the overlay lines
   are folded in, so digesting a crash image is O(dirty lines), never
   O(pool_size). Overlay lines are folded in line order, so two views
   over the same base with the same overlay content get equal digests.
   For a flat pool the whole buffer is folded — the O(size) reference
   path, used by tests. *)
let digest ?(seed = 0x1505) t =
  match t.repr with
  | Flat buf -> mix_string seed (Bytes.unsafe_to_string buf)
  | Cow c ->
    let lines = Hashtbl.fold (fun line b acc -> (line, b) :: acc) c.overlay [] in
    let lines = List.sort (fun (a, _) (b, _) -> compare a b) lines in
    List.fold_left
      (fun h (line, b) -> mix_string (mix h line) (Bytes.unsafe_to_string b))
      seed lines

(* A simulated byte-addressable memory space. The host (CPU) memory and the
   GPU device memory are two separate instances with disjoint address
   ranges, mirroring the divided memories that motivate CGCM.

   Every allocation is an *allocation unit* in the paper's sense: a
   contiguous region created as a single unit. Addresses are plain ints;
   resolution from an interior pointer back to its unit uses the same
   greatest-key-<= query the CGCM run-time uses, so valid pointer
   arithmetic (within a unit, per C99) works and anything else faults.

   Two performance features sit on top of the basic model:

   - *Block handles*: [block_of_addr] plus the per-access span check is
     the hot path of the interpreter. A caller that repeatedly touches
     the same unit can hold the resolved block and revalidate it with
     [h_valid], a single range-and-liveness test on its fields, instead
     of paying the tree lookup and the separate span check every time.
     The handle accessors below are [@inline]; the build compiles
     libraries without -opaque, so they inline into the caller. Handles
     carry the id of their owning space, so a handle cached across a
     CPU/GPU context switch can never alias a block of the other space.

   - *Dirty spans*: every store records the written interval in a coarse
     merged interval list on the block. The CGCM run-time reads and
     clears these to transfer only the bytes written since the last copy
     instead of whole allocation units. Spans may over-approximate
     (nearby writes are coalesced) but never lose a written byte. *)

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

(* Writes closer than this are coalesced into one dirty span; keeps the
   interval lists tiny under strided access patterns. *)
let dirty_gap = 64

(* At most this many retired spans per block before the closest pair is
   merged: bounds the insert cost on pathological scatter patterns. *)
let max_dirty_spans = 8

type block = {
  base : int;
  size : int;
  data : Bytes.t;
  mutable tag : string;  (* mutable so recycled frame slots re-label *)
  space_id : int;  (* id of the owning space, for handle validation *)
  mutable freed : bool;
  (* Dirty interval accumulator. The head interval [d_lo, d_hi) is held
     in two mutable ints so the common case — sequential writes extending
     the current span — allocates nothing. Older spans retire into
     [d_rest], kept sorted by offset and pairwise non-adjacent. The empty
     state is d_lo = max_int, d_hi = min_int. *)
  mutable d_lo : int;
  mutable d_hi : int;
  mutable d_rest : (int * int) list;  (* (lo, hi) half-open, offsets *)
  (* The mark of the last run-time owner audit that found this block
     owned. *)
  mutable audit_mark : int;
}

type t = {
  name : string;
  id : int;
  range_lo : int;
  range_hi : int;
  mutable next : int;
  mutable blocks : block Cgcm_support.Avl_map.t;
  mutable live_bytes : int;
  mutable peak_bytes : int;
  (* one-entry cache: consecutive accesses usually hit the same unit *)
  mutable last : block option;
  (* Recycling pool for frame-local slots (see [free_local]): size ->
     freed blocks kept in the index for reuse. [pooled] counts them so
     [live_units] stays accurate. *)
  pool : (int, block list) Hashtbl.t;
  mutable pooled : int;
}

(* Handles are validated by space id, so ids must stay unique when
   spaces are created on several domains at once. *)
let next_space_id = Atomic.make 0

let create ~name ~range_lo ~range_hi =
  {
    name;
    id = Atomic.fetch_and_add next_space_id 1 + 1;
    range_lo;
    range_hi;
    next = range_lo;
    blocks = Cgcm_support.Avl_map.empty;
    live_bytes = 0;
    peak_bytes = 0;
    last = None;
    pool = Hashtbl.create 8;
    pooled = 0;
  }

let round_up n align = (n + align - 1) / align * align

(* Allocate [size] bytes (zero-initialised). A 16-byte guard gap separates
   consecutive units so off-by-one pointer arithmetic faults instead of
   silently touching a neighbour. *)
let alloc_fresh ~tag t size =
  let base = t.next in
  if base + size > t.range_hi then
    fault "%s: out of memory allocating %d bytes" t.name size;
  t.next <- base + round_up size 16 + 16;
  let block =
    {
      base;
      size;
      data = Bytes.make size '\000';
      tag;
      space_id = t.id;
      freed = false;
      d_lo = max_int;
      d_hi = min_int;
      d_rest = [];
      audit_mark = 0;
    }
  in
  t.blocks <- Cgcm_support.Avl_map.add base block t.blocks;
  t.live_bytes <- t.live_bytes + size;
  t.peak_bytes <- max t.peak_bytes t.live_bytes;
  base

let alloc ?(tag = "heap") t size =
  if size < 0 then fault "%s: negative allocation size %d" t.name size;
  let size = max size 1 in
  match Hashtbl.find_opt t.pool size with
  | Some (b :: rest) ->
    (* Recycle a pooled slot of the same size: already in the index, so
       no AVL traffic and no fresh Bytes; just zero and re-arm it. *)
    Hashtbl.replace t.pool size rest;
    t.pooled <- t.pooled - 1;
    Bytes.fill b.data 0 size '\000';
    b.freed <- false;
    b.tag <- tag;
    b.d_lo <- max_int;
    b.d_hi <- min_int;
    b.d_rest <- [];
    t.live_bytes <- t.live_bytes + size;
    t.peak_bytes <- max t.peak_bytes t.live_bytes;
    b.base
  | _ -> alloc_fresh ~tag t size

let block_of_base t base =
  match Cgcm_support.Avl_map.find_opt base t.blocks with
  | Some b when not b.freed -> b
  | Some _ -> fault "%s: use of freed block at 0x%x" t.name base
  | None -> fault "%s: 0x%x is not the base of any allocation unit" t.name base

(* Resolve an interior pointer to its allocation unit. *)
let block_of_addr t addr =
  match t.last with
  | Some b when (not b.freed) && addr >= b.base && addr < b.base + b.size -> b
  | _ -> (
    match Cgcm_support.Avl_map.greatest_leq addr t.blocks with
    | Some (_, b) when (not b.freed) && addr >= b.base && addr < b.base + b.size
      ->
      t.last <- Some b;
      b
    | Some (_, b) when b.freed && addr >= b.base && addr < b.base + b.size ->
      fault "%s: access to freed allocation unit (addr 0x%x, tag %s)" t.name
        addr b.tag
    | _ -> fault "%s: wild pointer 0x%x" t.name addr)

let free t base =
  let b = block_of_base t base in
  if b.base <> base then
    fault "%s: free of interior pointer 0x%x (unit base 0x%x)" t.name base b.base;
  b.freed <- true;
  t.live_bytes <- t.live_bytes - b.size;
  t.blocks <- Cgcm_support.Avl_map.remove base t.blocks

(* Blocks freed per size class held for recycling; beyond this the block
   is really freed. Frame pops rarely outrun frame pushes by more. *)
let max_pool = 1024

(* Free a frame-local slot (interpreter stack frames popping their
   allocas). The block stays in the index, marked freed — dangling
   pointers still fault — and goes to the recycling pool, so the
   alloca-per-kernel-thread pattern costs no index traffic. *)
let free_local t base =
  let b = block_of_base t base in
  if b.base <> base then
    fault "%s: free of interior pointer 0x%x (unit base 0x%x)" t.name base b.base;
  b.freed <- true;
  t.live_bytes <- t.live_bytes - b.size;
  if t.pooled >= max_pool then
    t.blocks <- Cgcm_support.Avl_map.remove base t.blocks
  else begin
    let prev =
      match Hashtbl.find_opt t.pool b.size with Some l -> l | None -> []
    in
    Hashtbl.replace t.pool b.size (b :: prev);
    t.pooled <- t.pooled + 1
  end

(* Drop every pooled block from the index. Used at inspector-executor
   launch boundaries: the tracker treats any unit below the pre-launch
   high-water mark as communication, so kernel frames must not recycle
   older (lower-addressed) blocks or their locals would be counted as
   transferred units. *)
let pool_flush t =
  if t.pooled > 0 then begin
    Hashtbl.iter
      (fun _ bs ->
        List.iter
          (fun b -> t.blocks <- Cgcm_support.Avl_map.remove b.base t.blocks)
          bs)
      t.pool;
    Hashtbl.reset t.pool;
    t.pooled <- 0
  end

let check_span t b addr len what =
  if addr < b.base || addr + len > b.base + b.size then
    fault "%s: %s of %d bytes at 0x%x overruns unit [0x%x, 0x%x)" t.name what len
      addr b.base (b.base + b.size)

(* ------------------------------------------------------------------ *)
(* Dirty-span tracking                                                 *)

(* Insert a span into a sorted, merged list (offsets, half-open). *)
let rec insert_span ((lo, hi) as s) = function
  | [] -> [ s ]
  | (a, z) :: rest when hi + dirty_gap < a -> s :: (a, z) :: rest
  | (a, z) :: rest when z + dirty_gap < lo -> (a, z) :: insert_span s rest
  | (a, z) :: rest ->
    (* overlaps or nearly touches: merge, then keep absorbing *)
    insert_span (min a lo, max z hi) rest

(* Merge the closest pair of neighbours to bound the list length. *)
let collapse_closest spans =
  match spans with
  | [] | [ _ ] -> spans
  | _ ->
    let best = ref max_int in
    let rec find_gap = function
      | (_, z1) :: (((l2, _) :: _) as rest) ->
        if l2 - z1 < !best then best := l2 - z1;
        find_gap rest
      | _ -> ()
    in
    find_gap spans;
    let rec merge = function
      | (l1, z1) :: ((l2, z2) :: rest2 as rest) ->
        if l2 - z1 = !best then (l1, max z1 z2) :: rest2
        else (l1, z1) :: merge rest
      | rest -> rest
    in
    merge spans

let note_dirty b off len =
  let lo = off and hi = off + len in
  if b.d_hi < b.d_lo then begin
    (* empty: start the head interval *)
    b.d_lo <- lo;
    b.d_hi <- hi
  end
  else if lo <= b.d_hi + dirty_gap && hi >= b.d_lo - dirty_gap then begin
    (* extends (or lands near) the head interval: no allocation *)
    if lo < b.d_lo then b.d_lo <- lo;
    if hi > b.d_hi then b.d_hi <- hi
  end
  else begin
    (* retire the head into the sorted list, restart the head *)
    b.d_rest <- insert_span (b.d_lo, b.d_hi) b.d_rest;
    if List.length b.d_rest > max_dirty_spans then
      b.d_rest <- collapse_closest b.d_rest;
    b.d_lo <- lo;
    b.d_hi <- hi
  end

(* All dirty spans of the unit based at [base], as (offset, length) pairs
   sorted by offset. Spans are disjoint and clipped to the unit. *)
let dirty_spans t base =
  let b = block_of_base t base in
  let all =
    if b.d_hi < b.d_lo then b.d_rest else insert_span (b.d_lo, b.d_hi) b.d_rest
  in
  List.map
    (fun (lo, hi) ->
      let lo = max 0 lo and hi = min b.size hi in
      (lo, hi - lo))
    all
  |> List.filter (fun (_, len) -> len > 0)

let clear_dirty t base =
  let b = block_of_base t base in
  b.d_lo <- max_int;
  b.d_hi <- min_int;
  b.d_rest <- []

(* Total dirty bytes (over-approximate, as spans are). *)
let dirty_bytes t base =
  List.fold_left (fun n (_, len) -> n + len) 0 (dirty_spans t base)

(* ------------------------------------------------------------------ *)
(* Block handles: validated fast-path access                           *)

type handle = block

(* A handle that never validates: the initial value of handle caches. *)
let null_handle =
  {
    base = 0;
    size = 0;
    data = Bytes.empty;
    tag = "<null>";
    space_id = -1;
    freed = true;
    d_lo = max_int;
    d_hi = min_int;
    d_rest = [];
    audit_mark = 0;
  }

(* Acquire a handle, paying the tree lookup and the span check once. *)
let acquire_handle t addr len what : handle =
  let b = block_of_addr t addr in
  check_span t b addr len what;
  b

(* A handle is valid for an access when it is live, belongs to [t], and
   [addr, addr+len) sits inside it: one combined test in place of the
   tree lookup and the span check. *)
let[@inline] h_valid h t addr len =
  h.space_id = t.id
  && (not h.freed)
  && addr >= h.base
  && addr + len <= h.base + h.size

let[@inline] handle_base h = h.base

(* A per-site handle cache is a [block array] here, so reading a slot is
   a plain load and writing one a plain [caml_modify]; outside, behind
   the abstract [handle], both would take the generic (float-checked)
   array path. *)
let[@inline] site_handle hs site : handle = Array.unsafe_get hs site

let[@inline] cached_handle hs site t addr len what =
  let h = Array.unsafe_get hs site in
  if h_valid h t addr len then h
  else begin
    let h = acquire_handle t addr len what in
    Array.unsafe_set hs site h;
    h
  end

let[@inline] ld_u8 h addr = Char.code (Bytes.unsafe_get h.data (addr - h.base))

let[@inline] ld_i64 h addr = Bytes.get_int64_le h.data (addr - h.base)

let[@inline] ld_f64 h addr = Int64.float_of_bits (ld_i64 h addr)

(* Stores record their dirty span at once. *)
let[@inline] st_u8 h addr v =
  let off = addr - h.base in
  Bytes.unsafe_set h.data off (Char.unsafe_chr (v land 0xff));
  note_dirty h off 1

let[@inline] st_i64 h addr v =
  let off = addr - h.base in
  Bytes.set_int64_le h.data off v;
  note_dirty h off 8

let[@inline] st_f64 h addr v = st_i64 h addr (Int64.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Deferred dirty logging: sharded kernel launches                     *)

(* The dirty-span accumulator above is order-dependent mutable state
   (head interval, retirement, collapse), so shards of a parallel kernel
   cannot call [note_dirty] directly without changing the resulting
   spans (and with them transfer sizes and [bytes_saved]). Instead each
   shard appends its stores to a private log — the [Bytes] write happens
   immediately, only the span bookkeeping is deferred — and the join
   replays the logs in shard order through [note_dirty]. Chunks are
   contiguous, so shard order is iteration order and the resulting span
   state is bit-identical to the sequential engine's.

   Entries pack (offset, length) into one int: lengths here are only
   ever 1 or 8, so 4 bits suffice. *)

type dirty_log = {
  mutable l_blocks : block array;
  mutable l_packed : int array;  (* off lsl 4 lor len *)
  mutable l_len : int;
}

let log_create () =
  { l_blocks = Array.make 64 null_handle; l_packed = Array.make 64 0; l_len = 0 }

let log_clear l = l.l_len <- 0

let[@inline never] log_grow l =
  let cap = Array.length l.l_packed in
  let blocks = Array.make (cap * 2) null_handle in
  let packed = Array.make (cap * 2) 0 in
  Array.blit l.l_blocks 0 blocks 0 cap;
  Array.blit l.l_packed 0 packed 0 cap;
  l.l_blocks <- blocks;
  l.l_packed <- packed

let[@inline] log_push l b off len =
  if l.l_len = Array.length l.l_packed then log_grow l;
  Array.unsafe_set l.l_blocks l.l_len b;
  Array.unsafe_set l.l_packed l.l_len ((off lsl 4) lor len);
  l.l_len <- l.l_len + 1

let log_replay l =
  for i = 0 to l.l_len - 1 do
    let p = Array.unsafe_get l.l_packed i in
    note_dirty (Array.unsafe_get l.l_blocks i) (p lsr 4) (p land 0xf)
  done;
  l.l_len <- 0

(* A shard's stores: the write now, the span in its log. *)
let[@inline] st_u8_log l h addr v =
  let off = addr - h.base in
  Bytes.unsafe_set h.data off (Char.unsafe_chr (v land 0xff));
  log_push l h off 1

let[@inline] st_i64_log l h addr v =
  let off = addr - h.base in
  Bytes.set_int64_le h.data off v;
  log_push l h off 8

let[@inline] st_f64_log l h addr v = st_i64_log l h addr (Int64.bits_of_float v)

(* ------------------------------------------------------------------ *)
(* Checked accessors (the tree-walking interpreter's path)             *)

let load_u8 t addr =
  let b = block_of_addr t addr in
  check_span t b addr 1 "load";
  Char.code (Bytes.get b.data (addr - b.base))

let store_u8 t addr v =
  let b = block_of_addr t addr in
  check_span t b addr 1 "store";
  Bytes.set b.data (addr - b.base) (Char.chr (v land 0xff));
  note_dirty b (addr - b.base) 1

let load_i64 t addr =
  let b = block_of_addr t addr in
  check_span t b addr 8 "load";
  Bytes.get_int64_le b.data (addr - b.base)

let store_i64 t addr v =
  let b = block_of_addr t addr in
  check_span t b addr 8 "store";
  Bytes.set_int64_le b.data (addr - b.base) v;
  note_dirty b (addr - b.base) 8

let load_f64 t addr = Int64.float_of_bits (load_i64 t addr)

let store_f64 t addr v = store_i64 t addr (Int64.bits_of_float v)

(* Raw byte access used by the transfer engine. *)
let read_bytes t addr len =
  let b = block_of_addr t addr in
  check_span t b addr len "read";
  Bytes.sub b.data (addr - b.base) len

let write_bytes t addr src =
  let len = Bytes.length src in
  let b = block_of_addr t addr in
  check_span t b addr len "write";
  Bytes.blit src 0 b.data (addr - b.base) len;
  note_dirty b (addr - b.base) len

(* Copy [len] bytes across (or within) spaces, without the intermediate
   buffer [read_bytes]+[write_bytes] would allocate. *)
let blit ~src ~src_addr ~dst ~dst_addr ~len =
  if len > 0 then begin
    let sb = block_of_addr src src_addr in
    check_span src sb src_addr len "read";
    let db = block_of_addr dst dst_addr in
    check_span dst db dst_addr len "write";
    Bytes.blit sb.data (src_addr - sb.base) db.data (dst_addr - db.base) len;
    note_dirty db (dst_addr - db.base) len
  end

let unit_bounds t addr =
  let b = block_of_addr t addr in
  (b.base, b.size)

let live_bytes t = t.live_bytes

let peak_bytes t = t.peak_bytes

let live_units t = Cgcm_support.Avl_map.cardinal t.blocks - t.pooled

let frontier t = t.next

(* Live blocks in ascending base order. Pooled (freed) blocks kept in
   the index for recycling are skipped: they hold no live data and
   dangle on purpose. *)
let fold_live f t acc =
  Cgcm_support.Avl_map.fold
    (fun base b acc ->
      if b.freed then acc
      else f ~base ~size:b.size ~tag:b.tag ~mark:b.audit_mark acc)
    t.blocks acc

let mark_live t base ~mark =
  match Cgcm_support.Avl_map.find_opt base t.blocks with
  | Some b when not b.freed ->
    b.audit_mark <- mark;
    Some b.size
  | _ -> None

(* Store an OCaml string as NUL-terminated bytes: one resolution and one
   blit instead of a checked store per character. *)
let store_string t addr s =
  let n = String.length s in
  let b = block_of_addr t addr in
  check_span t b addr (n + 1) "store";
  Bytes.blit_string s 0 b.data (addr - b.base) n;
  Bytes.set b.data (addr - b.base + n) '\000';
  note_dirty b (addr - b.base) (n + 1)

(* Scan for the NUL with Bytes.index_from instead of a checked load per
   character. Running off the end of the unit faults, as before. *)
let load_string t addr =
  let b = block_of_addr t addr in
  check_span t b addr 1 "load";
  let ofs = addr - b.base in
  match Bytes.index_from_opt b.data ofs '\000' with
  | Some i -> Bytes.sub_string b.data ofs (i - ofs)
  | None ->
    fault "%s: load of %d bytes at 0x%x overruns unit [0x%x, 0x%x)" t.name 1
      (b.base + b.size) b.base (b.base + b.size)

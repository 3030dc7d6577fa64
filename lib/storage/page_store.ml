(* The paged durable store: all state lives in one [pages.db] file of
   4 KiB pages behind {!Pager}. Tuples sit in slotted heap pages and are
   addressed by TIDs; a small DDL blob (a skeleton {!Snapshot} plus the
   relation-id map) carries hierarchies, schemas and observed stats. The
   heap is the only tuple structure on disk: the TID and free-space
   tables a writer needs are rebuilt by the heap scan in {!to_catalog}.

   Durability is shadow paging: committed pages are never overwritten.
   A logical->physical page table gives every page a stable logical id
   (TIDs use logical ids); the first
   modification of a logical page in a checkpoint cycle relocates it to
   a free physical page. Commit stamps each dirty page with its logical
   id and a CRC, flushes and fsyncs data, writes a fresh page table,
   then publishes everything by writing the alternate of two meta pages
   (physical 0 and 1, picked at open by valid CRC + highest epoch) and
   fsyncing again. A crash at any point leaves the previous epoch fully
   intact. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module W = Codec.Writer
module R = Codec.Reader
open Hierel

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let g_dirty = Hr_obs.Metrics.gauge "storage.checkpoint.dirty_pages"
let g_total = Hr_obs.Metrics.gauge "storage.checkpoint.pages_total"

let page_size = Pager.page_size
let header = 16
let tag_heap = 1
(* 2, 3 and 4 tagged the free-space map and B-tree leaf/internal pages
   of meta version 1; retired, never reused *)
let tag_blob = 5
let meta_magic = "HRPGMETA"
let meta_version = 2
let pt_per_page = page_size / 4

let get_u16 b off = Char.code (Bytes.get b off) lor (Char.code (Bytes.get b (off + 1)) lsl 8)

let set_u16 b off v =
  Bytes.set b off (Char.chr (v land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xff))

let get_u32 b off = get_u16 b off lor (get_u16 b (off + 2) lsl 16)

let set_u32 b off v =
  set_u16 b off (v land 0xffff);
  set_u16 b (off + 2) ((v lsr 16) land 0xffff)

type t = {
  pager : Pager.t;
  mutable epoch : int;
  mutable base_lsn : int;
  mutable pt : int array; (* logical -> physical; 0 = unmapped *)
  mutable n_logical : int;
  mutable free_logical : int list;
  mutable free_phys : int list;
  mutable pending_free : int list; (* physicals released after the next commit *)
  mutable pt_pages : int list; (* physical pages holding the live page table *)
  mutable version : int; (* meta format the store was read at *)
  mutable blob : string;
  mutable blob_pages : int list; (* logical *)
  shadowed : (int, unit) Hashtbl.t; (* logicals already relocated this cycle *)
  dirty : (int, unit) Hashtbl.t;
  free_space : (int, int) Hashtbl.t; (* heap logical -> free bytes *)
  mutable fill_page : int option; (* current insertion target *)
  mutable rel_ids : (string * int) list;
  mutable next_rel_id : int;
  tids : (string, (string, int) Hashtbl.t) Hashtbl.t; (* rel -> labels-key -> tid *)
}

(* ---- physical allocation and shadow relocation ------------------------ *)

let alloc_phys t =
  match t.free_phys with
  | p :: rest ->
    t.free_phys <- rest;
    p
  | [] -> Pager.allocate t.pager

let resolve t logical =
  let p = t.pt.(logical) in
  if p = 0 then corrupt "logical page %d is unmapped" logical;
  p

let read_logical t logical = Pager.read_page t.pager (resolve t logical)

(* Copy-on-write: the first modification of a committed logical page in
   this cycle moves it to a fresh physical page; the old physical joins
   [pending_free] and is only reusable after the next commit, so a crash
   mid-cycle still finds the previous epoch's bytes untouched. *)
let shadow t logical =
  if not (Hashtbl.mem t.shadowed logical) then begin
    let p_old = t.pt.(logical) in
    let copy = Bytes.copy (Pager.read_page t.pager p_old) in
    let p_new = alloc_phys t in
    Pager.with_page t.pager p_new (fun b -> Bytes.blit copy 0 b 0 page_size);
    t.pt.(logical) <- p_new;
    t.pending_free <- p_old :: t.pending_free;
    Hashtbl.replace t.shadowed logical ()
  end

let modify_logical t logical f =
  shadow t logical;
  Hashtbl.replace t.dirty logical ();
  Pager.with_page t.pager t.pt.(logical) f

let grow_pt t =
  let cap = Array.length t.pt in
  if t.n_logical >= cap then begin
    let bigger = Array.make (max 64 (2 * cap)) 0 in
    Array.blit t.pt 0 bigger 0 cap;
    t.pt <- bigger
  end

let alloc_logical t =
  let l =
    match t.free_logical with
    | l :: rest ->
      t.free_logical <- rest;
      l
    | [] ->
      grow_pt t;
      let l = t.n_logical in
      t.n_logical <- t.n_logical + 1;
      l
  in
  let p = alloc_phys t in
  t.pt.(l) <- p;
  Hashtbl.replace t.shadowed l (); (* fresh: nothing older to preserve *)
  Hashtbl.replace t.dirty l ();
  Pager.with_page t.pager p (fun b -> Bytes.fill b 0 page_size '\000');
  l

let free_logical_page t l =
  t.pending_free <- t.pt.(l) :: t.pending_free;
  t.pt.(l) <- 0;
  t.free_logical <- l :: t.free_logical;
  Hashtbl.remove t.dirty l;
  Hashtbl.remove t.shadowed l

(* ---- meta pages -------------------------------------------------------- *)

let encode_meta t ~epoch ~base_lsn ~pt_pages =
  let w = W.create () in
  W.string w meta_magic;
  W.u32 w meta_version;
  W.u32 w epoch;
  W.u32 w base_lsn;
  W.u32 w t.n_logical;
  W.list w W.u32 t.blob_pages;
  W.list w W.u32 pt_pages;
  let body = W.contents w in
  if String.length body + 4 > page_size then
    failwith "Page_store: store too large for a single meta page";
  let page = Bytes.make page_size '\000' in
  Bytes.blit_string body 0 page 0 (String.length body);
  (* CRC over the whole zero-padded prefix so decode needs no length *)
  let crc = Codec.crc32 (Bytes.sub_string page 0 (page_size - 4)) in
  set_u32 page (page_size - 4) (Int32.to_int crc land 0xFFFFFFFF);
  page

type meta = {
  m_version : int;
  m_epoch : int;
  m_base_lsn : int;
  m_n_logical : int;
  m_blob_pages : int list;
  m_pt_pages : int list;
}

(* Version 1 also carried a B-tree root and the free-space map's page
   list; both are skipped here, and their pages stay mapped but unread
   until {!Db.open_dir} rebuilds the file. *)
let decode_meta page =
  try
    let body = Bytes.sub_string page 0 (page_size - 4) in
    let stored = get_u32 page (page_size - 4) in
    if Int32.to_int (Codec.crc32 body) land 0xFFFFFFFF <> stored then None
    else begin
      let r = R.of_string body in
      if R.string r <> meta_magic then None
      else
        let m_version = R.u32 r in
        if m_version <> 1 && m_version <> meta_version then None
        else
          let m_epoch = R.u32 r in
          let m_base_lsn = R.u32 r in
          let m_n_logical = R.u32 r in
          if m_version = 1 then ignore (R.u32 r);
          let m_blob_pages = R.list r R.u32 in
          if m_version = 1 then ignore (R.list r R.u32);
          let m_pt_pages = R.list r R.u32 in
          Some { m_version; m_epoch; m_base_lsn; m_n_logical; m_blob_pages; m_pt_pages }
    end
  with R.Corrupt _ -> None

(* ---- slotted heap pages ------------------------------------------------

   Header fields: count (slots in the directory) at 2, data_start (low
   edge of the packed data region, grows downward from page_size) at 4,
   live (non-tombstone slots) at 6. The slot directory starts at 16,
   4 bytes per slot: [u16 off][u16 len]; off = 0 marks a tombstone.
   TID = logical_page * 65536 + slot; compaction repacks the data region
   but never renumbers slots, and tombstone slots are reused first, so
   TIDs stay stable and bounded. *)

let slot_off i = header + (4 * i)
let tid_of ~page ~slot = (page * 65536) + slot
let tid_page tid = tid / 65536
let tid_slot tid = tid mod 65536

(* free = page_size - header - 4*count - (live record bytes): the space
   an insert can claim after compaction, assuming it needs a fresh slot.
   Deletes give back record bytes only (the slot stays, reusable). *)
let computed_free b =
  let count = get_u16 b 2 in
  let live_bytes = ref 0 in
  for i = 0 to count - 1 do
    if get_u16 b (slot_off i) <> 0 then live_bytes := !live_bytes + get_u16 b (slot_off i + 2)
  done;
  page_size - header - (4 * count) - !live_bytes

let init_heap_page b =
  Bytes.fill b 0 page_size '\000';
  Bytes.set b 0 (Char.chr tag_heap);
  set_u16 b 4 page_size

(* Repack the data region (live records only) against the page end;
   slots keep their numbers, offsets are rewritten. Uses a scratch copy
   because source and destination ranges overlap. *)
let compact_heap b =
  let scratch = Bytes.copy b in
  let count = get_u16 b 2 in
  let cursor = ref page_size in
  for i = 0 to count - 1 do
    let off = get_u16 scratch (slot_off i) in
    if off <> 0 then begin
      let len = get_u16 scratch (slot_off i + 2) in
      cursor := !cursor - len;
      Bytes.blit scratch off b !cursor len;
      set_u16 b (slot_off i) !cursor
    end
  done;
  set_u16 b 4 !cursor

(* ---- tuple records ----------------------------------------------------- *)

let encode_record ~rel_id ~sign labels =
  let w = W.create () in
  W.u32 w rel_id;
  W.u8 w (match sign with Types.Pos -> 1 | Types.Neg -> 0);
  W.list w W.string labels;
  W.contents w

let decode_record s =
  let r = R.of_string s in
  let rel_id = R.u32 r in
  let sign = if R.u8 r = 1 then Types.Pos else Types.Neg in
  let labels = R.list r R.string in
  (rel_id, sign, labels)

let labels_key labels = String.concat "\x00" labels

(* ---- tuple insert / delete --------------------------------------------- *)

let alloc_heap_page t =
  let l = alloc_logical t in
  modify_logical t l init_heap_page;
  Hashtbl.replace t.free_space l (page_size - header);
  l

(* First fit: the sticky fill page, then the free-space table, then a
   fresh page. [need] is conservative (assumes a fresh slot). *)
let place t need =
  let fits l =
    match Hashtbl.find_opt t.free_space l with Some free -> free >= need | None -> false
  in
  match t.fill_page with
  | Some l when fits l -> l
  | _ ->
    let found = ref None in
    (try
       Hashtbl.iter (fun l free -> if free >= need then (found := Some l; raise Exit)) t.free_space
     with Exit -> ());
    let l = match !found with Some l -> l | None -> alloc_heap_page t in
    t.fill_page <- Some l;
    l

let rel_tids t name =
  match Hashtbl.find_opt t.tids name with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace t.tids name tbl;
    tbl

let insert_tuple t ~rel ~rel_id ~sign labels =
  let record = encode_record ~rel_id ~sign labels in
  let len = String.length record in
  if len + 4 > page_size - header then
    failwith (Printf.sprintf "Page_store: tuple of %d bytes exceeds page capacity" len);
  let l = place t (len + 4) in
  let slot = ref 0 in
  let new_slot = ref false in
  modify_logical t l (fun b ->
      let count = get_u16 b 2 in
      let live = get_u16 b 6 in
      (* tombstone slots first: keeps TIDs dense and the directory small *)
      let s = ref (-1) in
      (try
         for i = 0 to count - 1 do
           if get_u16 b (slot_off i) = 0 then begin
             s := i;
             raise Exit
           end
         done
       with Exit -> ());
      new_slot := !s = -1;
      let si = if !new_slot then count else !s in
      let dir_end = header + (4 * if !new_slot then count + 1 else count) in
      if get_u16 b 4 - dir_end < len then compact_heap b;
      let data_start = get_u16 b 4 in
      assert (data_start - dir_end >= len);
      let off = data_start - len in
      Bytes.blit_string record 0 b off len;
      set_u16 b (slot_off si) off;
      set_u16 b (slot_off si + 2) len;
      if !new_slot then set_u16 b 2 (count + 1);
      set_u16 b 6 (live + 1);
      set_u16 b 4 off;
      slot := si);
  let free = Option.value (Hashtbl.find_opt t.free_space l) ~default:0 in
  Hashtbl.replace t.free_space l (free - len - if !new_slot then 4 else 0);
  let tid = tid_of ~page:l ~slot:!slot in
  Hashtbl.replace (rel_tids t rel) (labels_key labels) tid

(* Deletes give back the record's bytes; the slot stays, reusable. *)
let tombstone t tid =
  let l = tid_page tid and s = tid_slot tid in
  let len = ref 0 in
  modify_logical t l (fun b ->
      len := get_u16 b (slot_off s + 2);
      set_u16 b (slot_off s) 0;
      set_u16 b (slot_off s + 2) 0;
      set_u16 b 6 (get_u16 b 6 - 1));
  let free = Option.value (Hashtbl.find_opt t.free_space l) ~default:0 in
  Hashtbl.replace t.free_space l (free + !len)

let delete_tuple t ~rel labels =
  let key = labels_key labels in
  let tbl = rel_tids t rel in
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some tid ->
    tombstone t tid;
    Hashtbl.remove tbl key

(* ---- DDL blob ----------------------------------------------------------

   Hierarchies, schemas, observed stats and the relation-id map, spread
   over [tag_blob] pages listed in the meta. The schema-bearing part is
   a skeleton {!Snapshot} (every relation encoded empty), so the blob is
   O(schema + stats), not O(data), and the interchange codec is reused
   verbatim. *)

let blob_cap = page_size - header

let encode_blob ~skeleton ~rel_ids ~next_rel_id =
  let w = W.create () in
  W.string w skeleton;
  W.list w
    (fun w (name, id) ->
      W.string w name;
      W.u32 w id)
    rel_ids;
  W.u32 w next_rel_id;
  W.contents w

let decode_blob blob =
  if blob = "" then ("", [], 0)
  else
    try
      let r = R.of_string blob in
      let skeleton = R.string r in
      let rel_ids =
        R.list r (fun r ->
            let name = R.string r in
            let id = R.u32 r in
            (name, id))
      in
      let next = R.u32 r in
      (skeleton, rel_ids, next)
    with R.Corrupt msg -> corrupt "DDL blob: %s" msg

let skeleton_of_catalog cat =
  let sk = Catalog.create () in
  List.iter (Catalog.define_hierarchy sk) (Catalog.hierarchies cat);
  List.iter
    (fun rel ->
      Catalog.define_relation ~check:false sk
        (Relation.empty ~name:(Relation.name rel) (Relation.schema rel)))
    (Catalog.relations cat);
  List.iter
    (fun ((rel, label), count) -> Catalog.record_stat sk ~rel ~label count)
    (Catalog.observed_stats cat);
  Snapshot.encode sk

let set_ddl t cat =
  let blob =
    encode_blob ~skeleton:(skeleton_of_catalog cat) ~rel_ids:t.rel_ids
      ~next_rel_id:t.next_rel_id
  in
  if not (String.equal blob t.blob) then begin
    let len = String.length blob in
    let chunks = (len + blob_cap - 1) / blob_cap in
    while List.length t.blob_pages < chunks do
      t.blob_pages <- t.blob_pages @ [ alloc_logical t ]
    done;
    while List.length t.blob_pages > chunks do
      match List.rev t.blob_pages with
      | last :: _ ->
        free_logical_page t last;
        t.blob_pages <- List.filter (fun l -> l <> last) t.blob_pages
      | [] -> assert false
    done;
    List.iteri
      (fun i l ->
        let off = i * blob_cap in
        let n = min blob_cap (len - off) in
        modify_logical t l (fun b ->
            Bytes.fill b 0 page_size '\000';
            Bytes.set b 0 (Char.chr tag_blob);
            set_u16 b 4 n;
            Bytes.blit_string blob off b header n))
      t.blob_pages;
    t.blob <- blob
  end

(* ---- commit ------------------------------------------------------------ *)

let rel_id_of t name =
  match List.assoc_opt name t.rel_ids with
  | Some id -> id
  | None ->
    let id = t.next_rel_id in
    t.next_rel_id <- id + 1;
    t.rel_ids <- (name, id) :: t.rel_ids;
    id

(* Set (via [Testing]) to make the next commit die after the data flush
   but before the meta-root swap — the kill -9 recovery tests' window. *)
let crash_before_meta = ref false

let stamp_crc b =
  set_u32 b 12 0;
  let crc = Int32.to_int (Codec.crc32 (Bytes.to_string b)) land 0xFFFFFFFF in
  set_u32 b 12 crc

let commit t ?(fsync = true) ~base_lsn () =
  if t.version <> meta_version then
    invalid_arg "Page_store.commit: an older-format store is rebuilt, not written in place";
  (* 1. seal every dirty page: logical id + CRC in the shared header *)
  let dirty = Hashtbl.fold (fun l () acc -> if t.pt.(l) <> 0 then l :: acc else acc) t.dirty [] in
  List.iter
    (fun l ->
      Pager.with_page t.pager t.pt.(l) (fun b ->
          set_u32 b 8 l;
          stamp_crc b))
    dirty;
  (* 2. fresh page table into physicals unreferenced by the live meta *)
  let n_pt = max 1 ((t.n_logical + pt_per_page - 1) / pt_per_page) in
  let new_pt_pages = List.init n_pt (fun _ -> alloc_phys t) in
  List.iteri
    (fun i p ->
      Pager.with_page t.pager p (fun b ->
          Bytes.fill b 0 page_size '\000';
          for j = 0 to pt_per_page - 1 do
            let l = (i * pt_per_page) + j in
            if l < t.n_logical then set_u32 b (4 * j) t.pt.(l)
          done))
    new_pt_pages;
  (* 3. data + page table durable before the root moves *)
  Pager.flush t.pager;
  if fsync then Pager.fsync t.pager;
  if !crash_before_meta then Unix._exit 137;
  (* 4. atomic root swap: the alternate meta slot, then fsync *)
  let epoch = t.epoch + 1 in
  let meta = encode_meta t ~epoch ~base_lsn ~pt_pages:new_pt_pages in
  Pager.write_page t.pager (epoch land 1) meta;
  Pager.flush t.pager;
  if fsync then Pager.fsync t.pager;
  (* 5. the previous epoch's relocated pages become reusable *)
  t.free_phys <- t.pending_free @ t.pt_pages @ t.free_phys;
  t.pending_free <- [];
  t.pt_pages <- new_pt_pages;
  t.epoch <- epoch;
  t.base_lsn <- base_lsn;
  Hashtbl.reset t.shadowed;
  Hashtbl.reset t.dirty;
  let written = List.length dirty + n_pt + 1 in
  let total = Pager.page_count t.pager in
  Hr_obs.Metrics.set g_dirty written;
  Hr_obs.Metrics.set g_total total;
  (written, total)

(* ---- create / open ----------------------------------------------------- *)

let fresh pager =
  {
    pager;
    epoch = 0;
    base_lsn = 0;
    pt = Array.make 64 0;
    n_logical = 0;
    free_logical = [];
    free_phys = [];
    pending_free = [];
    pt_pages = [];
    version = meta_version;
    blob = "";
    blob_pages = [];
    shadowed = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    free_space = Hashtbl.create 64;
    fill_page = None;
    rel_ids = [];
    next_rel_id = 1;
    tids = Hashtbl.create 16;
  }

let create ?(pool_pages = 256) path =
  if Sys.file_exists path then Sys.remove path;
  let pager = Pager.create ~pool_pages path in
  (* physicals 0 and 1 are the two meta slots, forever *)
  ignore (Pager.allocate pager);
  ignore (Pager.allocate pager);
  fresh pager

let open_ ?(pool_pages = 256) path =
  let pager = Pager.create ~pool_pages ~repair_partial:true path in
  let phys = Pager.page_count pager in
  if phys < 2 then corrupt "%s: missing meta pages" path;
  let pick =
    match
      (decode_meta (Pager.read_page pager 0), decode_meta (Pager.read_page pager 1))
    with
    | Some a, Some b -> if a.m_epoch >= b.m_epoch then a else b
    | Some a, None -> a
    | None, Some b -> b
    | None, None -> corrupt "%s: both meta pages are corrupt" path
  in
  let t = fresh pager in
  t.version <- pick.m_version;
  t.epoch <- pick.m_epoch;
  t.base_lsn <- pick.m_base_lsn;
  t.n_logical <- pick.m_n_logical;
  t.blob_pages <- pick.m_blob_pages;
  t.pt_pages <- pick.m_pt_pages;
  t.pt <- Array.make (max 64 pick.m_n_logical) 0;
  (* page table *)
  let seen_phys = Hashtbl.create 256 in
  Hashtbl.replace seen_phys 0 ();
  Hashtbl.replace seen_phys 1 ();
  List.iteri
    (fun i p ->
      if p < 2 || p >= phys then corrupt "meta references page-table page %d out of range" p;
      Hashtbl.replace seen_phys p ();
      let b = Pager.read_page pager p in
      for j = 0 to pt_per_page - 1 do
        let l = (i * pt_per_page) + j in
        if l < t.n_logical then t.pt.(l) <- get_u32 b (4 * j)
      done)
    pick.m_pt_pages;
  for l = 0 to t.n_logical - 1 do
    let p = t.pt.(l) in
    if p = 0 then t.free_logical <- l :: t.free_logical
    else begin
      if p < 2 || p >= phys then corrupt "logical page %d maps to physical %d out of range" l p;
      if Hashtbl.mem seen_phys p then corrupt "physical page %d is mapped twice" p;
      Hashtbl.replace seen_phys p ()
    end
  done;
  for p = 2 to phys - 1 do
    if not (Hashtbl.mem seen_phys p) then t.free_phys <- p :: t.free_phys
  done;
  (* DDL blob *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      let b = read_logical t l in
      if Char.code (Bytes.get b 0) <> tag_blob then corrupt "page %d is not a blob page" l;
      Buffer.add_subbytes buf b header (get_u16 b 4))
    t.blob_pages;
  t.blob <- Buffer.contents buf;
  let _, rel_ids, next = decode_blob t.blob in
  t.rel_ids <- rel_ids;
  t.next_rel_id <- max 1 next;
  t

let close t = Pager.close t.pager
let base_lsn t = t.base_lsn
let version t = t.version
let pager t = t.pager

(* ---- catalog reconstruction (recovery) --------------------------------- *)

let iter_heap_pages t f =
  for l = 0 to t.n_logical - 1 do
    if t.pt.(l) <> 0 then begin
      let b = read_logical t l in
      if Char.code (Bytes.get b 0) = tag_heap then f l b
    end
  done

(* [f slot record] for every live slot of heap page [b]. *)
let iter_slots b f =
  for s = 0 to get_u16 b 2 - 1 do
    let off = get_u16 b (slot_off s) in
    if off <> 0 then f s (Bytes.sub_string b off (get_u16 b (slot_off s + 2)))
  done

(* Rebuild the in-memory catalog from pages, and this store's TID and
   free-space tables with it: the skeleton snapshot gives hierarchies,
   schemas and stats; one heap scan refills every relation's tuples,
   records each tuple's TID and each heap page's free bytes. Recovery
   reads O(data); checkpoint writes stay O(delta). *)
let to_catalog t =
  let skeleton, _, _ = decode_blob t.blob in
  let cat =
    if skeleton = "" then Catalog.create ()
    else
      try Snapshot.decode ~check:false skeleton
      with Snapshot.Corrupt_snapshot msg -> corrupt "DDL skeleton: %s" msg
  in
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun (name, id) ->
      match Catalog.find_relation cat name with
      | Some rel ->
        let schema = Relation.schema rel in
        let arity = Schema.arity schema in
        let memo = Array.init arity (fun _ -> Hashtbl.create 256) in
        Hashtbl.replace by_id id (name, schema, memo, ref rel)
      | None -> corrupt "relation id %d (%s) missing from DDL skeleton" id name)
    t.rel_ids;
  Hashtbl.reset t.tids;
  Hashtbl.reset t.free_space;
  t.fill_page <- None;
  iter_heap_pages t (fun l b ->
      Hashtbl.replace t.free_space l (computed_free b);
      iter_slots b (fun s record ->
          let tid = tid_of ~page:l ~slot:s in
          let rel_id, sign, labels = decode_record record in
          match Hashtbl.find_opt by_id rel_id with
          | None -> corrupt "tuple %d references unknown relation id %d" tid rel_id
          | Some (name, schema, memo, rel) ->
            let arity = Schema.arity schema in
            if List.length labels <> arity then
              corrupt "tuple %d arity %d does not match %s/%d" tid (List.length labels) name
                arity;
            let coords = Array.make arity 0 in
            List.iteri
              (fun i label ->
                let node =
                  match Hashtbl.find_opt memo.(i) label with
                  | Some v -> v
                  | None ->
                    let v =
                      try Hierarchy.find_exn (Schema.hierarchy schema i) label
                      with _ -> corrupt "tuple %d label %S unknown in hierarchy" tid label
                    in
                    Hashtbl.add memo.(i) label v;
                    v
                in
                coords.(i) <- node)
              labels;
            (try rel := Relation.add !rel (Item.make schema coords) sign
             with Types.Model_error msg -> corrupt "tuple %d: %s" tid msg);
            Hashtbl.replace (rel_tids t name) (labels_key labels) tid));
  Hashtbl.iter (fun _ (_, _, _, rel) -> Catalog.replace_relation cat !rel) by_id;
  cat

(* ---- relation apply (checkpoint delta) --------------------------------- *)

let tuple_labels schema tuple =
  List.init (Schema.arity schema) (fun i ->
      Hierarchy.node_label (Schema.hierarchy schema i) (Item.coord tuple.Relation.item i))

(* Write [rel]'s tuples into pages as a delta against [old] (the
   relation value as of the last checkpoint): unchanged tuples touch no
   page, so checkpoint cost tracks the mutation burst, not the relation
   size. *)
let apply_relation t ?old rel =
  let name = Relation.name rel in
  let rel_id = rel_id_of t name in
  let schema = Relation.schema rel in
  let del o tu = delete_tuple t ~rel:name (tuple_labels (Relation.schema o) tu) in
  let ins tu = insert_tuple t ~rel:name ~rel_id ~sign:tu.Relation.sign (tuple_labels schema tu) in
  match old with
  | None -> List.iter ins (Relation.tuples rel)
  | Some o ->
    (* Both tuple lists ascend by [Item.compare], so a merge walk finds
       the delta with one integer-array comparison per tuple; labels (the
       expensive part — per-coordinate name rendering) are only computed
       for tuples that actually changed. Keeps an incremental checkpoint's
       CPU cost near the delta, not the relation size. *)
    let rec walk olds news =
      match olds, news with
      | [], [] -> ()
      | ot :: os, [] ->
        del o ot;
        walk os []
      | [], nt :: ns ->
        ins nt;
        walk [] ns
      | ot :: os, nt :: ns ->
        let c = Item.compare ot.Relation.item nt.Relation.item in
        if c = 0 then begin
          if not (Types.sign_equal ot.Relation.sign nt.Relation.sign) then begin
            (* sign flip: the record stores the sign, so rewrite in place *)
            del o ot;
            ins nt
          end;
          walk os ns
        end
        else if c < 0 then begin
          del o ot;
          walk os news
        end
        else begin
          ins nt;
          walk olds ns
        end
    in
    walk (Relation.tuples o) (Relation.tuples rel)

let drop_relation t name =
  Option.iter (Hashtbl.iter (fun _ tid -> tombstone t tid)) (Hashtbl.find_opt t.tids name);
  Hashtbl.remove t.tids name;
  t.rel_ids <- List.filter (fun (n, _) -> n <> name) t.rel_ids

let apply_catalog t cat =
  List.iter (fun rel -> apply_relation t rel) (Catalog.relations cat)

(* ---- integrity check (fsck) -------------------------------------------- *)

let check t =
  let faults = ref [] in
  let fault fmt = Format.kasprintf (fun detail -> faults := detail :: !faults) fmt in
  for l = 0 to t.n_logical - 1 do
    if t.pt.(l) <> 0 then begin
      let b = read_logical t l in
      let stored = get_u32 b 12 in
      let copy = Bytes.copy b in
      set_u32 copy 12 0;
      let actual = Int32.to_int (Codec.crc32 (Bytes.to_string copy)) land 0xFFFFFFFF in
      if stored <> actual then
        fault "logical page %d: CRC stored %08x, computed %08x" l stored actual
      else if get_u32 b 8 <> l then
        fault "logical page %d: header claims logical id %d" l (get_u32 b 8)
      else if Char.code (Bytes.get b 0) = tag_heap then
        try
          iter_slots b (fun s record ->
              match decode_record record with
              | exception R.Corrupt _ -> fault "page %d slot %d: record does not decode" l s
              | _ -> ())
        with Invalid_argument _ -> fault "page %d: slot directory points outside the page" l
    end
  done;
  List.rev !faults

(* ---- corruption and crash hooks for tests ------------------------------ *)

module Testing = struct
  let crash_before_meta = crash_before_meta

  (* An in-place edit that bypasses shadowing on purpose: committed
     state rotting on disk. *)
  let corrupt_page t =
    let heap = ref None in
    (try
       iter_heap_pages t (fun l _ ->
           heap := Some l;
           raise Exit)
     with Exit -> ());
    match !heap with
    | None -> failwith "store has no heap pages"
    | Some l ->
      Pager.with_page t.pager (resolve t l) (fun b ->
          let last = page_size - 1 in
          Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff)));
      Pager.flush t.pager

  let page_tags t =
    List.filter_map
      (fun l -> if t.pt.(l) = 0 then None else Some (Char.code (Bytes.get (read_logical t l) 0)))
      (List.init t.n_logical Fun.id)
end

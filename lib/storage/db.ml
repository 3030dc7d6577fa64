module Eval = Hr_query.Eval
module Parser = Hr_query.Parser
module Ast = Hr_query.Ast
open Hierel

let m_statements = Hr_obs.Metrics.counter "storage.db.statements"
let m_checkpoints = Hr_obs.Metrics.counter "storage.db.checkpoints"
let g_lsn = Hr_obs.Metrics.gauge "storage.db.lsn"

type t = {
  dir : string;
  mutable catalog : Catalog.t;
  mutable store : Page_store.t;
  (* O(1) capture of the catalog as of the last checkpoint: a relation
     whose current binding is physically identical was not touched, so
     the checkpoint delta skips it without reading a tuple. *)
  mutable last_ckpt : Catalog.t;
  mutable ckpt_written : int;
  mutable ckpt_total : int;
  mutable wal : Wal.t;
  mutable pending : int;
  mutable lsn : int;
  mutable base_lsn : int;
  (* In-memory image of recent WAL records, newest first, covering
     exactly the LSNs in (tail_base, lsn]. Replication catch-up
     ([records_since]) is served from here so a committed statement does
     not re-read and re-parse the whole wal.log per subscriber. The tail
     is kept across checkpoints (records stay addressable even after the
     file is truncated) and bounded: once it exceeds [2 * tail_cap]
     records the oldest half is forgotten and [tail_base] advances. *)
  mutable tail : Wal.record list;
  mutable tail_len : int;
  mutable tail_base : int;
  (* Highest LSN covered by a completed WAL sync. Shipping must never
     send records above this: a replica could make them durable and ack
     before the primary does, and a primary crash would then leave the
     replica ahead — divergence. *)
  mutable synced_lsn : int;
  auto_checkpoint_every : int;
  fsync : bool;
  lock_fd : Unix.file_descr;
}

let tail_cap = 4096

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let pages_path dir = Filename.concat dir "pages.db"
let wal_path dir = Filename.concat dir "wal.log"
let lock_path dir = Filename.concat dir "LOCK"
let meta_path dir = Filename.concat dir "meta"
let graphs_path dir = Filename.concat dir "graphs.bin"

(* One writer per directory: an OS-level advisory lock on a LOCK file.
   The lock dies with the process, so a crash never wedges the db. *)
let acquire_lock dir =
  let fd = Unix.openfile (lock_path dir) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (try Unix.lockf fd Unix.F_TLOCK 0
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
     Unix.close fd;
     failwith (Printf.sprintf "database %s is locked by another process" dir));
  fd

(* [meta] holds the snapshot's LSN as a "base_lsn=N" first line, written
   atomically (tmp + rename) so a crash never leaves a half-written
   number next to a valid snapshot. Absent means 0 (pre-LSN directory or
   fresh database). A second "published_lsn=N" line records the catalog
   version LSN that was publishable at the checkpoint — by the
   visibility-never-outruns-durability invariant (docs/CONCURRENCY.md)
   it can never legitimately exceed the durable head LSN, which is what
   [hrdb fsck] finding F019 verifies. [read_meta] only consumes the
   first line, so directories written by older builds load unchanged. *)
let read_meta dir =
  let path = meta_path dir in
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match String.split_on_char '=' (String.trim line) with
    | [ "base_lsn"; n ] -> ( match int_of_string_opt n with Some n when n >= 0 -> n | _ -> 0)
    | _ -> 0
  end

let write_meta dir base_lsn =
  let tmp = meta_path dir ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "base_lsn=%d\n" base_lsn;
  (* the checkpoint is itself a commit point: the snapshot's LSN is
     both durable and the newest publishable version *)
  Printf.fprintf oc "published_lsn=%d\n" base_lsn;
  close_out oc;
  Sys.rename tmp (meta_path dir)

(* Build a paged store for [catalog] beside [pages], then rename it into
   place: a crash mid-build leaves only a dead .tmp (removed on the next
   open), never a half-written pages.db. *)
let build_store ~fsync ~base_lsn pages catalog =
  let tmp = pages ^ ".tmp" in
  let s = Page_store.create tmp in
  Page_store.apply_catalog s catalog;
  Page_store.set_ddl s catalog;
  ignore (Page_store.commit s ~fsync ~base_lsn ());
  Page_store.close s;
  Sys.rename tmp pages;
  (* reopen + to_catalog primes the store's TID maps for later deltas *)
  let s = Page_store.open_ pages in
  (s, Page_store.to_catalog s)

let open_dir ?(auto_checkpoint_every = 10_000) ?(fsync = true) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let lock_fd = acquire_lock dir in
  let pages = pages_path dir in
  if Sys.file_exists (pages ^ ".tmp") then Sys.remove (pages ^ ".tmp");
  let store, catalog =
    if Sys.file_exists pages then begin
      (* Trusted load: pages were sealed (CRC) by the committer; [fsck]
         re-runs the deep checks. Recovery reads the page store and
         replays the WAL tail onto it — no monolithic snapshot decode. *)
      let s = Page_store.open_ pages in
      let catalog = Page_store.to_catalog s in
      if Page_store.version s = Page_store.meta_version then (s, catalog)
      else begin
        (* An older format is rewritten whole, never written in place:
           its retired B-tree and free-space-map pages go with the old
           file. *)
        let base_lsn = Page_store.base_lsn s in
        Page_store.close s;
        build_store ~fsync ~base_lsn pages catalog
      end
    end
    else begin
      (* First open of a legacy (snapshot.bin) or fresh directory:
         migrate into a paged store. The snapshot codec survives as the
         interchange/bootstrap format; the stale files are removed so
         they cannot shadow the paged state. *)
      let catalog =
        if Sys.file_exists (snapshot_path dir) then
          Snapshot.read_file ~check:false (snapshot_path dir)
        else Catalog.create ()
      in
      let sc = build_store ~fsync ~base_lsn:(read_meta dir) pages catalog in
      if Sys.file_exists (snapshot_path dir) then Sys.remove (snapshot_path dir);
      if Sys.file_exists (graphs_path dir) then Sys.remove (graphs_path dir);
      sc
    end
  in
  let base_lsn = Page_store.base_lsn store in
  (* capture the page store's state before replay mutates the catalog *)
  let last_ckpt = Catalog.snapshot catalog in
  let scan = Wal.recover (wal_path dir) in
  let records = scan.Wal.records in
  (match scan.Wal.tail with
  | None -> ()
  | Some { Wal.dropped_bytes; dropped_records } ->
    (* Data-loss-free truncation: only unacknowledged bytes past the
       last intact record are dropped, but the operator should see it. *)
    Printf.eprintf
      "hrdb: warning: %s had a torn tail; dropped %d byte(s) (~%d record(s)) past the \
       last intact record\n\
       %!"
      (wal_path dir) dropped_bytes dropped_records;
    (* Repair the file too: appending after unreadable garbage would
       strand every post-recovery record beyond the next replay's stop
       point, silently losing acknowledged statements on the reopen
       after this one. *)
    Wal.truncate_to (wal_path dir) scan.Wal.ok_bytes);
  (* A crash between writing snapshot.bin + meta and truncating the WAL
     leaves records with lsn <= base_lsn in the file; the snapshot
     already contains them, so replaying them would double-apply (or
     fail outright on e.g. a duplicate CREATE). *)
  let records = List.filter (fun { Wal.lsn; _ } -> lsn > base_lsn) records in
  List.iter
    (fun { Wal.stmt; _ } ->
      match Eval.run_script catalog stmt with
      | Ok _ -> ()
      | Error msg ->
        (* A logged statement failing on replay means the snapshot and
           log disagree; refuse to continue on half-recovered state. *)
        failwith (Printf.sprintf "WAL replay failed on %S: %s" stmt msg))
    records;
  let lsn =
    List.fold_left (fun acc { Wal.lsn; _ } -> max acc lsn) base_lsn records
  in
  Hr_obs.Metrics.set g_lsn lsn;
  {
    dir;
    catalog;
    store;
    last_ckpt;
    ckpt_written = 0;
    ckpt_total = 0;
    wal = Wal.open_ ~fsync (wal_path dir);
    pending = List.length records;
    lsn;
    base_lsn;
    tail = List.rev records;
    tail_len = List.length records;
    tail_base = base_lsn;
    synced_lsn = lsn;
    auto_checkpoint_every;
    fsync;
    lock_fd;
  }

let catalog t = t.catalog
let dir t = t.dir

(* The single definition lives in the AST (the effect analysis shares
   it); kept under its historical name here for the storage callers. *)
let mutating = Ast.mutating

(* The WAL stores each mutating statement's source text, so the script is
   split into statements here (HRQL has no string literals, making ';' an
   unambiguous separator) and each piece parsed and executed separately. *)
let split_statements script =
  String.split_on_char ';' script
  |> List.map String.trim
  |> List.filter (fun s -> s <> "" && not (String.for_all (fun c -> c = '\n' || c = ' ') s))

let script_mutation script =
  (* Every lexer/parser exception is caught here: this runs on the
     server's pre-flight path, where an attacker-controlled payload that
     raised would escape the event loop and kill the process. *)
  let is_mutating source =
    match Hr_query.Lexer.tokenize source with
    | [] -> false (* comment-only segment *)
    | _ :: _ -> (
      match Parser.parse_statement source with
      | { Ast.stmt; _ } -> mutating stmt
      | exception Parser.Parse_error _ -> false
      | exception Hr_query.Lexer.Lex_error _ -> false)
    | exception Hr_query.Lexer.Lex_error _ -> false
  in
  List.find_opt is_mutating (split_statements script)

let tail_push t record =
  t.tail <- record :: t.tail;
  t.tail_len <- t.tail_len + 1;
  if t.tail_len > 2 * tail_cap then begin
    let kept = List.filteri (fun i _ -> i < tail_cap) t.tail in
    (* oldest kept record is last in the newest-first list *)
    let oldest = List.nth kept (tail_cap - 1) in
    t.tail <- kept;
    t.tail_len <- tail_cap;
    t.tail_base <- oldest.Wal.lsn - 1
  end

let log_statement t source =
  t.lsn <- t.lsn + 1;
  let stmt = source ^ ";" in
  Wal.append t.wal ~lsn:t.lsn stmt;
  tail_push t { Wal.lsn = t.lsn; stmt };
  t.pending <- t.pending + 1;
  Hr_obs.Metrics.set g_lsn t.lsn

let checkpoint t =
  Hr_obs.Metrics.incr m_checkpoints;
  (* Wal.close below syncs buffered appends before the file is truncated;
     everything up to [t.lsn] is durable once the pages commit. *)
  t.synced_lsn <- t.lsn;
  (* Delta, not rewrite: only relations whose binding changed since the
     last checkpoint are diffed, and only their changed tuples touch a
     page. A crash after the page commit but before the WAL truncation
     cannot double-apply — replay skips LSNs at or below the store's
     base_lsn. *)
  List.iter
    (fun rel ->
      match Catalog.find_relation t.last_ckpt (Relation.name rel) with
      | Some old when old == rel -> ()
      | Some old -> Page_store.apply_relation t.store ~old rel
      | None -> Page_store.apply_relation t.store rel)
    (Catalog.relations t.catalog);
  List.iter
    (fun old ->
      match Catalog.find_relation t.catalog (Relation.name old) with
      | Some _ -> ()
      | None -> Page_store.drop_relation t.store (Relation.name old))
    (Catalog.relations t.last_ckpt);
  Page_store.set_ddl t.store t.catalog;
  let written, total = Page_store.commit t.store ~fsync:t.fsync ~base_lsn:t.lsn () in
  t.ckpt_written <- written;
  t.ckpt_total <- total;
  write_meta t.dir t.lsn;
  Wal.close t.wal;
  Wal.truncate (wal_path t.dir);
  t.wal <- Wal.open_ ~fsync:t.fsync (wal_path t.dir);
  t.base_lsn <- t.lsn;
  t.pending <- 0;
  t.last_ckpt <- Catalog.snapshot t.catalog

let last_checkpoint_pages t = (t.ckpt_written, t.ckpt_total)

(* A long-lived primary would otherwise grow wal.log without bound (and
   pay for it at the next recovery); the tail keeps checkpointed records
   addressable for replication catch-up. *)
let maybe_auto_checkpoint t =
  if t.auto_checkpoint_every > 0 && t.pending >= t.auto_checkpoint_every then
    checkpoint t

(* Executes a script, appending mutating statements to the WAL buffer
   without syncing. The caller owns the commit point: nothing run here
   may be acknowledged to a client until [sync] returns. *)
let exec_buffered t script =
  let rec run acc = function
    | [] -> Ok (List.rev acc)
    | source :: rest -> (
      (* tokenize inside the match, not in a [when] guard: a guard that
         raises [Lex_error] would escape [exec] entirely instead of
         becoming an [Error] reply *)
      match Hr_query.Lexer.tokenize source with
      | [] -> run acc rest (* comment-only segment *)
      | exception Hr_query.Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
      | _ :: _ -> (
      match Parser.parse_statement source with
      | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
      | exception Hr_query.Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
      | { Ast.stmt; _ } -> (
        Hr_obs.Metrics.incr m_statements;
        match Eval.exec t.catalog stmt with
        | Ok out ->
          (* log only acknowledged statements: a rejected update (e.g. an
             integrity violation) must not poison replay *)
          if mutating stmt then log_statement t source;
          run (out :: acc) rest
        | Error msg -> Error msg)))
  in
  let result = run [] (split_statements script) in
  maybe_auto_checkpoint t;
  result

let sync t =
  Wal.sync t.wal;
  t.synced_lsn <- t.lsn

let unsynced t = Wal.unsynced t.wal
let synced_lsn t = t.synced_lsn

(* The sequential path keeps its historical contract: one call, one
   durable commit. Batching callers use [exec_buffered]/[commit_many]
   and share the sync. *)
let exec t script =
  let result = exec_buffered t script in
  sync t;
  result

let commit_many t scripts =
  let results = List.map (exec_buffered t) scripts in
  sync t;
  results

let close t =
  Wal.close t.wal;
  Page_store.close t.store;
  (try Unix.lockf t.lock_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
  Unix.close t.lock_fd

let wal_records t = t.pending
let lsn t = t.lsn
let base_lsn t = t.base_lsn

let records_since t from_lsn =
  if from_lsn >= t.tail_base then begin
    (* served from memory: the tail is newest-first, so collecting while
       the LSN stays above the offset yields oldest-first *)
    let rec collect acc = function
      | ({ Wal.lsn; _ } as r) :: rest when lsn > from_lsn -> collect (r :: acc) rest
      | _ -> acc
    in
    collect [] t.tail
  end
  else List.of_seq (Wal.stream_from t.wal from_lsn)

let snapshot_image t = Snapshot.encode t.catalog

let install_snapshot t ~lsn image =
  match Snapshot.decode image with
  | exception Snapshot.Corrupt_snapshot msg -> Error ("corrupt snapshot image: " ^ msg)
  | catalog ->
    (* A replica image replaces everything: rebuild the paged store from
       scratch (tmp + rename, same crash safety as migration) rather
       than diffing against state the primary no longer vouches for. *)
    Page_store.close t.store;
    let store, catalog = build_store ~fsync:t.fsync ~base_lsn:lsn (pages_path t.dir) catalog in
    t.store <- store;
    t.catalog <- catalog;
    t.last_ckpt <- Catalog.snapshot catalog;
    write_meta t.dir lsn;
    Wal.close t.wal;
    Wal.truncate (wal_path t.dir);
    t.wal <- Wal.open_ ~fsync:t.fsync (wal_path t.dir);
    t.lsn <- lsn;
    t.base_lsn <- lsn;
    t.pending <- 0;
    t.tail <- [];
    t.tail_len <- 0;
    t.tail_base <- lsn;
    t.synced_lsn <- lsn;
    Hr_obs.Metrics.set g_lsn lsn;
    Ok ()

let apply_replicated t ~lsn source =
  if lsn <= t.lsn then
    Error (Printf.sprintf "duplicate record: LSN %d already applied (at %d)" lsn t.lsn)
  else
    match Eval.run_script t.catalog source with
    | Ok _ ->
      Hr_obs.Metrics.incr m_statements;
      Wal.append t.wal ~lsn source;
      tail_push t { Wal.lsn; stmt = source };
      t.pending <- t.pending + 1;
      t.lsn <- lsn;
      Hr_obs.Metrics.set g_lsn lsn;
      Ok ()
    | Error msg -> Error msg

(* The bookkeeping half of [apply_replicated] without the evaluation:
   for callers (the parallel WAL apply in lib/repl) that evaluated the
   record against a snapshot and installed the result themselves, but
   must still preserve the local WAL's contiguity discipline (fsck
   F007) record by record, in the primary's LSN order. *)
let log_replicated t ~lsn source =
  if lsn <= t.lsn then
    Error (Printf.sprintf "duplicate record: LSN %d already applied (at %d)" lsn t.lsn)
  else begin
    Hr_obs.Metrics.incr m_statements;
    Wal.append t.wal ~lsn source;
    tail_push t { Wal.lsn; stmt = source };
    t.pending <- t.pending + 1;
    t.lsn <- lsn;
    Hr_obs.Metrics.set g_lsn lsn;
    Ok ()
  end

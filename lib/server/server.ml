open Hierel
module Wire = Hr_frames.Wire

let m_connections = Hr_obs.Metrics.counter "server.connections"
let m_frames = Hr_obs.Metrics.counter "server.frames_served"
let m_errors = Hr_obs.Metrics.counter "server.frame_errors"
let h_frame = Hr_obs.Metrics.histogram "server.frame_ns"

(* Group-commit visibility: how many frames each event-loop tick
   executed (pipelining depth actually achieved) and how many records
   each shipping pass coalesced into one subscriber push. *)
let h_frames_per_tick = Hr_obs.Metrics.histogram "server.frames_per_tick"
let h_records_per_ship = Hr_obs.Metrics.histogram "repl.records_per_ship"

(* Primary-side replication metrics (docs/OBSERVABILITY.md). [repl.lag]
   is the LSN delta between the primary and the last acknowledged offset
   — 0 means the acking replica was caught up at that moment. *)
let m_shipped = Hr_obs.Metrics.counter "repl.records_shipped"
let m_bootstraps = Hr_obs.Metrics.counter "repl.snapshot_bootstraps"
let m_acks = Hr_obs.Metrics.counter "repl.acks"
let m_backlog_drops = Hr_obs.Metrics.counter "repl.backlog_drops"
let g_lag = Hr_obs.Metrics.gauge "repl.lag"
let g_subscribers = Hr_obs.Metrics.gauge "repl.subscribers"

(* Reader-domain offload: how far behind the latest published version a
   pinned read ran, and how many reads went to the pool vs stayed on the
   event loop (docs/CONCURRENCY.md). *)
let g_pinned_lag = Hr_obs.Metrics.gauge "exec.pinned_version_lag"
let m_inline_reads = Hr_obs.Metrics.counter "exec.inline_reads"

type backend = Memory of Catalog.t | Durable of Hr_storage.Db.t

(* One queued reply. Replies leave a connection strictly in request
   order: inline handlers fill their slot immediately, offloaded reads
   fill theirs when the pool completes them, and [pump_conn] only emits
   the filled prefix — a fast inline ack can never overtake a slower
   offloaded read submitted before it. *)
type pending = { mutable reply : (string * string) option }

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  mutable subscribed : bool;
  mutable sent_lsn : int;
  (* FIFO of replies not yet appended to [out]. *)
  slots : pending Queue.t;
  (* This conn buffered an ack for a statement whose group commit has
     not happened yet: no output may reach the kernel until the commit
     point (an early ack could claim durability a crash would break).
     Per-connection on purpose — other conns' offloaded reads are
     derived from already-durable published versions and keep draining
     while a batch is open. *)
  mutable held : bool;
  (* Sequential-path connections block on [Wire.recv], so their replies
     must be computed before [commit_now] returns: never offload. *)
  inline_only : bool;
  (* Outgoing bytes not yet accepted by the kernel, in
     [out.[out_start .. out_start+out_len)]. Event-loop connections are
     non-blocking: a frame is appended here and written opportunistically;
     the remainder drains when [poll]'s select reports the fd writable.
     This keeps one stalled subscriber from blocking the loop (and every
     other client) on a full socket buffer. *)
  mutable out : Bytes.t;
  mutable out_start : int;
  mutable out_len : int;
  (* The peer sent EOF but replies (possibly held for a pending group
     commit) are still queued: keep the conn just long enough to drain
     them, then drop. *)
  mutable closing : bool;
}

type t = {
  socket : Unix.file_descr;
  backend : backend;
  bound_port : int;
  read_only : bool;
  owns_db : bool;
  max_backlog : int;
  (* Group commit: statements executed this tick buffer in the WAL and
     their acks buffer in the per-conn out-buffers; one shared
     [Db.sync] at the commit point makes the batch durable, and only
     then do acks drain and records ship. [group_commit_window] lets
     the commit point wait (up to that many seconds after the first
     buffered statement) for more statements to amortize the fsync;
     [max_batch] closes the window early. 0.0 commits every tick. *)
  group_commit_window : float;
  max_batch : int;
  (* [Some deadline] while a window is open (buffered statements are
     waiting for the batch to fill). *)
  mutable sync_deadline : float option;
  mutable frames_this_tick : int;
  mutable conns : conn list;
  (* Snapshot-isolated reads (docs/CONCURRENCY.md): the event loop is
     the single writer; [publisher] republishes a frozen O(1) snapshot
     of the catalog at every commit point, tagged with the synced LSN.
     With [pool = Some _] ([--reader-domains K]), read-only frames are
     dispatched to K reader domains, each pinning the current published
     version for the duration of one query. *)
  publisher : Hr_exec.Publisher.t;
  pool : Hr_exec.Pool.t option;
  (* In-flight offloaded jobs: pool completion key -> owning reply slot. *)
  jobs : (int, conn * pending) Hashtbl.t;
}

let listen_on host port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 8;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, bound_port)

(* A backlog bound below one max frame could never ship a snapshot
   bootstrap, so the default is one full frame plus slack. *)
let default_max_backlog = Wire.max_frame + (4 * 1024 * 1024)

let make ?(host = "127.0.0.1") ?(read_only = false) ?(max_backlog = default_max_backlog)
    ?(group_commit_window = 0.0) ?(max_batch = 64) ?(reader_domains = 0)
    ?(unsafe_publish = false) ~port ~owns_db backend =
  let socket, bound_port = listen_on host port in
  let cat, lsn =
    match backend with
    | Memory cat -> (cat, 0)
    | Durable db -> (Hr_storage.Db.catalog db, Hr_storage.Db.synced_lsn db)
  in
  {
    socket;
    backend;
    bound_port;
    read_only;
    owns_db;
    max_backlog;
    group_commit_window;
    max_batch;
    sync_deadline = None;
    frames_this_tick = 0;
    conns = [];
    publisher = Hr_exec.Publisher.create ~unsafe_publish ~lsn cat;
    pool = (if reader_domains > 0 then Some (Hr_exec.Pool.create ~domains:reader_domains) else None);
    jobs = Hashtbl.create 64;
  }

let create_memory ?host ?read_only ?max_backlog ?group_commit_window ?max_batch
    ?reader_domains ?unsafe_publish ~port () =
  make ?host ?read_only ?max_backlog ?group_commit_window ?max_batch ?reader_domains
    ?unsafe_publish ~port ~owns_db:true
    (Memory (Catalog.create ()))

let create_durable ?host ?read_only ?max_backlog ?group_commit_window ?max_batch
    ?reader_domains ?unsafe_publish ?fsync ~port ~dir () =
  make ?host ?read_only ?max_backlog ?group_commit_window ?max_batch ?reader_domains
    ?unsafe_publish ~port ~owns_db:true
    (Durable (Hr_storage.Db.open_dir ?fsync dir))

let create_for_db ?host ?read_only ?max_backlog ?group_commit_window ?max_batch
    ?reader_domains ?unsafe_publish ~port ~db () =
  make ?host ?read_only ?max_backlog ?group_commit_window ?max_batch ?reader_domains
    ?unsafe_publish ~port ~owns_db:false (Durable db)

let port t = t.bound_port

(* Statements execute against the catalog immediately but their WAL
   records only buffer; the commit point ([commit_now] / the end-of-tick
   logic in [poll]) owns the shared sync. Until it runs, the [Ok] here
   must not reach the client — [holding] below withholds all output
   while unsynced records exist. *)
let run_script t script =
  match t.backend with
  | Memory cat -> Hr_query.Eval.run_script cat script
  | Durable db -> Hr_storage.Db.exec_buffered db script

(* True while acks must be withheld: some executed statement is not yet
   durable. No conn output may drain while this holds. *)
let holding t =
  match t.backend with
  | Memory _ -> false
  | Durable db -> Hr_storage.Db.unsynced db > 0

let catalog t =
  match t.backend with
  | Memory cat -> cat
  | Durable db -> Hr_storage.Db.catalog db

let head_lsn t =
  match t.backend with
  | Memory _ -> 0
  | Durable db -> Hr_storage.Db.lsn db

let lint_catalog cat script = Hr_analysis.Lint.analyze_script ~catalog:cat script
let lint t script = lint_catalog (catalog t) script

(* An ESTIMATE frame carries a bare query expression; it is priced
   against a catalog without evaluating anything. The payload is
   parsed by wrapping it in the statement form, so the expression
   grammar is exactly the REPL's. *)
let explain_estimate_catalog cat payload =
  match Hr_query.Parser.parse_statement ("EXPLAIN ESTIMATE " ^ payload) with
  | exception Hr_query.Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Hr_query.Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | { Hr_query.Ast.stmt = Hr_query.Ast.Explain_estimate expr; _ } ->
    Hr_analysis.Estimate.explain_live cat expr
  | _ -> Error "ESTIMATE expects a single query expression"

let explain_estimate t payload = explain_estimate_catalog (catalog t) payload

(* An EFFECTS frame carries one whole statement (mutations included —
   nothing is executed, only footprinted, so a read-only replica serves
   it too). *)
let explain_effects_catalog cat payload =
  match Hr_query.Parser.parse_statement payload with
  | exception Hr_query.Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Hr_query.Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | located -> Ok (Hr_analysis.Effect.explain cat located.Hr_query.Ast.stmt)

let explain_effects t payload = explain_effects_catalog (catalog t) payload

let stats_body payload =
  let snap = Hr_obs.Metrics.snapshot () in
  if String.lowercase_ascii (String.trim payload) = "json" then
    Hr_obs.Metrics.render_json snap
  else Hr_obs.Metrics.render_text snap

(* ---- serving ---------------------------------------------------------- *)

exception Drop_conn

let subscriber_count t =
  List.length (List.filter (fun c -> c.subscribed) t.conns)

(* ---- buffered, non-blocking output ------------------------------------ *)

let out_append conn s =
  let n = String.length s in
  if conn.out_start + conn.out_len + n > Bytes.length conn.out then begin
    let cap = ref (max 1024 (Bytes.length conn.out)) in
    while !cap < conn.out_len + n do
      cap := !cap * 2
    done;
    let dst = if !cap <= Bytes.length conn.out then conn.out else Bytes.create !cap in
    (* Bytes.blit handles the overlapping in-place compaction case *)
    Bytes.blit conn.out conn.out_start dst 0 conn.out_len;
    conn.out <- dst;
    conn.out_start <- 0
  end;
  Bytes.blit_string s 0 conn.out (conn.out_start + conn.out_len) n;
  conn.out_len <- conn.out_len + n

(* Write as much pending output as the kernel will take right now.
   Event-loop fds are non-blocking, so this never stalls; on a blocking
   fd (the sequential path) it completes the whole buffer. Hard socket
   errors (EPIPE, ECONNRESET, ...) propagate to the caller. *)
let out_drain conn =
  let rec push () =
    if conn.out_len > 0 then
      match Unix.write conn.fd conn.out conn.out_start conn.out_len with
      | 0 -> ()
      | n ->
        conn.out_start <- conn.out_start + n;
        conn.out_len <- conn.out_len - n;
        push ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
  in
  push ();
  if conn.out_len = 0 then begin
    conn.out_start <- 0;
    (* after a burst (e.g. a snapshot bootstrap), stop holding the peak *)
    if Bytes.length conn.out > 1024 * 1024 then conn.out <- Bytes.create 1024
  end

(* Append the filled prefix of the reply FIFO to the out buffer, then
   push to the kernel — unless this conn's earlier bytes are acks
   awaiting a group commit. An empty slot (an offloaded read still
   executing) blocks everything queued behind it, which is exactly the
   per-connection ordering clients rely on. *)
let pump_conn t conn =
  let rec take () =
    match Queue.peek_opt conn.slots with
    | Some { reply = Some (tag, payload) } ->
      ignore (Queue.pop conn.slots);
      out_append conn (Wire.frame tag payload);
      take ()
    | Some { reply = None } | None -> ()
  in
  take ();
  if not conn.held then out_drain conn;
  if conn.out_len > t.max_backlog then begin
    Hr_obs.Metrics.incr m_backlog_drops;
    raise Drop_conn
  end

(* Every inline event-loop reply and replication push goes through here
   so a slow peer accumulates backlog instead of wedging the loop. A
   peer whose backlog exceeds the bound is cut off — a replica will
   reconnect and resume from its durable offset (snapshot-bootstrapping
   if it fell too far behind). *)
let send_conn t conn tag payload =
  Queue.push { reply = Some (tag, payload) } conn.slots;
  (* While a batch is uncommitted the bytes stay buffered: an ack that
     reached the kernel before the shared fsync would tell the client
     "committed" about a statement a crash could still lose. Inline
     replies may reflect live (not-yet-durable) state, so any of them
     pins the conn's output while a batch is open; offloaded replies
     (filled in [reap]) are derived from published — durable — versions
     and never set this. *)
  if holding t then conn.held <- true;
  pump_conn t conn

(* Reply slot for a read dispatched to the pool: reserve FIFO position
   now, fill it when the completion comes back. *)
let offload t conn run =
  match t.pool with
  | None -> invalid_arg "Server.offload: no reader pool"
  | Some pool ->
    let slot = { reply = None } in
    Queue.push slot conn.slots;
    let key = Hr_exec.Pool.submit pool run in
    Hashtbl.replace t.jobs key (conn, slot)

(* Which frames may leave the event loop. A held conn executes reads
   inline so a client that just wrote sees its own (acked) write — the
   published version may not include it yet. Subscribers and
   sequential-path conns stay inline. *)
let can_offload t conn =
  t.pool <> None && (not conn.inline_only) && (not conn.subscribed) && not conn.held

(* Offloaded replies are version-tagged: the payload's first line is
   "<version-id> <lsn> <OK|ERR>", the body follows. The tag is what
   makes snapshot isolation checkable from outside — test/test_mc.ml
   replays the WAL prefix 1..lsn and demands byte equality. *)
let versioned_reply v ok body =
  ( "OKV",
    Printf.sprintf "%d %d %s\n%s" v.Hr_exec.Version.id v.Hr_exec.Version.lsn
      (if ok then "OK" else "ERR")
      body )

(* Build the thunk a reader domain runs: pin the current version, judge
   the frame against its frozen catalog, tag the reply. Everything it
   touches is immutable, domain-local, or internally synchronized
   (metrics, observed-stats store). *)
let read_job t kind payload () =
  let v = Hr_exec.Publisher.current t.publisher in
  let ok, body =
    match kind with
    | `Exec -> (
      match Hr_query.Eval.run_script v.Hr_exec.Version.catalog payload with
      | Ok outputs -> (true, String.concat "\n" outputs)
      | Error msg -> (false, msg))
    | `Lint ->
      (true, Hr_analysis.Diagnostic.render_json (lint_catalog v.Hr_exec.Version.catalog payload))
    | `Estimate -> (
      match explain_estimate_catalog v.Hr_exec.Version.catalog payload with
      | Ok out -> (true, out)
      | Error msg ->
        Hr_obs.Metrics.incr m_errors;
        (false, msg))
    | `Effects -> (
      match explain_effects_catalog v.Hr_exec.Version.catalog payload with
      | Ok out -> (true, out)
      | Error msg ->
        Hr_obs.Metrics.incr m_errors;
        (false, msg))
    | `Stats -> (true, stats_body payload)
  in
  Hr_obs.Metrics.set g_pinned_lag
    ((Hr_exec.Publisher.current t.publisher).Hr_exec.Version.id - v.Hr_exec.Version.id);
  versioned_reply v ok body

(* Ship every {e durable} logged record past the subscriber's offset, as
   one coalesced group. Records above [synced_lsn] stay unshipped until
   the commit point (a replica must never be able to ack a record the
   primary has not fsynced). Raises on a vanished or hopelessly
   backlogged peer; the caller drops the connection. *)
let ship t db conn =
  let synced = Hr_storage.Db.synced_lsn db in
  let n = ref 0 in
  List.iter
    (fun { Hr_storage.Wal.lsn; stmt } ->
      if lsn <= synced then begin
        send_conn t conn Wire.repl_record (Wire.lsn_prefixed lsn stmt);
        conn.sent_lsn <- lsn;
        incr n;
        Hr_obs.Metrics.incr m_shipped
      end)
    (Hr_storage.Db.records_since db conn.sent_lsn);
  if !n > 0 then Hr_obs.Metrics.observe h_records_per_ship !n

(* After a committed script, push the new records to every subscriber.
   A subscriber whose connection broke is silently forgotten — it will
   reconnect and resume from its durable offset. *)
let ship_all t =
  match t.backend with
  | Memory _ -> ()
  | Durable db ->
    let dead = ref [] in
    List.iter
      (fun c ->
        if c.subscribed then
          try ship t db c
          with Unix.Unix_error _ | Wire.Disconnected | Drop_conn -> dead := c :: !dead)
      t.conns;
    List.iter
      (fun c ->
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        t.conns <- List.filter (fun c' -> c' != c) t.conns)
      !dead;
    if !dead <> [] then Hr_obs.Metrics.set g_subscribers (subscriber_count t)

let handle t conn tag payload =
  match tag with
  | "EXEC" -> (
    match (if t.read_only then Hr_storage.Db.script_mutation payload else None) with
    | Some src ->
      send_conn t conn "ERR"
        (Printf.sprintf "read-only replica: refusing mutating statement %S (execute it on the primary)" src)
    | None ->
      if can_offload t conn && Hr_storage.Db.script_mutation payload = None then
        offload t conn (read_job t `Exec payload)
      else begin
        if Hr_storage.Db.script_mutation payload = None then
          Hr_obs.Metrics.incr m_inline_reads;
        match run_script t payload with
        | Ok outputs ->
          (* the ack buffers; shipping to subscribers happens at the
             commit point, after the batch's shared sync *)
          send_conn t conn "OK" (String.concat "\n" outputs)
        | Error msg -> send_conn t conn "ERR" msg
      end)
  | "LINT" ->
    if can_offload t conn then offload t conn (read_job t `Lint payload)
    else send_conn t conn "OK" (Hr_analysis.Diagnostic.render_json (lint t payload))
  | "ESTIMATE" ->
    if can_offload t conn then offload t conn (read_job t `Estimate payload)
    else (
      match explain_estimate t payload with
      | Ok body -> send_conn t conn "OK" body
      | Error msg ->
        Hr_obs.Metrics.incr m_errors;
        send_conn t conn "ERR" msg)
  | "EFFECTS" ->
    if can_offload t conn then offload t conn (read_job t `Effects payload)
    else (
      match explain_effects t payload with
      | Ok body -> send_conn t conn "OK" body
      | Error msg ->
        Hr_obs.Metrics.incr m_errors;
        send_conn t conn "ERR" msg)
  | "STATS" ->
    if can_offload t conn then offload t conn (read_job t `Stats payload)
    else
      (* payload selects the rendering: "json" or "" for text *)
      send_conn t conn "OK" (stats_body payload)
  | "FSCK" -> (
    (* offline-style verification of the durable directory, served from
       the running primary: read-only, never takes the lock, and runs
       inside the single-threaded loop so no checkpoint races it *)
    match t.backend with
    | Memory _ ->
      Hr_obs.Metrics.incr m_errors;
      send_conn t conn "ERR" "fsck requires a durable backend (start with -d DIR)"
    | Durable db ->
      let report = Hr_check.Fsck.run (Hr_storage.Db.dir db) in
      let body =
        if String.lowercase_ascii (String.trim payload) = "json" then
          Hr_check.Fsck.render_json report
        else Hr_check.Fsck.render_text report
      in
      send_conn t conn "OK" body)
  | tag when tag = Wire.repl_subscribe -> (
    match t.backend with
    | Memory _ ->
      Hr_obs.Metrics.incr m_errors;
      send_conn t conn "ERR" "replication requires a durable primary (start with -d DIR)"
    | Durable db -> (
      match Wire.parse_lsn payload with
      | Error msg ->
        Hr_obs.Metrics.incr m_errors;
        send_conn t conn "ERR" msg
      | Ok lsn ->
        let base = Hr_storage.Db.base_lsn db in
        conn.subscribed <- true;
        Hr_obs.Metrics.set g_subscribers (subscriber_count t);
        conn.sent_lsn <-
          (if lsn < base then begin
             (* The WAL no longer covers the requested offset: bootstrap
                with an image of the live catalog. The image is encoded
                at the current head LSN (the loop is single-threaded, so
                it is consistent), and the stream resumes after it. *)
             let head = Hr_storage.Db.lsn db in
             send_conn t conn Wire.repl_snapshot
               (Wire.lsn_prefixed head (Hr_storage.Db.snapshot_image db));
             Hr_obs.Metrics.incr m_bootstraps;
             head
           end
           else lsn);
        ship t db conn))
  | tag when tag = Wire.shard_pull -> (
    (* Router gather: the stored extension of one relation as compact
       tuple lines. Runs inline against the live catalog so a router
       that just routed a write to this shard reads it back; the held
       mechanics below delay the reply past the covering fsync, so the
       router never merges state a crash could still lose. *)
    let name = String.trim payload in
    match Catalog.find_relation (catalog t) name with
    | None ->
      Hr_obs.Metrics.incr m_errors;
      send_conn t conn "ERR" (Printf.sprintf "unknown relation %s" name)
    | Some rel ->
      let b = Buffer.create 256 in
      List.iter
        (fun { Relation.item; sign } ->
          Buffer.add_char b (match sign with Types.Pos -> '+' | Types.Neg -> '-');
          Buffer.add_char b ' ';
          Array.iteri
            (fun i c ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b (string_of_int c))
            (Item.coords item);
          Buffer.add_char b '\n')
        (Relation.tuples rel);
      send_conn t conn Wire.shard_part
        (Wire.lsn_prefixed (head_lsn t) (Buffer.contents b)))
  | tag when tag = Wire.shard_exec -> (
    (* Router write path: like EXEC but the ack carries this shard's
       head LSN so the router can track per-shard progress. Always
       inline — the payload is (almost) always mutating. *)
    match (if t.read_only then Hr_storage.Db.script_mutation payload else None) with
    | Some src ->
      send_conn t conn "ERR"
        (Printf.sprintf "read-only replica: refusing mutating statement %S (execute it on the primary)" src)
    | None -> (
      match run_script t payload with
      | Ok outputs ->
        send_conn t conn Wire.shard_ack
          (Wire.lsn_prefixed (head_lsn t) (String.concat "\n" outputs))
      | Error msg -> send_conn t conn "ERR" msg))
  | tag when tag = Wire.repl_ack -> (
    match Wire.parse_lsn payload with
    | Error msg ->
      Hr_obs.Metrics.incr m_errors;
      send_conn t conn "ERR" msg
    | Ok lsn ->
      Hr_obs.Metrics.incr m_acks;
      (match t.backend with
      | Durable db -> Hr_obs.Metrics.set g_lag (Hr_storage.Db.lsn db - lsn)
      | Memory _ -> ()))
  | _ ->
    Hr_obs.Metrics.incr m_errors;
    send_conn t conn "ERR" (Printf.sprintf "unknown request %S" tag)

let new_conn ?(inline_only = false) fd =
  {
    fd;
    dec = Wire.Decoder.create ();
    subscribed = false;
    sent_lsn = 0;
    slots = Queue.create ();
    held = false;
    inline_only;
    out = Bytes.create 1024;
    out_start = 0;
    out_len = 0;
    closing = false;
  }

let drop_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  if conn.subscribed then Hr_obs.Metrics.set g_subscribers (subscriber_count t)

let handle_timed t conn tag payload =
  Hr_obs.Metrics.incr m_frames;
  t.frames_this_tick <- t.frames_this_tick + 1;
  Hr_obs.Metrics.time h_frame (fun () -> handle t conn tag payload)

(* Drain every complete frame the decoder holds. A malformed header is
   unrecoverable (framing is lost): reply once and drop. *)
let drain_frames t conn =
  let rec loop () =
    match Wire.Decoder.next conn.dec with
    | Ok (Some (tag, payload)) ->
      handle_timed t conn tag payload;
      loop ()
    | Ok None -> ()
    | Error msg ->
      Hr_obs.Metrics.incr m_errors;
      (try send_conn t conn "ERR" msg with Unix.Unix_error _ | Drop_conn -> ());
      raise Drop_conn
  in
  loop ()

let chunk = Bytes.create 65536

(* Read everything the kernel has buffered for this connection (bounded
   so one firehose client cannot starve the tick), then execute every
   complete frame. A pipelining client's whole burst lands in one tick
   and shares the tick's single commit. *)
let max_reads_per_tick = 16

let service t conn =
  let eof = ref false in
  let fed = ref false in
  let rec read_all budget =
    if budget > 0 && not !eof then
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | 0 -> eof := true
      | n ->
        Wire.Decoder.feed conn.dec chunk n;
        fed := true;
        if n = Bytes.length chunk then read_all (budget - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
  in
  match read_all max_reads_per_tick with
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> drop_conn t conn
  | () ->
    (* A burst that ends in EOF (pipeline + shutdown) still executes
       every complete frame it carried before the conn is dropped. *)
    (if !fed || not !eof then
       try drain_frames t conn
       with
       | Drop_conn | Wire.Disconnected -> drop_conn t conn
       | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> drop_conn t conn
       | exn ->
         (* Last line of defense: a handler bug (an uncaught lexer error,
            say) must take down this connection, not the event loop and
            every other client with it. *)
         Hr_obs.Metrics.incr m_errors;
         Printf.eprintf "hrdb: dropping connection after handler error: %s\n%!"
           (Printexc.to_string exn);
         (try send_conn t conn "ERR" ("internal error: " ^ Printexc.to_string exn)
          with Unix.Unix_error _ | Drop_conn -> ());
         drop_conn t conn);
    if !eof && List.memq conn t.conns then
      if conn.subscribed || (conn.out_len = 0 && Queue.is_empty conn.slots && not conn.held)
      then drop_conn t conn
      else conn.closing <- true

let accept_conn t =
  match Unix.accept t.socket with
  | fd, _ ->
    Hr_obs.Metrics.incr m_connections;
    (* Replies are small and pipelined: with Nagle's algorithm on, every
       reply after the first of a burst waits for the peer's delayed ACK
       (~40 ms on Linux). *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    (* event-loop connections are non-blocking so buffered writes (and
       stray reads) can never stall the loop *)
    Unix.set_nonblock fd;
    t.conns <- new_conn fd :: t.conns
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Push a connection's ready replies and buffered output now that it
   can make progress. A fully drained closing conn (EOF already seen)
   is dropped here. *)
let flush_conn t conn =
  match pump_conn t conn with
  | () ->
    if conn.closing && conn.out_len = 0 && Queue.is_empty conn.slots then drop_conn t conn
  | exception (Drop_conn | Unix.Unix_error _) -> drop_conn t conn

(* Collect finished pool jobs and route each reply into its reserved
   slot; a conn that vanished while its read was in flight just
   discards the completion. *)
let reap t =
  match t.pool with
  | None -> ()
  | Some pool ->
    List.iter
      (fun { Hr_exec.Pool.c_key; c_tag; c_payload } ->
        match Hashtbl.find_opt t.jobs c_key with
        | None -> ()
        | Some (conn, slot) ->
          Hashtbl.remove t.jobs c_key;
          slot.reply <- Some (c_tag, c_payload);
          if List.memq conn t.conns then flush_conn t conn)
      (Hr_exec.Pool.drain pool)

(* Publish the post-commit catalog as a new pinned version. Runs after
   the shared sync, so a version's LSN can never exceed the durable
   LSN — visibility never outruns durability. The in-memory backend has
   no WAL; its "LSN" is a publish sequence number. *)
let publish_now t =
  match t.backend with
  | Durable db ->
    ignore
      (Hr_exec.Publisher.publish t.publisher
         ~lsn:(Hr_storage.Db.synced_lsn db)
         (Hr_storage.Db.catalog db))
  | Memory cat ->
    let prev = Hr_exec.Publisher.current t.publisher in
    if not (Catalog.same_bindings cat prev.Hr_exec.Version.catalog) then
      ignore (Hr_exec.Publisher.publish t.publisher ~lsn:(prev.Hr_exec.Version.lsn + 1) cat)

(* The commit point: one shared WAL sync covers every statement buffered
   since the last one, then the new catalog version publishes, the batch
   ships to subscribers as one coalesced record group and every withheld
   ack drains. Order matters — sync before publish, sync before acks,
   sync before ship. *)
let commit_now t =
  (match t.backend with
  | Memory _ -> ()
  | Durable db -> Hr_storage.Db.sync db);
  t.sync_deadline <- None;
  publish_now t;
  List.iter (fun c -> c.held <- false) t.conns;
  ship_all t;
  List.iter
    (fun c ->
      if
        List.memq c t.conns
        && (c.out_len > 0 || (not (Queue.is_empty c.slots)) || c.closing)
      then flush_conn t c)
    t.conns

(* End-of-tick commit decision. With a zero window (the default) every
   tick that buffered statements commits; a positive window holds the
   batch open across ticks until the deadline or [max_batch], letting
   slow-trickling clients share one fsync. *)
let end_tick t =
  (if t.frames_this_tick > 0 then begin
     Hr_obs.Metrics.observe h_frames_per_tick t.frames_this_tick;
     t.frames_this_tick <- 0
   end);
  match t.backend with
  | Memory _ -> commit_now t
  | Durable db ->
    let u = Hr_storage.Db.unsynced db in
    if u = 0 then commit_now t (* nothing to sync; still ship + drain *)
    else if u >= t.max_batch || t.group_commit_window <= 0.0 then commit_now t
    else begin
      let now = Unix.gettimeofday () in
      match t.sync_deadline with
      | Some d when now < d -> () (* window still open: keep holding *)
      | Some _ -> commit_now t
      | None -> t.sync_deadline <- Some (now +. t.group_commit_window)
    end

let poll ?(extra = []) t timeout =
  (* an open commit window caps the select wait so the deadline fires *)
  let timeout =
    match t.sync_deadline with
    | None -> timeout
    | Some d ->
      let remaining = d -. Unix.gettimeofday () in
      if remaining <= 0.0 then 0.0
      else if timeout < 0.0 then remaining
      else min timeout remaining
  in
  (* the pool's self-pipe joins the select set so a completed read
     wakes the loop immediately instead of at the next timeout *)
  let pool_fds = match t.pool with None -> [] | Some p -> [ Hr_exec.Pool.notify_fd p ] in
  let fds = (t.socket :: pool_fds) @ List.map (fun c -> c.fd) t.conns @ extra in
  (* a held conn's output must not drain mid-window, so its writability
     is irrelevant until the commit point clears it *)
  let wfds =
    List.filter_map
      (fun c -> if c.out_len > 0 && not c.held then Some c.fd else None)
      t.conns
  in
  match Unix.select fds wfds [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | readable, writable, _ ->
    if List.mem t.socket readable then accept_conn t;
    (* service over a copy: handlers mutate [t.conns] *)
    List.iter
      (fun c -> if List.mem c.fd writable && List.memq c t.conns then flush_conn t c)
      t.conns;
    List.iter
      (fun c -> if List.mem c.fd readable && List.memq c t.conns then service t c)
      t.conns;
    reap t;
    end_tick t;
    List.filter (fun fd -> List.mem fd readable) extra

let serve_forever t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  while true do
    ignore (poll t 0.5)
  done

(* The historical sequential path: one client at a time, blocking reads.
   The connection still joins [t.conns] so replication pushes reach a
   subscriber that pipelines EXECs on its own connection. *)
let serve_one_connection t =
  let fd, _ = Unix.accept t.socket in
  Hr_obs.Metrics.incr m_connections;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (* blocking fd; the reply must be complete when [commit_now] returns *)
  let conn = new_conn ~inline_only:true fd in
  t.conns <- conn :: t.conns;
  Fun.protect
    ~finally:(fun () -> if List.memq conn t.conns then drop_conn t conn)
    (fun () ->
      let rec loop () =
        match Wire.recv fd with
        | Ok (tag, payload) -> (
          (* one frame, one commit: the sequential path keeps its
             historical request/response durability (the fd is blocking,
             so the drain in [commit_now] completes the reply) *)
          match
            handle_timed t conn tag payload;
            commit_now t
          with
          | () -> loop ()
          | exception Drop_conn -> ()
          | exception Wire.Disconnected -> ()
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
          | exception exn ->
            (* mirror the event loop: a handler bug answers ERR and keeps
               serving rather than killing the connection loop *)
            Hr_obs.Metrics.incr m_errors;
            (try Wire.send fd "ERR" ("internal error: " ^ Printexc.to_string exn)
             with Unix.Unix_error _ -> ());
            loop ())
        | Error msg ->
          Hr_obs.Metrics.incr m_errors;
          Wire.send fd "ERR" msg;
          loop ()
        | exception Wire.Disconnected -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      loop ())

let close t =
  (match t.pool with None -> () | Some pool -> Hr_exec.Pool.shutdown pool);
  Hashtbl.reset t.jobs;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  (try Unix.close t.socket with Unix.Unix_error _ -> ());
  match t.backend with
  | Durable db when t.owns_db -> Hr_storage.Db.close db
  | Durable _ | Memory _ -> ()

module Client = struct
  type conn = Unix.file_descr

  let connect ?(host = "127.0.0.1") ?timeout ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (* pipelining callers (the router's shard writes) must not have a
       request held back by Nagle's algorithm *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    (match timeout with
    | None -> (
      try Unix.connect fd addr
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e)
    | Some secs -> (
      try
        Unix.set_nonblock fd;
        (try Unix.connect fd addr
         with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
        (match Unix.select [] [ fd ] [] secs with
        | [], [], [] ->
          failwith (Printf.sprintf "connect to %s:%d timed out after %.3fs" host port secs)
        | _ -> (
          match Unix.getsockopt_error fd with
          | Some err -> raise (Unix.Unix_error (err, "connect", host))
          | None -> ()));
        Unix.clear_nonblock fd;
        (* Per-frame read deadline for the life of the connection. *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs
      with e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e));
    fd

  (* An [OKV] payload is "<version-id> <lsn> <OK|ERR>\n<body>": the
     reply to a read a pool server ran on a reader domain, tagged with
     the published version it pinned. *)
  let parse_versioned payload =
    match String.index_opt payload '\n' with
    | None -> None
    | Some nl -> (
      let header = String.sub payload 0 nl in
      let body = String.sub payload (nl + 1) (String.length payload - nl - 1) in
      match String.split_on_char ' ' header with
      | [ id; lsn; (("OK" | "ERR") as status) ] -> (
        match (int_of_string_opt id, int_of_string_opt lsn) with
        | Some id, Some lsn -> Some ((id, lsn), status = "OK", body)
        | _ -> None)
      | _ -> None)

  let recv_result conn =
    match Wire.recv conn with
    | Ok ("OK", payload) -> Ok payload
    | Ok ("OKV", payload) -> (
      match parse_versioned payload with
      | Some (_, true, body) -> Ok body
      | Some (_, false, body) -> Error body
      | None -> Error "malformed versioned reply")
    | Ok ("ERR", payload) -> Error payload
    | Ok (tag, _) -> Error (Printf.sprintf "unexpected reply %S" tag)
    | Error msg -> Error msg
    | exception Wire.Disconnected -> Error "server disconnected"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error "timed out waiting for reply"

  (* Like {!recv_result} but keeps the version tag: [Some (id, lsn)] on
     a reply a reader domain pinned, [None] from the inline path. *)
  let recv_versioned conn =
    match Wire.recv conn with
    | Ok ("OK", payload) -> Ok (None, true, payload)
    | Ok ("ERR", payload) -> Ok (None, false, payload)
    | Ok ("OKV", payload) -> (
      match parse_versioned payload with
      | Some (v, ok, body) -> Ok (Some v, ok, body)
      | None -> Error "malformed versioned reply")
    | Ok (tag, _) -> Error (Printf.sprintf "unexpected reply %S" tag)
    | Error msg -> Error msg
    | exception Wire.Disconnected -> Error "server disconnected"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error "timed out waiting for reply"

  let exec_versioned conn script =
    Wire.send conn "EXEC" script;
    recv_versioned conn

  let request conn tag script =
    Wire.send conn tag script;
    recv_result conn

  let exec conn script = request conn "EXEC" script
  let lint conn script = request conn "LINT" script
  let explain_estimate conn expr = request conn "ESTIMATE" expr
  let explain_effects conn stmt = request conn "EFFECTS" stmt
  let stats ?(json = false) conn = request conn "STATS" (if json then "json" else "")
  let fsck ?(json = false) conn = request conn "FSCK" (if json then "json" else "")

  let send conn tag payload = Wire.send conn tag payload

  let shutdown_send conn =
    try Unix.shutdown conn Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

  let recv conn = recv_result conn

  let recv_any conn =
    match Wire.recv conn with
    | Ok frame -> Ok frame
    | Error msg -> Error msg
    | exception Wire.Disconnected -> Error "server disconnected"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error "timed out waiting for reply"

  let fd conn = conn

  let close conn = try Unix.close conn with Unix.Unix_error _ -> ()
end

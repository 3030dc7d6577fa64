(** A durable database: paged tuple store + write-ahead log + HRQL.

    A database lives in a directory holding [pages.db] (the
    {!Page_store}: shadow-paged slotted tuple pages and a DDL blob),
    [wal.log] (statements applied since the last checkpoint, {!Wal}
    format) and [meta] (the LSN the store is valid through).
    {!open_dir} loads the page store and replays the log
    onto it; {!exec} runs HRQL statements, appending each successful
    mutating statement to the log before acknowledging it (so
    acknowledged implies replayable — rejected updates are never logged
    and cannot poison recovery); {!checkpoint} writes only the pages
    dirtied since the previous checkpoint and truncates the log.
    Reopening after a crash (including one that tore the last log
    record, or one that died mid-checkpoint before the meta-root swap)
    recovers every acknowledged statement.

    Directories written by pre-paged builds ([snapshot.bin]) are
    migrated on first open, and a [pages.db] of meta version 1 (with
    its B-tree and free-space map) is rebuilt in the current format;
    the {!Snapshot} codec survives as the
    interchange format for replica bootstrap and [fsck --against].

    Every logged statement carries a {e log sequence number} (LSN):
    monotone from 1 over the whole life of the directory, never reset by
    checkpoints. [lsn t] is the last statement applied, [base_lsn t] the
    statement the page store covers through; the WAL holds exactly
    [base_lsn+1 .. lsn]. LSNs are the replication protocol's addresses
    (see [docs/REPLICATION.md]): {!records_since} serves a subscriber's
    catch-up, {!install_snapshot} and {!apply_replicated} are the
    replica-side application path, which preserves the primary's LSNs so
    a replica resumes from exactly where it durably stopped. *)

type t

val open_dir : ?auto_checkpoint_every:int -> ?fsync:bool -> string -> t
(** Creates the directory if needed; recovers existing state. Takes an
    advisory lock on [DIR/LOCK] — a second concurrent open of the same
    directory fails with [Failure] rather than corrupting the log. The
    lock is released by {!close} or process exit. If recovery dropped a
    torn WAL tail, a warning with the dropped byte/record counts is
    printed to stderr (and counted in [storage.wal.torn_tail_*]), and
    the log file is truncated back to the last intact record so
    subsequent appends land on a record boundary.
    Recovery replays only records with LSN past the snapshot's
    [base_lsn], so a crash between a checkpoint's snapshot write and its
    WAL truncation cannot double-apply.

    [auto_checkpoint_every] (default 10000, 0 to disable) caps the WAL:
    when {!exec} leaves at least that many logged statements pending, it
    checkpoints automatically so a long-lived primary's log does not
    grow without bound.

    [fsync] (default [true]) governs whether WAL syncs issue a real
    [Unix.fsync] — the [--no-fsync] escape hatch for benchmarks. With it
    off, "committed" means "flushed to the OS", not "on disk". *)

val catalog : t -> Hierel.Catalog.t

val dir : t -> string
(** The directory this database was opened on (for diagnostics and the
    server's [FSCK] endpoint). *)

val exec : t -> string -> (string list, string) result
(** Runs an HRQL script (one or more statements). Every successful
    statement that changes durable state (CREATE / DROP / INSERT /
    DELETE / LET / CONSOLIDATE / EXPLICATE) is logged under a fresh LSN;
    reads and rejected updates are not. On error, statements before the
    failing one remain applied and logged (statement-level, not
    script-level, atomicity). Returns only after a WAL {!sync}: when
    this call comes back, every logged statement is durable. *)

(** {1 Group commit}

    The batched write path. [exec_buffered] appends to the WAL without
    syncing; the caller decides the commit point and must call {!sync}
    (or let {!commit_many} do it) before acknowledging any of the
    batched statements as committed. The server's event loop uses this
    to make N statements from one select tick share a single
    write+fsync. *)

val exec_buffered : t -> string -> (string list, string) result
(** {!exec} without the trailing sync. The returned [Ok] means "applied
    and staged", not "durable" — never surface it to a client before
    {!sync} returns. *)

val commit_many : t -> string list -> (string list, string) result list
(** Runs each script with {!exec_buffered}, then one shared {!sync}:
    the group-commit primitive. Result [i] corresponds to script [i];
    per-script statement-level atomicity is unchanged. *)

val sync : t -> unit
(** Makes every buffered WAL append durable (one flush + fsync, unless
    the database was opened with [~fsync:false]). No-op when nothing is
    buffered. *)

val unsynced : t -> int
(** WAL appends staged since the last {!sync} — the server's window /
    max-batch bookkeeping reads this. *)

val synced_lsn : t -> int
(** The highest LSN covered by a completed sync ([lsn t] right after
    {!sync}). Replication must only ship records at or below this: a
    record a replica could ack before the primary made it durable would
    diverge the pair on a primary crash. *)

val checkpoint : t -> unit
(** Incremental page-level checkpoint: diffs each relation against its
    binding at the previous checkpoint (relations whose binding is
    physically unchanged are skipped without reading a tuple), applies
    the changed tuples to the page store, and commits only the dirty
    pages plus a fresh page table and meta root (write-new-then-swap-root
    — a crash at any point leaves the previous checkpoint intact).
    Records [base_lsn = lsn] in [meta] and truncates [wal.log]. Cost is
    proportional to the data changed since the last checkpoint, not to
    the database size. *)

val last_checkpoint_pages : t -> int * int
(** [(pages_written, pages_total)] from the most recent {!checkpoint}
    (or [install_snapshot]/migration commit) in this process — [(0, 0)]
    before the first. The bench harness and STATS read this to verify
    checkpoint cost tracks the delta. *)

val close : t -> unit

val wal_records : t -> int
(** Statements currently in the log (for tests and monitoring). *)

(** {1 Log sequence numbers and replication hooks} *)

val lsn : t -> int
(** The LSN of the last applied mutating statement (0 for a fresh
    database). Monotone across checkpoints and reopens. *)

val base_lsn : t -> int
(** The LSN the current snapshot covers through (0 before the first
    checkpoint). *)

val records_since : t -> int -> Wal.record list
(** The logged statements with LSN strictly greater than the argument —
    the replication catch-up stream. Served from a bounded in-memory
    tail of recent records (falling back to a [wal.log] scan for older
    offsets the tail no longer covers), so per-commit shipping does not
    re-read the log file. Only meaningful for arguments [>= base_lsn t];
    older offsets need {!snapshot_image} first. *)

val snapshot_image : t -> string
(** The current catalog as a {!Snapshot} binary image (for bootstrapping
    a subscriber whose offset predates [base_lsn]). *)

val install_snapshot : t -> lsn:int -> string -> (unit, string) result
(** Replica bootstrap: replaces the whole catalog with the decoded
    image, rebuilds the paged store from it (valid through [lsn]), and
    truncates the local log. All previous local state is discarded. *)

val apply_replicated : t -> lsn:int -> string -> (unit, string) result
(** Replica apply: runs one logged statement from the primary and
    appends it to the local WAL under the {e primary's} LSN. The append
    is buffered — the replica must {!sync} before acking the batch's
    final LSN upstream. [Error]
    means divergence (a statement that replayed cleanly on the primary
    failed here) and the caller should treat it as fatal. Statements at
    or below the current {!lsn} are rejected as duplicates. *)

val log_replicated : t -> lsn:int -> string -> (unit, string) result
(** The bookkeeping half of {!apply_replicated} without the evaluation:
    appends one primary record to the local WAL (buffered; {!sync}
    before acking) and advances the LSN. For callers that evaluated the
    record against a catalog snapshot and installed the result
    themselves — the parallel WAL apply in [lib/repl] — so the local
    log keeps its record-by-record contiguity (fsck F007) whatever the
    evaluation strategy was. Duplicate LSNs are rejected. *)

val mutating : Hr_query.Ast.statement -> bool
(** Whether a statement changes durable state (and hence is logged and
    replicated). An alias of {!Hr_query.Ast.mutating}, exposed for
    read-only front ends. *)

val script_mutation : string -> string option
(** The source text of the first mutating statement in a script, if any
    — the read-only replica's pre-flight guard. Scripts that fail to
    parse return [None] (the evaluator will report the error). *)

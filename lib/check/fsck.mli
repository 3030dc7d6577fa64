(** [hrdb fsck] — offline verification of a database directory's durable
    invariants.

    The running system maintains the paper's structural invariants
    implicitly: hierarchy DAGs stay acyclic and transitively reduced
    (type-irredundancy, §3.1 and Appendix), every relation's subsumption
    graph is the transitive reduction of the subsumption order (§2.1),
    and relations satisfy the ambiguity constraint. Once state is
    persisted — page store, snapshot, WAL, replica copies — nothing
    re-checks any of it. This module opens a directory {e read-only}
    (no lock is taken, nothing is written, no query is executed on
    behalf of a caller) and verifies:

    - [meta] is well-formed and [base_lsn] agrees with the snapshot's
      presence and the first WAL record;
    - [snapshot.bin] decodes, and re-encodes to the same bytes;
    - [wal.log] framing: the shared {!Hr_storage.Wal.scan} reader finds
      monotone, contiguous LSNs, and distinguishes a crash-torn tail
      from mid-log corruption (intact records after a corrupt one);
    - the WAL replays cleanly onto the snapshot;
    - each hierarchy DAG is acyclic, irredundant (no redundant [isa]
      edges) and its reachability closure agrees with a naive traversal;
    - each relation satisfies the ambiguity constraint;
    - optionally, a peer directory (primary vs replica) materializes to
      the same flattened state at the greatest common LSN.

    When [--against] names a {!Shard_map} file instead of a directory,
    the run verifies a sharded deployment instead (codes F020–F024):
    every shard directory listed in the map passes the battery above,
    all shards agree on DDL, every stored tuple lies on a shard in the
    cover of its first coordinate, and cross-subtree tuples are
    replicated with consistent signs on every covered shard
    (docs/SHARDING.md).

    Finding codes are stable (CI greps them); the catalog lives in
    [docs/FSCK.md]. *)

type severity = Critical | Warning

type finding = {
  code : string;  (** stable, [F]-prefixed *)
  severity : severity;
  where : string;  (** file or object the finding is about *)
  message : string;
}

type report = {
  dir : string;
  against : string option;
  findings : finding list;  (** in check order; [[]] means clean *)
  wal_records : int;  (** intact records scanned *)
  hierarchies : int;  (** in the materialized catalog (0 if none) *)
  relations : int;
  head_lsn : int;  (** last durable LSN: max of base_lsn and the WAL *)
  base_lsn : int;
  duration_ns : int;
}

val run : ?against:string -> string -> report
(** Verifies [dir]; with [against], also verifies the peer directory and
    cross-checks the two for divergence at their greatest common LSN —
    or, when [against] is a regular file, loads it as a {!Shard_map}
    and verifies the sharded deployment it describes.
    Never raises — unexpected exceptions become an [F000] finding.
    Counted in the [fsck.*] metrics (docs/OBSERVABILITY.md). *)

val clean : report -> bool
val has_critical : report -> bool

val severity_label : severity -> string

val render_text : report -> string
(** One line per finding plus a summary line (paths, counts, duration). *)

val render_json : report -> string

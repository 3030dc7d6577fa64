(** Length-framed wire protocol shared by the server, the client library
    and the replication subsystem.

    One frame is a text header line followed by an opaque payload:

    {v
    <TAG> <payload-bytes>\n<payload>
    v}

    Request tags: [EXEC], [LINT], [STATS], [REPL_SUBSCRIBE], [REPL_ACK].
    Reply/stream tags: [OK], [ERR], [REPL_SNAPSHOT], [REPL_RECORD].
    The replication tags and their payloads are specified in
    [docs/REPLICATION.md]; the request/reply tags in
    [lib/server/server.mli].

    Two readers are provided: a blocking one ({!recv}) for clients and
    the sequential server path, and an incremental {!Decoder} for the
    multiplexed event loop, which must parse frames out of whatever
    bytes [select]+[read] delivered. *)

exception Disconnected
(** The peer closed the connection (EOF mid-frame or between frames). *)

val max_frame : int
(** Upper bound on a payload (64 MiB — snapshot frames carry a whole
    catalog image). Anything larger is a protocol error. *)

val max_header : int
(** Upper bound on a header line, newline excluded (4096 bytes). Both
    readers reject a longer header as a protocol error, so a peer that
    never sends a newline cannot grow the reader's buffer without
    limit. *)

(** {1 Replication frame tags} *)

val repl_subscribe : string
(** [REPL_SUBSCRIBE] (replica → primary): payload is the replica's last
    durably applied LSN as a decimal string; the primary answers with a
    {!repl_snapshot} bootstrap if the WAL no longer covers that offset,
    then streams {!repl_record} frames. *)

val repl_snapshot : string
(** [REPL_SNAPSHOT] (primary → replica): payload is
    ["<lsn>\n<snapshot-image>"] — a binary {!Hr_storage.Snapshot}
    catalog image valid through [lsn] (the primary's head LSN at the
    moment the image was taken); the record stream resumes after it. *)

val repl_record : string
(** [REPL_RECORD] (primary → replica): payload is ["<lsn>\n<statement>"],
    one logged HRQL statement to apply. *)

val repl_ack : string
(** [REPL_ACK] (replica → primary): payload is the highest durably
    applied LSN as a decimal string. *)

(** {1 Sharding frame tags}

    The router ↔ shard protocol (see [docs/SHARDING.md]). Replies carry
    the answering shard's head LSN so the router can tag per-shard
    progress ([shard.<id>.lsn] gauges) and fsck can correlate. *)

val shard_pull : string
(** [SHARD_PULL] (router → shard): payload is one relation name; the
    shard answers {!shard_part} with that relation's stored tuples. *)

val shard_part : string
(** [SHARD_PART] (shard → router): payload is
    ["<lsn>\n<tuple-lines>"] — the shard's head LSN, then one line per
    stored tuple: [+] or [-], a space, and the comma-joined decimal
    node ids of the item's coordinates. Sent only once every statement
    the shard acknowledged is durable. An unknown relation answers
    [ERR]. *)

val shard_exec : string
(** [SHARD_EXEC] (router → shard): payload is an HRQL script to apply;
    the shard answers {!shard_ack} (or [ERR] with the evaluator's
    message on failure). *)

val shard_ack : string
(** [SHARD_ACK] (shard → router): payload is ["<lsn>\n<reply>"] — the
    shard's head LSN after applying, then the evaluator's reply lines.
    Like {!shard_part}, withheld until the covering fsync. *)

(** {1 Blocking I/O} *)

val frame : string -> string -> string
(** [frame tag payload] is the encoded bytes of one frame — for callers
    that stage output in their own buffers (the event loop's
    non-blocking writer) instead of writing directly. *)

val send : Unix.file_descr -> string -> string -> unit
(** [send fd tag payload] writes one whole frame. *)

val recv : Unix.file_descr -> (string * string, string) result
(** Reads one whole frame, blocking. [Error] is a protocol error (bad
    or over-long header, oversized length); EOF raises {!Disconnected}. *)

(** {1 Incremental decoding} *)

module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** Appends the first [n] bytes of the buffer to the undecoded input. *)

  val next : t -> ((string * string) option, string) result
  (** Pops the next complete frame, [Ok None] when more bytes are
      needed, [Error] on a malformed header (the stream is then
      unrecoverable and the connection should be dropped). *)
end

(** {1 Payload helpers} *)

val lsn_payload : int -> string
val parse_lsn : string -> (int, string) result
(** Decimal LSN payloads ([REPL_SUBSCRIBE] / [REPL_ACK]). *)

val lsn_prefixed : int -> string -> string
val parse_lsn_prefixed : string -> (int * string, string) result
(** ["<lsn>\n<rest>"] payloads ([REPL_SNAPSHOT] / [REPL_RECORD]). *)

(** The paged durable store behind {!Db}: one [pages.db] file of
    shadow-paged 4 KiB pages holding slotted heap pages of TID-addressed
    tuples and a DDL blob (skeleton {!Snapshot} + relation-id map). The
    heap is the only tuple structure on disk.

    Mutations accumulate in relocated copies of the affected pages;
    nothing becomes visible to a reopen until {!commit} publishes a new
    meta root (write-new-then-swap-root, crash-safe at every step).
    Checkpoint write cost is proportional to the pages touched since the
    last commit, not to the database size. See docs/STORAGE.md. *)

type t

exception Corrupt of string
(** Raised by {!open_} and the loaders on structurally invalid state
    (bad meta CRCs, out-of-range page table, undecodable records). *)

val create : ?pool_pages:int -> string -> t
(** A fresh store at [path] (truncating any existing file), with meta
    slots reserved but nothing committed — call
    {!commit} to make it openable. Builders write to a temp path and
    rename over [pages.db] so a crash mid-build never strands a
    half-written store. *)

val open_ : ?pool_pages:int -> string -> t
(** Load the newest valid epoch: pick the meta root, rebuild the page
    table, free lists and DDL blob. O(metadata); heap pages are only
    read by {!to_catalog} / {!check}. Opens meta versions 1 and 2. *)

val close : t -> unit
val base_lsn : t -> int
val pager : t -> Pager.t

val meta_version : int
(** The meta format this build writes (2). *)

val version : t -> int
(** The meta format the store was opened at. A version-1 file still
    maps its retired B-tree and free-space-map pages; {!Db.open_dir}
    rebuilds it rather than writing to it. *)

val to_catalog : t -> Hierel.Catalog.t
(** Rebuild the in-memory catalog from pages (heap scan + skeleton
    snapshot decode). The same scan refills this store's TID table and
    per-page free-space table, which later deltas and inserts use; call
    it before mutating a reopened store. *)

val apply_relation : t -> ?old:Hierel.Relation.t -> Hierel.Relation.t -> unit
(** Write a relation's tuples as a delta against [old] (its value at
    the last checkpoint): unchanged tuples touch no page. [?old]
    absent means every tuple is new (initial load / migration). *)

val drop_relation : t -> string -> unit
(** Delete every tuple of the named relation. *)

val apply_catalog : t -> Hierel.Catalog.t -> unit
(** {!apply_relation} with no [old] for every relation — full loads
    (legacy-snapshot migration, replica snapshot install). *)

val set_ddl : t -> Hierel.Catalog.t -> unit
(** Re-encode hierarchies, schemas, observed stats and the relation-id
    map into the DDL blob pages; a byte-identical blob touches no
    page. *)

val commit : t -> ?fsync:bool -> base_lsn:int -> unit -> int * int
(** Publish everything applied since the last commit: seal dirty pages
    (logical id + CRC), flush, write a fresh page table, swap the meta
    root, release superseded physical pages. Returns
    [(pages_written, pages_total)] and sets the
    [storage.checkpoint.dirty_pages] / [pages_total] gauges. *)

(** {2 Integrity (fsck F025)} *)

val check : t -> string list
(** Full sweep: every mapped page's seal (CRC + logical id) and every
    heap record decodes. Empty list means sound. *)

(** Seeded corruption and crash hooks for the test suite. *)
module Testing : sig
  val crash_before_meta : bool ref
  (** When set, the next {!commit} dies with [_exit 137] after the data
      flush but before the meta-root swap. *)

  val corrupt_page : t -> unit
  (** Flip a byte of the first heap page in place, under its seal
      (F025). *)

  val page_tags : t -> int list
  (** The type byte of every mapped logical page, in logical order. *)
end

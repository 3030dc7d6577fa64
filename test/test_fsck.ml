(* hrdb fsck: offline verification of a database directory. Each
   seeded-corruption test plants one specific fault and asserts the one
   finding code that names it; the clean tests pin the zero-findings
   guarantee on freshly produced directories. *)

module Db = Hr_storage.Db
module Wal = Hr_storage.Wal
module Fsck = Hr_check.Fsck

let with_temp_dir f =
  let dir = Filename.temp_file "hrfsck" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let with_two_dirs f = with_temp_dir (fun a -> with_temp_dir (fun b -> f a b))

let exec db script =
  match Db.exec db script with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "exec failed: %s" e

(* Statements sent one per [exec] so each becomes its own WAL record. *)
let world =
  [
    "CREATE DOMAIN animal;";
    "CREATE CLASS bird UNDER animal;";
    "CREATE CLASS penguin UNDER bird;";
    "CREATE INSTANCE tweety OF bird;";
    "CREATE INSTANCE opus OF penguin;";
    "CREATE RELATION flies (who: animal);";
    "INSERT INTO flies VALUES (+ ALL bird);";
  ]

let seed dir =
  let db = Db.open_dir dir in
  List.iter (exec db) world;
  db

let codes (r : Fsck.report) = List.map (fun f -> f.Fsck.code) r.Fsck.findings

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc data)

let copy_file src dst = write_bytes dst (read_bytes src)

let wal dir = Filename.concat dir "wal.log"
let meta dir = Filename.concat dir "meta"
let graphs dir = Filename.concat dir "graphs.bin"

(* ---- clean directories ------------------------------------------------ *)

let test_clean_checkpointed () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.checkpoint db;
      Db.close db;
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "no findings" [] (codes r);
      Alcotest.(check bool) "clean" true (Fsck.clean r);
      Alcotest.(check int) "wal truncated" 0 r.Fsck.wal_records;
      Alcotest.(check int) "base = head" r.Fsck.head_lsn r.Fsck.base_lsn;
      Alcotest.(check int) "head advanced" (List.length world) r.Fsck.head_lsn;
      Alcotest.(check int) "hierarchies counted" 1 r.Fsck.hierarchies;
      Alcotest.(check int) "relations counted" 1 r.Fsck.relations)

let test_clean_wal_only () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "no findings" [] (codes r);
      Alcotest.(check int) "all records intact" (List.length world) r.Fsck.wal_records;
      Alcotest.(check int) "no snapshot yet" 0 r.Fsck.base_lsn)

let test_not_a_db_dir () =
  let r = Fsck.run "/nonexistent/path/to/nowhere" in
  Alcotest.(check (list string)) "F001" [ "F001" ] (codes r);
  Alcotest.(check bool) "critical" true (Fsck.has_critical r)

(* ---- the four seeded corruptions -------------------------------------- *)

(* Flip one byte inside the first record's statement: the record's CRC
   no longer matches, and every intact-looking record after it is
   unreachable — mid-log corruption, not a crash-torn tail. *)
let test_flipped_byte_mid_wal () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      let data = read_bytes (wal dir) in
      (* record layout: u64 lsn ++ u32 len ++ stmt ++ u32 crc; byte 12 is
         the first byte of record 1's statement *)
      let b = Bytes.of_string data in
      Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0xff));
      write_bytes (wal dir) (Bytes.to_string b);
      let r = Fsck.run dir in
      Alcotest.(check bool) "F006 reported" true (List.mem "F006" (codes r));
      Alcotest.(check bool) "critical" true (Fsck.has_critical r))

let test_redundant_isa_edge () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      (* penguin -> animal is implied via bird; the evaluator accepts it
         and the WAL faithfully records it *)
      exec db "CREATE ISA penguin UNDER animal;";
      Db.close db;
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F012 and nothing else" [ "F012" ] (codes r);
      Alcotest.(check bool) "warning only" false (Fsck.has_critical r))

(* A legacy directory exactly as a pre-paged build's checkpoint left
   it: snapshot.bin, a graphs.bin sidecar (which nothing reads any
   more) and a truncated WAL. *)
let build_catalog stmts =
  let cat = Hierel.Catalog.create () in
  List.iter
    (fun s ->
      match Hr_query.Eval.run_script cat s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "build_catalog: %s" e)
    stmts;
  cat

let write_legacy_with_stray_graphs dir cat =
  Hr_storage.Snapshot.write_file cat (Filename.concat dir "snapshot.bin");
  write_bytes (graphs dir) "stale subsumption-graph sidecar";
  write_bytes (wal dir) "";
  write_bytes (meta dir) "base_lsn=0\npublished_lsn=0\n"

let test_stray_graphs_sidecar () =
  with_temp_dir (fun dir ->
      write_legacy_with_stray_graphs dir (build_catalog world);
      Alcotest.(check (list string)) "no findings" [] (codes (Fsck.run dir));
      (* the first open migrates to pages and removes the sidecar *)
      Db.close (Db.open_dir dir);
      Alcotest.(check bool) "sidecar removed" false (Sys.file_exists (graphs dir));
      Alcotest.(check (list string)) "clean after migration" [] (codes (Fsck.run dir)))

let test_legacy_meta_without_snapshot () =
  with_temp_dir (fun dir ->
      write_bytes (wal dir) "";
      write_bytes (meta dir) "base_lsn=5\n";
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F009 and nothing else" [ "F009" ] (codes r);
      Alcotest.(check bool) "critical" true (Fsck.has_critical r))

let test_mismatched_base_lsn () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.checkpoint db;
      exec db "INSERT INTO flies VALUES (+ opus);";
      Db.close db;
      (* meta claiming coverage past what the page store committed is
         corruption; the reverse (meta one checkpoint behind, the crash
         window between the page commit and the meta rewrite) is
         tolerated by design. *)
      let base = List.length world in
      write_bytes (meta dir) (Printf.sprintf "base_lsn=%d\n" (base + 2));
      let r = Fsck.run dir in
      Alcotest.(check bool) "F009 reported" true (List.mem "F009" (codes r));
      Alcotest.(check bool) "critical" true (Fsck.has_critical r);
      write_bytes (meta dir) (Printf.sprintf "base_lsn=%d\n" (base - 2));
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "stale meta tolerated" [] (codes r))

(* The published-version watermark claims visibility beyond the durable
   head: a reader could have been served state that a crash then lost.
   Seeded by rewriting meta with a published_lsn past every WAL record. *)
let test_published_beyond_durable () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.checkpoint db;
      Db.close db;
      let head = List.length world in
      write_bytes (meta dir)
        (Printf.sprintf "base_lsn=%d\npublished_lsn=%d\n" head (head + 5));
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F019 and nothing else" [ "F019" ] (codes r);
      Alcotest.(check bool) "critical" true (Fsck.has_critical r);
      (* a watermark at the durable head is exactly right *)
      write_bytes (meta dir)
        (Printf.sprintf "base_lsn=%d\npublished_lsn=%d\n" head head);
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "watermark at head is clean" [] (codes r))

(* ---- tails, sidecars, semantic state ----------------------------------- *)

let test_torn_tail_is_warning () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      let data = read_bytes (wal dir) in
      write_bytes (wal dir) (String.sub data 0 (String.length data - 3));
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F005 and nothing else" [ "F005" ] (codes r);
      Alcotest.(check bool) "warning only" false (Fsck.has_critical r);
      Alcotest.(check int) "intact prefix replayed"
        (List.length world - 1)
        r.Fsck.wal_records)

(* Regression for the recovery repair: before [Db.open_dir] truncated
   torn tails, a record appended after the garbage was stranded behind
   it and silently lost at the next recovery. *)
let test_torn_tail_truncated_on_reopen () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      let data = read_bytes (wal dir) in
      write_bytes (wal dir) (String.sub data 0 (String.length data - 3));
      let db = Db.open_dir dir in
      exec db "INSERT INTO flies VALUES (- ALL penguin);";
      Db.close db;
      let scan = Wal.scan (wal dir) in
      Alcotest.(check bool) "no torn tail left" true (scan.Wal.tail = None);
      Alcotest.(check int) "append after repair survives" (List.length world)
        (List.length scan.Wal.records);
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "clean after repair" [] (codes r);
      (* and the appended record is really part of the replayed state *)
      let db = Db.open_dir dir in
      (match Db.exec db "ASK flies (opus);" with
      | Ok [ out ] ->
        Alcotest.(check string) "negation applied" "- (by (V penguin))" out
      | Ok _ | Error _ -> Alcotest.fail "ask after reopen failed");
      Db.close db)

(* ---- seeded page-store corruption (F025) ------------------------------- *)

module Page_store = Hr_storage.Page_store

(* A byte flipped in a committed heap page of a closed store, under
   its seal: the page's CRC no longer matches. *)
let test_page_checksum () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      exec db "INSERT INTO flies VALUES (+ opus);";
      Db.checkpoint db;
      Db.close db;
      let s = Page_store.open_ (Filename.concat dir "pages.db") in
      Page_store.Testing.corrupt_page s;
      Page_store.close s;
      let r = Fsck.run dir in
      Alcotest.(check bool) "F025 reported" true (List.mem "F025" (codes r));
      Alcotest.(check bool) "critical" true (Fsck.has_critical r))

let test_partial_trailing_page () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.checkpoint db;
      Db.close db;
      let pages = Filename.concat dir "pages.db" in
      write_bytes pages (read_bytes pages ^ String.make 100 '\x7f');
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F025 and nothing else" [ "F025" ] (codes r);
      Alcotest.(check bool) "warning only" false (Fsck.has_critical r))

let test_ambiguous_relation () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      (* swimmer and bird end up incomparable over penguin: the paper's
         ambiguity pattern. The evaluator rejects an INSERT that would
         create it directly, so the conflict is smuggled in through a
         later hierarchy edit — exactly the latent corruption fsck is
         for. *)
      exec db "CREATE CLASS swimmer UNDER animal;";
      exec db "INSERT INTO flies VALUES (- ALL swimmer);";
      exec db "CREATE ISA penguin UNDER swimmer;";
      Db.close db;
      let r = Fsck.run dir in
      Alcotest.(check (list string)) "F018 and nothing else" [ "F018" ] (codes r);
      Alcotest.(check bool) "warning only" false (Fsck.has_critical r))

(* ---- divergence -------------------------------------------------------- *)

let test_divergence_detected () =
  with_two_dirs (fun a b ->
      let da = seed a and db_ = seed b in
      exec da "INSERT INTO flies VALUES (+ tweety);";
      exec db_ "INSERT INTO flies VALUES (- tweety);";
      Db.close da;
      Db.close db_;
      let r = Fsck.run ~against:b a in
      Alcotest.(check (list string)) "F016 and nothing else" [ "F016" ] (codes r);
      Alcotest.(check bool) "critical" true (Fsck.has_critical r))

let test_caught_up_replica_clean () =
  with_two_dirs (fun a b ->
      let da = seed a in
      Db.close da;
      (* b is a caught-up copy; a then commits one more record — the
         comparison happens at the greatest common LSN *)
      copy_file (wal a) (wal b);
      let da = Db.open_dir a in
      exec da "INSERT INTO flies VALUES (- ALL penguin);";
      Db.close da;
      let r = Fsck.run ~against:b a in
      Alcotest.(check (list string)) "no findings" [] (codes r);
      Alcotest.(check bool) "clean" true (Fsck.clean r))

let test_checkpoint_past_peer_not_comparable () =
  with_two_dirs (fun a b ->
      let da = seed a in
      Db.close da;
      copy_file (wal a) (wal b);
      let da = Db.open_dir a in
      exec da "INSERT INTO flies VALUES (- ALL penguin);";
      exec da "INSERT INTO flies VALUES (+ opus);";
      Db.checkpoint da;
      Db.close da;
      (* a's snapshot now covers LSNs past b's head: no common
         materialization point exists *)
      let r = Fsck.run ~against:b a in
      Alcotest.(check (list string)) "F017 and nothing else" [ "F017" ] (codes r);
      Alcotest.(check bool) "warning only" false (Fsck.has_critical r))

(* ---- crash window: SIGKILL between buffered appends and sync ----------- *)

(* A process killed with a group-commit batch in flight must come back
   with every synced (acked) statement intact, and with the unsynced
   tail applied record-by-record or not at all: the recovered head is a
   clean prefix of the statement sequence, never a half-applied record.
   The child reports its synced LSN over a pipe after buffering the
   unacked tail, then blocks until it is killed. *)
let test_kill_mid_batch () =
  with_temp_dir (fun dir ->
      let acked_stmts = 5 and unacked_stmts = 4 in
      let r_fd, w_fd = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        Unix.close r_fd;
        (try
           let db = Db.open_dir dir in
           (match Db.exec db "CREATE DOMAIN d;" with
           | Ok _ -> ()
           | Error _ -> Unix._exit 2);
           for i = 1 to acked_stmts do
             match Db.exec db (Printf.sprintf "CREATE INSTANCE acked_%d OF d;" i) with
             | Ok _ -> ()
             | Error _ -> Unix._exit 2
           done;
           (* the unacked tail: buffered, never synced *)
           for i = 1 to unacked_stmts do
             match
               Db.exec_buffered db (Printf.sprintf "CREATE INSTANCE unacked_%d OF d;" i)
             with
             | Ok _ -> ()
             | Error _ -> Unix._exit 2
           done;
           let msg = string_of_int (Db.synced_lsn db) ^ "\n" in
           ignore (Unix.write_substring w_fd msg 0 (String.length msg));
           Unix.sleep 60;
           Unix._exit 0
         with _ -> Unix._exit 3)
      | pid ->
        Unix.close w_fd;
        let buf = Bytes.create 64 in
        let n = Unix.read r_fd buf 0 64 in
        Unix.close r_fd;
        let acked_lsn = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
        Alcotest.(check int) "child synced the acked prefix" (1 + acked_stmts) acked_lsn;
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        (* the dead child's directory must verify clean... *)
        let r = Fsck.run dir in
        Alcotest.(check (list string)) "fsck clean after SIGKILL" [] (codes r);
        (* ...and recover to a prefix: all acked statements, then zero or
           more whole unacked records, nothing else *)
        let db = Db.open_dir dir in
        let lsn = Db.lsn db in
        Alcotest.(check bool) "no acked statement lost" true (lsn >= acked_lsn);
        Alcotest.(check bool) "head within the buffered tail" true
          (lsn <= acked_lsn + unacked_stmts);
        let cat = Db.catalog db in
        let h = Hierel.Catalog.hierarchy cat "d" in
        for i = 1 to acked_stmts do
          Alcotest.(check bool)
            (Printf.sprintf "acked_%d recovered" i)
            true
            (Hr_hierarchy.Hierarchy.mem h (Printf.sprintf "acked_%d" i))
        done;
        let replayed_tail = lsn - acked_lsn in
        for i = 1 to unacked_stmts do
          Alcotest.(check bool)
            (Printf.sprintf "unacked_%d wholly replayed or wholly absent" i)
            (i <= replayed_tail)
            (Hr_hierarchy.Hierarchy.mem h (Printf.sprintf "unacked_%d" i))
        done;
        Db.close db)

(* ---- plumbing ---------------------------------------------------------- *)

let test_metrics_counted () =
  let before = Hr_obs.Metrics.counter_value "fsck.runs" in
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      ignore (Fsck.run dir));
  Alcotest.(check bool) "fsck.runs incremented" true
    (Hr_obs.Metrics.counter_value "fsck.runs" > before)

let test_render_json_shape () =
  with_temp_dir (fun dir ->
      let db = seed dir in
      Db.close db;
      let j = Fsck.render_json (Fsck.run dir) in
      List.iter
        (fun needle ->
          let contains s sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) (needle ^ " present") true (contains j needle))
        [ "\"clean\":true"; "\"findings\":[]"; "\"wal_records\":7" ])

let test_never_raises () =
  (* a file where a directory should be, and a directory of garbage *)
  with_temp_dir (fun dir ->
      let file = Filename.concat dir "afile" in
      write_bytes file "not a database";
      let r = Fsck.run file in
      Alcotest.(check bool) "file: findings, no exception" false (Fsck.clean r);
      write_bytes (wal dir) "garbage garbage garbage";
      write_bytes (meta dir) "nonsense";
      write_bytes (Filename.concat dir "snapshot.bin") "junk";
      let r = Fsck.run dir in
      Alcotest.(check bool) "garbage dir: findings, no exception" false
        (Fsck.clean r);
      Alcotest.(check bool) "snapshot junk is critical" true (Fsck.has_critical r))

let suite =
  [
    Alcotest.test_case "clean checkpointed db" `Quick test_clean_checkpointed;
    Alcotest.test_case "clean wal-only db" `Quick test_clean_wal_only;
    Alcotest.test_case "not a db dir" `Quick test_not_a_db_dir;
    Alcotest.test_case "seeded: flipped byte mid-wal" `Quick test_flipped_byte_mid_wal;
    Alcotest.test_case "seeded: redundant isa edge" `Quick test_redundant_isa_edge;
    Alcotest.test_case "stray graphs sidecar is ignored" `Quick test_stray_graphs_sidecar;
    Alcotest.test_case "seeded: mismatched base_lsn" `Quick test_mismatched_base_lsn;
    Alcotest.test_case "legacy meta without snapshot" `Quick
      test_legacy_meta_without_snapshot;
    Alcotest.test_case "seeded: page checksum (F025)" `Quick test_page_checksum;
    Alcotest.test_case "partial trailing page is a warning" `Quick
      test_partial_trailing_page;
    Alcotest.test_case "seeded: published version beyond durable head" `Quick
      test_published_beyond_durable;
    Alcotest.test_case "torn tail is a warning" `Quick test_torn_tail_is_warning;
    Alcotest.test_case "torn tail truncated on reopen" `Quick
      test_torn_tail_truncated_on_reopen;
    Alcotest.test_case "ambiguity violation" `Quick test_ambiguous_relation;
    Alcotest.test_case "divergence detected" `Quick test_divergence_detected;
    Alcotest.test_case "caught-up replica is clean" `Quick test_caught_up_replica_clean;
    Alcotest.test_case "checkpoint past peer" `Quick
      test_checkpoint_past_peer_not_comparable;
    Alcotest.test_case "kill -9 mid-batch: acked survive, tail is atomic" `Quick
      test_kill_mid_batch;
    Alcotest.test_case "metrics counted" `Quick test_metrics_counted;
    Alcotest.test_case "json rendering" `Quick test_render_json_shape;
    Alcotest.test_case "fsck never raises" `Quick test_never_raises;
  ]

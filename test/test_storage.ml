(* Storage engine tests: codec, binary snapshots, WAL discipline, crash
   recovery. *)

module Codec = Hr_storage.Codec
module Snapshot = Hr_storage.Snapshot
module Wal = Hr_storage.Wal
module Db = Hr_storage.Db
module Persist = Hr_query.Persist
module Eval = Hr_query.Eval
open Hierel

let with_temp_dir f =
  let dir = Filename.temp_file "hrdb" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* ---- codec ---------------------------------------------------------- *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create () in
  Codec.Writer.u8 w 42;
  Codec.Writer.u32 w 123456;
  Codec.Writer.u64 w 0x1122334455667788L;
  Codec.Writer.string w "hello";
  Codec.Writer.list w Codec.Writer.string [ "a"; "bb"; "" ];
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check int) "u8" 42 (Codec.Reader.u8 r);
  Alcotest.(check int) "u32" 123456 (Codec.Reader.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Codec.Reader.u64 r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (Codec.Reader.list r Codec.Reader.string);
  Alcotest.(check bool) "at end" true (Codec.Reader.at_end r)

let test_codec_truncation_detected () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "hello world";
  let full = Codec.Writer.contents w in
  let torn = String.sub full 0 (String.length full - 3) in
  let r = Codec.Reader.of_string torn in
  try
    ignore (Codec.Reader.string r);
    Alcotest.fail "expected Corrupt"
  with Codec.Reader.Corrupt _ -> ()

let test_crc32_known_value () =
  (* standard test vector *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "")

(* ---- snapshots ------------------------------------------------------- *)

let sample_catalog () =
  let cat = Catalog.create () in
  let script =
    {|
    CREATE DOMAIN pets;
    CREATE CLASS dog UNDER pets;
    CREATE CLASS puppy UNDER dog;
    CREATE INSTANCE rex OF puppy;
    CREATE INSTANCE muttley OF dog;
    CREATE CLASS cat UNDER pets;
    CREATE PREFERENCE dog OVER cat;
    CREATE RELATION barks (pet: pets);
    INSERT INTO barks VALUES (+ ALL dog), (- ALL puppy), (+ rex);
    |}
  in
  (match Eval.run_script cat script with Ok _ -> () | Error e -> failwith e);
  cat

let test_snapshot_roundtrip () =
  let cat = sample_catalog () in
  let cat2 = Snapshot.decode (Snapshot.encode cat) in
  (* compare through the canonical HRQL dump *)
  Alcotest.(check string) "same dump" (Persist.dump_catalog cat) (Persist.dump_catalog cat2)

let test_snapshot_corruption_detected () =
  let cat = sample_catalog () in
  let data = Snapshot.encode cat in
  let tampered = Bytes.of_string data in
  Bytes.set tampered (String.length data / 2) 'X';
  (try
     ignore (Snapshot.decode (Bytes.to_string tampered));
     Alcotest.fail "expected Corrupt_snapshot"
   with Snapshot.Corrupt_snapshot _ -> ());
  try
    ignore (Snapshot.decode "not a snapshot at all");
    Alcotest.fail "expected Corrupt_snapshot on garbage"
  with Snapshot.Corrupt_snapshot _ -> ()

let test_snapshot_file_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.bin" in
      let cat = sample_catalog () in
      Snapshot.write_file cat path;
      let cat2 = Snapshot.read_file path in
      Alcotest.(check string) "same dump" (Persist.dump_catalog cat)
        (Persist.dump_catalog cat2))

(* ---- WAL ------------------------------------------------------------- *)

let stmts records = List.map (fun r -> r.Wal.stmt) records

let test_wal_append_replay () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:1 "CREATE DOMAIN d;";
      Wal.append w ~lsn:2 "CREATE INSTANCE x OF d;";
      Wal.close w;
      let records = Wal.records path in
      Alcotest.(check (list string)) "replay in order"
        [ "CREATE DOMAIN d;"; "CREATE INSTANCE x OF d;" ]
        (stmts records);
      Alcotest.(check (list int)) "lsns preserved" [ 1; 2 ]
        (List.map (fun r -> r.Wal.lsn) records))

let test_wal_torn_tail_dropped () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.open_ path in
      Wal.append w ~lsn:1 "CREATE DOMAIN d;";
      Wal.append w ~lsn:2 "CREATE DOMAIN e;";
      Wal.close w;
      (* tear the last record *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 5));
      close_out oc;
      let records, torn = Wal.replay path in
      Alcotest.(check (list string)) "tail dropped" [ "CREATE DOMAIN d;" ] (stmts records);
      match torn with
      | None -> Alcotest.fail "expected a torn-tail report"
      | Some { Wal.dropped_bytes; dropped_records } ->
        Alcotest.(check bool) "dropped bytes counted" true (dropped_bytes > 0);
        Alcotest.(check int) "one torn record" 1 dropped_records)

let test_wal_missing_file () =
  Alcotest.(check (list string)) "no file, no records" []
    (stmts (Wal.records "/nonexistent/wal.log"))

(* ---- Db: recovery ----------------------------------------------------- *)

let setup_script =
  {|
  CREATE DOMAIN animal;
  CREATE CLASS bird UNDER animal;
  CREATE CLASS penguin UNDER bird;
  CREATE INSTANCE tweety OF bird;
  CREATE INSTANCE paul OF penguin;
  CREATE RELATION flies (creature: animal);
  INSERT INTO flies VALUES (+ ALL bird), (- ALL penguin);
  |}

let ask db q =
  match Db.exec db q with
  | Ok [ out ] -> out
  | Ok _ -> Alcotest.fail "expected one output"
  | Error e -> Alcotest.failf "query failed: %s" e

let test_db_recovers_from_wal () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Alcotest.(check bool) "wal has records" true (Db.wal_records db > 0);
      Db.close db;
      (* no checkpoint: everything must come back from the log *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "verdict survives" "+ (by (V bird))" (ask db2 "ASK flies (tweety);");
      Alcotest.(check string) "exception survives" "- (by (V penguin))"
        (ask db2 "ASK flies (paul);");
      Db.close db2)

let test_db_checkpoint_then_recover () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      Alcotest.(check int) "wal empty after checkpoint" 0 (Db.wal_records db);
      (* post-checkpoint update goes to the fresh log *)
      (match Db.exec db "INSERT INTO flies VALUES (+ paul);" with
      | Ok _ -> ()
      | Error e -> failwith e);
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "snapshot + wal merge" "+ (by (paul))" (ask db2 "ASK flies (paul);");
      Db.close db2)

let test_db_rejected_update_not_logged () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      let before = Db.wal_records db in
      (* direct contradiction: rejected *)
      (match Db.exec db "INSERT INTO flies VALUES (- ALL bird);" with
      | Ok _ -> Alcotest.fail "expected rejection"
      | Error _ -> ());
      Alcotest.(check int) "nothing logged" before (Db.wal_records db);
      Db.close db;
      (* and recovery still works *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "state intact" "+ (by (V bird))" (ask db2 "ASK flies (tweety);");
      Db.close db2)

let test_db_torn_wal_recovery () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      Db.close db;
      (* simulate a crash mid-append *)
      let path = Filename.concat dir "wal.log" in
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      (* the torn record was the INSERT; everything before it survives *)
      let db2 = Db.open_dir dir in
      Alcotest.(check bool) "relation exists" true
        (Option.is_some (Catalog.find_relation (Db.catalog db2) "flies"));
      Alcotest.(check int) "insert lost with the torn tail" 0
        (Relation.cardinality (Catalog.relation (Db.catalog db2) "flies"));
      Db.close db2)

let test_db_lock_released_on_close () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      Db.close db;
      (* reopen after close works; the LOCK file itself remains *)
      let db2 = Db.open_dir dir in
      Db.close db2;
      Alcotest.(check bool) "lock file exists" true
        (Sys.file_exists (Filename.concat dir "LOCK")))

let test_db_reads_not_logged () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db setup_script with Ok _ -> () | Error e -> failwith e);
      let before = Db.wal_records db in
      ignore (ask db "ASK flies (tweety);");
      ignore (ask db "COUNT flies;");
      Alcotest.(check int) "reads leave no trace" before (Db.wal_records db);
      Db.close db)

(* random catalogs round-trip through the binary format *)
let prop_snapshot_random_roundtrip =
  QCheck2.Test.make ~name:"binary snapshot round trip on random catalogs" ~count:25
    (QCheck2.Gen.int_range 1 100_000)
    (fun seed ->
      let module Workload = Hr_workload.Workload in
      let module Prng = Hr_util.Prng in
      let g = Prng.create (Int64.of_int seed) in
      let h =
        Workload.random_hierarchy g
          {
            Workload.name = Printf.sprintf "sc%d" seed;
            classes = 10;
            instances = 15;
            multi_parent_prob = 0.25;
          }
      in
      let cat = Catalog.create () in
      Catalog.define_hierarchy cat h;
      let schema = Schema.make [ ("v", h) ] in
      Catalog.define_relation cat
        (Workload.consistent_random_relation g schema
           { Workload.default_relation_spec with rel_name = Printf.sprintf "sr%d" seed });
      let cat2 = Snapshot.decode (Snapshot.encode cat) in
      Persist.dump_catalog cat2 = Persist.dump_catalog cat)

let test_db_full_paper_script () =
  (* the complete paper script runs durably, checkpoints, and survives a
     reopen with nothing but the binary snapshot *)
  with_temp_dir (fun dir ->
      let script =
        (* cwd is the test dir under `dune runtest` but the repo root
           under `dune exec test/main.exe` (the CI seed-sweep lanes), so
           walk up until the examples dir appears *)
        let rec find base depth =
          let candidate = Filename.concat base "examples/paper.hrql" in
          if Sys.file_exists candidate then candidate
          else if depth = 0 then candidate
          else find (Filename.concat base Filename.parent_dir_name) (depth - 1)
        in
        let ic = open_in (find Filename.current_dir_name 4) in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let db = Db.open_dir dir in
      (match Db.exec db script with Ok _ -> () | Error e -> Alcotest.failf "script: %s" e);
      Db.checkpoint db;
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "verdicts survive checkpointed restart" "+ (by (V bird))"
        (ask db2 "ASK flies (tweety);");
      Alcotest.(check bool) "derived relations survive" true
        (Option.is_some (Catalog.find_relation (Db.catalog db2) "between_them"));
      Db.close db2)

(* ---- paged store: incremental checkpoints, TID reuse, crash safety ---- *)

module Page_store = Hr_storage.Page_store
module Pager = Hr_storage.Pager
module Hierarchy = Hr_hierarchy.Hierarchy

(* Deterministic replay for the randomized workload below. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_storage: RNG seed %d (replay with HRDB_TEST_SEED=%d)\n%!" seed seed

(* Process-independent, order-independent state image: every relation's
   flattened extension, rendered to labels and sorted. *)
let rendered_state cat =
  Catalog.relations cat
  |> List.map (fun rel ->
         let schema = Relation.schema rel in
         ( Relation.name rel,
           Flatten.extension_list rel
           |> List.map (Item.to_string schema)
           |> List.sort compare ))
  |> List.sort compare

let bulk_world n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "CREATE DOMAIN things; CREATE CLASS gadget UNDER things;\n";
  Buffer.add_string b "CREATE RELATION owns (what: things);\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "CREATE INSTANCE item%04d OF gadget;\n" i)
  done;
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
  done;
  Buffer.contents b

let test_incremental_checkpoint_cost () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db (bulk_world 800) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let full, total1 = Db.last_checkpoint_pages db in
      Alcotest.(check bool) "first checkpoint writes many pages" true (full > 10);
      (match Db.exec db "DELETE FROM owns VALUES (item0001); INSERT INTO owns VALUES (+ item0001);" with
      | Ok _ -> ()
      | Error e -> failwith e);
      Db.checkpoint db;
      let incr, total2 = Db.last_checkpoint_pages db in
      Alcotest.(check bool) "incremental checkpoint is proportional to the delta" true
        (incr * 3 <= full);
      Alcotest.(check bool) "store did not balloon" true (total2 <= total1 + 4);
      (* nothing changed: only the page table + meta root are rewritten *)
      Db.checkpoint db;
      let idle, _ = Db.last_checkpoint_pages db in
      Alcotest.(check bool) "idle checkpoint is O(metadata)" true (idle <= 4);
      Db.close db)

(* The paged store reports its work through the metrics registry (and so
   through STATS / STATS JSON): the checkpoint gauges mirror
   last_checkpoint_pages. *)
let test_storage_metrics_wired () =
  with_temp_dir (fun dir ->
      let module M = Hr_obs.Metrics in
      let db = Db.open_dir dir in
      (match Db.exec db (bulk_world 50) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      (match Db.exec db "DELETE FROM owns VALUES (item0001);" with
      | Ok _ -> ()
      | Error e -> failwith e);
      Db.checkpoint db;
      let written, total = Db.last_checkpoint_pages db in
      Alcotest.(check int) "dirty-pages gauge mirrors the checkpoint" written
        (M.gauge_value "storage.checkpoint.dirty_pages");
      Alcotest.(check int) "pages-total gauge mirrors the store" total
        (M.gauge_value "storage.checkpoint.pages_total");
      Db.close db)

let test_tid_reuse_after_delete () =
  with_temp_dir (fun dir ->
      let db = Db.open_dir dir in
      (match Db.exec db (bulk_world 300) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let _, total1 = Db.last_checkpoint_pages db in
      (* retract and re-assert everything: the tombstoned slots must be
         reused, not appended after *)
      let b = Buffer.create 1024 in
      for i = 1 to 300 do
        Buffer.add_string b (Printf.sprintf "DELETE FROM owns VALUES (item%04d);\n" i)
      done;
      (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let b = Buffer.create 1024 in
      for i = 1 to 300 do
        Buffer.add_string b (Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
      done;
      (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
      Db.checkpoint db;
      let _, total3 = Db.last_checkpoint_pages db in
      (* shadow paging keeps a second physical for every page touched in a
         cycle, so one full rewrite can grow the file once; with slots and
         logical pages reused, repeating the cycle must not grow it again *)
      Alcotest.(check bool)
        (Printf.sprintf "bounded growth: %d pages grew to %d" total1 total3)
        true
        (total3 <= (total1 * 2) + 4);
      let cycle db del =
        let b = Buffer.create 1024 in
        for i = 1 to 300 do
          Buffer.add_string b
            (if del then Printf.sprintf "DELETE FROM owns VALUES (item%04d);\n" i
             else Printf.sprintf "INSERT INTO owns VALUES (+ item%04d);\n" i)
        done;
        (match Db.exec db (Buffer.contents b) with Ok _ -> () | Error e -> failwith e);
        Db.checkpoint db
      in
      cycle db true;
      cycle db false;
      let _, total5 = Db.last_checkpoint_pages db in
      Alcotest.(check bool)
        (Printf.sprintf "steady state: %d pages settled at %d" total3 total5)
        true
        (total5 <= total3 + 2);
      Db.close db;
      (* the free-space table is not stored: a reopen rebuilds it from
         the heap scan, so a reinsert after one still fills the emptied
         heap pages instead of appending fresh ones *)
      let heap_pages () =
        let s = Page_store.open_ (Filename.concat dir "pages.db") in
        let n = List.length (List.filter (( = ) 1) (Page_store.Testing.page_tags s)) in
        Page_store.close s;
        n
      in
      let heap5 = heap_pages () in
      let total7 = ref 0 in
      for _ = 1 to 3 do
        let db = Db.open_dir dir in
        cycle db true;
        Db.close db;
        let db = Db.open_dir dir in
        cycle db false;
        total7 := snd (Db.last_checkpoint_pages db);
        Db.close db
      done;
      Alcotest.(check bool)
        (Printf.sprintf "across reopens: %d pages settled at %d" total3 !total7)
        true
        (!total7 <= total3 + 2);
      Alcotest.(check int) "heap pages reused across reopens" heap5 (heap_pages ());
      (* and the state is right after recovery from pages alone *)
      let db2 = Db.open_dir dir in
      Alcotest.(check string) "reasserted tuple survives" "+ (by (item0007))"
        (ask db2 "ASK owns (item0007);");
      Db.close db2)

(* A store several times larger than the pager pool: every page falls
   out of cache and comes back from disk, and the state is still exact. *)
let test_data_larger_than_pool () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "pages.db" in
      let cat = Catalog.create () in
      (match Eval.run_script cat (bulk_world 600) with Ok _ -> () | Error e -> failwith e);
      let s = Page_store.create ~pool_pages:8 path in
      Page_store.apply_catalog s cat;
      Page_store.set_ddl s cat;
      ignore (Page_store.commit s ~base_lsn:0 ());
      Page_store.close s;
      let s = Page_store.open_ ~pool_pages:8 path in
      Alcotest.(check bool) "store spans more pages than the pool" true
        (Pager.page_count (Page_store.pager s) > 8);
      let cat2 = Page_store.to_catalog s in
      Alcotest.(check bool) "evictions actually happened" true
        (Pager.evictions (Page_store.pager s) > 0);
      Alcotest.(check (list string)) "page-store faults" []
        (Page_store.check s);
      Page_store.close s;
      Alcotest.(check bool) "state identical through an 8-page pool" true
        (rendered_state cat = rendered_state cat2))

(* kill -9 between the data flush and the meta-root swap: the directory
   must come back as if the checkpoint never started — prior pages plus
   full WAL replay — with fsck clean. *)
let test_kill_mid_checkpoint () =
  with_temp_dir (fun dir ->
      let followup = "DELETE FROM owns VALUES (item0003); INSERT INTO owns VALUES (+ item0005);" in
      (match Unix.fork () with
      | 0 ->
        (try
           let db = Db.open_dir dir in
           (match Db.exec db (bulk_world 120) with Ok _ -> () | Error _ -> Unix._exit 2);
           Db.checkpoint db;
           (match Db.exec db followup with Ok _ -> () | Error _ -> Unix._exit 2);
           Page_store.Testing.crash_before_meta := true;
           Db.checkpoint db;
           (* the crash hook fires inside commit; never reached *)
           Unix._exit 4
         with _ -> Unix._exit 3)
      | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 137 -> ()
        | _, status ->
          Alcotest.failf "child did not die at the crash hook: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)));
      let r = Hr_check.Fsck.run dir in
      Alcotest.(check (list string)) "fsck clean after mid-checkpoint kill" []
        (List.map (fun f -> f.Hr_check.Fsck.code) r.Hr_check.Fsck.findings);
      let expected = Catalog.create () in
      (match Eval.run_script expected (bulk_world 120) with Ok _ -> () | Error e -> failwith e);
      (match Eval.run_script expected followup with Ok _ -> () | Error e -> failwith e);
      let db = Db.open_dir dir in
      Alcotest.(check bool) "recovered state identical to the uncrashed run" true
        (rendered_state (Db.catalog db) = rendered_state expected);
      (* and the directory is fully functional: the interrupted
         checkpoint can simply be retried *)
      Db.checkpoint db;
      Db.close db;
      let db2 = Db.open_dir dir in
      Alcotest.(check bool) "re-checkpoint after the crash sticks" true
        (rendered_state (Db.catalog db2) = rendered_state expected);
      Db.close db2)

(* fixtures/pages_v1/ is a meta-version-1 store (B-tree, free-space
   map) of fixtures/pages_v1.hrql, written by commit 96956ac with one
   Page_store.create / apply_catalog / set_ddl / commit ~base_lsn:1 of
   the script's catalog, plus a meta file (base_lsn=1) and a wal.log
   holding [v1_wal_tail] at LSN 2. *)
let v1_wal_tail = "INSERT INTO flies VALUES (- paul);"

(* dune runtest runs in test/; [dune exec test/main.exe] in the root *)
let fixture path =
  let here = Filename.concat "fixtures" path in
  if Sys.file_exists here then here else Filename.concat "test/fixtures" path

let test_v1_store_rebuilt_on_open () =
  with_temp_dir (fun dir ->
      List.iter
        (fun f ->
          let data = In_channel.with_open_bin (fixture ("pages_v1/" ^ f)) In_channel.input_all in
          Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc data))
        [ "pages.db"; "meta"; "wal.log" ];
      let fsck_codes () =
        List.map (fun f -> f.Hr_check.Fsck.code) (Hr_check.Fsck.run dir).Hr_check.Fsck.findings
      in
      let pages = Filename.concat dir "pages.db" in
      let with_store f =
        let s = Page_store.open_ pages in
        Fun.protect ~finally:(fun () -> Page_store.close s) (fun () -> f s)
      in
      let retired s = List.filter (fun tag -> tag >= 2 && tag <= 4) (Page_store.Testing.page_tags s) in
      with_store (fun s ->
          Alcotest.(check int) "fixture is version 1" 1 (Page_store.version s);
          Alcotest.(check bool) "fixture maps B-tree and free-space-map pages" true (retired s <> []));
      Alcotest.(check (list string)) "fsck clean on the untouched fixture" [] (fsck_codes ());
      let expected = Catalog.create () in
      let script = In_channel.with_open_bin (fixture "pages_v1.hrql") In_channel.input_all in
      (match Eval.run_script expected (script ^ v1_wal_tail) with
      | Ok _ -> ()
      | Error e -> failwith e);
      let db = Db.open_dir dir in
      Alcotest.(check bool) "same flattened state as the script" true
        (rendered_state (Db.catalog db) = rendered_state expected);
      Alcotest.(check int) "WAL tail kept above the store" 2 (Db.lsn db);
      Db.close db;
      with_store (fun s ->
          Alcotest.(check int) "rewritten at the current version" Page_store.meta_version
            (Page_store.version s);
          Alcotest.(check int) "base LSN carried over" 1 (Page_store.base_lsn s);
          Alcotest.(check (list int)) "no free-space-map or B-tree page" [] (retired s));
      Alcotest.(check (list string)) "fsck clean after the rewrite" [] (fsck_codes ()))

(* Randomized, seed-replayable workload: the durable engine (with
   random checkpoints and reopens) must track a plain in-memory catalog
   fed the same statements. *)
let test_randomized_durability_vs_oracle () =
  let rng = Random.State.make [| seed |] in
  with_temp_dir (fun dir ->
      let control = Catalog.create () in
      let setup =
        "CREATE DOMAIN d; CREATE CLASS c UNDER d;"
        ^ String.concat ""
            (List.init 16 (fun i -> Printf.sprintf " CREATE INSTANCE x%02d OF c;" i))
        ^ " CREATE RELATION r (v: d);"
      in
      (match Eval.run_script control setup with Ok _ -> () | Error e -> failwith e);
      let db = ref (Db.open_dir dir) in
      (match Db.exec !db setup with Ok _ -> () | Error e -> failwith e);
      for _step = 1 to 300 do
        let target =
          if Random.State.int rng 4 = 0 then "ALL c"
          else Printf.sprintf "x%02d" (Random.State.int rng 16)
        in
        let sign = if Random.State.bool rng then "+" else "-" in
        let stmt = Printf.sprintf "INSERT INTO r VALUES (%s %s);" sign target in
        let a = Db.exec !db stmt in
        let b = Eval.run_script control stmt in
        (match (a, b) with
        | Ok _, Ok _ | Error _, Error _ -> ()
        | Ok _, Error e ->
          Alcotest.failf "seed %d: db accepted %S, control rejected: %s" seed stmt e
        | Error e, Ok _ ->
          Alcotest.failf "seed %d: db rejected %S (%s), control accepted" seed stmt e);
        if Random.State.int rng 40 = 0 then Db.checkpoint !db;
        if Random.State.int rng 60 = 0 then begin
          Db.close !db;
          db := Db.open_dir dir
        end
      done;
      Db.close !db;
      let db2 = Db.open_dir dir in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: durable state equals the in-memory oracle" seed)
        true
        (rendered_state (Db.catalog db2) = rendered_state control);
      Db.close db2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_snapshot_random_roundtrip;
    Alcotest.test_case "db runs the full paper script durably" `Quick
      test_db_full_paper_script;
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec truncation detected" `Quick test_codec_truncation_detected;
    Alcotest.test_case "crc32 test vector" `Quick test_crc32_known_value;
    Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot corruption detected" `Quick test_snapshot_corruption_detected;
    Alcotest.test_case "snapshot file round trip" `Quick test_snapshot_file_roundtrip;
    Alcotest.test_case "wal append and replay" `Quick test_wal_append_replay;
    Alcotest.test_case "wal torn tail dropped" `Quick test_wal_torn_tail_dropped;
    Alcotest.test_case "wal missing file" `Quick test_wal_missing_file;
    Alcotest.test_case "db recovers from wal" `Quick test_db_recovers_from_wal;
    Alcotest.test_case "db checkpoint then recover" `Quick test_db_checkpoint_then_recover;
    Alcotest.test_case "db rejected update not logged" `Quick test_db_rejected_update_not_logged;
    Alcotest.test_case "db torn wal recovery" `Quick test_db_torn_wal_recovery;
    Alcotest.test_case "db reads not logged" `Quick test_db_reads_not_logged;
    Alcotest.test_case "db lock released on close" `Quick test_db_lock_released_on_close;
    Alcotest.test_case "incremental checkpoint cost tracks the delta" `Quick
      test_incremental_checkpoint_cost;
    Alcotest.test_case "storage metrics wired to the registry" `Quick
      test_storage_metrics_wired;
    Alcotest.test_case "TIDs reused after tombstoning" `Quick test_tid_reuse_after_delete;
    Alcotest.test_case "data larger than the pager pool" `Quick test_data_larger_than_pool;
    Alcotest.test_case "kill -9 mid-checkpoint recovers exactly" `Quick
      test_kill_mid_checkpoint;
    Alcotest.test_case "version-1 store rebuilt on open" `Quick test_v1_store_rebuilt_on_open;
    Alcotest.test_case "randomized durability vs in-memory oracle" `Slow
      test_randomized_durability_vs_oracle;
  ]

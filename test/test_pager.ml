(* Pager tests: page I/O, buffer pool behaviour, persistence across
   reopen. *)

module Pager = Hr_storage.Pager

let with_temp_file f =
  let path = Filename.temp_file "hrpage" ".db" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_allocate_and_rw () =
  with_temp_file (fun path ->
      let p = Pager.create path in
      Alcotest.(check int) "empty file" 0 (Pager.page_count p);
      let a = Pager.allocate p in
      let b = Pager.allocate p in
      Alcotest.(check int) "page numbers" 0 a;
      Alcotest.(check int) "page numbers" 1 b;
      let page = Bytes.make Pager.page_size 'x' in
      Pager.write_page p a page;
      Alcotest.(check char) "written" 'x' (Bytes.get (Pager.read_page p a) 0);
      Alcotest.(check char) "other page untouched" '\000' (Bytes.get (Pager.read_page p b) 0);
      Pager.close p)

let test_persistence_across_reopen () =
  with_temp_file (fun path ->
      let p = Pager.create path in
      let a = Pager.allocate p in
      let page = Bytes.make Pager.page_size 'z' in
      Pager.write_page p a page;
      Pager.close p;
      let p2 = Pager.create path in
      Alcotest.(check int) "page survives" 1 (Pager.page_count p2);
      Alcotest.(check char) "data survives" 'z' (Bytes.get (Pager.read_page p2 a) 0);
      Pager.close p2)

let test_pool_hits_and_eviction () =
  with_temp_file (fun path ->
      let p = Pager.create ~pool_pages:2 path in
      let pages = List.init 4 (fun _ -> Pager.allocate p) in
      (* touch all four: pool holds only 2, so re-reading the first is a
         disk read again *)
      List.iter (fun n -> ignore (Pager.read_page p n)) pages;
      let before = Pager.reads_from_disk p in
      ignore (Pager.read_page p (List.nth pages 0));
      Alcotest.(check bool) "evicted page re-read from disk" true
        (Pager.reads_from_disk p > before);
      let hit_before = Pager.hits p in
      ignore (Pager.read_page p (List.nth pages 0));
      Alcotest.(check bool) "hot page hits the pool" true (Pager.hits p > hit_before);
      Pager.close p)

let test_dirty_eviction_writes_back () =
  with_temp_file (fun path ->
      let p = Pager.create ~pool_pages:1 path in
      let a = Pager.allocate p in
      let b = Pager.allocate p in
      let page = Bytes.make Pager.page_size 'd' in
      Pager.write_page p a page;
      (* touching b evicts dirty a *)
      ignore (Pager.read_page p b);
      Alcotest.(check char) "write-back preserved the data" 'd'
        (Bytes.get (Pager.read_page p a) 0);
      Pager.close p)

let test_evictions_counted () =
  with_temp_file (fun path ->
      let p = Pager.create ~pool_pages:2 path in
      let pages = List.init 6 (fun _ -> Pager.allocate p) in
      Alcotest.(check int) "fresh pool, no evictions" 0 (Pager.evictions p);
      List.iter (fun n -> ignore (Pager.read_page p n)) pages;
      (* 6 distinct pages through a 2-slot pool: at least 4 evictions *)
      Alcotest.(check bool) "evictions counted" true (Pager.evictions p >= 4);
      let e = Pager.evictions p in
      ignore (Pager.read_page p (List.nth pages 5));
      Alcotest.(check int) "resident page evicts nothing" e (Pager.evictions p);
      Pager.close p)

(* The LRU must evict the least-recently-used slot, not an arbitrary
   one: with a 2-slot pool, touching a keeps it resident while b ages
   out. *)
let test_lru_order () =
  with_temp_file (fun path ->
      let p = Pager.create ~pool_pages:2 path in
      let a = Pager.allocate p in
      let b = Pager.allocate p in
      let c = Pager.allocate p in
      ignore (Pager.read_page p a);
      ignore (Pager.read_page p b);
      ignore (Pager.read_page p a);
      (* pool = {a, b}, a most recent; c must evict b *)
      ignore (Pager.read_page p c);
      let hits = Pager.hits p in
      ignore (Pager.read_page p a);
      Alcotest.(check bool) "recently-touched page survived eviction" true
        (Pager.hits p > hits);
      let reads = Pager.reads_from_disk p in
      ignore (Pager.read_page p b);
      Alcotest.(check bool) "least-recently-used page was the one evicted" true
        (Pager.reads_from_disk p > reads);
      Pager.close p)

let test_with_page_mutates_in_place () =
  with_temp_file (fun path ->
      let p = Pager.create ~pool_pages:2 path in
      let a = Pager.allocate p in
      let w = Pager.writes_to_disk p in
      Pager.with_page p a (fun b -> Bytes.set b 0 'm');
      Alcotest.(check int) "mutation buffered, not written through" w
        (Pager.writes_to_disk p);
      Pager.flush p;
      Alcotest.(check bool) "flush wrote the dirty page" true (Pager.writes_to_disk p > w);
      Pager.close p;
      let p2 = Pager.create path in
      Alcotest.(check char) "in-place mutation durable" 'm'
        (Bytes.get (Pager.read_page p2 a) 0);
      Pager.close p2)

let test_repair_partial_truncates () =
  with_temp_file (fun path ->
      let p = Pager.create path in
      let a = Pager.allocate p in
      Pager.write_page p a (Bytes.make Pager.page_size 'k');
      Pager.close p;
      (* simulate a crash mid-extension: half a page of trailing garbage *)
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      ignore (Unix.write_substring fd (String.make 100 'g') 0 100);
      Unix.close fd;
      let p2 = Pager.create ~repair_partial:true path in
      Alcotest.(check int) "partial page truncated away" 1 (Pager.page_count p2);
      Alcotest.(check char) "whole pages intact" 'k' (Bytes.get (Pager.read_page p2 a) 0);
      Pager.close p2)

let test_out_of_range () =
  with_temp_file (fun path ->
      let p = Pager.create path in
      (try
         ignore (Pager.read_page p 0);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      Pager.close p)

let suite =
  [
    Alcotest.test_case "allocate / read / write" `Quick test_allocate_and_rw;
    Alcotest.test_case "persistence across reopen" `Quick test_persistence_across_reopen;
    Alcotest.test_case "pool hits and eviction" `Quick test_pool_hits_and_eviction;
    Alcotest.test_case "dirty eviction writes back" `Quick test_dirty_eviction_writes_back;
    Alcotest.test_case "evictions counted" `Quick test_evictions_counted;
    Alcotest.test_case "LRU evicts the coldest slot" `Quick test_lru_order;
    Alcotest.test_case "with_page mutates in place" `Quick test_with_page_mutates_in_place;
    Alcotest.test_case "repair_partial truncates a torn page" `Quick
      test_repair_partial_truncates;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
  ]

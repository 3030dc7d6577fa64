(* Benchmark harness: regenerates, for every quantitative claim of the
   paper (see DESIGN.md §3, experiments C1–C8), the table or series that
   supports it, and times the core operations with Bechamel.

   The paper (SIGMOD 1989) reports no absolute numbers — its evaluation
   is the worked figures plus performance arguments (storage compression
   in §1; footnote 1's repeated-join degradation; consolidation and
   explication costs in §3.3). Accordingly each experiment below prints
   the paper's *shape*: who wins, by what factor, and how the gap scales.

   Run with: dune exec bench/main.exe *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Workload = Hr_workload.Workload
module Traditional = Hr_flat.Traditional
module Flat_relation = Hr_flat.Flat_relation
module Mine = Hr_mine.Mine
module Prng = Hr_util.Prng
module Texttable = Hr_util.Texttable
open Hierel

let section title = Format.printf "@.==== %s ====@." title

(* ---- Bechamel helpers ----------------------------------------------- *)

open Bechamel
open Toolkit

(* Per-run knobs (set from argv before any experiment runs) and the
   accumulated estimates, for the optional --metrics-json report. *)
let quota_s = ref 0.25
let metrics_json_path : string option ref = ref None
let collected : (string * float) list ref = ref []

let run_benches ~label tests =
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota_s) ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:label ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let table = Texttable.create ~aligns:[ Texttable.Left; Texttable.Right ] [ "benchmark"; "ns/op" ] in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) ->
             collected := (name, e) :: !collected;
             Printf.sprintf "%.0f" e
           | Some [] | None -> "n/a"
         in
         Texttable.add_row table [ name; ns ]);
  print_string (Texttable.render table)

(* ---- C1: storage compression (paper §1) ------------------------------ *)

let bench_storage () =
  section "C1 — storage: one class tuple vs enumerated extension (paper §1)";
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "extension size"; "hierarchical tuples"; "flat rows"; "flat bytes" ]
  in
  List.iter
    (fun (depth, fanout, ipl) ->
      let h = Workload.tree_hierarchy ~name:(Printf.sprintf "c1_%d_%d" depth ipl) ~depth ~fanout ~instances_per_leaf:ipl () in
      let schema = Schema.make [ ("v", h) ] in
      let rel =
        Relation.of_tuples ~name:"r" schema
          [ (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]) ]
      in
      let flat = Traditional.extension_relation rel in
      Texttable.add_row table
        [
          string_of_int (Explicate.extension_size rel);
          string_of_int (Relation.cardinality rel);
          string_of_int (Flat_relation.cardinality flat);
          string_of_int (Flat_relation.approx_bytes flat);
        ])
    [ (1, 10, 1); (2, 10, 1); (2, 10, 10); (3, 10, 10) ];
  print_string (Texttable.render table);
  Format.printf
    "shape check: hierarchical storage is O(1) in the class size; flat storage is O(n).@."

(* ---- C2: membership queries vs repeated joins (footnote 1) ----------- *)

let bench_membership () =
  section "C2 — membership: O(1) binding vs one join per level (footnote 1)";
  let depths = [ 2; 4; 8; 16 ] in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "hierarchy depth"; "traditional join rounds"; "hierarchical lookups" ]
  in
  let setups =
    List.map
      (fun d ->
        let h = Workload.chain_hierarchy ~name:(Printf.sprintf "c2_%d" d) ~depth:d () in
        (d, h, Traditional.of_hierarchy h))
      depths
  in
  List.iter
    (fun (d, _, t) ->
      let _, joins = Traditional.member_join_count t ~instance:"leaf" ~cls:"c0" in
      Texttable.add_row table [ string_of_int d; string_of_int joins; "1" ])
    setups;
  print_string (Texttable.render table);
  let tests =
    List.concat_map
      (fun (d, h, t) ->
        let leaf = Hierarchy.find_exn h "leaf" and c0 = Hierarchy.find_exn h "c0" in
        ignore (Hierarchy.subsumes h c0 leaf) (* warm the reachability index *);
        [
          Test.make
            ~name:(Printf.sprintf "hier/depth %02d" d)
            (Staged.stage (fun () -> Hierarchy.subsumes h c0 leaf));
          Test.make
            ~name:(Printf.sprintf "trad/depth %02d" d)
            (Staged.stage (fun () -> Traditional.member t ~instance:"leaf" ~cls:"c0"));
        ])
      setups
  in
  run_benches ~label:"membership" tests;
  Format.printf
    "shape check: traditional latency grows with depth; hierarchical stays flat.@."

(* ---- C3: consolidation (paper §3.3.1) -------------------------------- *)

let bench_consolidate () =
  section "C3 — consolidation: compression vs redundancy rate (§3.3.1)";
  let g = Prng.create 11L in
  let h = Workload.tree_hierarchy ~name:"c3" ~depth:3 ~fanout:4 ~instances_per_leaf:2 () in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "redundancy"; "tuples before"; "tuples after"; "extension preserved" ]
  in
  let cases =
    List.map
      (fun redundancy ->
        let rel = Workload.redundant_relation (Prng.split g) h ~redundancy ~tuples:60 in
        let c = Consolidate.consolidate rel in
        Texttable.add_row table
          [
            Printf.sprintf "%.0f%%" (redundancy *. 100.);
            string_of_int (Relation.cardinality rel);
            string_of_int (Relation.cardinality c);
            string_of_bool (Flatten.equal_extension rel c);
          ];
        (redundancy, rel))
      [ 0.0; 0.3; 0.6; 0.9 ]
  in
  print_string (Texttable.render table);
  let tests =
    List.map
      (fun (redundancy, rel) ->
        Test.make
          ~name:(Printf.sprintf "redundancy %.0f%%" (redundancy *. 100.))
          (Staged.stage (fun () -> Consolidate.consolidate rel)))
      cases
  in
  run_benches ~label:"consolidate" tests

(* ---- C4: explication (paper §3.3.2) ----------------------------------- *)

let bench_explicate () =
  section "C4 — explication cost tracks extension size (§3.3.2)";
  let cases =
    List.map
      (fun (fanout, ipl) ->
        let h =
          Workload.tree_hierarchy ~name:(Printf.sprintf "c4_%d_%d" fanout ipl) ~depth:2 ~fanout
            ~instances_per_leaf:ipl ()
        in
        let schema = Schema.make [ ("v", h) ] in
        (* exception on the first depth-1 class actually present *)
        let some_leaf_class =
          List.find
            (fun c ->
              String.length (Hierarchy.node_label h c) > 1
              && (Hierarchy.node_label h c).[1] = '1')
            (Hierarchy.classes h)
        in
        let rel =
          Relation.of_tuples ~name:"r" schema
            [
              (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]);
              (Types.Neg, [ Hierarchy.node_label h some_leaf_class ]);
            ]
        in
        (Explicate.extension_size rel, rel))
      [ (4, 4); (8, 4); (8, 16) ]
  in
  let tests =
    List.map
      (fun (size, rel) ->
        Test.make
          ~name:(Printf.sprintf "extension %5d" size)
          (Staged.stage (fun () -> Explicate.explicate rel)))
      cases
  in
  run_benches ~label:"explicate" tests

(* ---- C5: lifted set operations vs explicate-then-flat ----------------- *)

let bench_setops () =
  section "C5 — set ops: lifted (hierarchical) vs explicate-then-flat (§3.4)";
  let h = Workload.tree_hierarchy ~name:"c5" ~depth:2 ~fanout:6 ~instances_per_leaf:8 () in
  let schema = Schema.make [ ("v", h) ] in
  let deep_classes =
    List.filter
      (fun c ->
        let l = Hierarchy.node_label h c in
        String.length l > 1 && l.[0] = 'c' && l.[1] = '1')
      (Hierarchy.classes h)
    |> List.map (Hierarchy.node_label h)
  in
  let ca, cb =
    match deep_classes with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let r1 =
    Relation.of_tuples ~name:"r1" schema [ (Types.Pos, [ "c5" ]); (Types.Neg, [ ca ]) ]
  in
  let r2 =
    Relation.of_tuples ~name:"r2" schema [ (Types.Pos, [ ca ]); (Types.Pos, [ cb ]) ]
  in
  let flat1 = Traditional.extension_relation r1 and flat2 = Traditional.extension_relation r2 in
  Format.printf "operands: %d and %d stored tuples (extensions %d and %d)@."
    (Relation.cardinality r1) (Relation.cardinality r2)
    (Flat_relation.cardinality flat1) (Flat_relation.cardinality flat2);
  let tests =
    [
      Test.make ~name:"lifted union" (Staged.stage (fun () -> Ops.union r1 r2));
      Test.make ~name:"lifted diff" (Staged.stage (fun () -> Ops.diff r1 r2));
      Test.make ~name:"flat union (pre-explicated)"
        (Staged.stage (fun () -> Flat_relation.union flat1 flat2));
      Test.make ~name:"flat union + explication cost"
        (Staged.stage (fun () ->
             Flat_relation.union (Traditional.extension_relation r1)
               (Traditional.extension_relation r2)));
    ]
  in
  run_benches ~label:"setops" tests;
  Format.printf
    "shape check: lifted ops work on O(tuples); the flat path pays O(extension) each time.@."

(* ---- C6: integrity checking (§3.1) ------------------------------------ *)

let bench_integrity () =
  section "C6 — ambiguity-constraint checking cost (§3.1)";
  let g = Prng.create 23L in
  let cases =
    List.map
      (fun tuples ->
        let h =
          Workload.random_hierarchy (Prng.split g)
            { Workload.default_hierarchy_spec with name = Printf.sprintf "c6_%d" tuples }
        in
        let schema = Schema.make [ ("v", h) ] in
        let rel =
          Workload.consistent_random_relation (Prng.split g) schema
            { Workload.default_relation_spec with tuples }
        in
        (tuples, rel))
      [ 10; 30; 60 ]
  in
  let tests =
    List.map
      (fun (tuples, rel) ->
        Test.make
          ~name:(Printf.sprintf "%2d tuples" tuples)
          (Staged.stage (fun () -> Integrity.is_consistent rel)))
      cases
  in
  run_benches ~label:"integrity" tests

(* ---- C7: preemption semantics ablation (Appendix) --------------------- *)

let bench_preemption () =
  section "C7 — preemption semantics ablation (Appendix)";
  let h, rel = Workload.exception_chain ~name:"c7dom" ~depth:10 ~instances_per_class:2 () in
  let schema = Relation.schema rel in
  let deepest = Item.of_names schema [ "i9_1" ] in
  let answers =
    List.map
      (fun sem ->
        ( Format.asprintf "%a" Types.pp_semantics sem,
          match Binding.verdict ~semantics:sem rel deepest with
          | Binding.Asserted (s, _) -> Format.asprintf "%a" Types.pp_sign s
          | Binding.Unasserted -> "unasserted"
          | Binding.Conflict _ -> "conflict" ))
      [ Types.Off_path; Types.On_path; Types.No_preemption ]
  in
  let table = Texttable.create [ "semantics"; "verdict at depth-10 instance" ] in
  List.iter (fun (s, v) -> Texttable.add_row table [ s; v ]) answers;
  print_string (Texttable.render table);
  ignore h;
  let tests =
    List.map
      (fun sem ->
        Test.make
          ~name:(Format.asprintf "%a" Types.pp_semantics sem)
          (Staged.stage (fun () -> Binding.verdict ~semantics:sem rel deepest)))
      [ Types.Off_path; Types.On_path; Types.No_preemption ]
  in
  run_benches ~label:"preemption" tests

(* ---- C8: storage-minimizing organization (Conclusion) ----------------- *)

let bench_mine () =
  section "C8 — mechanical organization minimizes storage (Conclusion)";
  let h = Workload.tree_hierarchy ~name:"c8" ~depth:3 ~fanout:4 ~instances_per_leaf:4 () in
  let instances = Hierarchy.instances h in
  let n = List.length instances in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "membership pattern"; "members"; "tuples stored"; "compression" ]
  in
  let patterns =
    [
      ("everything", List.map (Hierarchy.node_label h) instances);
      ( "all but one",
        List.map (Hierarchy.node_label h) (List.tl instances) );
      ( "every other subtree",
        List.filteri (fun i _ -> i / 16 mod 2 = 0) instances
        |> List.map (Hierarchy.node_label h) );
      ( "random half",
        let g = Prng.create 31L in
        List.filter (fun _ -> Prng.bool g) instances |> List.map (Hierarchy.node_label h) );
    ]
  in
  let organized =
    List.map
      (fun (label, members) ->
        let rel = Mine.organize h ~members in
        Texttable.add_row table
          [
            label;
            Printf.sprintf "%d/%d" (List.length members) n;
            string_of_int (Relation.cardinality rel);
            Printf.sprintf "%.1fx" (Mine.compression_ratio rel);
          ];
        (label, members))
      patterns
  in
  print_string (Texttable.render table);
  let tests =
    List.map
      (fun (label, members) ->
        Test.make ~name:label (Staged.stage (fun () -> Mine.organize h ~members)))
      organized
  in
  run_benches ~label:"mine" tests

(* ---- C9: indexed vs scanned binding queries (§4 efficiency) ----------- *)

(* The reference access path [Binding.verdict] replaces with the
   relation's candidate index: every stored tuple, filtered by strict
   subsumption. *)
let scan_verdict rel item =
  let schema = Relation.schema rel in
  Binding.decide schema item ~exact:(Relation.find rel item)
    ~relevant:
      (List.filter
         (fun (t : Relation.tuple) -> Item.strictly_subsumes schema t.Relation.item item)
         (Relation.tuples rel))

let bench_index () =
  section
    "C9 — binding queries: candidate index (Binding.verdict) vs body scan (§4 efficiency \
     promise)";
  let g = Prng.create 41L in
  (* One hierarchy (and one probe) shared by every size, so the cases
     differ only in tuple count — separate random hierarchies per case
     made the sizes incomparable (ancestor-set shape dominated, which is
     how 100 tuples once benched slower than 400). *)
  let h =
    Workload.random_hierarchy (Prng.split g)
      {
        Workload.name = "c9";
        classes = 60;
        instances = 200;
        multi_parent_prob = 0.15;
      }
  in
  let schema = Schema.make [ ("v", h) ] in
  let probe = Item.make schema [| List.hd (Hierarchy.instances h) |] in
  let cases =
    List.map
      (fun tuples ->
        let rel =
          Workload.consistent_random_relation (Prng.split g) schema
            { Workload.default_relation_spec with tuples }
        in
        (tuples, rel, probe))
      [ 25; 100; 400 ]
  in
  let tests =
    List.concat_map
      (fun (tuples, rel, probe) ->
        [
          Test.make
            ~name:(Printf.sprintf "scan/%3d tuples" tuples)
            (Staged.stage (fun () -> scan_verdict rel probe));
          Test.make
            ~name:(Printf.sprintf "index/%3d tuples" tuples)
            (Staged.stage (fun () -> Binding.verdict rel probe));
        ])
      cases
  in
  run_benches ~label:"binding" tests;
  Format.printf
    "shape check: the body scan's cost grows with relation size; Binding.verdict's \
     candidate-index probes stay near-flat.@."

(* ---- C10: storage engine costs ----------------------------------------- *)

let bench_storage_engine () =
  section "C10 — storage engine: snapshot codec and WAL append";
  let g = Prng.create 53L in
  let cat = Catalog.create () in
  let h =
    Workload.random_hierarchy (Prng.split g)
      { Workload.default_hierarchy_spec with name = "c10"; classes = 40; instances = 120 }
  in
  Catalog.define_hierarchy cat h;
  let schema = Schema.make [ ("v", h) ] in
  Catalog.define_relation cat
    (Workload.consistent_random_relation (Prng.split g) schema
       { Workload.default_relation_spec with rel_name = "c10_rel"; tuples = 80 });
  let encoded = Hr_storage.Snapshot.encode cat in
  Format.printf "snapshot size for 160-node hierarchy + 80-tuple relation: %d bytes@."
    (String.length encoded);
  let wal_dir = Filename.temp_file "hrbench" "" in
  Sys.remove wal_dir;
  Sys.mkdir wal_dir 0o755;
  let wal_path = Filename.concat wal_dir "wal.log" in
  (* No-fsync WAL: the bench isolates serialization + buffered-write +
     flush cost; C14 measures real fsync'd throughput end to end. *)
  let wal = Hr_storage.Wal.open_ ~fsync:false wal_path in
  let lsn = ref 0 in
  let tests =
    [
      Test.make ~name:"snapshot encode" (Staged.stage (fun () -> Hr_storage.Snapshot.encode cat));
      Test.make ~name:"snapshot decode (checked)"
        (Staged.stage (fun () -> Hr_storage.Snapshot.decode encoded));
      Test.make ~name:"snapshot decode (trusted)"
        (Staged.stage (fun () -> Hr_storage.Snapshot.decode ~check:false encoded));
      Test.make ~name:"wal append (buffered)"
        (Staged.stage (fun () ->
             incr lsn;
             Hr_storage.Wal.append wal ~lsn:!lsn "INSERT INTO c10_rel VALUES (+ c10_i1);"));
      Test.make ~name:"wal append+sync"
        (Staged.stage (fun () ->
             incr lsn;
             Hr_storage.Wal.append wal ~lsn:!lsn "INSERT INTO c10_rel VALUES (+ c10_i1);";
             Hr_storage.Wal.sync wal));
    ]
  in
  run_benches ~label:"storage" tests;
  Hr_storage.Wal.close wal;
  Sys.remove wal_path;
  Sys.rmdir wal_dir

(* ---- C14: group commit — multi-client mutation throughput --------------- *)

(* End-to-end durable throughput through the real server event loop and
   wire protocol, with real fsyncs. Two arms:

   - per-stmt sync: one request/response client — every statement waits
     for its own fsync'd ack, the pre-group-commit behaviour;
   - group commit: [--clients K] pipelined clients — the event loop
     drains every readable frame per tick and all of them share one
     WAL flush+fsync at the commit point.

   Both arms report ns/statement (schema-compatible with the bechamel
   estimates in the JSON report); the speedup is their ratio. *)

let clients_k = ref 8

let bench_group_commit () =
  let module Server = Hr_server.Server in
  let module Wire = Hr_frames.Wire in
  let module Metrics = Hr_obs.Metrics in
  section
    (Printf.sprintf "C14 — group commit: durable mutation throughput (%d pipelined clients)"
       !clients_k);
  let with_temp_dir f =
    let dir = Filename.temp_file "hrbench_c14" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () -> f dir)
  in
  (* Scale the statement count with --quota so the CI smoke run stays
     cheap while the default run measures something stable. *)
  let stmts_per_client = max 30 (int_of_float (!quota_s *. 800.)) in
  let stmt = "INSERT INTO r VALUES (+ c14_i1);" in
  let frame = Wire.frame "EXEC" stmt in
  let run_arm ~clients ~pipelined =
    with_temp_dir (fun dir ->
        let server = Server.create_durable ~port:0 ~dir () in
        Fun.protect
          ~finally:(fun () -> Server.close server)
          (fun () ->
            let port = Server.port server in
            (* schema setup over a throwaway request/response client *)
            let setup = Server.Client.connect ~timeout:10.0 ~port () in
            let setup_fd = Server.Client.fd setup in
            Wire.send setup_fd "EXEC"
              "CREATE DOMAIN c14_d; CREATE INSTANCE c14_i1 OF c14_d; CREATE RELATION r (v: c14_d);";
            let rec await_setup () =
              ignore (Server.poll server 0.01);
              match Unix.select [ setup_fd ] [] [] 0.0 with
              | [ _ ], _, _ -> (
                match Server.Client.recv setup with
                | Ok _ -> ()
                | Error msg -> failwith ("C14 setup: " ^ msg))
              | _ -> await_setup ()
            in
            await_setup ();
            Server.Client.close setup;
            ignore (Server.poll server 0.01);
            let appends0 = Metrics.counter_value "storage.wal.appends" in
            let syncs0 = Metrics.counter_value "storage.wal.sync_batches" in
            let fsyncs0 = Metrics.counter_value "storage.wal.fsyncs" in
            (* per-client pipelined sender/ack-counter state machine *)
            let conns =
              Array.init clients (fun _ ->
                  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
                  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                  Unix.set_nonblock fd;
                  (fd, Wire.Decoder.create (), ref 0 (* sent *), ref 0 (* acked *),
                   ref 0 (* offset into the in-flight frame *)))
            in
            let total = clients * stmts_per_client in
            let acked_total = ref 0 in
            let buf = Bytes.create 65536 in
            let t0 = Unix.gettimeofday () in
            while !acked_total < total do
              ignore (Server.poll server 0.002);
              Array.iter
                (fun (fd, dec, sent, acked, off) ->
                  (* send while the socket accepts bytes; the baseline
                     arm keeps at most one statement in flight *)
                  (try
                     while
                       !sent < stmts_per_client
                       && (pipelined || !acked = !sent)
                     do
                       let n =
                         Unix.write_substring fd frame !off (String.length frame - !off)
                       in
                       off := !off + n;
                       if !off = String.length frame then begin
                         off := 0;
                         incr sent
                       end
                     done
                   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
                  match Unix.read fd buf 0 (Bytes.length buf) with
                  | 0 -> failwith "C14: server closed a client connection"
                  | n ->
                    Wire.Decoder.feed dec buf n;
                    let rec drain () =
                      match Wire.Decoder.next dec with
                      | Ok (Some (tag, payload)) ->
                        if tag = "ERR" then failwith ("C14: ERR reply: " ^ payload);
                        incr acked;
                        incr acked_total;
                        drain ()
                      | Ok None -> ()
                      | Error msg -> failwith ("C14: bad reply frame: " ^ msg)
                    in
                    drain ()
                  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
                conns
            done;
            let elapsed = Unix.gettimeofday () -. t0 in
            Array.iter (fun (fd, _, _, _, _) -> Unix.close fd) conns;
            let appends = Metrics.counter_value "storage.wal.appends" - appends0 in
            let syncs = Metrics.counter_value "storage.wal.sync_batches" - syncs0 in
            let fsyncs = Metrics.counter_value "storage.wal.fsyncs" - fsyncs0 in
            (total, elapsed, appends, syncs, fsyncs)))
  in
  let report name (total, elapsed, appends, syncs, fsyncs) =
    let per_sec = float total /. elapsed in
    let ns_per_stmt = elapsed /. float total *. 1e9 in
    collected := (name ^ " ns/stmt", ns_per_stmt) :: !collected;
    Format.printf
      "%s: %d stmts in %.3fs = %.0f stmts/s (%.0f ns/stmt); %d appends, %d sync batches, %d \
       fsyncs (%.1f stmts/sync)@."
      name total elapsed per_sec ns_per_stmt appends syncs fsyncs
      (float appends /. float (max 1 syncs));
    ns_per_stmt
  in
  let baseline = run_arm ~clients:1 ~pipelined:false in
  let grouped = run_arm ~clients:!clients_k ~pipelined:true in
  let ns_base = report "C14 per-stmt sync (1 client)" baseline in
  let ns_grp =
    report (Printf.sprintf "C14 group commit (%d clients)" !clients_k) grouped
  in
  let _, _, grp_appends, grp_syncs, _ = grouped in
  Format.printf "group-commit speedup: %.1fx; batching %s@." (ns_base /. ns_grp)
    (if grp_syncs < grp_appends then "confirmed (sync batches < appends)"
     else "NOT OBSERVED (sync batches >= appends)")

(* ---- C12: page footprint of both representations ------------------------ *)

(* Pages a fresh [Page_store] holds after one commit of [rel] alone. *)
let stored_pages rel =
  let path = Filename.temp_file "hrc12" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let store = Hr_storage.Page_store.create path in
      Hr_storage.Page_store.apply_relation store rel;
      let _, total = Hr_storage.Page_store.commit store ~fsync:false ~base_lsn:0 () in
      Hr_storage.Page_store.close store;
      total)

let bench_page_io () =
  section "C12 — page store: hierarchical stored form vs enumerated extension";
  let table =
    Texttable.create
      ~aligns:
        [ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "extension"; "hier tuples"; "hier pages"; "flat tuples"; "flat pages" ]
  in
  let last =
    List.fold_left
      (fun _ (fanout, ipl) ->
        let h =
          Workload.tree_hierarchy ~name:(Printf.sprintf "c12_%d_%d" fanout ipl) ~depth:2 ~fanout
            ~instances_per_leaf:ipl ()
        in
        let schema = Schema.make [ ("v", h) ] in
        let rel =
          Relation.of_tuples ~name:"r" schema
            [ (Types.Pos, [ Hierarchy.node_label h (Hierarchy.root h) ]) ]
        in
        let flat = Explicate.explicate rel in
        let hier_pages = stored_pages rel and flat_pages = stored_pages flat in
        Texttable.add_row table
          [
            string_of_int (Explicate.extension_size rel);
            string_of_int (Relation.cardinality rel);
            string_of_int hier_pages;
            string_of_int (Relation.cardinality flat);
            string_of_int flat_pages;
          ];
        (hier_pages, flat_pages))
      (0, 0)
      [ (8, 8); (16, 16); (32, 32) ]
  in
  print_string (Texttable.render table);
  let hier_pages, flat_pages = last in
  Format.printf
    "shape check: the hierarchical form stays at a few pages while the flat form grows: %s.@."
    (if hier_pages < flat_pages then "OBSERVED" else "NOT OBSERVED");
  if hier_pages >= flat_pages then begin
    Format.eprintf "C12: hierarchical form uses %d pages, flat form %d, at the largest size@."
      hier_pages flat_pages;
    exit 1
  end

(* ---- C13: semantic-net geometric growth (§2.1) --------------------------- *)

let bench_semantic_net () =
  section "C13 — semantic nets: product-taxonomy blow-up vs tuples (§2.1)";
  (* A semantic net folds associations into the taxonomy: a k-attribute
     association needs class nodes for the product regions and their
     ancestors, while the hierarchical model keeps the k taxonomies
     separate and stores one tuple per association. Count both. *)
  let domain k =
    Workload.tree_hierarchy ~name:(Printf.sprintf "c13_%d" k) ~depth:2 ~fanout:3
      ~instances_per_leaf:2 ()
  in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "attributes k"; "taxonomy nodes (ours)"; "tuples (ours)"; "semantic-net product nodes" ]
  in
  List.iter
    (fun k ->
      let hs = List.init k domain in
      let per_domain = Hierarchy.node_count (List.hd hs) in
      (* one association asserted on a mid-level class of each coordinate *)
      let mid h =
        List.find
          (fun c ->
            c <> Hierarchy.root h
            &&
            let l = Hierarchy.node_label h c in
            String.length l > 2 && l.[0] = 'c' && l.[1] = '1' && l.[2] = '_')
          (Hierarchy.classes h)
      in
      (* net nodes: every ancestor combination of the asserted region must
         exist as an explicit class in the folded taxonomy *)
      let net_nodes =
        List.fold_left
          (fun acc h -> acc * List.length (Hierarchy.ancestors h (mid h)))
          1 hs
        |> fun product_region ->
        (* plus the k base taxonomies themselves *)
        (per_domain * k) + product_region
      in
      let ours_taxonomy = per_domain * k in
      let ours_tuples = 1 in
      Texttable.add_row table
        [
          string_of_int k;
          string_of_int ours_taxonomy;
          string_of_int ours_tuples;
          string_of_int net_nodes;
        ])
    [ 1; 2; 3; 4 ];
  print_string (Texttable.render table);
  Format.printf
    "shape check: our storage is linear in k; the folded-taxonomy encoding grows geometrically.@."

(* ---- C11: HRQL end-to-end ----------------------------------------------- *)

let bench_hrql () =
  section "C11 — HRQL: parse, optimize, evaluate";
  let cat = Catalog.create () in
  let setup =
    {|
    CREATE DOMAIN animal;
    CREATE CLASS bird UNDER animal;
    CREATE CLASS penguin UNDER bird;
    CREATE CLASS afp UNDER penguin;
    CREATE INSTANCE tweety OF bird;
    CREATE INSTANCE paul OF penguin;
    CREATE INSTANCE pamela OF afp;
    CREATE RELATION jack (creature: animal);
    CREATE RELATION jill (creature: animal);
    INSERT INTO jack VALUES (+ ALL bird), (- ALL penguin);
    INSERT INTO jill VALUES (+ ALL penguin), (- ALL afp);
    |}
  in
  (match Hr_query.Eval.run_script cat setup with Ok _ -> () | Error e -> failwith e);
  let ask = "ASK jack (pamela);" in
  let select = "SELECT * FROM SELECT (jack UNION jill) WHERE creature = penguin;" in
  let tests =
    [
      Test.make ~name:"parse only"
        (Staged.stage (fun () -> Hr_query.Parser.parse select));
      Test.make ~name:"ASK end-to-end"
        (Staged.stage (fun () -> Hr_query.Eval.run_script cat ask));
      Test.make ~name:"SELECT over UNION end-to-end"
        (Staged.stage (fun () -> Hr_query.Eval.run_script cat select));
    ]
  in
  run_benches ~label:"hrql" tests

(* ---- C15: estimator accuracy — estimated vs actual rows ------------------ *)

(* Per-workload q-error summaries and catalog statistics, accumulated
   for the --metrics-json report (docs/OBSERVABILITY.md, docs/COST.md). *)
let c15_json : (string * Hr_obs.Jsonout.t) list ref = ref []

(* The standard q-error with +1 smoothing, so empty nodes (estimated or
   actual) stay finite. *)
let qerror est actual =
  let e = est +. 1.0 and a = float_of_int actual +. 1.0 in
  Float.max (e /. a) (a /. e)

let median = function
  | [] -> 0.0
  | xs ->
    let sorted = List.sort compare xs in
    List.nth sorted (List.length sorted / 2)

(* Pairs each estimate node with the evaluated node of the same plan —
   Cost_model.plan and Eval.analyze both walk Optimizer.optimize's
   output, so the trees are shape-identical by construction. *)
let rec zip_estimates (n : Hr_analysis.Cost_model.node) (a : Hr_query.Eval.analyzed) acc =
  let acc = (n.Hr_analysis.Cost_model.n_label, n.Hr_analysis.Cost_model.n_rows, a.Hr_query.Eval.a_rows) :: acc in
  List.fold_left2
    (fun acc c ac -> zip_estimates c ac acc)
    acc n.Hr_analysis.Cost_model.n_children a.Hr_query.Eval.a_children

(* Per-class extension counts and cone sizes — the statistics the
   estimator reads, snapshotted so a metrics report pins down the
   catalog the q-errors were measured against. *)
let catalog_stats cat =
  let open Hr_obs.Jsonout in
  let per_hierarchy h =
    let classes =
      List.filter (fun v -> not (Hierarchy.is_instance h v)) (Hierarchy.nodes h)
    in
    ( Hr_util.Symbol.name (Hierarchy.domain h),
      Obj
        (List.map
           (fun v ->
             ( Hierarchy.node_label h v,
               Obj
                 [
                   ("extension", Int (Hr_analysis.Cost_model.extension_count h v));
                   ("cone", Int (Hr_analysis.Cost_model.cone_size h v));
                 ] ))
           classes) )
  in
  Obj (List.map per_hierarchy (Catalog.hierarchies cat))

let bench_estimator () =
  section "C15 — estimator accuracy: estimated vs actual rows per plan node";
  let module Cost_model = Hr_analysis.Cost_model in
  let run_workload (name, cat, queries) =
    let src = Cost_model.of_catalog cat in
    let qs = ref [] in
    let nodes = ref 0 in
    List.iter
      (fun q ->
        let { Hr_query.Ast.stmt; _ } =
          Hr_query.Parser.parse_statement ("EXPLAIN ESTIMATE " ^ q)
        in
        let expr =
          match stmt with
          | Hr_query.Ast.Explain_estimate e -> e
          | _ -> failwith "C15: not an expression"
        in
        match Cost_model.plan src expr with
        | Error msg -> failwith ("C15 " ^ name ^ ": " ^ msg)
        | Ok (optimized, root) ->
          let _, actual = Hr_query.Eval.analyze cat optimized in
          let pairs = zip_estimates root actual [] in
          nodes := !nodes + List.length pairs;
          List.iter (fun (_, est, act) -> qs := qerror est act :: !qs) pairs)
      queries;
    let med = median !qs and worst = List.fold_left Float.max 1.0 !qs in
    c15_json :=
      ( name,
        Hr_obs.Jsonout.Obj
          [
            ("queries", Hr_obs.Jsonout.Int (List.length queries));
            ("nodes", Hr_obs.Jsonout.Int !nodes);
            ("median_q_error", Hr_obs.Jsonout.Float med);
            ("max_q_error", Hr_obs.Jsonout.Float worst);
            ("catalog", catalog_stats cat);
          ] )
      :: !c15_json;
    (name, List.length queries, !nodes, med, worst)
  in
  let scripted name setup queries =
    let cat = Catalog.create () in
    (match Hr_query.Eval.run_script cat setup with
    | Ok _ -> ()
    | Error e -> failwith ("C15 setup: " ^ e));
    (name, cat, queries)
  in
  let flat =
    scripted "flat"
      {|
      CREATE DOMAIN d;
      CREATE INSTANCE x1 OF d; CREATE INSTANCE x2 OF d;
      CREATE INSTANCE x3 OF d; CREATE INSTANCE x4 OF d;
      CREATE RELATION r (v: d);
      CREATE RELATION s (v: d);
      INSERT INTO r VALUES (+ x1), (+ x2), (+ x3);
      INSERT INTO s VALUES (+ x2), (+ x3), (+ x4);
      |}
      [
        "r";
        "SELECT r WHERE v = x1";
        "r UNION s";
        "r INTERSECT s";
        "r JOIN s";
      ]
  in
  let hierarchy =
    scripted "hierarchy"
      {|
      CREATE DOMAIN animal;
      CREATE CLASS bird UNDER animal;
      CREATE CLASS penguin UNDER bird;
      CREATE CLASS afp UNDER penguin;
      CREATE INSTANCE tweety OF bird;
      CREATE INSTANCE paul OF penguin;
      CREATE INSTANCE pamela OF afp;
      CREATE RELATION jack (creature: animal);
      CREATE RELATION jill (creature: animal);
      INSERT INTO jack VALUES (+ ALL bird), (- ALL penguin);
      INSERT INTO jill VALUES (+ ALL penguin), (- ALL afp);
      |}
      [
        "jack";
        "SELECT jack WHERE creature = penguin";
        "jack UNION jill";
        "EXPLICATED jack";
        "EXPLICATED (jack UNION jill)";
      ]
  in
  let synthetic =
    let h =
      Workload.tree_hierarchy ~name:"syn" ~depth:2 ~fanout:3
        ~instances_per_leaf:2 ()
    in
    let cat = Catalog.create () in
    Catalog.define_hierarchy cat h;
    let prng = Prng.create 15L in
    let schema = Schema.make [ ("a", h); ("b", h) ] in
    let rel =
      Workload.repair prng
        (Workload.random_relation prng schema
           { Workload.default_relation_spec with Workload.rel_name = "syn_rel"; tuples = 12 })
    in
    Catalog.define_relation cat rel;
    ( "synthetic",
      cat,
      [ "syn_rel"; "SELECT syn_rel WHERE a = c0_1"; "EXPLICATED syn_rel" ] )
  in
  let table =
    Texttable.create
      ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right; Texttable.Right; Texttable.Right ]
      [ "workload"; "queries"; "nodes"; "median q-error"; "max q-error" ]
  in
  List.iter
    (fun w ->
      let name, queries, nodes, med, worst = run_workload w in
      Texttable.add_row table
        [
          name;
          string_of_int queries;
          string_of_int nodes;
          Printf.sprintf "%.2f" med;
          Printf.sprintf "%.2f" worst;
        ])
    [ flat; hierarchy; synthetic ];
  print_string (Texttable.render table)

(* ---- figure regeneration check (F1–F11) -------------------------------- *)

let check_figures () =
  section "F1–F11 — figure regeneration summary (details: dune exec bin/figures.exe)";
  let h = Hierarchy.create "animal_b" in
  ignore (Hierarchy.add_class h "bird");
  ignore (Hierarchy.add_class h ~parents:[ "bird" ] "penguin");
  ignore (Hierarchy.add_class h ~parents:[ "penguin" ] "afp");
  ignore (Hierarchy.add_instance h ~parents:[ "bird" ] "tweety");
  ignore (Hierarchy.add_instance h ~parents:[ "penguin" ] "paul");
  ignore (Hierarchy.add_instance h ~parents:[ "afp" ] "pamela");
  let schema = Schema.make [ ("creature", h) ] in
  let flies =
    Relation.of_tuples ~name:"flies" schema
      [ (Types.Pos, [ "bird" ]); (Types.Neg, [ "penguin" ]); (Types.Pos, [ "afp" ]) ]
  in
  let checks =
    [
      ("F1 exception chain verdicts",
       Binding.holds flies (Item.of_names schema [ "tweety" ])
       && (not (Binding.holds flies (Item.of_names schema [ "paul" ])))
       && Binding.holds flies (Item.of_names schema [ "pamela" ]));
      ("F5/F6 consolidation fixpoint", Consolidate.is_consolidated (Consolidate.consolidate flies));
      ("F10 union extension", List.length (Flatten.extension_list (Ops.union flies flies)) = 2);
      ("ambiguity constraint", Integrity.is_consistent flies);
    ]
  in
  let table = Texttable.create [ "check"; "status" ] in
  List.iter
    (fun (name, ok) -> Texttable.add_row table [ name; (if ok then "ok" else "FAILED") ])
    checks;
  print_string (Texttable.render table)

(* ---- C17: sharding — partitioned writes and scatter-gather reads --------- *)

(* End-to-end throughput through a real sharded deployment: K forked
   backend shard servers, a shard map splitting four subtree classes
   round-robin across them, and the router forked on top. The same
   workload runs at K in {1, 2, --shards}: every arm inserts the same
   instances into the same relation, so only the partitioning varies.

   - writes: 8 pipelined clients, each a stream of single-statement,
     single-shard INSERTs (the router's fast path). Per-insert cost
     grows with the shard's stored relation, so partitioning K ways
     both parallelizes the work and shrinks every shard's relation —
     the paper's locality argument made measurable. Shards run with
     fsync off so the arm compares sharding, not disk sync (C14
     measures the real durability hot path).
   - reads: synchronous full-relation scatter-gather queries — the
     router pulls every shard, merges with subsumption-aware dedup, and
     evaluates locally.

   Must run before C16: the shard and router processes are forked, and
   spawning a domain forbids Unix.fork for the rest of the process. *)

let shards_k = ref 4

let bench_sharding () =
  let module Server = Hr_server.Server in
  let module Client = Hr_server.Server.Client in
  let module Router = Hr_shard.Router in
  let module Shard_map = Hr_check.Shard_map in
  let module Wire = Hr_frames.Wire in
  section
    (Printf.sprintf
       "C17 — sharding: partitioned write throughput and scatter-gather reads \
        (K in {1, 2, %d})"
       !shards_k);
  let clients = 8 in
  let subtrees = 4 in
  let stmts_per_client = max 25 (int_of_float (!quota_s *. 300.)) in
  let queries = max 20 (int_of_float (!quota_s *. 120.)) in
  let instance c j = Printf.sprintf "c17_x%d_%d" c j in
  let setup_script =
    String.concat " "
      ([ "CREATE DOMAIN c17_d;" ]
      @ List.init subtrees (fun s ->
            Printf.sprintf "CREATE CLASS c17_s%d UNDER c17_d;" s)
      @ List.concat
          (List.init clients (fun c ->
               List.init stmts_per_client (fun j ->
                   Printf.sprintf "CREATE INSTANCE %s OF c17_s%d;" (instance c j)
                     (c mod subtrees))))
      @ [ "CREATE RELATION c17_r (v: c17_d);" ])
  in
  let temp_dir tag =
    let dir = Filename.temp_file ("hrbench_c17_" ^ tag) "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let rm_dir dir =
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  in
  let kill pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let run_arm k =
    let dirs = List.init k (fun i -> temp_dir (string_of_int i)) in
    let pids = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter kill !pids;
        List.iter rm_dir dirs)
      (fun () ->
        let ports =
          List.map
            (fun dir ->
              let server = Server.create_durable ~port:0 ~dir ~fsync:false () in
              let port = Server.port server in
              (match Unix.fork () with
              | 0 ->
                (try Server.serve_forever server with _ -> ());
                Unix._exit 0
              | pid -> pids := pid :: !pids);
              port)
            dirs
        in
        let map_text =
          String.concat "\n"
            (List.mapi
               (fun i p -> Printf.sprintf "shard %d 127.0.0.1:%d" i p)
               ports
            @ List.init subtrees (fun s ->
                  Printf.sprintf "subtree c17_s%d %d" s (s mod k))
            @ [ "default 0" ])
        in
        let map =
          match Shard_map.parse map_text with
          | Ok m -> m
          | Error e -> failwith ("C17 map: " ^ e)
        in
        let router = Router.create ~port:0 ~timeout:10.0 ~map () in
        let rport = Router.port router in
        (match Unix.fork () with
        | 0 ->
          (try Router.serve_forever router with _ -> ());
          Unix._exit 0
        | pid -> pids := pid :: !pids);
        let setup = Client.connect ~timeout:30.0 ~port:rport () in
        (match Client.exec setup setup_script with
        | Ok _ -> ()
        | Error msg -> failwith ("C17 setup: " ^ msg));
        Client.close setup;
        (* pipelined partitioned writes, the C14 client state machine *)
        let conns =
          Array.init clients (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, rport));
              Unix.set_nonblock fd;
              (fd, Wire.Decoder.create (), ref 0 (* sent *), ref 0 (* acked *),
               ref 0 (* offset *), Buffer.create 256))
        in
        let frame_for c j =
          Wire.frame "EXEC"
            (Printf.sprintf "INSERT INTO c17_r VALUES (+ %s);" (instance c j))
        in
        let total = clients * stmts_per_client in
        let acked_total = ref 0 in
        let buf = Bytes.create 65536 in
        let t0 = Unix.gettimeofday () in
        while !acked_total < total do
          Array.iteri
            (fun c (fd, dec, sent, acked, off, pending) ->
              (try
                 while !sent < stmts_per_client do
                   if Buffer.length pending = 0 then
                     Buffer.add_string pending (frame_for c !sent);
                   let s = Buffer.contents pending in
                   let n = Unix.write_substring fd s !off (String.length s - !off) in
                   off := !off + n;
                   if !off = String.length s then begin
                     off := 0;
                     Buffer.clear pending;
                     incr sent
                   end
                 done
               with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> failwith "C17: router closed a client connection"
              | n ->
                Wire.Decoder.feed dec buf n;
                let rec drain () =
                  match Wire.Decoder.next dec with
                  | Ok (Some (tag, payload)) ->
                    if tag = "ERR" then failwith ("C17: ERR reply: " ^ payload);
                    incr acked;
                    incr acked_total;
                    drain ()
                  | Ok None -> ()
                  | Error msg -> failwith ("C17: bad reply frame: " ^ msg)
                in
                drain ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                -> ())
            conns;
        done;
        let write_elapsed = Unix.gettimeofday () -. t0 in
        Array.iter (fun (fd, _, _, _, _, _) -> Unix.close fd) conns;
        (* synchronous scatter-gather reads over the merged relation *)
        let q = Client.connect ~timeout:30.0 ~port:rport () in
        let t1 = Unix.gettimeofday () in
        for _ = 1 to queries do
          match Client.exec q "SELECT * FROM c17_r;" with
          | Ok _ -> ()
          | Error msg -> failwith ("C17 query: " ^ msg)
        done;
        let read_elapsed = Unix.gettimeofday () -. t1 in
        Client.close q;
        let write_ns = write_elapsed /. float total *. 1e9 in
        let read_ns = read_elapsed /. float queries *. 1e9 in
        Format.printf
          "K=%d: %d inserts in %.3fs = %.0f stmts/s (%.0f ns/stmt); %d \
           scatter-gather queries at %.0f ns/op@."
          k total write_elapsed
          (float total /. write_elapsed)
          write_ns queries read_ns;
        collected :=
          (Printf.sprintf "C17 sharded writes K=%d ns/stmt" k, write_ns)
          :: (Printf.sprintf "C17 scatter-gather query K=%d ns/op" k, read_ns)
          :: !collected;
        (write_ns, read_ns))
  in
  let arms =
    List.sort_uniq compare (List.filter (fun k -> k > 0) [ 1; 2; !shards_k ])
  in
  let results = List.map (fun k -> (k, run_arm k)) arms in
  match (List.assoc_opt 1 results, List.assoc_opt !shards_k results) with
  | Some (w1, _), Some (wk, _) when !shards_k > 1 ->
    Format.printf "write speedup at K=%d: %.2fx (%d cores)@." !shards_k
      (w1 /. wk)
      (Domain.recommended_domain_count ())
  | _ -> ()

(* ---- C16: reader domains — snapshot-isolated read throughput ------------ *)

(* Read QPS through the pool server (lib/exec) at K=1 vs K=N reader
   domains: the C14 pipelined-client state machine, but the traffic is
   read-only, so every frame is offloaded to the domain pool and
   evaluated against the pinned catalog version while the event loop
   only shuttles bytes. On a multi-core host the K=N arm must scale;
   the CI assertion (>= 2.5x at K=4) is gated on the [cores] field the
   JSON report records, because a 1-core container can only interleave.

   Must stay last in the experiment list: spawning a domain forbids
   Unix.fork for the rest of the process. *)

let reader_domains_k = ref 4

let bench_reader_domains () =
  let module Server = Hr_server.Server in
  let module Wire = Hr_frames.Wire in
  section
    (Printf.sprintf
       "C16 — reader domains: snapshot-isolated read throughput (K=1 vs K=%d)"
       !reader_domains_k);
  let reads_per_client = max 150 (int_of_float (!quota_s *. 1200.)) in
  let clients = 6 in
  (* The reads must be evaluation-heavy (subsumption reasoning) with
     small replies: evaluation runs on the domains and scales with K,
     while reply bytes are shuttled by the single event-loop thread and
     do not. *)
  let setup_script =
    String.concat " "
      ([ "CREATE DOMAIN c16_d;";
         "CREATE CLASS c16_c0 UNDER c16_d; CREATE CLASS c16_c1 UNDER c16_d;";
         "CREATE CLASS c16_c2 UNDER c16_c0;" ]
      @ List.init 32 (fun i ->
            Printf.sprintf "CREATE INSTANCE c16_i%d OF c16_c%d;" i (i mod 3))
      @ [ "CREATE RELATION c16_r (v: c16_d);";
          "INSERT INTO c16_r VALUES (+ ALL c16_c0);";
          "INSERT INTO c16_r VALUES (- c16_i4);";
          "INSERT INTO c16_r VALUES (+ c16_i7);" ])
  in
  let read_script =
    String.concat " "
      (List.init 8 (fun i -> Printf.sprintf "ASK c16_r (c16_i%d);" (i * 4))
      @ [ "SELECT * FROM c16_r WHERE v = c16_i2;";
          "SELECT * FROM c16_r WHERE v = c16_i9;" ])
  in
  let frame = Wire.frame "EXEC" read_script in
  let run_arm ~domains =
    let server = Server.create_memory ~port:0 ~reader_domains:domains () in
    Fun.protect
      ~finally:(fun () -> Server.close server)
      (fun () ->
        let port = Server.port server in
        let setup = Server.Client.connect ~timeout:10.0 ~port () in
        let setup_fd = Server.Client.fd setup in
        Wire.send setup_fd "EXEC" setup_script;
        let rec await_setup () =
          ignore (Server.poll server 0.01);
          match Unix.select [ setup_fd ] [] [] 0.0 with
          | [ _ ], _, _ -> (
            match Server.Client.recv setup with
            | Ok _ -> ()
            | Error msg -> failwith ("C16 setup: " ^ msg))
          | _ -> await_setup ()
        in
        await_setup ();
        Server.Client.close setup;
        ignore (Server.poll server 0.01);
        let conns =
          Array.init clients (fun _ ->
              let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              Unix.set_nonblock fd;
              (fd, Wire.Decoder.create (), ref 0 (* sent *), ref 0 (* off *)))
        in
        let total = clients * reads_per_client in
        let acked_total = ref 0 in
        let buf = Bytes.create 65536 in
        let t0 = Unix.gettimeofday () in
        while !acked_total < total do
          ignore (Server.poll server 0.002);
          Array.iter
            (fun (fd, dec, sent, off) ->
              (try
                 while !sent < reads_per_client do
                   let n =
                     Unix.write_substring fd frame !off (String.length frame - !off)
                   in
                   off := !off + n;
                   if !off = String.length frame then begin
                     off := 0;
                     incr sent
                   end
                 done
               with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> failwith "C16: server closed a client connection"
              | n ->
                Wire.Decoder.feed dec buf n;
                let rec drain () =
                  match Wire.Decoder.next dec with
                  | Ok (Some (tag, payload)) ->
                    if tag = "ERR" then failwith ("C16: ERR reply: " ^ payload);
                    incr acked_total;
                    drain ()
                  | Ok None -> ()
                  | Error msg -> failwith ("C16: bad reply frame: " ^ msg)
                in
                drain ()
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ())
            conns
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        Array.iter (fun (fd, _, _, _) -> Unix.close fd) conns;
        (total, elapsed))
  in
  let report name (total, elapsed) =
    let qps = float total /. elapsed in
    let ns = elapsed /. float total *. 1e9 in
    collected := (name ^ " ns/op", ns) :: !collected;
    Format.printf "%s: %d read scripts in %.3fs = %.0f reads/s (%.0f ns/read)@." name
      total elapsed qps ns;
    ns
  in
  let ns_1 = report "C16 snapshot reads K=1" (run_arm ~domains:1) in
  let ns_k =
    report
      (Printf.sprintf "C16 snapshot reads K=%d" !reader_domains_k)
      (run_arm ~domains:!reader_domains_k)
  in
  let cores = Domain.recommended_domain_count () in
  Format.printf
    "read scaling K=1 -> K=%d: %.2fx on %d core(s)%s@." !reader_domains_k (ns_1 /. ns_k)
    cores
    (if cores < !reader_domains_k then
       " (fewer cores than domains: interleaving only, no speedup expected)"
     else "")

(* ---- C18: replica catch-up — parallel WAL apply -------------------------- *)

let apply_domains_k = ref 4

(* Drives Hr_repl.Apply.apply_batch directly on a durable Db — no
   sockets, no forks — with a record stream that round-robins inserts
   across [nrels] relations: every burst partitions into [nrels]
   provably-commuting groups (docs/EFFECTS.md), the best case the
   effect oracle certifies. The K=1 arm is exactly the sequential apply
   loop, so the ratio isolates what the worker domains buy. *)
let bench_replica_apply () =
  section
    (Printf.sprintf "C18 — replica catch-up: parallel WAL apply (K=1 vs K=%d)"
       !apply_domains_k);
  let nrels = 4 in
  let total = 2048 and burst = 64 in
  let per_rel = total / nrels in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "CREATE DOMAIN c18;\n";
  for i = 0 to per_rel - 1 do
    Buffer.add_string buf (Printf.sprintf "CREATE INSTANCE c18i%d OF c18;\n" i)
  done;
  for r = 0 to nrels - 1 do
    Buffer.add_string buf (Printf.sprintf "CREATE RELATION c18r%d (v: c18);\n" r)
  done;
  let ddl = Buffer.contents buf in
  let stmts =
    Array.init total (fun i ->
        Printf.sprintf "INSERT INTO c18r%d VALUES (+ c18i%d);" (i mod nrels)
          (i / nrels))
  in
  let temp_dir () =
    let dir = Filename.temp_file "hrbench_c18" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let rm_rf dir =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  let run_arm ~domains =
    let dir = temp_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let db = Hr_storage.Db.open_dir dir in
        Fun.protect
          ~finally:(fun () -> Hr_storage.Db.close db)
          (fun () ->
            (match Hr_storage.Db.exec db ddl with
            | Ok _ -> ()
            | Error m -> failwith ("C18 setup: " ^ m));
            let base = Hr_storage.Db.lsn db in
            let t0 = Unix.gettimeofday () in
            let i = ref 0 in
            while !i < total do
              let n = min burst (total - !i) in
              let records =
                List.init n (fun j ->
                    {
                      Hr_repl.Apply.lsn = base + !i + j + 1;
                      stmt = stmts.(!i + j);
                    })
              in
              (match Hr_repl.Apply.apply_batch ~domains db records with
              | Ok () -> ()
              | Error m -> failwith ("C18 apply: " ^ m));
              i := !i + n
            done;
            Hr_storage.Db.sync db;
            let dt = Unix.gettimeofday () -. t0 in
            dt *. 1e9 /. float_of_int total))
  in
  let report name ns =
    Format.printf "%-34s %12.0f ns/record  (%.0f records/s)@." name ns
      (1e9 /. ns);
    collected := (name ^ " ns/record", ns) :: !collected;
    ns
  in
  let ns_1 = report "C18 replica apply K=1" (run_arm ~domains:1) in
  let ns_k =
    report
      (Printf.sprintf "C18 replica apply K=%d" !apply_domains_k)
      (run_arm ~domains:!apply_domains_k)
  in
  let cores = Domain.recommended_domain_count () in
  Format.printf "apply scaling K=1 -> K=%d: %.2fx on %d core(s)%s@."
    !apply_domains_k (ns_1 /. ns_k) cores
    (if cores < !apply_domains_k then
       " (fewer cores than domains: interleaving only, no speedup expected)"
     else "")

(* ---- C19: incremental checkpoint — page writes track the delta ---------- *)

(* The tentpole claim of the paged store: [Db.checkpoint] flushes only
   dirty pages plus the meta/root pages, so a small delta after a big load
   costs a small, size-independent number of page writes — where the old
   snapshot codec rewrote the whole database every time. Two scales 10x
   apart; the large scale must show the incremental checkpoint at least
   5x cheaper in page writes than its own full (first) checkpoint. *)
let bench_incremental_checkpoint () =
  section "C19 — incremental checkpoint: page writes track the delta, not the database";
  let temp_dir () =
    let dir = Filename.temp_file "hrbench_c19" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    dir
  in
  let rm_rf dir =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  in
  let load_script n =
    let buf = Buffer.create (n * 64) in
    Buffer.add_string buf "CREATE DOMAIN c19;\nCREATE CLASS c19c UNDER c19;\n";
    for i = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf "CREATE INSTANCE c19i%05d OF c19c;\n" i)
    done;
    Buffer.add_string buf "CREATE RELATION c19r (v: c19);\n";
    for i = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf "INSERT INTO c19r VALUES (+ c19i%05d);\n" i)
    done;
    Buffer.contents buf
  in
  (* ~20-statement delta: flip the sign of ten existing items, a real net
     change the checkpoint diff must persist *)
  let delta_script =
    String.concat "\n"
      (List.init 10 (fun i ->
           Printf.sprintf
             "DELETE FROM c19r VALUES (c19i%05d);\nINSERT INTO c19r VALUES (- c19i%05d);"
             (i * 7) (i * 7)))
  in
  let run_scale n =
    let dir = temp_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let db = Hr_storage.Db.open_dir ~fsync:false dir in
        Fun.protect
          ~finally:(fun () -> Hr_storage.Db.close db)
          (fun () ->
            (match Hr_storage.Db.exec db (load_script n) with
            | Ok _ -> ()
            | Error m -> failwith ("C19 load: " ^ m));
            let t0 = Unix.gettimeofday () in
            Hr_storage.Db.checkpoint db;
            let full_s = Unix.gettimeofday () -. t0 in
            let full_written, total = Hr_storage.Db.last_checkpoint_pages db in
            (match Hr_storage.Db.exec db delta_script with
            | Ok _ -> ()
            | Error m -> failwith ("C19 delta: " ^ m));
            let t1 = Unix.gettimeofday () in
            Hr_storage.Db.checkpoint db;
            let incr_s = Unix.gettimeofday () -. t1 in
            let incr_written, _ = Hr_storage.Db.last_checkpoint_pages db in
            Format.printf
              "N=%-5d full ckpt: %4d/%4d pages in %6.2f ms   delta ckpt (20 stmts): %4d \
               pages in %6.2f ms@."
              n full_written total (full_s *. 1e3) incr_written (incr_s *. 1e3);
            collected :=
              (Printf.sprintf "C19 full checkpoint N=%d page writes" n,
               float_of_int full_written)
              :: (Printf.sprintf "C19 delta checkpoint N=%d page writes" n,
                  float_of_int incr_written)
              :: (Printf.sprintf "C19 full checkpoint N=%d ns" n, full_s *. 1e9)
              :: (Printf.sprintf "C19 delta checkpoint N=%d ns" n, incr_s *. 1e9)
              :: !collected;
            (full_written, incr_written, incr_s)))
  in
  let _ = run_scale 300 in
  let full, incr, incr_s = run_scale 3000 in
  if incr * 5 > full then
    failwith
      (Printf.sprintf
         "C19: incremental checkpoint wrote %d pages, full wrote %d — expected >= 5x \
          fewer"
         incr full);
  Format.printf
    "delta checkpoint wrote %.1fx fewer pages than the full rewrite at N=3000 (%.2f \
     ms); checkpoint cost is proportional to the delta.@."
    (float_of_int full /. float_of_int incr)
    (incr_s *. 1e3)

let experiments =
  [
    ("C1", bench_storage);
    ("C2", bench_membership);
    ("C3", bench_consolidate);
    ("C4", bench_explicate);
    ("C5", bench_setops);
    ("C6", bench_integrity);
    ("C7", bench_preemption);
    ("C8", bench_mine);
    ("C9", bench_index);
    ("C10", bench_storage_engine);
    ("C11", bench_hrql);
    ("C12", bench_page_io);
    ("C13", bench_semantic_net);
    ("C14", bench_group_commit);
    ("C15", bench_estimator);
    ("C19", bench_incremental_checkpoint);
    ("F", check_figures);
    (* C17 forks shard and router subprocesses, so it must precede any
       experiment that spawns a domain *)
    ("C17", bench_sharding);
    (* last: C16 and C18 spawn OCaml 5 domains, which forbids Unix.fork
       for the rest of the process *)
    ("C16", bench_reader_domains);
    ("C18", bench_replica_apply);
  ]

(* The JSON report: bechamel estimates plus a snapshot of the metrics
   registry, so a CI run records both latency and work counters. The
   schema is documented in docs/OBSERVABILITY.md. *)
let write_metrics_json path experiment_ids =
  let open Hr_obs.Jsonout in
  let benchmarks =
    List.rev !collected
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ns) -> (name, Float ns))
  in
  let report =
    Obj
      [
        ("schema_version", Int 1);
        ("suite", String "hierel-bench");
        ("quota_seconds", Float !quota_s);
        (* cores on the measuring host: scaling assertions (C16's 2.5x
           at K=4) only hold where the domains can actually run in
           parallel *)
        ("cores", Int (Domain.recommended_domain_count ()));
        ("experiments", List (List.map (fun id -> String id) experiment_ids));
        ("benchmarks_ns_per_op", Obj benchmarks);
        ("estimator", Obj (List.rev !c15_json));
        ("metrics", Hr_obs.Metrics.json_of_snapshot (Hr_obs.Metrics.snapshot ()));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string report);
      output_char oc '\n');
  Format.printf "metrics report written to %s@." path

(* argv: experiment ids freely mixed with [--metrics-json FILE] and
   [--quota SECONDS]. *)
let rec parse_args = function
  | [] -> []
  | "--metrics-json" :: path :: rest ->
    metrics_json_path := Some path;
    parse_args rest
  | "--clients" :: s :: rest ->
    (match int_of_string_opt s with
    | Some k when k > 0 -> clients_k := k
    | _ ->
      prerr_endline ("bench: invalid --clients " ^ s);
      exit 2);
    parse_args rest
  | "--reader-domains" :: s :: rest ->
    (match int_of_string_opt s with
    | Some k when k > 0 -> reader_domains_k := k
    | _ ->
      prerr_endline ("bench: invalid --reader-domains " ^ s);
      exit 2);
    parse_args rest
  | "--shards" :: s :: rest ->
    (match int_of_string_opt s with
    | Some k when k > 0 -> shards_k := k
    | _ ->
      prerr_endline ("bench: invalid --shards " ^ s);
      exit 2);
    parse_args rest
  | "--apply-domains" :: s :: rest ->
    (match int_of_string_opt s with
    | Some k when k > 0 -> apply_domains_k := k
    | _ ->
      prerr_endline ("bench: invalid --apply-domains " ^ s);
      exit 2);
    parse_args rest
  | "--quota" :: s :: rest ->
    (match float_of_string_opt s with
    | Some q when q > 0. -> quota_s := q
    | _ ->
      prerr_endline ("bench: invalid --quota " ^ s);
      exit 2);
    parse_args rest
  | ("--metrics-json" | "--quota" | "--clients" | "--reader-domains" | "--shards"
    | "--apply-domains") :: [] ->
    prerr_endline "bench: missing argument to flag";
    exit 2
  | id :: rest -> id :: parse_args rest

let () =
  Format.printf
    "hierel benchmark harness — experiments C1..C18 (see DESIGN.md / EXPERIMENTS.md)@.";
  let requested = parse_args (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match requested with
    | [] -> experiments
    | _ ->
      List.filter
        (fun (id, _) -> List.exists (String.equal id) requested)
        experiments
  in
  if selected = [] then
    Format.printf "no such experiment; available: %s@."
      (String.concat " " (List.map fst experiments))
  else List.iter (fun (_, run) -> run ()) selected;
  Option.iter (fun path -> write_metrics_json path (List.map fst selected)) !metrics_json_path;
  Format.printf "@.done.@."

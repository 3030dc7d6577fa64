(* Network layer tests: a forked server process, a real TCP round trip. *)

module Server = Hr_server.Server

(* Fork a process that serves [connections] clients then exits. Returns
   (port, pid). *)
let spawn_server ?dir connections =
  let server =
    match dir with
    | Some dir -> Server.create_durable ~port:0 ~dir ()
    | None -> Server.create_memory ~port:0 ()
  in
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (* child: serve then exit hard (no test-runner teardown) *)
    for _ = 1 to connections do
      (try Server.serve_one_connection server with _ -> ())
    done;
    Server.close server;
    Unix._exit 0
  | pid ->
    (* parent: the child owns the listening socket's accept loop; the
       parent's copy of the fd is closed to avoid interference *)
    (port, pid)

let wait_child pid = ignore (Unix.waitpid [] pid)

let test_round_trip () =
  let port, pid = spawn_server 1 in
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "CREATE DOMAIN d;" with
  | Ok out -> Alcotest.(check string) "created" "domain d created" out
  | Error e -> Alcotest.failf "exec: %s" e);
  (match Server.Client.exec conn "CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "multi: %s" e);
  (match Server.Client.exec conn "ASK r (x);" with
  | Ok out -> Alcotest.(check string) "verdict over the wire" "+ (by (x))" out
  | Error e -> Alcotest.failf "ask: %s" e);
  Server.Client.close conn;
  wait_child pid

let test_errors_propagate () =
  let port, pid = spawn_server 1 in
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "SELECT * FROM nope;" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg -> Alcotest.(check bool) "message" true (String.length msg > 0));
  (* the connection survives an error *)
  (match Server.Client.exec conn "CREATE DOMAIN d;" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "after error: %s" e);
  Server.Client.close conn;
  wait_child pid

let test_durable_backend () =
  let dir = Filename.temp_file "hrsrv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let port, pid = spawn_server ~dir 1 in
      let conn = Server.Client.connect ~timeout:10.0 ~port () in
      (match
         Server.Client.exec conn
           "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "exec: %s" e);
      Server.Client.close conn;
      wait_child pid;
      (* state survived in the directory: reopen directly *)
      let db = Hr_storage.Db.open_dir dir in
      (match Hr_storage.Db.exec db "ASK r (x);" with
      | Ok [ out ] -> Alcotest.(check string) "durable over the wire" "+ (by (x))" out
      | Ok _ | Error _ -> Alcotest.fail "reopen failed");
      Hr_storage.Db.close db)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_lint_over_the_wire () =
  let port, pid = spawn_server 1 in
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.exec conn "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup: %s" e);
  (* the analyzer sees the live catalog... *)
  (match Server.Client.lint conn "DELETE FROM r VALUES (x);" with
  | Ok payload -> Alcotest.(check string) "clean script" "[]\n" payload
  | Error e -> Alcotest.failf "lint: %s" e);
  (match Server.Client.lint conn "SELECT * FROM nosuch;" with
  | Ok payload ->
    Alcotest.(check bool) "diagnostic in payload" true
      (contains ~needle:"E001" payload)
  | Error e -> Alcotest.failf "lint: %s" e);
  (* ...but linting DROP RELATION must not have dropped anything *)
  (match Server.Client.lint conn "DROP RELATION r;" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "lint drop: %s" e);
  (match Server.Client.exec conn "ASK r (x);" with
  | Ok out -> Alcotest.(check string) "relation still there" "+ (by (x))" out
  | Error e -> Alcotest.failf "ask after lint: %s" e);
  Server.Client.close conn;
  wait_child pid

let test_fsck_over_the_wire () =
  (* in-memory backends refuse the frame *)
  let port, pid = spawn_server 1 in
  let conn = Server.Client.connect ~timeout:10.0 ~port () in
  (match Server.Client.fsck conn with
  | Ok _ -> Alcotest.fail "memory backend should refuse FSCK"
  | Error msg ->
    Alcotest.(check bool) "says durable" true (contains ~needle:"durable" msg));
  Server.Client.close conn;
  wait_child pid;
  (* a durable backend verifies its own directory *)
  let dir = Filename.temp_file "hrsrv" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let port, pid = spawn_server ~dir 1 in
      let conn = Server.Client.connect ~timeout:10.0 ~port () in
      (match Server.Client.exec conn "CREATE DOMAIN d; CREATE INSTANCE x OF d;" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "setup: %s" e);
      (match Server.Client.fsck conn with
      | Ok body -> Alcotest.(check bool) "clean" true (contains ~needle:"clean" body)
      | Error e -> Alcotest.failf "fsck: %s" e);
      (match Server.Client.fsck ~json:true conn with
      | Ok body ->
        Alcotest.(check bool) "json clean" true
          (contains ~needle:"\"clean\":true" body)
      | Error e -> Alcotest.failf "fsck json: %s" e);
      Server.Client.close conn;
      wait_child pid)

(* Pipelined replies must not wait for the peer's delayed ACK: with
   Nagle's algorithm on, the server's second reply of a burst sits in
   the kernel until the client acknowledges the first (up to ~40 ms on
   Linux). Bursts of five requests go out in one write; every reply's
   latency is timed from its burst's send. *)
let test_pipelined_replies_not_delayed () =
  let server = Server.create_memory ~port:0 () in
  let port = Server.port server in
  match Unix.fork () with
  | 0 ->
    (try Server.serve_forever server with _ -> ());
    Unix._exit 0
  | pid ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        wait_child pid)
      (fun () ->
        let conn = Server.Client.connect ~timeout:10.0 ~port () in
        (match
           Server.Client.exec conn
             "CREATE DOMAIN d; CREATE INSTANCE x OF d; CREATE RELATION r (v: d); INSERT INTO r VALUES (+ x);"
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "setup: %s" e);
        let burst = 5 and rounds = 12 in
        let frames =
          String.concat "" (List.init burst (fun _ -> Hr_frames.Wire.frame "EXEC" "ASK r (x);"))
        in
        let latencies = ref [] in
        for _ = 1 to rounds do
          let t0 = Unix.gettimeofday () in
          let n = Unix.write_substring (Server.Client.fd conn) frames 0 (String.length frames) in
          Alcotest.(check int) "burst sent in one write" (String.length frames) n;
          for _ = 1 to burst do
            (match Server.Client.recv conn with
            | Ok out -> Alcotest.(check string) "pipelined verdict" "+ (by (x))" out
            | Error e -> Alcotest.failf "pipelined ask: %s" e);
            latencies := (Unix.gettimeofday () -. t0) :: !latencies
          done;
          Unix.sleepf 0.005
        done;
        Server.Client.close conn;
        let sorted = Array.of_list (List.sort compare !latencies) in
        let p90 = sorted.((Array.length sorted * 9 / 10) - 1) *. 1000.0 in
        Alcotest.(check bool)
          (Printf.sprintf "p90 of %d pipelined replies is %.2f ms" (Array.length sorted) p90)
          true (p90 < 15.0))

let suite =
  [
    Alcotest.test_case "tcp round trip" `Quick test_round_trip;
    Alcotest.test_case "errors propagate, connection survives" `Quick test_errors_propagate;
    Alcotest.test_case "durable backend over tcp" `Quick test_durable_backend;
    Alcotest.test_case "lint over the wire" `Quick test_lint_over_the_wire;
    Alcotest.test_case "fsck over the wire" `Quick test_fsck_over_the_wire;
    Alcotest.test_case "pipelined replies are not delayed" `Quick
      test_pipelined_replies_not_delayed;
  ]

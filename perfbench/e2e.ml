(* The end-to-end run (tracing off): set-up, the workload's timed window
   against an [hrdb_server] child and, after writes (churn), kill -9,
   restart and a check of every acknowledged write. *)

module Db = Hr_storage.Db
open Hierel

let now = Client.now
let timeout = 30.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 65536 in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f)) (Sys.readdir src)

let dir_bytes dir =
  Array.fold_left (fun n f -> n + (Unix.stat (Filename.concat dir f)).Unix.st_size) 0 (Sys.readdir dir)

let stored_tuples (st : Work.state) = Work.SM.fold (fun _ r n -> n + Relation.cardinality r) st.Work.rels 0

(* Loads the set-up script into an empty directory through the storage
   layer and leaves it checkpointed. *)
let load (wl : Work.t) dir =
  rm_rf dir;
  let db = Db.open_dir dir in
  (match Db.exec db wl.Work.script with
  | Ok _ -> ()
  | Error e -> failwith ("set-up script failed: " ^ e));
  Db.checkpoint db;
  Db.close db

(* Asks the readiness request until the reply is correct. *)
let await_ready conn (wl : Work.t) st =
  let stmt = Work.statement st (Work.Read wl.Work.ready) in
  let deadline = now () +. timeout in
  let rec go () =
    match Client.request conn stmt ~timeout with
    | Ok reply when Oracle.check st wl.Work.ready reply -> ()
    | _ when now () < deadline -> go ()
    | _ -> failwith "server never gave a correct reply"
  in
  go ()

type ctx = { exe : string; work : string; seconds : float }

let server_dir ctx k = Filename.concat ctx.work (Printf.sprintf "db%d" k)

(* From an empty directory to a server that answers correctly. *)
let setup ctx (wl : Work.t) k =
  let dir = server_dir ctx k in
  let t0 = now () in
  load wl dir;
  let srv = Client.start ~exe:ctx.exe ~dir ~log:(Filename.concat ctx.work "server.log") in
  let conn = Client.connect srv.Client.port in
  await_ready conn wl wl.Work.init;
  (srv, conn, dir, now () -. t0)

let setups = 3

(* Untimed operations before each window: the first requests on a fresh
   server fill the hierarchies' memo tables and the binding indexes. *)
let warmup = 1.0

(* Sets up [setups] times and keeps the last server; reports the median. *)
let setup_many ctx wl =
  let rec go k acc =
    let srv, conn, dir, s = setup ctx wl k in
    if k = setups then begin
      let times = s :: acc in
      Report.metric "setup_s" "s" (Report.median times);
      Report.note "setup: %s s (median of %d)"
        (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") times))
        setups;
      (srv, conn, dir)
    end
    else begin
      Client.close conn;
      Client.kill srv;
      rm_rf dir;
      go (k + 1) (s :: acc)
    end
  in
  go 1 []

(* Replies to check after the timed window: each distinct (statement,
   reply, oracle state) once. *)
module Deferred = struct
  type t = (string * string * int, Work.read * int ref) Hashtbl.t

  let create () : t = Hashtbl.create 4096

  let add (t : t) read stmt reply version =
    let key = (stmt, reply, version) in
    match Hashtbl.find_opt t key with
    | Some (_, n) -> incr n
    | None -> Hashtbl.add t key (read, ref 1)

  (* Failed replies, each judged against [states.(version)]. *)
  let failures (t : t) (states : Work.state array) =
    Hashtbl.fold
      (fun (_, reply, v) (read, n) acc -> if Oracle.check states.(v) read reply then acc else acc + !n)
      t 0
end

type tally = { mutable attempted : int; mutable failed : int }

(* kill -9, restart on the same directory, first correct reply. *)
let crash_restart ctx wl srv dir st =
  let t0 = now () in
  Client.kill srv;
  let srv = Client.start ~exe:ctx.exe ~dir ~log:(Filename.concat ctx.work "server.log") in
  let conn = Client.connect srv.Client.port in
  await_ready conn wl st;
  Report.note "recovery_s = %.4f s" (now () -. t0);
  (srv, conn)

(* After the restart, every item a write touched must read back as the
   oracle's final state says. *)
let verify_writes conn (st : Work.state) tally touched =
  Hashtbl.iter
    (fun (r, item) () ->
      let read = Work.Ask (r, item) in
      tally.attempted <- tally.attempted + 1;
      match Client.request conn (Work.statement st (Work.Read read)) ~timeout with
      | Ok reply when Oracle.check st read reply -> ()
      | _ -> tally.failed <- tally.failed + 1)
    touched

let touch touched = function
  | Work.Insert (r, _, item) | Work.Delete (r, item) -> Hashtbl.replace touched (r, item) ()

(* Closed-loop writes on one connection until [until]. Each ack is
   checked as it arrives, and an ASK of the written item follows at once
   (untimed), checking that the write is visible. Returns the final
   oracle state and each write's latency. *)
let write_loop conn (wl : Work.t) st tally touched ~until =
  let lat = ref [] in
  let st = ref st in
  let check ok = tally.attempted <- tally.attempted + 1; if not ok then tally.failed <- tally.failed + 1 in
  while now () < until do
    let w = wl.Work.writes () in
    let stmt = Work.statement !st (Work.Write w) in
    let t0 = now () in
    let reply = Client.request conn stmt ~timeout in
    lat := (now () -. t0) :: !lat;
    touch touched w;
    (match reply with
    | Ok ack when ack = Oracle.write_ack w ->
      check true;
      st := Work.apply !st w
    | _ -> check false);
    let read = match w with Work.Insert (r, _, item) | Work.Delete (r, item) -> Work.Ask (r, item) in
    match Client.request conn (Work.statement !st (Work.Read read)) ~timeout with
    | Ok reply -> check (Oracle.check !st read reply)
    | Error _ -> check false
  done;
  (!st, !lat)

(* Closed-loop reads on one connection until [until]. Returns the
   replies to check, each read's latency and the count of ERR replies. *)
let read_loop conn (wl : Work.t) st ~until =
  let deferred = Deferred.create () in
  let lat = ref [] and errors = ref 0 in
  while now () < until do
    let read = wl.Work.reads () in
    let stmt = Work.statement st (Work.Read read) in
    let t0 = now () in
    let reply = Client.request conn stmt ~timeout in
    lat := (now () -. t0) :: !lat;
    match reply with
    | Ok reply -> Deferred.add deferred read stmt reply 0
    | Error _ -> incr errors
  done;
  (deferred, !lat, !errors)

let finish_reads tally deferred states n errors =
  tally.attempted <- tally.attempted + n;
  tally.failed <- tally.failed + errors + Deferred.failures deferred states

(* The metrics of a timed window that took [elapsed] seconds: the
   operations' latency and the rate they completed at. *)
let window_metrics ~elapsed lat =
  Report.latency lat;
  Report.metric "ops_per_s" "1/s" (float_of_int (List.length lat) /. elapsed)

(* churn: closed-loop single-row writes on one connection; the
   operation timed is the write, from sending it to its durable OK. *)
let churn ctx (wl : Work.t) tally =
  let srv, conn, dir = setup_many ctx wl in
  Report.metric "disk_bytes_per_tuple" "B" (float_of_int (dir_bytes dir) /. float_of_int (stored_tuples wl.Work.init));
  let touched = Hashtbl.create 1024 in
  let st, _ = write_loop conn wl wl.Work.init tally touched ~until:(now () +. warmup) in
  let t0 = now () in
  let st, lat = write_loop conn wl st tally touched ~until:(t0 +. ctx.seconds) in
  window_metrics ~elapsed:(now () -. t0) lat;
  Report.metric "peak_rss_mb" "MiB" (Client.peak_rss_mb srv);
  Client.close conn;
  let srv, conn = crash_restart ctx wl srv dir st in
  verify_writes conn st tally touched;
  Client.close conn;
  Client.kill srv

(* lookup: closed-loop reads on one connection; the operation timed is
   the read, from sending it to its reply. Replies are checked after the
   window. Nothing is written, so no restart follows. *)
let lookup ctx (wl : Work.t) tally =
  let srv, conn, dir = setup_many ctx wl in
  let read_window until =
    let deferred, lat, errors = read_loop conn wl wl.Work.init ~until in
    let ended = now () in
    finish_reads tally deferred [| wl.Work.init |] (List.length lat) errors;
    (deferred, lat, ended)
  in
  ignore (read_window (now () +. warmup));
  let t0 = now () in
  let deferred, lat, t1 = read_window (t0 +. ctx.seconds) in
  Report.note "lookup: %d distinct (statement, reply) pairs checked" (Hashtbl.length deferred);
  window_metrics ~elapsed:(t1 -. t0) lat;
  Report.metric "peak_rss_mb" "MiB" (Client.peak_rss_mb srv);
  Report.metric "disk_bytes_per_tuple" "B" (float_of_int (dir_bytes dir) /. float_of_int (stored_tuples wl.Work.init));
  Client.close conn;
  Client.kill srv

let run ctx (wl : Work.t) =
  let tally = { attempted = 0; failed = 0 } in
  (if wl.Work.name = "churn" then churn else lookup) ctx wl tally;
  tally

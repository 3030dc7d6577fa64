(* The traced run: per-layer metrics.

   The workload's seeded operations go out in chunks. Each chunk is first
   sent through an [hrdb_server] child on one connection (closed loop,
   tracing off), which gives the client round trip. Then four arm
   processes replay the same operations in-process. Each arm is a fresh
   [hrbench --arm] child that holds only its own copy of the set-up
   database, as the server holds only its own, and freezes its catalog
   as the server does:

   a. tracing on, metrics on — [Hr_obs.Trace] spans around each layer's
      public functions give the layer times, and [Hr_obs.Metrics]
      counters read around the statement give the layer counts;
   b. tracing off, metrics on — (a) over (b) is the tracing overhead;
   c. tracing off, metrics off — (b) over (c) is the metrics overhead;
   p. the probe. Functions that run inside [Db.exec] (the parser, the
      optimizer, [Binding.verdict], [Integrity.check], [Wal.append])
      cannot be wrapped from outside, so after each statement the probe
      times a second call on the same input. These times are subtracted
      from (a)'s statement time to leave the evaluator's self time. The
      probe's own statement times are not used, so the garbage its extra
      calls leave behind is not collected on (a)'s clock.

   The server and the arms take turns chunk by chunk, (a)-(c) in
   rotating order, so drift in the host's speed falls on all alike. *)

module Db = Hr_storage.Db
module Wire = Hr_frames.Wire
module Trace = Hr_obs.Trace
module M = Hr_obs.Metrics
module Ast = Hr_query.Ast
module H = Hr_hierarchy.Hierarchy
open Hierel

let now_ns = M.now_ns
let us ns = float_of_int ns /. 1000.0

(* lookup's end-to-end stream is read-only; its traced stream carries
   one write to the small relation [p] per this many operations, so the
   write-path layers (integrity, WAL) have samples there too *)
let probe_every = 500

(* seconds of server round trips per chunk *)
let chunk_s = 0.2

let is_write = function Work.Write _ -> true | Work.Read _ -> false

(* The operations in the order an end-to-end run sends them: on churn,
   each write and then the ASK that verifies it. *)
let stream (wl : Work.t) =
  let k = ref 0 in
  let verify = ref None in
  fun () ->
    incr k;
    match (wl.Work.name, !verify) with
    | "churn", Some read ->
      verify := None;
      Work.Read read
    | "churn", None ->
      let w = wl.Work.writes () in
      (match w with Work.Insert (r, _, item) | Work.Delete (r, item) -> verify := Some (Work.Ask (r, item)));
      Work.Write w
    | _ -> if !k mod probe_every = 0 then Work.Write (wl.Work.writes ()) else Work.Read (wl.Work.reads ())

(* --- one arm, in its own process ---------------------------------------- *)

(* What the probe re-runs after a statement. *)
type probe =
  | Integrity_of of string  (** the written relation *)
  | Bind of string * string list  (** relation, item's labels *)
  | Plan  (** a query: time the optimizer *)

type job = { stmt : string; write : bool; probe : probe }

(* Counters read around the statement itself, never around the probe's
   measuring calls. *)
let counted =
  [
    "hierarchy.subsumption_checks"; "graph.reach.queries";
    "core.binding.index_probes"; "core.binding.verdicts"; "core.flatten.items_out";
    "storage.wal.fsyncs"; "storage.wal.sync_batches"; "storage.wal.appends";
  ]
  @ List.map (Printf.sprintf "core.ops.%s.rows_out")
      [ "select"; "project"; "join"; "union"; "inter"; "diff"; "rename" ]

let read_counters handles = Array.map M.value handles

(* Sums over the run. Times in nanoseconds. *)
type acc = {
  mutable ops : int;
  mutable writes : int;
  mutable queries : int;
  mutable op_ns : int;
  mutable encode : int;
  mutable decode : int;
  mutable exec : int;
  mutable sync : int;
  mutable parse : int;
  mutable plan : int;
  mutable binding : int;
  mutable integrity : int;
  mutable pairs : int;  (** [hierarchy.mcd_calls] inside the probe's [Integrity.check] *)
  mutable append : int;
  mutable binders : int;
  mutable candidates : int;
  mutable index_builds : int;  (** over the arm's life: open, freeze and operations *)
  counts : int array;  (** deltas of [counted] *)
}

(* Arm (a)'s page-store figures, taken when the replay ends. *)
type storage = {
  wal_bytes : int;
  ckpt_ns : int;
  ckpt_pages : int;
  open_ns : int;
  pager : int list;  (** deltas of [pager] over the open *)
}

let pager = [ "storage.pager.disk_reads"; "storage.pager.pool_hits"; "storage.pager.evictions"; "storage.wal.replayed" ]

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* One request through the layers a server request crosses: frame
   encode and decode, [Db.exec_buffered] (lex, parse, evaluate, WAL
   append), the WAL sync for a write, and the reply's frame encode and
   decode. *)
let real_path db stmt write =
  let span name f = Trace.with_span name f in
  let req = span "frames.encode" (fun () -> Wire.frame "EXEC" stmt) in
  let payload =
    span "frames.decode" (fun () ->
        let d = Wire.Decoder.create () in
        Wire.Decoder.feed d (Bytes.unsafe_of_string req) (String.length req);
        match Wire.Decoder.next d with Ok (Some (_, p)) -> p | _ -> failwith "frame")
  in
  let result = span "db.exec" (fun () -> Db.exec_buffered db payload) in
  if write then span "storage.wal_sync" (fun () -> Db.sync db);
  let tag, body = match result with Ok outs -> ("OK", String.concat "\n" outs) | Error e -> ("ERR", e) in
  let rep = span "frames.encode" (fun () -> Wire.frame tag body) in
  span "frames.decode" (fun () ->
      let d = Wire.Decoder.create () in
      Wire.Decoder.feed d (Bytes.unsafe_of_string rep) (String.length rep);
      match Wire.Decoder.next d with Ok (Some (t, p)) -> (t, p) | _ -> failwith "frame")

let self_times a span =
  List.iter
    (fun c ->
      let d = Trace.duration_ns c in
      match Trace.name c with
      | "frames.encode" -> a.encode <- a.encode + d
      | "frames.decode" -> a.decode <- a.decode + d
      | "db.exec" -> a.exec <- a.exec + d
      | "storage.wal_sync" -> a.sync <- a.sync + d
      | _ -> ())
    (Trace.children span)

(* The statement's relational expression, for timing the optimizer. *)
let query_expr stmt =
  match (Hr_query.Parser.parse_statement stmt).Ast.stmt with
  | Ast.Select_query { expr; _ } | Ast.Count { expr; _ } -> Some expr
  | _ -> None

(* The measuring calls that follow a statement on the probe arm. *)
let measure a db scratch_wal mcd job =
  let _, t = timed (fun () -> Hr_query.Parser.parse_statement job.stmt) in
  a.parse <- a.parse + t;
  match job.probe with
  | Integrity_of r ->
    (* the relation the statement just committed *)
    let rel = Catalog.relation (Db.catalog db) r in
    let m0 = M.value mcd in
    let _, t = timed (fun () -> Integrity.check rel) in
    a.integrity <- a.integrity + t;
    a.pairs <- a.pairs + M.value mcd - m0;
    let (), t = timed (fun () -> Hr_storage.Wal.append scratch_wal ~lsn:a.writes job.stmt) in
    a.append <- a.append + t
  | Bind (r, labels) ->
    let rel = Catalog.relation (Db.catalog db) r in
    let item = Item.of_names (Relation.schema rel) labels in
    let v, t = timed (fun () -> Binding.verdict rel item) in
    a.binding <- a.binding + t;
    (match v with
    | Binding.Asserted (_, b) -> a.binders <- a.binders + List.length b
    | Binding.Conflict { positive; negative } -> a.binders <- a.binders + List.length positive + List.length negative
    | Binding.Unasserted -> ());
    a.candidates <- a.candidates + List.length (Relation.candidates rel item)
  | Plan -> (
    match query_expr job.stmt with
    | Some e ->
      let _, t = timed (fun () -> Hr_query.Optimizer.optimize e) in
      a.plan <- a.plan + t
    | None -> ())

let file_size f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0

(* Arm (a) at the end of the replay: a checkpoint of its database, and a
   cold open of a copy taken just before it, which replays the WAL. *)
let storage_figures db dir wal0 =
  let wal_bytes = file_size (Filename.concat dir "wal.log") - wal0 in
  let copy = dir ^ ".open" in
  E2e.copy_dir dir copy;
  (try Unix.unlink (Filename.concat copy "LOCK") with Unix.Unix_error _ -> ());
  let (), ckpt_ns = timed (fun () -> Db.checkpoint db) in
  let ckpt_pages = fst (Db.last_checkpoint_pages db) in
  Db.close db;
  let p0 = List.map M.counter_value pager in
  let db_o, open_ns = timed (fun () -> Db.open_dir copy) in
  let pager = List.map2 (fun n v -> M.counter_value n - v) pager p0 in
  Db.close db_o;
  { wal_bytes; ckpt_ns; ckpt_pages; open_ns; pager }

(* [hrbench --arm KIND --db DIR]: reads [job array option] values from
   standard input, answers each chunk with its replies, and at [None]
   answers with its sums (and arm (a)'s page-store figures). *)
let arm_main kind dir =
  let traced = kind = "traced" and probe = kind = "probe" in
  M.set_enabled (kind <> "bare");
  let builds0 = M.counter_value "hierarchy.index_builds" in
  let db = Db.open_dir dir in
  (* the server seals its catalog when it starts (its snapshot publisher
     freezes every hierarchy, filling the closure memos); replaying on
     unfrozen hierarchies would instead grow their memo tables with every
     operation, and the garbage collector's work with them. Tuple writes
     leave the hierarchies frozen. *)
  Catalog.freeze (Db.catalog db);
  let wal0 = file_size (Filename.concat dir "wal.log") in
  let scratch_wal = Hr_storage.Wal.open_ ~fsync:false (dir ^ ".scratch.wal") in
  let handles = Array.of_list (List.map M.counter counted) in
  let mcd = M.counter "hierarchy.mcd_calls" in
  let a =
    {
      ops = 0; writes = 0; queries = 0; op_ns = 0; encode = 0; decode = 0; exec = 0; sync = 0;
      parse = 0; plan = 0; binding = 0; integrity = 0; pairs = 0; append = 0; binders = 0;
      candidates = 0; index_builds = 0; counts = Array.make (List.length counted) 0;
    }
  in
  let step job =
    a.ops <- a.ops + 1;
    if job.write then a.writes <- a.writes + 1;
    if job.probe = Plan then a.queries <- a.queries + 1;
    let c0 = read_counters handles in
    let reply, ns =
      if traced then begin
        let r, spans = Trace.collect (fun () -> Trace.with_span "op" (fun () -> real_path db job.stmt job.write)) in
        List.iter (self_times a) spans;
        (r, List.fold_left (fun n s -> n + Trace.duration_ns s) 0 spans)
      end
      else timed (fun () -> real_path db job.stmt job.write)
    in
    let c1 = read_counters handles in
    Array.iteri (fun i v -> a.counts.(i) <- a.counts.(i) + v - c0.(i)) c1;
    a.op_ns <- a.op_ns + ns;
    if probe then measure a db scratch_wal mcd job;
    reply
  in
  set_binary_mode_in stdin true;
  set_binary_mode_out stdout true;
  let rec loop () =
    match (Marshal.from_channel stdin : job array option) with
    | exception End_of_file -> exit 1 (* the generator is gone *)
    | Some jobs ->
      let each job =
        let before = a.op_ns in
        let reply = step job in
        (reply, a.op_ns - before)
      in
      Marshal.to_channel stdout (Array.map each jobs : ((string * string) * int) array) [];
      flush stdout;
      loop ()
    | None ->
      a.index_builds <- M.counter_value "hierarchy.index_builds" - builds0;
      Hr_storage.Wal.close scratch_wal;
      let st = if traced then Some (storage_figures db dir wal0) else (Db.close db; None) in
      Marshal.to_channel stdout ((a, st) : acc * storage option) [];
      flush stdout
  in
  loop ()

(* --- the run ------------------------------------------------------------- *)

type child = { pid : int; to_c : out_channel; of_c : in_channel }

let children = ref []

let spawn kind dir =
  let in_r, in_w = Unix.pipe ~cloexec:true () and out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--arm"; kind; "--db"; dir |] in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let c = { pid; to_c = Unix.out_channel_of_descr in_w; of_c = Unix.in_channel_of_descr out_r } in
  set_binary_mode_out c.to_c true;
  set_binary_mode_in c.of_c true;
  children := c :: !children;
  c

let ask c msg =
  Marshal.to_channel c.to_c msg [];
  flush c.to_c;
  Marshal.from_channel c.of_c

let reap c =
  close_out_noerr c.to_c;
  close_in_noerr c.of_c;
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  children := List.filter (fun c' -> c'.pid <> c.pid) !children

let kill_children () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c)
    !children

let job (st : Work.state) op stmt =
  match op with
  | Work.Write (Work.Insert (r, _, _) | Work.Delete (r, _)) -> { stmt; write = true; probe = Integrity_of r }
  | Work.Read (Work.Ask (r, item) | Work.Explain (r, item)) ->
    let schema = Relation.schema (Work.rel st r) in
    let labels = List.init (Item.arity item) (fun i -> H.node_label (Schema.hierarchy schema i) (Item.coord item i)) in
    { stmt; write = false; probe = Bind (r, labels) }
  | Work.Read (Work.Select _) -> { stmt; write = false; probe = Plan }

(* x / y for a figure the JSON carries: a metric without samples fails
   the run rather than read as 0. *)
let ratio what x y = if y = 0 then failwith (what ^ ": no samples in this run") else float_of_int x /. float_of_int y

(* The same for a figure only printed: "n/a" without samples. *)
let per what x y =
  if y = 0 then Report.note "%s = n/a (no samples in this workload)" what
  else Report.note "%s = %.4f" what (x /. float_of_int y)

let run (ctx : E2e.ctx) (wl : Work.t) : E2e.tally =
  let tally = { E2e.attempted = 0; failed = 0 } in
  let work p = Filename.concat ctx.E2e.work p in
  let base = work "base" in
  E2e.load wl base;
  List.iter (fun p -> E2e.copy_dir base (work p)) [ "a"; "b"; "c"; "p" ];
  at_exit kill_children;
  let srv = Client.start ~exe:ctx.E2e.exe ~dir:base ~log:(work "server.log") in
  let conn = Client.connect srv.Client.port in
  E2e.await_ready conn wl wl.Work.init;
  let arms = [| spawn "traced" (work "a"); spawn "metrics" (work "b"); spawn "bare" (work "c") |] in
  let probe = spawn "probe" (work "p") in
  let next = stream wl in
  let st = ref wl.Work.init and states = ref [] and k = ref 0 and rtts = ref [] in
  let deferred = E2e.Deferred.create () in
  (* a reply from the server or an arm to the op with oracle version [v] *)
  let check op stmt v (tag, reply) =
    tally.E2e.attempted <- tally.E2e.attempted + 1;
    match op with
    | Work.Write w -> if not (tag = "OK" && reply = Oracle.write_ack w) then tally.E2e.failed <- tally.E2e.failed + 1
    | Work.Read r -> if tag = "OK" then E2e.Deferred.add deferred r stmt reply v else tally.E2e.failed <- tally.E2e.failed + 1
  in
  let until = Client.now () +. ctx.E2e.seconds in
  let chunk = ref 0 in
  (* per op: the client round trip minus (a)'s time for the same op *)
  let paired = ref [] in
  while Client.now () < until do
    (* the server's turn: closed loop for [chunk_s] seconds *)
    let sent = ref [] in
    let stop = Client.now () +. chunk_s in
    while Client.now () < stop do
      let op = next () in
      let stmt = Work.statement !st op in
      let t0 = Client.now () in
      let reply = Client.request conn stmt ~timeout:E2e.timeout in
      let rtt = Client.now () -. t0 in
      rtts := rtt :: !rtts;
      check op stmt !k (match reply with Ok r -> ("OK", r) | Error e -> ("ERR", e));
      sent := (op, stmt, !k, job !st op stmt, rtt) :: !sent;
      states := !st :: !states;
      (match op with Work.Write w -> st := Work.apply !st w | Work.Read _ -> ());
      incr k
    done;
    let sent = Array.of_list (List.rev !sent) in
    let jobs = Some (Array.map (fun (_, _, _, j, _) -> j) sent) in
    let replay c =
      Array.iteri
        (fun i (r, ns) ->
          let op, stmt, v, _, rtt = sent.(i) in
          check op stmt v r;
          if c == arms.(0) then paired := (op, (rtt *. 1e6) -. us ns) :: !paired)
        (ask c jobs)
    in
    for j = 0 to 2 do
      replay arms.((!chunk + j) mod 3)
    done;
    replay probe;
    incr chunk
  done;
  Client.close conn;
  Client.kill srv;
  let finish c : acc * storage option =
    let r = ask c None in
    reap c;
    r
  in
  let (a, st_a), (b, _), (c, _) = (finish arms.(0), finish arms.(1), finish arms.(2)) in
  let p, _ = finish probe in
  let storage = Option.get st_a in
  let states = Array.of_list (List.rev !states) in
  tally.E2e.failed <- tally.E2e.failed + E2e.Deferred.failures deferred states;
  let delta name =
    let rec find i = function [] -> invalid_arg name | x :: rest -> if x = name then a.counts.(i) else find (i + 1) rest in
    find 0 counted
  in
  let rows_out =
    List.fold_left
      (fun n (name, i) -> if String.starts_with ~prefix:"core.ops." name then n + a.counts.(i) else n)
      0
      (List.mapi (fun i name -> (name, i)) counted)
  in
  let n = a.ops and w = a.writes in
  let per_op x = us x /. float_of_int n in
  (* the optimizer runs inside the evaluator and stays in its self time *)
  let eval_self = a.exec - p.parse - p.binding - p.append in
  let layers =
    [
      ("frames.encode_us", a.encode); ("frames.decode_us", a.decode); ("query.parse_us", p.parse);
      ("core.binding_us", p.binding); ("query.eval_self_us", eval_self); ("storage.wal_append_us", p.append);
      ("storage.wal_sync_us", a.sync);
    ]
  in
  List.iter (fun (name, ns) -> Report.metric name "us" (per_op ns)) layers;
  let layer_sum = List.fold_left (fun s (_, ns) -> s +. per_op ns) 0.0 layers in
  let rtt = Report.mean !rtts *. 1e6 in
  Report.metric "server.rtt_us" "us" rtt;
  Report.metric "server.unattributed_us" "us" (rtt -. layer_sum);
  Report.note
    "trace: %d chunks, %d ops (%d writes); mean client round trip %.1f us = layers %.1f us + unattributed %.1f us (median round trip %.1f us)"
    !chunk n w rtt layer_sum (rtt -. layer_sum) (Report.median !rtts *. 1e6);
  (* The residual is a difference of two means taken in two processes.
     Paired per op, its standard error shows what it can resolve: on
     churn a write's time varies by tens of percent from one write to the
     next, so a write's difference is noise of milliseconds. *)
  List.iter
    (fun (kind, sel) ->
      let d = List.filter_map (fun (op, x) -> if sel op then Some x else None) !paired in
      let n = List.length d in
      if n > 1 then begin
        let m = Report.mean d in
        let var = List.fold_left (fun v x -> v +. ((x -. m) *. (x -. m))) 0.0 d /. float_of_int (n - 1) in
        Report.note "trace: round trip minus (a)'s op time, %s: %.1f us, standard error %.1f us (%d ops)" kind m
          (sqrt (var /. float_of_int n)) n
      end)
    [ ("reads", fun op -> not (is_write op)); ("writes", is_write); ("all ops", fun _ -> true) ];
  Report.metric "core.integrity_ms" "ms" (ratio "integrity per write" p.integrity w /. 1e6);
  Report.metric "core.integrity_share_pct" "%" (100.0 *. ratio "integrity share" p.integrity (a.exec - p.parse - p.append));
  Report.metric "core.integrity_pairs" "count" (ratio "integrity pairs" p.pairs w);
  Report.metric "core.binding_probes" "count"
    (ratio "binding probes" (delta "core.binding.index_probes") (delta "core.binding.verdicts"));
  Report.metric "core.binding_yield" "ratio" (ratio "binding yield" p.binders p.candidates);
  Report.metric "hierarchy.subsumption_checks" "count" (ratio "subsumption checks" (delta "hierarchy.subsumption_checks") n);
  Report.metric "hierarchy.reach_queries" "count" (ratio "reach queries" (delta "graph.reach.queries") n);
  Report.metric "hierarchy.index_builds" "count" (float_of_int a.index_builds);
  Report.metric "storage.fsyncs_per_write" "count" (ratio "fsyncs per write" (delta "storage.wal.fsyncs") w);
  Report.metric "storage.stmts_per_sync" "count"
    (ratio "statements per sync" (delta "storage.wal.appends") (delta "storage.wal.sync_batches"));
  Report.metric "storage.wal_bytes_per_write" "B" (ratio "WAL bytes per write" storage.wal_bytes w);
  Report.metric "storage.checkpoint_ms" "ms" (float_of_int storage.ckpt_ns /. 1e6);
  Report.metric "storage.checkpoint_pages" "count" (float_of_int storage.ckpt_pages);
  Report.metric "storage.open_ms" "ms" (float_of_int storage.open_ns /. 1e6);
  (match storage.pager with
  | [ reads; hits; evictions; replayed ] ->
    Report.metric "storage.pages_read" "count" (float_of_int reads);
    Report.metric "storage.pool_hit_rate" "ratio" (ratio "pool hit rate" hits (hits + reads));
    Report.metric "storage.wal_replayed" "count" (float_of_int replayed);
    Report.note "storage.evictions = %d (on opening the copy)" evictions
  | _ -> assert false);
  Report.metric "obs.metrics_overhead_pct" "%" (100.0 *. (ratio "metrics overhead" b.op_ns c.op_ns -. 1.0));
  Report.metric "obs.trace_overhead_pct" "%" (100.0 *. (ratio "trace overhead" a.op_ns b.op_ns -. 1.0));
  (* figures of layers only queries reach: churn sends none *)
  per "query.plan_us per query (inside query.eval_self_us)" (us p.plan) a.queries;
  per "core.ops_rows_out per query" (float_of_int rows_out) a.queries;
  per "core.flatten_items per query" (float_of_int (delta "core.flatten.items_out")) a.queries;
  Report.note "trace: replay per op: traced %.1f us, metrics on %.1f us, metrics off %.1f us" (per_op a.op_ns)
    (per_op b.op_ns) (per_op c.op_ns);
  tally

module Wire = Hr_frames.Wire
module Shard_map = Hr_check.Shard_map
module Client = Hr_server.Server.Client
module Hierarchy = Hr_hierarchy.Hierarchy
module Ast = Hr_query.Ast
module Parser = Hr_query.Parser
module Lexer = Hr_query.Lexer
module Eval = Hr_query.Eval
module Optimizer = Hr_query.Optimizer
module Loc = Hr_query.Loc
module Metrics = Hr_obs.Metrics
open Hierel

(* Router metrics (docs/OBSERVABILITY.md). [shard.<id>.lsn] gauges are
   registered per shard in [create]. *)
let m_frames = Metrics.counter "shard.frames_routed"
let m_mutations = Metrics.counter "shard.mutations_routed"
let m_broadcasts = Metrics.counter "shard.broadcasts"
let m_pulls = Metrics.counter "shard.pulls"
let m_merged = Metrics.counter "shard.merged_tuples"
let m_dedup = Metrics.counter "shard.dedup_dropped"
let m_errors = Metrics.counter "shard.errors"
let m_reconnects = Metrics.counter "shard.reconnects"
let g_dead = Metrics.gauge "shard.dead"
let h_fanout = Metrics.histogram "shard.fanout"
let h_gather = Metrics.histogram "shard.gather_ns"

type shard = {
  sid : int;
  shost : string;
  sport : int;
  mutable conn : Client.conn option;  (* [None] = down *)
  mutable lsn : int;  (* head LSN from the last reply *)
  mutable last_attempt : int;  (* now_ns of the last failed dial *)
  g_lsn : Metrics.gauge;
}

type client = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  mutable outbuf : string;  (* reply bytes the kernel has not taken *)
  mutable closing : bool;
}

type t = {
  socket : Unix.file_descr;
  bound_port : int;
  map : Shard_map.t;
  shards : shard list;  (* ascending sid *)
  timeout : float;
  max_backlog : int;
  (* DDL only: every hierarchy, every relation schema, no tuples. DDL
     replays here in the same order as on every shard, so node ids (and
     hence the wire tuple encoding) agree across the deployment. Query
     evaluation temporarily materializes gathered extensions into it. *)
  cat : Catalog.t;
  mutable clients : client list;
}

(* Infrastructure failure talking to a shard (vs [Reply_err]: the shard
   answered, with an evaluator error). *)
exception Shard_down of shard * string
exception Reply_err of string

let down_msg sc msg =
  Printf.sprintf "shard %d (%s:%d) unreachable: %s" sc.sid sc.shost sc.sport msg

let exn_msg = function
  | Failure m -> m
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | Wire.Disconnected -> "disconnected"
  | e -> Printexc.to_string e

let dead_count t = List.length (List.filter (fun s -> s.conn = None) t.shards)

let mark_down t sc msg =
  (match sc.conn with
  | Some c -> Client.close c
  | None -> ());
  sc.conn <- None;
  sc.last_attempt <- Metrics.now_ns ();
  Metrics.set g_dead (dead_count t);
  Metrics.incr m_errors;
  raise (Shard_down (sc, msg))

(* Dial throttle: a dead shard is retried at most once a second so a
   write storm against a down subtree does not spend every statement's
   latency budget on connect timeouts. *)
let reconnect_throttle_ns = 1_000_000_000

let ensure_conn t sc =
  match sc.conn with
  | Some c -> c
  | None ->
    if Metrics.now_ns () - sc.last_attempt < reconnect_throttle_ns then
      raise (Shard_down (sc, "down (reconnect throttled)"));
    sc.last_attempt <- Metrics.now_ns ();
    (match Client.connect ~host:sc.shost ~timeout:t.timeout ~port:sc.sport () with
    | conn ->
      sc.conn <- Some conn;
      Metrics.incr m_reconnects;
      Metrics.set g_dead (dead_count t);
      conn
    | exception e -> raise (Shard_down (sc, exn_msg e)))

let shard_send t sc tag payload =
  let c = ensure_conn t sc in
  try Client.send c tag payload with e -> mark_down t sc (exn_msg e)

(* One reply off a shard connection, in FIFO order with its requests.
   [expected]-tagged replies carry an LSN prefix (tracked per shard);
   [ERR] raises {!Reply_err}; anything else is a protocol violation and
   the shard is dropped. *)
let shard_recv t sc ~expected =
  (* [None] can happen mid-round: an earlier pipelined reply marked the
     shard down while this statement's reply was still owed. *)
  let c =
    match sc.conn with
    | Some c -> c
    | None -> raise (Shard_down (sc, "down"))
  in
  match Client.recv_any c with
  | Error msg -> mark_down t sc msg
  | Ok ("ERR", payload) -> raise (Reply_err payload)
  | Ok (tag, payload) when tag = expected -> (
    match Wire.parse_lsn_prefixed payload with
    | Error msg -> mark_down t sc msg
    | Ok (lsn, body) ->
      sc.lsn <- max sc.lsn lsn;
      Metrics.set sc.g_lsn sc.lsn;
      body)
  | Ok (tag, _) -> mark_down t sc (Printf.sprintf "protocol error: unexpected %S" tag)

let shard_of t sid =
  match List.find_opt (fun s -> s.sid = sid) t.shards with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %d" sid)

(* Mutations that touch several shards (DDL broadcast, replicated rows,
   repartitions) refuse to start unless every target is reachable —
   beginning a multi-shard write that can only half-apply is how
   divergence is born. (A crash mid-broadcast can still diverge; that
   window is what [hrdb fsck --against MAP] exists for.) *)
let require_up t sids =
  List.iter (fun sid -> ignore (ensure_conn t (shard_of t sid))) sids

(* ---- shard evaluator errors ------------------------------------------ *)

(* A shard runs the re-rendered statement at line 1 of its own tiny
   script, so its error location is meaningless to the client. Strip it;
   the statement loop re-wraps with the original statement's span,
   making the error byte-identical to a single-node server's. *)
let strip_located msg =
  try
    Scanf.sscanf msg "at line %d, column %d: %n" (fun _ _ n ->
        String.sub msg n (String.length msg - n))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> msg

(* ---- scatter-gather reads -------------------------------------------- *)

let first_coord item = Item.coord item 0

let cover_of_row t schema values =
  let h = Schema.hierarchy schema 0 in
  Shard_map.cover t.map h (first_coord (Eval.resolve_values schema values))

(* Relation names a statement's evaluation can touch, filtered to names
   the catalog knows — unknown names are left for the local evaluator,
   whose error text then matches a single node's byte for byte. *)
let mentioned_relations t stmt =
  let names = ref [] in
  let add n = if not (List.mem n !names) then names := n :: !names in
  let rec expr e =
    match e.Ast.expr with
    | Ast.Rel n -> add n
    | Ast.Select (e, _, _)
    | Ast.Project (e, _)
    | Ast.Rename (e, _, _)
    | Ast.Consolidated e
    | Ast.Explicated (e, _) -> expr e
    | Ast.Join (a, b) | Ast.Union (a, b) | Ast.Intersect (a, b) | Ast.Except (a, b)
      ->
      expr a;
      expr b
  in
  (match stmt with
  | Ast.Select_query { expr = e; _ }
  | Ast.Let_binding { expr = e; _ }
  | Ast.Explain_plan e | Ast.Explain_analyze e | Ast.Explain_estimate e ->
    expr e
  | Ast.Count { expr = e; _ } -> expr e
  | Ast.Diff { prev; next } ->
    expr prev;
    expr next
  | Ast.Ask { rel; _ }
  | Ast.Check rel
  | Ast.Explain { rel; _ }
  | Ast.Consolidate rel
  | Ast.Explicate { rel; _ } -> add rel
  | Ast.Show_relations ->
    List.iter (fun r -> add (Relation.name r)) (Catalog.relations t.cat)
  | _ -> ());
  List.filter (fun n -> Catalog.find_relation t.cat n <> None) (List.rev !names)

(* Which shards a relation must be pulled from for this statement.
   Default: all of them. Two provably sufficient restrictions: a
   top-level point query whose optimized plan is a selection on the
   scanned relation's first attribute, and ASK/EXPLAIN on a specific
   item — in both, every tuple that can influence the answer has a
   first coordinate intersecting the probed node, and the cover rule
   guarantees all such tuples live on the node's cover. *)
let read_scope t stmt name =
  let all = Shard_map.ids t.map in
  let cover_of_value v =
    match Catalog.find_relation t.cat name with
    | None -> all
    | Some rel -> (
      let schema = Relation.schema rel in
      let h = Schema.hierarchy schema 0 in
      match Hierarchy.find h (Ast.value_name v) with
      | Some n -> Shard_map.cover t.map h n
      | None -> all)
  in
  let first_attr () =
    match Catalog.find_relation t.cat name with
    | None -> None
    | Some rel ->
      Some (Hr_util.Symbol.name (Schema.attr (Relation.schema rel) 0).Schema.name)
  in
  match stmt with
  | Ast.Select_query { expr; justified = false } -> (
    match (Optimizer.optimize expr).Ast.expr with
    | Ast.Select ({ Ast.expr = Ast.Rel r; _ }, attr, v)
      when r = name && first_attr () = Some attr ->
      cover_of_value v
    | _ -> all)
  | (Ast.Ask { rel; values = v :: _; _ } | Ast.Explain { rel; values = v :: _ })
    when rel = name ->
    cover_of_value v
  | _ -> all

(* Decoded tuple lines from one shard, merged with exact-identity dedup:
   the same (item, sign) from several shards is one tuple (that is what
   replication means); the same item with opposite signs is divergence
   and poisons the whole read — silently picking a winner would let a
   half-applied write change query results. *)
let merge_part name schema tbl sc body =
  let lines = String.split_on_char '\n' body in
  List.iter
    (fun line ->
      if line <> "" then begin
        let fail () =
          raise
            (Reply_err
               (Printf.sprintf "shard %d sent a malformed tuple %S for %s" sc.sid
                  line name))
        in
        if String.length line < 3 || String.get line 1 <> ' ' then fail ();
        let sign =
          match String.get line 0 with
          | '+' -> Types.Pos
          | '-' -> Types.Neg
          | _ -> fail ()
        in
        let coords =
          String.sub line 2 (String.length line - 2)
          |> String.split_on_char ','
          |> List.map (fun s ->
                 match int_of_string_opt s with Some n -> n | None -> fail ())
          |> Array.of_list
        in
        let item =
          try Item.make schema coords
          with _ ->
            raise
              (Reply_err
                 (Printf.sprintf
                    "shard %d sent tuple %S outside %s's schema (cross-shard \
                     divergence; run hrdb fsck --against the shard map)"
                    sc.sid line name))
        in
        match Hashtbl.find_opt tbl item with
        | None ->
          Hashtbl.add tbl item sign;
          Metrics.incr m_merged
        | Some s when s = sign -> Metrics.incr m_dedup
        | Some _ ->
          raise
            (Reply_err
               (Printf.sprintf
                  "cross-shard divergence on %s: shard %d disagrees on the sign \
                   of %s (run hrdb fsck --against the shard map)"
                  name sc.sid
                  (Item.to_string schema item)))
      end)
    lines

type gather_info = { gi_name : string; gi_sid : int; gi_tuples : int; gi_lsn : int }

(* Pull [names] (each from its scope's shards), pipelined: all PULL
   frames go out before any reply is read, in a fixed order both sides
   share, so each shard connection's FIFO stays aligned. The merged
   extensions replace the local catalog's empty relations for the
   duration of one statement. *)
let gather t scoped =
  let t0 = Metrics.now_ns () in
  List.iter
    (fun (name, sids) ->
      List.iter
        (fun sid ->
          shard_send t (shard_of t sid) Wire.shard_pull name;
          Metrics.incr m_pulls)
        sids)
    scoped;
  let infos = ref [] in
  List.iter
    (fun (name, sids) ->
      let schema = Relation.schema (Catalog.relation t.cat name) in
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun sid ->
          let sc = shard_of t sid in
          let body =
            try shard_recv t sc ~expected:Wire.shard_part
            with Reply_err msg ->
              raise
                (Reply_err
                   (Printf.sprintf
                      "shard %d (%s:%d) cannot serve %s: %s (cross-shard \
                       divergence; run hrdb fsck --against the shard map)"
                      sc.sid sc.shost sc.sport name (strip_located msg)))
          in
          let before = Hashtbl.length tbl in
          merge_part name schema tbl sc body;
          infos :=
            { gi_name = name; gi_sid = sid; gi_tuples = Hashtbl.length tbl - before;
              gi_lsn = sc.lsn }
            :: !infos)
        sids;
      let rel =
        Hashtbl.fold (fun item sign r -> Relation.set r item sign) tbl
          (Relation.empty ~name schema)
      in
      Catalog.replace_relation t.cat rel;
      Metrics.observe h_fanout (List.length sids))
    scoped;
  Metrics.observe h_gather (Metrics.now_ns () - t0);
  List.rev !infos

(* After evaluating, gathered extensions are dropped again: the router's
   catalog stays schema-only between statements. *)
let reset_relations t names =
  List.iter
    (fun name ->
      match Catalog.find_relation t.cat name with
      | None -> ()
      | Some rel ->
        Catalog.replace_relation t.cat
          (Relation.empty ~name (Relation.schema rel)))
    names

let per_shard_section t infos =
  let b = Buffer.create 128 in
  Buffer.add_string b "per-shard breakdown:";
  List.iter
    (fun gi ->
      let sc = shard_of t gi.gi_sid in
      Buffer.add_string b
        (Printf.sprintf "\n  shard %d (%s:%d) lsn=%d: %s %d tuple(s)" gi.gi_sid
           sc.shost sc.sport gi.gi_lsn gi.gi_name gi.gi_tuples))
    infos;
  Buffer.contents b

(* ---- mutations -------------------------------------------------------- *)

(* Scatter one row-mutation statement: rows grouped by their covers,
   one re-rendered sub-statement per covered shard, all sends before
   any reply. The synthesized reply quotes the original row count, so
   the client cannot tell it from a single node's. *)
let scatter_mutation t ~rel ~covers ~render ~reply_fmt ~compensate =
  let sids =
    List.sort_uniq compare (List.concat_map (fun (_, cover) -> cover) covers)
  in
  require_up t sids;
  let sub_rows sid = List.filter (fun (_, cover) -> List.mem sid cover) covers in
  List.iter
    (fun sid ->
      shard_send t (shard_of t sid) Wire.shard_exec
        (render (List.map fst (sub_rows sid))))
    sids;
  Metrics.incr m_mutations;
  Metrics.observe h_fanout (List.length sids);
  let results =
    List.map
      (fun sid ->
        let sc = shard_of t sid in
        match shard_recv t sc ~expected:Wire.shard_ack with
        | (_ : string) -> (sid, Ok ())
        | exception Reply_err msg -> (sid, Error msg))
      sids
  in
  match List.find_opt (fun (_, r) -> r <> Ok ()) results with
  | None -> Ok (Printf.sprintf reply_fmt (List.length covers) rel)
  | Some (_, Ok ()) -> assert false
  | Some (_, Error msg) ->
    (* Roll the shards that did apply back (best effort — a shard that
       dies mid-compensation leaves divergence for fsck to find). Only
       meaningful for inserts; deletes fail identically everywhere or
       expose pre-existing divergence. *)
    List.iter
      (fun (sid, r) ->
        if r = Ok () then
          match compensate with
          | None -> ()
          | Some script_of -> (
            let rows = List.map fst (sub_rows sid) in
            try
              shard_send t (shard_of t sid) Wire.shard_exec (script_of rows);
              ignore (shard_recv t (shard_of t sid) ~expected:Wire.shard_ack)
            with Reply_err _ | Shard_down _ -> ()))
      results;
    Error (strip_located msg)

(* ---- broadcast / repartition ----------------------------------------- *)

let broadcast t script =
  let sids = Shard_map.ids t.map in
  require_up t sids;
  List.iter (fun sid -> shard_send t (shard_of t sid) Wire.shard_exec script) sids;
  Metrics.incr m_broadcasts;
  List.iter
    (fun sid ->
      let sc = shard_of t sid in
      try ignore (shard_recv t sc ~expected:Wire.shard_ack)
      with Reply_err msg ->
        raise
          (Reply_err
             (Printf.sprintf
                "shard %d rejected a replicated statement (%s); the deployment \
                 has diverged — run hrdb fsck --against the shard map"
                sc.sid (strip_located msg))))
    sids

(* Push a router-computed relation ([LET] / [CONSOLIDATE] / [EXPLICATE]
   result) back out: every shard rebuilds its slice from scratch. The
   slice is chosen by the same cover rule as routed inserts, so the
   placement invariant fsck checks holds for derived relations too. *)
let repartition t rel ~present =
  let schema = Relation.schema rel in
  let h = Schema.hierarchy schema 0 in
  let sids = Shard_map.ids t.map in
  require_up t sids;
  List.iter
    (fun sid ->
      let only (tu : Relation.tuple) =
        List.mem sid (Shard_map.cover t.map h (first_coord tu.Relation.item))
      in
      shard_send t (shard_of t sid) Wire.shard_exec
        (Render.rebuild rel ~present ~only))
    sids;
  Metrics.incr m_broadcasts;
  List.iter
    (fun sid ->
      let sc = shard_of t sid in
      try ignore (shard_recv t sc ~expected:Wire.shard_ack)
      with Reply_err msg ->
        raise
          (Reply_err
             (Printf.sprintf "rebuild of %s failed on shard %d: %s"
                (Relation.name rel) sc.sid (strip_located msg))))
    sids

(* ---- statement dispatch ----------------------------------------------- *)

let exec_stmt t stmt =
  match stmt with
  | Ast.Create_domain _ | Ast.Create_class _ | Ast.Create_instance _
  | Ast.Create_isa _ | Ast.Create_preference _ | Ast.Create_relation _
  | Ast.Drop_relation _ -> (
    (* Local first: a statement the router's own evaluator rejects is
       answered with the evaluator's error and never broadcast. *)
    require_up t (Shard_map.ids t.map);
    match Eval.exec t.cat stmt with
    | Error _ as e -> e
    | Ok out ->
      broadcast t (Render.statement stmt);
      Ok out)
  | Ast.Insert { rel; rows } ->
    let schema = Relation.schema (Catalog.relation t.cat rel) in
    let covers =
      List.map (fun (r : Ast.signed_row) -> (r, cover_of_row t schema r.Ast.values)) rows
    in
    scatter_mutation t ~rel ~covers
      ~render:(fun rows ->
        Render.insert rel
          (List.map (fun (r : Ast.signed_row) -> (r.Ast.sign, r.Ast.values)) rows))
      ~reply_fmt:(format_of_string "%d tuple(s) inserted into %s")
      ~compensate:
        (Some (fun rows -> Render.delete rel (List.map (fun (r : Ast.signed_row) -> r.Ast.values) rows)))
  | Ast.Delete { rel; rows } ->
    let schema = Relation.schema (Catalog.relation t.cat rel) in
    let covers = List.map (fun values -> (values, cover_of_row t schema values)) rows in
    scatter_mutation t ~rel ~covers
      ~render:(fun rows -> Render.delete rel rows)
      ~reply_fmt:(format_of_string "%d tuple(s) deleted from %s")
      ~compensate:None
  | Ast.Let_binding { name; expr = _ } -> (
    let srcs = mentioned_relations t stmt in
    let present = Catalog.find_relation t.cat name <> None in
    require_up t (Shard_map.ids t.map);
    ignore (gather t (List.map (fun n -> (n, Shard_map.ids t.map)) srcs));
    match Eval.exec t.cat stmt with
    | Error _ as e ->
      reset_relations t srcs;
      e
    | Ok out ->
      let rel = Catalog.relation t.cat name in
      repartition t rel ~present;
      reset_relations t (name :: srcs);
      Ok out)
  | Ast.Consolidate rel_name | Ast.Explicate { rel = rel_name; _ } -> (
    let srcs = mentioned_relations t stmt in
    require_up t (Shard_map.ids t.map);
    ignore (gather t (List.map (fun n -> (n, Shard_map.ids t.map)) srcs));
    match Eval.exec t.cat stmt with
    | Error _ as e ->
      reset_relations t srcs;
      e
    | Ok out ->
      let rel = Catalog.relation t.cat rel_name in
      repartition t rel ~present:true;
      reset_relations t srcs;
      Ok out)
  | Ast.Select_query _ | Ast.Ask _ | Ast.Check _ | Ast.Count _ | Ast.Diff _
  | Ast.Explain _ | Ast.Explain_plan _ | Ast.Explain_analyze _
  | Ast.Explain_estimate _ | Ast.Show_relations -> (
    let names = mentioned_relations t stmt in
    let scoped = List.map (fun n -> (n, read_scope t stmt n)) names in
    let infos = gather t scoped in
    let r = Eval.exec t.cat stmt in
    reset_relations t names;
    match (stmt, r) with
    | Ast.Explain_analyze _, Ok out when infos <> [] ->
      Ok (out ^ "\n" ^ per_shard_section t infos)
    | _ -> r)
  (* EXPLAIN EFFECTS resolves cones against the router's own catalog —
     the router owns the DAG and every relation schema (DDL is
     broadcast), which is all a footprint needs. *)
  | Ast.Show_hierarchy _ | Ast.Show_hierarchies | Ast.Stats _ | Ast.Stats_reset
  | Ast.Explain_effects _ ->
    Eval.exec t.cat stmt

let exec_located t { Ast.stmt; sloc } =
  let r =
    try exec_stmt t stmt with
    | Types.Model_error msg | Hierarchy.Error msg | Failure msg -> Error msg
    | Shard_down (sc, msg) -> Error (down_msg sc msg)
    | Reply_err msg -> Error (strip_located msg)
  in
  match r with
  | Ok _ as ok -> ok
  | Error msg -> Error (Format.asprintf "at %a: %s" Loc.pp_prose sloc msg)

let exec_script t payload =
  match Parser.parse payload with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | stmts ->
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | lstmt :: rest -> (
        match exec_located t lstmt with
        | Ok out -> loop (out :: acc) rest
        | Error _ as e -> e)
    in
    loop [] stmts

(* ---- the fast path ---------------------------------------------------- *)

(* A script that is exactly one INSERT or DELETE over connected shards
   can be pipelined: its SHARD_EXEC frames go out before any earlier
   statement's reply is awaited. [Single] (every row covers the same
   one shard) needs no further proof — per-shard FIFO preserves arrival
   order. [Scatter] (rows covering several shards) additionally carries
   per-shard sub-statements and compensation scripts; whether it may
   join the pipelined run is decided by the commutativity oracle at
   admission time (see {!poll}). Everything else falls back to the
   synchronous path. *)
type pipelined =
  | Single of int * string  (* covering shard, rendered statement *)
  | Scatter of (int * string * string option) list * string
      (* per covered shard: sub-statement + the script compensating it
         (inserts only); plus the synthesized success reply *)

let classify_pipelined t payload =
  let plan rel covers ~render ~compensate ~reply_fmt =
    let sids =
      List.sort_uniq compare (List.concat_map (fun (_, cover) -> cover) covers)
    in
    if
      sids = []
      || not (List.for_all (fun sid -> (shard_of t sid).conn <> None) sids)
    then None
    else
      match sids with
      | [ sid ] -> Some (Single (sid, render (List.map fst covers)))
      | _ ->
        let parts =
          List.map
            (fun sid ->
              let rows =
                List.filter_map
                  (fun (r, cover) -> if List.mem sid cover then Some r else None)
                  covers
              in
              (sid, render rows, compensate rows))
            sids
        in
        Some (Scatter (parts, Printf.sprintf reply_fmt (List.length covers) rel))
  in
  let footprint stmt =
    try Hr_analysis.Effect.footprint ~find:(Catalog.find_relation t.cat) stmt
    with _ -> Hr_analysis.Footprint.Opaque "footprint analysis failed"
  in
  match Parser.parse payload with
  | exception _ -> None
  | [ { Ast.stmt = Ast.Insert { rel; rows } as stmt; sloc } ] -> (
    match
      let schema = Relation.schema (Catalog.relation t.cat rel) in
      plan rel
        (List.map
           (fun (r : Ast.signed_row) -> (r, cover_of_row t schema r.Ast.values))
           rows)
        ~render:(fun rows ->
          Render.insert rel
            (List.map (fun (r : Ast.signed_row) -> (r.Ast.sign, r.Ast.values)) rows))
        ~compensate:(fun rows ->
          Some
            (Render.delete rel
               (List.map (fun (r : Ast.signed_row) -> r.Ast.values) rows)))
        ~reply_fmt:(format_of_string "%d tuple(s) inserted into %s")
    with
    | Some cls -> Some (sloc, footprint stmt, cls)
    | None | (exception _) -> None)
  | [ { Ast.stmt = Ast.Delete { rel; rows } as stmt; sloc } ] -> (
    match
      let schema = Relation.schema (Catalog.relation t.cat rel) in
      plan rel
        (List.map (fun values -> (values, cover_of_row t schema values)) rows)
        ~render:(fun rows -> Render.delete rel rows)
        ~compensate:(fun _ -> None)
        ~reply_fmt:(format_of_string "%d tuple(s) deleted from %s")
    with
    | Some cls -> Some (sloc, footprint stmt, cls)
    | None | (exception _) -> None)
  | _ -> None

(* ---- client connections ----------------------------------------------- *)

let drain_client c =
  let rec push () =
    if c.outbuf <> "" then
      match
        Unix.write_substring c.fd c.outbuf 0 (String.length c.outbuf)
      with
      | 0 -> ()
      | n ->
        c.outbuf <- String.sub c.outbuf n (String.length c.outbuf - n);
        push ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
  in
  (try push () with Unix.Unix_error _ -> c.closing <- true)

let reply t c tag payload =
  c.outbuf <- c.outbuf ^ Wire.frame tag payload;
  drain_client c;
  if String.length c.outbuf > t.max_backlog then c.closing <- true

(* ---- frame handling (synchronous path) -------------------------------- *)

let explain_estimate t payload =
  match Parser.parse_statement ("EXPLAIN ESTIMATE " ^ payload) with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | { Ast.stmt = Ast.Explain_estimate _ as stmt; sloc } -> (
    match exec_located t { Ast.stmt; sloc } with
    | Ok out -> Ok out
    | Error msg -> Error (strip_located msg))
  | _ -> Error "ESTIMATE expects a single query expression"

let handle_frame t c tag payload =
  match tag with
  | "EXEC" -> (
    match exec_script t payload with
    | Ok outputs -> reply t c "OK" (String.concat "\n" outputs)
    | Error msg ->
      Metrics.incr m_errors;
      reply t c "ERR" msg)
  | "LINT" ->
    reply t c "OK"
      (Hr_analysis.Diagnostic.render_json
         (Hr_analysis.Lint.analyze_script ~catalog:t.cat payload))
  | "ESTIMATE" -> (
    match explain_estimate t payload with
    | Ok out -> reply t c "OK" out
    | Error msg ->
      Metrics.incr m_errors;
      reply t c "ERR" msg)
  | "STATS" ->
    let snap = Metrics.snapshot () in
    reply t c "OK"
      (if String.lowercase_ascii (String.trim payload) = "json" then
         Metrics.render_json snap
       else Metrics.render_text snap)
  | "FSCK" ->
    Metrics.incr m_errors;
    reply t c "ERR"
      "the router stores no tuples; run hrdb fsck DIR --against the shard map \
       against each shard's directory offline"
  | _ ->
    Metrics.incr m_errors;
    reply t c "ERR" (Printf.sprintf "unknown request %S" tag)

(* ---- event loop ------------------------------------------------------- *)

type pending =
  | Fast of client * shard * Loc.t
  | Multi of {
      mc : client;
      msloc : Loc.t;
      mparts : (shard * string option) list;
          (* shards the statement actually reached, in send order, each
             with the script compensating it (inserts only) *)
      mok : string;  (* synthesized success reply *)
      mfail : string option;
          (* a send failed partway: the statement is already doomed and
             every shard that acks it must be compensated *)
    }
  | Sync of client * string * string
  | Fail of client * string

let accept_all t =
  let rec loop () =
    match Unix.accept t.socket with
    | fd, _ ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd;
      t.clients <-
        t.clients
        @ [ { fd; dec = Wire.Decoder.create (); outbuf = ""; closing = false } ];
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let read_input c buf =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> c.closing <- true
  | n -> Wire.Decoder.feed c.dec buf n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error _ -> c.closing <- true

let poll ?(timeout = 0.05) t =
  let rds = t.socket :: List.map (fun c -> c.fd) t.clients in
  let wrs =
    List.filter_map (fun c -> if c.outbuf <> "" then Some c.fd else None) t.clients
  in
  match Unix.select rds wrs [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    if List.mem t.socket readable then accept_all t;
    let buf = Bytes.create 65536 in
    List.iter
      (fun c -> if List.mem c.fd readable then read_input c buf)
      t.clients;
    (* Phase A: decode every complete frame, in arrival order. The
       leading run of fast-path mutations is dispatched immediately —
       their SHARD_EXEC frames are all in flight before any reply is
       awaited, which is where the K-shard write speedup comes from.
       Single-shard mutations always pipeline (per-shard FIFO preserves
       arrival order); a multi-shard mutation joins the run only when
       the commutativity oracle proves it commutes with {e every}
       statement already in it — then even its rollback (on partial
       failure, deferred past the run) commutes with everything applied
       after it, so compensation stays sound. Once any multi-shard
       member is in, later single-shard candidates must commute with
       the multi-shard members for the same reason. The first frame
       that cannot be admitted ends the run: later frames must not send
       to shards before it does, or the per-shard reply FIFOs would
       interleave. *)
    let pendings = ref [] and fast_ok = ref true in
    (* footprints of every admitted member / of the multi-shard ones *)
    let run_fps = ref [] and multi_fps = ref [] in
    let commutes_all fp fps =
      List.for_all
        (fun fp' ->
          match Hr_analysis.Effect.commutes_fp fp fp' with
          | Hr_analysis.Effect.Commute -> true
          | Hr_analysis.Effect.Conflict _ | Hr_analysis.Effect.Unknown _ -> false)
        fps
    in
    List.iter
      (fun c ->
        let rec drain () =
          match Wire.Decoder.next c.dec with
          | Error _ ->
            c.closing <- true
          | Ok None -> ()
          | Ok (Some (tag, payload)) ->
            Metrics.incr m_frames;
            let p =
              match
                if !fast_ok && tag = "EXEC" then classify_pipelined t payload
                else None
              with
              | Some (sloc, fp, Single (sid, script))
                when commutes_all fp !multi_fps -> (
                let sc = shard_of t sid in
                match shard_send t sc Wire.shard_exec script with
                | () ->
                  Metrics.incr m_mutations;
                  if !multi_fps <> [] then Hr_analysis.Effect.note_router_overlap ();
                  run_fps := fp :: !run_fps;
                  Fast (c, sc, sloc)
                | exception Shard_down (sc, msg) -> Fail (c, down_msg sc msg))
              | Some (sloc, fp, Scatter (parts, mok))
                when commutes_all fp !run_fps ->
                Metrics.incr m_mutations;
                Metrics.observe h_fanout (List.length parts);
                if !run_fps <> [] then Hr_analysis.Effect.note_router_overlap ();
                run_fps := fp :: !run_fps;
                multi_fps := fp :: !multi_fps;
                let sent = ref [] and mfail = ref None in
                (try
                   List.iter
                     (fun (sid, script, comp) ->
                       let sc = shard_of t sid in
                       shard_send t sc Wire.shard_exec script;
                       sent := (sc, comp) :: !sent)
                     parts
                 with Shard_down (sc, msg) -> mfail := Some (down_msg sc msg));
                Multi
                  { mc = c; msloc = sloc; mparts = List.rev !sent; mok;
                    mfail = !mfail }
              | Some _ | None ->
                fast_ok := false;
                Sync (c, tag, payload)
            in
            pendings := p :: !pendings;
            drain ()
        in
        if not c.closing then drain ())
      t.clients;
    (* Phase B: answer in order. Compensations of partially failed
       multi-shard members are deferred until every pipelined reply is
       consumed (running them earlier would desynchronize the per-shard
       FIFOs) but before any synchronous member executes (those were
       not oracle-checked, so they must not observe rolled-back rows).
       All pipelined members precede all synchronous ones in
       [pendings], so flushing at the first [Sync] covers both. *)
    let deferred = ref [] in
    let flush_compensations () =
      List.iter
        (fun (sc, script) ->
          try
            shard_send t sc Wire.shard_exec script;
            ignore (shard_recv t sc ~expected:Wire.shard_ack)
          with Reply_err _ | Shard_down _ -> ())
        (List.rev !deferred);
      deferred := []
    in
    List.iter
      (fun p ->
        match p with
        | Fast (c, sc, sloc) -> (
          match shard_recv t sc ~expected:Wire.shard_ack with
          | body -> reply t c "OK" body
          | exception Reply_err msg ->
            Metrics.incr m_errors;
            reply t c "ERR"
              (Format.asprintf "at %a: %s" Loc.pp_prose sloc (strip_located msg))
          | exception Shard_down (sc, msg) ->
            reply t c "ERR" (down_msg sc msg))
        | Multi { mc = c; msloc; mparts; mok; mfail } -> (
          let results =
            List.map
              (fun (sc, comp) ->
                match shard_recv t sc ~expected:Wire.shard_ack with
                | (_ : string) -> (sc, comp, Ok ())
                | exception Reply_err msg -> (sc, comp, Error (strip_located msg))
                | exception Shard_down (_, msg) -> (sc, comp, Error msg))
              mparts
          in
          let failure =
            match mfail with
            | Some _ as f -> f
            | None ->
              List.find_map
                (fun (_, _, r) ->
                  match r with Error m -> Some m | Ok () -> None)
                results
          in
          match failure with
          | None -> reply t c "OK" mok
          | Some msg ->
            Metrics.incr m_errors;
            List.iter
              (fun (sc, comp, r) ->
                match (r, comp) with
                | Ok (), Some script -> deferred := (sc, script) :: !deferred
                | _ -> ())
              results;
            reply t c "ERR" (Format.asprintf "at %a: %s" Loc.pp_prose msloc msg))
        | Sync (c, tag, payload) ->
          flush_compensations ();
          handle_frame t c tag payload
        | Fail (c, msg) ->
          Metrics.incr m_errors;
          reply t c "ERR" msg)
      (List.rev !pendings);
    flush_compensations ();
    List.iter (fun c -> if List.mem c.fd writable then drain_client c) t.clients;
    List.iter
      (fun c ->
        if c.closing then begin
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          t.clients <- List.filter (fun c' -> c' != c) t.clients
        end)
      t.clients

let serve_forever t =
  let rec loop () =
    poll ~timeout:0.2 t;
    loop ()
  in
  loop ()

(* ---- lifecycle -------------------------------------------------------- *)

let create ?(host = "127.0.0.1") ?(timeout = 5.0)
    ?(max_backlog = Wire.max_frame + (4 * 1024 * 1024)) ~port ~map () =
  (* EXPLAIN ESTIMATE / EXPLAIN EFFECTS statements evaluate through the
     local Eval path; force both registrations the same way the CLI
     does. *)
  Hr_analysis.Estimate.ensure_registered ();
  Hr_analysis.Effect.ensure_registered ();
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen socket 8;
  Unix.set_nonblock socket;
  let bound_port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let shards =
    List.map
      (fun (s : Shard_map.shard) ->
        {
          sid = s.Shard_map.id;
          shost = s.Shard_map.host;
          sport = s.Shard_map.port;
          conn = None;
          lsn = 0;
          last_attempt = min_int / 2;
          g_lsn = Metrics.gauge (Printf.sprintf "shard.%d.lsn" s.Shard_map.id);
        })
      map.Shard_map.shards
  in
  let t =
    {
      socket;
      bound_port;
      map;
      shards;
      timeout;
      max_backlog;
      cat = Catalog.create ();
      clients = [];
    }
  in
  (* Eager dial so the common case starts connected; failures are fine
     here — the lazy reconnect path owns retries. *)
  List.iter
    (fun sc -> try ignore (ensure_conn t sc) with Shard_down _ -> ())
    t.shards;
  Metrics.set g_dead (dead_count t);
  t

let port t = t.bound_port

let close t =
  (try Unix.close t.socket with Unix.Unix_error _ -> ());
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  t.clients <- [];
  List.iter
    (fun sc ->
      match sc.conn with
      | Some c ->
        Client.close c;
        sc.conn <- None
      | None -> ())
    t.shards

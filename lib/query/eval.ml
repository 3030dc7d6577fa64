(** HRQL statement evaluation against a catalog.

    Every statement produces a human-readable report string; errors
    (syntax, unknown names, integrity violations) are returned as
    [Error _] rather than raised, so a REPL can keep going. Inserts and
    deletes run inside a transaction and are rejected wholesale if the
    resulting relation would violate the ambiguity constraint, exactly as
    §3.1 of the paper requires. *)

module Hierarchy = Hr_hierarchy.Hierarchy
open Hierel

let buf_fmt f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* The hierarchy (registered in the catalog) that defines [name]. *)
let hierarchy_containing cat name =
  match List.filter (fun h -> Hierarchy.mem h name) (Catalog.hierarchies cat) with
  | [ h ] -> h
  | [] -> Types.model_error "no hierarchy defines %S" name
  | _ :: _ :: _ -> Types.model_error "%S is ambiguous across hierarchies" name

let resolve_values schema values =
  if List.length values <> Schema.arity schema then
    Types.model_error "expected %d values, got %d" (Schema.arity schema)
      (List.length values);
  let coords =
    List.mapi
      (fun i v ->
        let h = Schema.hierarchy schema i in
        let node = Hierarchy.find_exn h (Ast.value_name v) in
        (match v with
        | Ast.All _ when Hierarchy.is_instance h node ->
          Types.model_error "ALL %s: %s is an instance, not a class"
            (Ast.value_name v) (Ast.value_name v)
        | Ast.All _ | Ast.Atom _ -> ());
        node)
      values
  in
  Item.make schema (Array.of_list coords)

(* The one dispatch from plan nodes to the relational operators. An
   [observe] hook, when given, wraps every node: it receives the node
   and the thunk that evaluates it (children included), and must return
   that thunk's result — EXPLAIN ANALYZE measures each node this way. *)
let rec eval_raw ?observe cat e =
  let eval = eval_raw ?observe cat in
  (* left operand first, so observers see children in plan order *)
  let binary op a b =
    let ra = eval a in
    op ra (eval b)
  in
  let run () =
    match e.Ast.expr with
    | Ast.Rel name -> Catalog.relation cat name
    | Ast.Select (e, attr, v) -> Ops.select (eval e) ~attr ~value:(Ast.value_name v)
    | Ast.Project (e, attrs) -> Ops.project (eval e) attrs
    | Ast.Join (a, b) -> binary Ops.join a b
    | Ast.Union (a, b) -> binary Ops.union a b
    | Ast.Intersect (a, b) -> binary Ops.inter a b
    | Ast.Except (a, b) -> binary Ops.diff a b
    | Ast.Rename (e, old_name, new_name) -> Ops.rename (eval e) ~old_name ~new_name
    | Ast.Consolidated e -> Consolidate.consolidate (eval e)
    | Ast.Explicated (e, over) -> Explicate.explicate ?over (eval e)
  in
  match observe with None -> run () | Some f -> f e run

(* Statements evaluate optimized plans; the rewrites preserve the
   equivalent flat relation (see [Optimizer]). *)
let eval_expr cat expr = eval_raw cat (Optimizer.optimize expr)

(* ---- EXPLAIN ANALYZE --------------------------------------------------- *)

(* One evaluated plan node. Counter and time fields are inclusive of the
   node's subtree, like the "actual time" convention of SQL EXPLAIN
   ANALYZE: the root row shows the whole query's cost. *)
type analyzed = {
  a_plan : Ast.query_expr;
  a_rows : int;
  a_subs : int;  (* hierarchy.subsumption_checks delta *)
  a_reach : int;  (* graph.reach.queries delta *)
  a_verdicts : int;  (* core.binding.verdicts delta *)
  a_probes : int;  (* core.binding.index_probes delta *)
  a_time_ns : int;
  a_children : analyzed list;
}

let node_label e =
  match e.Ast.expr with
  | Ast.Rel name -> "scan " ^ name
  | Ast.Select (_, attr, v) -> Printf.sprintf "select[%s=%s]" attr (Ast.value_name v)
  | Ast.Project (_, attrs) -> Printf.sprintf "project[%s]" (String.concat "," attrs)
  | Ast.Join _ -> "join"
  | Ast.Union _ -> "union"
  | Ast.Intersect _ -> "intersect"
  | Ast.Except _ -> "except"
  | Ast.Rename (_, o, n) -> Printf.sprintf "rename[%s->%s]" o n
  | Ast.Consolidated _ -> "consolidated"
  | Ast.Explicated _ -> "explicated"

(* Evaluates [plan] with an observer that diffs the work counters and
   the clock around every node. [finished] holds the analyzed nodes
   completed at the current depth, newest first: a node saves its
   parent's list, collects its own children there, then joins the
   parent's list. Counters are forced on for the duration so the
   per-node deltas are real even if the process runs with the registry
   disabled. *)
let analyze cat plan =
  let counter = Hr_obs.Metrics.counter_value in
  let finished = ref [] in
  let observe e run =
    let t0 = Hr_obs.Metrics.now_ns () in
    let subs0 = counter "hierarchy.subsumption_checks" in
    let reach0 = counter "graph.reach.queries" in
    let verd0 = counter "core.binding.verdicts" in
    let probe0 = counter "core.binding.index_probes" in
    let siblings = !finished in
    finished := [];
    let rel = run () in
    let node =
      {
        a_plan = e;
        a_rows = Relation.cardinality rel;
        a_subs = counter "hierarchy.subsumption_checks" - subs0;
        a_reach = counter "graph.reach.queries" - reach0;
        a_verdicts = counter "core.binding.verdicts" - verd0;
        a_probes = counter "core.binding.index_probes" - probe0;
        a_time_ns = Hr_obs.Metrics.now_ns () - t0;
        a_children = List.rev !finished;
      }
    in
    finished := node :: siblings;
    rel
  in
  Hr_obs.Metrics.with_enabled true (fun () ->
      let rel = eval_raw ~observe cat plan in
      (rel, List.hd !finished))

let render_analyzed root =
  let buf = Buffer.create 512 in
  let rec walk depth a =
    Buffer.add_string buf
      (Printf.sprintf
         "%s%s  rows=%d subsumption=%d reach=%d verdicts=%d probes=%d time=%.3fms\n"
         (String.make (2 * depth) ' ')
         (node_label a.a_plan) a.a_rows a.a_subs a.a_reach a.a_verdicts a.a_probes
         (float_of_int a.a_time_ns /. 1e6));
    List.iter (walk (depth + 1)) a.a_children
  in
  walk 0 root;
  Buffer.contents buf

(* Feedback to the static estimator: measured row counts flow back into
   the catalog's observed-statistics store, keyed the way the estimator
   looks them up — the whole stored extension of a scanned relation, or
   a selection directly over one. *)
let rec record_actuals cat (a : analyzed) =
  (match a.a_plan.Ast.expr with
  | Ast.Rel name -> Catalog.record_stat cat ~rel:name ~label:"*" a.a_rows
  | Ast.Select ({ Ast.expr = Ast.Rel name; _ }, attr, v) ->
    Catalog.record_stat cat ~rel:name
      ~label:(Printf.sprintf "%s=%s" attr (Ast.value_name v))
      a.a_rows
  | _ -> ());
  List.iter (record_actuals cat) a.a_children

let explain_analyze cat expr =
  let plan = Optimizer.optimize expr in
  let rel, root = analyze cat plan in
  record_actuals cat root;
  Printf.sprintf "plan: %s\n%sresult: %d tuple(s)" (Optimizer.describe plan)
    (render_analyzed root) (Relation.cardinality rel)

(* ---- EXPLAIN ESTIMATE -------------------------------------------------- *)

(* The cost estimator lives a layer up (Hr_analysis.Estimate, which also
   serves `hrdb lint`), so it registers itself here at module-init time
   rather than being called directly — the dependency points the other
   way. Executables that evaluate HRQL all link the analysis library. *)
let estimator :
    (Catalog.t -> Ast.query_expr -> (string, string) result) ref =
  ref (fun _ _ ->
      Error "EXPLAIN ESTIMATE: no estimator registered (link hr_analysis)")

let set_estimator f = estimator := f

(* Same late-binding trick for EXPLAIN EFFECTS: the footprint analysis
   (Hr_analysis.Effect) registers its renderer here at link time. *)
let effects_renderer :
    (Catalog.t -> Ast.statement -> (string, string) result) ref =
  ref (fun _ _ ->
      Error "EXPLAIN EFFECTS: no effect analysis registered (link hr_analysis)")

let set_effects_renderer f = effects_renderer := f

let render_relation rel =
  buf_fmt (fun ppf ->
      Format.fprintf ppf "%s (%d tuple%s)@.%a" (Relation.name rel)
        (Relation.cardinality rel)
        (if Relation.cardinality rel = 1 then "" else "s")
        Relation.pp rel)

let render_tuples schema tuples =
  let rows =
    List.map
      (fun (t : Relation.tuple) ->
        Format.asprintf "%a" Types.pp_sign t.Relation.sign
        :: List.init (Schema.arity schema) (fun i ->
               let h = Schema.hierarchy schema i in
               let v = Item.coord t.Relation.item i in
               if Hierarchy.is_class h v then "V " ^ Hierarchy.node_label h v
               else Hierarchy.node_label h v))
      tuples
  in
  Hr_util.Texttable.render_rows ~headers:("" :: Schema.names schema) rows

let render_conflicts schema = function
  | [] -> "consistent: the ambiguity constraint holds"
  | conflicts ->
    buf_fmt (fun ppf ->
        Format.fprintf ppf "%d unresolved conflict(s):@." (List.length conflicts);
        List.iter
          (fun c -> Format.fprintf ppf "%a@." (Integrity.pp_conflict schema) c)
          conflicts)

let violation_report (violations : Txn.violation list) =
  buf_fmt (fun ppf ->
      Format.fprintf ppf "rejected: update would violate the ambiguity constraint@.";
      List.iter
        (fun (v : Txn.violation) ->
          Format.fprintf ppf "relation %s: %d conflict(s)@." v.Txn.relation_name
            (List.length v.Txn.conflicts))
        violations)

let exec cat stmt =
  try
    Ok
      (match stmt with
      | Ast.Create_domain name ->
        Catalog.define_hierarchy cat (Hierarchy.create name);
        Printf.sprintf "domain %s created" name
      (* Hierarchy DDL goes through the catalog's copy-on-write path:
         in-place when the hierarchy is unfrozen (REPL, replay, tests),
         copy-swap-rebind when a published snapshot shares it. *)
      | Ast.Create_class { name; parents } ->
        let h = hierarchy_containing cat (List.hd parents) in
        Catalog.update_hierarchy cat h (fun h ->
            ignore (Hierarchy.add_class h ~parents name));
        Printf.sprintf "class %s created" name
      | Ast.Create_instance { name; parents } ->
        let h = hierarchy_containing cat (List.hd parents) in
        Catalog.update_hierarchy cat h (fun h ->
            ignore (Hierarchy.add_instance h ~parents name));
        Printf.sprintf "instance %s created" name
      | Ast.Create_isa { sub; super } ->
        let h = hierarchy_containing cat super in
        Catalog.update_hierarchy cat h (fun h -> Hierarchy.add_isa h ~sub ~super);
        Printf.sprintf "isa edge %s -> %s created" super sub
      | Ast.Create_preference { weaker; stronger } ->
        let h = hierarchy_containing cat weaker in
        Catalog.update_hierarchy cat h (fun h ->
            Hierarchy.add_preference h ~weaker ~stronger);
        Printf.sprintf "preference %s over %s created" stronger weaker
      | Ast.Create_relation { name; attrs } ->
        let schema =
          Schema.make (List.map (fun (a, d) -> (a, Catalog.hierarchy cat d)) attrs)
        in
        Catalog.define_relation cat (Relation.empty ~name schema);
        Printf.sprintf "relation %s created" name
      | Ast.Drop_relation name ->
        ignore (Catalog.relation cat name);
        Catalog.drop_relation cat name;
        Printf.sprintf "relation %s dropped" name
      | Ast.Insert { rel; rows } -> (
        let txn = Txn.begin_ cat in
        let schema = Relation.schema (Catalog.relation cat rel) in
        List.iter
          (fun { Ast.sign; values } ->
            Txn.insert_item txn ~rel sign (resolve_values schema values))
          rows;
        match Txn.commit txn with
        | Ok () -> Printf.sprintf "%d tuple(s) inserted into %s" (List.length rows) rel
        | Error violations -> failwith (violation_report violations))
      | Ast.Delete { rel; rows } -> (
        let txn = Txn.begin_ cat in
        let schema = Relation.schema (Catalog.relation cat rel) in
        List.iter
          (fun values -> Txn.delete_item txn ~rel (resolve_values schema values))
          rows;
        match Txn.commit txn with
        | Ok () -> Printf.sprintf "%d tuple(s) deleted from %s" (List.length rows) rel
        | Error violations -> failwith (violation_report violations))
      | Ast.Select_query { expr; justified } -> (
        match expr.Ast.expr, justified with
        | Ast.Select ({ Ast.expr = Ast.Rel name; _ }, attr, v), true ->
          let rel = Catalog.relation cat name in
          let result, applicable =
            Ops.select_justified rel ~attr ~value:(Ast.value_name v)
          in
          render_relation result ^ "justification (applicable tuples):\n"
          ^ render_tuples (Relation.schema rel) applicable
        | _, true ->
          render_relation (eval_expr cat expr)
          ^ "note: WITH JUSTIFICATION applies to a simple SELECT on a stored relation\n"
        | _, false -> render_relation (eval_expr cat expr))
      | Ast.Let_binding { name; expr } ->
        let rel = Relation.with_name (eval_expr cat expr) name in
        (match Catalog.find_relation cat name with
        | Some _ -> Catalog.replace_relation cat rel
        | None -> Catalog.define_relation cat rel);
        Printf.sprintf "%s defined (%d tuples)" name (Relation.cardinality rel)
      | Ast.Ask { rel; values; semantics } ->
        let r = Catalog.relation cat rel in
        let schema = Relation.schema r in
        let item = resolve_values schema values in
        buf_fmt (fun ppf ->
            Binding.pp_verdict schema ppf (Binding.verdict ?semantics r item))
      | Ast.Consolidate name ->
        let rel = Catalog.relation cat name in
        let consolidated, removed = Consolidate.consolidate_verbose rel in
        Catalog.replace_relation cat consolidated;
        Printf.sprintf "%s consolidated: %d redundant tuple(s) removed, %d remain" name
          (List.length removed)
          (Relation.cardinality consolidated)
      | Ast.Explicate { rel; over } ->
        let r = Catalog.relation cat rel in
        let explicated = Explicate.explicate ?over r in
        Catalog.replace_relation cat explicated;
        Printf.sprintf "%s explicated: %d tuple(s)" rel (Relation.cardinality explicated)
      | Ast.Check name ->
        let rel = Catalog.relation cat name in
        render_conflicts (Relation.schema rel) (Integrity.check rel)
      | Ast.Show_hierarchy name ->
        let h = Catalog.hierarchy cat name in
        buf_fmt (fun ppf -> Hierarchy.pp ppf h)
      | Ast.Show_relations ->
        buf_fmt (fun ppf ->
            List.iter
              (fun r ->
                Format.fprintf ppf "%s %a (%d tuples)@." (Relation.name r) Schema.pp
                  (Relation.schema r) (Relation.cardinality r))
              (List.sort
                 (fun a b -> String.compare (Relation.name a) (Relation.name b))
                 (Catalog.relations cat)))
      | Ast.Show_hierarchies ->
        buf_fmt (fun ppf ->
            List.iter
              (fun h ->
                Format.fprintf ppf "%a (%d nodes)@." Hr_util.Symbol.pp
                  (Hierarchy.domain h) (Hierarchy.node_count h))
              (List.sort
                 (fun a b ->
                   Hr_util.Symbol.compare (Hierarchy.domain a) (Hierarchy.domain b))
                 (Catalog.hierarchies cat)))
      | Ast.Explain_plan expr ->
        Printf.sprintf "naive:     %s\noptimized: %s"
          (Optimizer.describe expr)
          (Optimizer.describe (Optimizer.optimize expr))
      | Ast.Explain_analyze expr -> explain_analyze cat expr
      | Ast.Explain_estimate expr -> (
        match !estimator cat expr with Ok out -> out | Error msg -> failwith msg)
      | Ast.Explain_effects stmt -> (
        match !effects_renderer cat stmt with
        | Ok out -> out
        | Error msg -> failwith msg)
      | Ast.Stats { json } ->
        let snap = Hr_obs.Metrics.snapshot () in
        if json then Hr_obs.Metrics.render_json snap
        else Hr_obs.Metrics.render_text snap
      | Ast.Stats_reset ->
        Hr_obs.Metrics.reset ();
        "metrics registry reset"
      | Ast.Count { expr; by } -> (
        let rel = eval_expr cat expr in
        match by with
        | None -> Printf.sprintf "count: %d" (Aggregate.count rel)
        | Some attr ->
          let rows =
            List.map (fun (label, n) -> [ label; string_of_int n ])
              (Aggregate.histogram rel ~attr)
          in
          Hr_util.Texttable.render_rows ~headers:[ attr; "count" ] rows)
      | Ast.Diff { prev; next } ->
        let prev = eval_expr cat prev and next = eval_expr cat next in
        let d = Rel_diff.diff ~prev ~next in
        buf_fmt (fun ppf -> Rel_diff.pp (Relation.schema prev) ppf d)
      | Ast.Explain { rel; values } ->
        let r = Catalog.relation cat rel in
        let schema = Relation.schema r in
        let item = resolve_values schema values in
        let verdict = Binding.verdict r item in
        let applicable = Binding.justification r item in
        buf_fmt (fun ppf ->
            Format.fprintf ppf "verdict: %a@.applicable tuples:@.%s"
              (Binding.pp_verdict schema) verdict
              (render_tuples schema applicable)))
  with
  | Types.Model_error msg -> Error msg
  | Hierarchy.Error msg -> Error msg
  | Failure msg -> Error msg

let run_script cat input =
  match Parser.parse input with
  | exception Parser.Parse_error { msg; _ } -> Error ("parse error: " ^ msg)
  | exception Lexer.Lex_error { msg; _ } -> Error ("lex error: " ^ msg)
  | stmts ->
    let rec loop acc = function
      | [] -> Ok (List.rev acc)
      | { Ast.stmt; sloc } :: rest -> (
        match exec cat stmt with
        | Ok out -> loop (out :: acc) rest
        | Error msg ->
          Error (Format.asprintf "at %a: %s" Loc.pp_prose sloc msg))
    in
    loop [] stmts

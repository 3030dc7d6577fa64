(* Properties and golden output for the observability layer (lib/obs):

   - counters are monotonic whatever update sequence is applied;
   - histograms conserve the observation count across their buckets;
   - trace spans are well-nested;
   - the evaluator's per-node observer sees every plan node once;
   - a disabled sink is semantically invisible: the same script yields
     byte-identical output, and no counter moves;
   - EXPLAIN ANALYZE's plan tree is pinned by a golden file (timings
     normalized, counters exact — the engine is deterministic). *)

module Metrics = Hr_obs.Metrics
module Trace = Hr_obs.Trace
module Eval = Hr_query.Eval
open Hierel

(* ---- counters --------------------------------------------------------- *)

(* A random update program: 0 means [incr], anything else is an [add]
   delta (negative and zero deltas must be ignored). *)
let updates_gen = QCheck2.Gen.(list_size (int_range 0 60) (int_range (-10) 20))

let apply_update c = function 0 -> Metrics.incr c | d -> Metrics.add c d

let prop_counters_monotonic =
  QCheck2.Test.make ~name:"counters never decrease" ~count:200 updates_gen (fun updates ->
      Metrics.with_enabled true (fun () ->
          let reg = Metrics.create () in
          let c = Metrics.counter ~registry:reg "test.c" in
          List.for_all
            (fun u ->
              let before = Metrics.value c in
              apply_update c u;
              Metrics.value c >= before)
            updates))

let prop_counter_value_exact =
  QCheck2.Test.make ~name:"counter value = sum of positive deltas" ~count:200 updates_gen
    (fun updates ->
      Metrics.with_enabled true (fun () ->
          let reg = Metrics.create () in
          let c = Metrics.counter ~registry:reg "test.c" in
          List.iter (apply_update c) updates;
          let expected =
            List.fold_left
              (fun acc -> function 0 -> acc + 1 | d when d > 0 -> acc + d | _ -> acc)
              0 updates
          in
          Metrics.value c = expected
          (* registration is idempotent: the name reads the same count *)
          && Metrics.counter_value ~registry:reg "test.c" = expected
          && Metrics.counter_value ~registry:reg "test.never_registered" = 0))

(* ---- histograms ------------------------------------------------------- *)

let obs_gen = QCheck2.Gen.(list_size (int_range 0 80) (int_range (-100) 2_000_000))

let prop_histogram_conserves_count =
  QCheck2.Test.make ~name:"histogram buckets conserve the observation count" ~count:200
    obs_gen (fun ns_list ->
      Metrics.with_enabled true (fun () ->
          let reg = Metrics.create () in
          let h = Metrics.histogram ~registry:reg "test.h" in
          List.iter (Metrics.observe h) ns_list;
          let snap = Metrics.snapshot ~registry:reg () in
          match snap.Metrics.histograms with
          | [ st ] ->
            let bucket_total =
              List.fold_left (fun acc (_, n) -> acc + n) 0 st.Metrics.nonzero_buckets
            in
            st.Metrics.count = List.length ns_list
            && bucket_total = st.Metrics.count
            && Metrics.observations h = st.Metrics.count
            && (st.Metrics.count = 0 || st.Metrics.min <= st.Metrics.max)
            && st.Metrics.sum
               = List.fold_left (fun acc ns -> acc + max 0 ns) 0 ns_list
          | _ -> false))

let prop_bucket_of_sane =
  QCheck2.Test.make ~name:"bucket_of is a magnitude index" ~count:200
    QCheck2.Gen.(int_range 0 61)
    (fun e ->
      let b = Metrics.bucket_of (1 lsl e) in
      b = max 0 e
      (* and every value lands in a real bucket *)
      && Metrics.bucket_of max_int < 64
      && Metrics.bucket_of 0 = 0)

(* ---- trace spans ------------------------------------------------------ *)

(* Build a random span tree from a shape seed; every root must come back
   well-nested and tracing must restore its previous state. *)
let rec build_spans depth g =
  let n = Hr_util.Prng.int g 3 in
  for i = 0 to n - 1 do
    Trace.with_span
      (Printf.sprintf "span.d%d.%d" depth i)
      (fun () ->
        Trace.note "i" i;
        if depth < 3 then build_spans (depth + 1) g)
  done

let prop_spans_well_nested =
  QCheck2.Test.make ~name:"collected spans are well-nested" ~count:100
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let was_enabled = Trace.enabled () in
      let (), roots =
        Trace.collect (fun () ->
            let g = Hr_util.Prng.create (Int64.of_int seed) in
            Trace.with_span "root" (fun () -> build_spans 0 g))
      in
      Trace.enabled () = was_enabled
      && List.length roots = 1
      && List.for_all Trace.well_nested roots)

(* The evaluator's per-node observer (what EXPLAIN ANALYZE hooks into)
   sees every plan node exactly once and cannot change the result; the
   evaluator itself records no trace spans. *)
let eval_observer_sees_every_node () =
  let cat = Catalog.create () in
  let script =
    {|CREATE DOMAIN obs_being;
      CREATE CLASS obs_bird UNDER obs_being;
      CREATE INSTANCE obs_tweety OF obs_bird;
      CREATE RELATION obs_flies (creature: obs_being);
      CREATE RELATION obs_sings (creature: obs_being);
      INSERT INTO obs_flies VALUES (+ ALL obs_bird);
      INSERT INTO obs_sings VALUES (+ obs_tweety);|}
  in
  (match Eval.run_script cat script with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e);
  let plan =
    match
      (Hr_query.Parser.parse_statement
         "EXPLAIN PLAN SELECT (obs_flies UNION obs_sings) WHERE creature = obs_tweety;")
        .Hr_query.Ast.stmt
    with
    | Hr_query.Ast.Explain_plan e -> e
    | _ -> Alcotest.fail "not an expression"
  in
  let rec nodes (e : Hr_query.Ast.query_expr) =
    1
    +
    match e.Hr_query.Ast.expr with
    | Hr_query.Ast.Rel _ -> 0
    | Select (e, _, _) | Project (e, _) | Rename (e, _, _) | Consolidated e | Explicated (e, _)
      ->
      nodes e
    | Join (a, b) | Union (a, b) | Intersect (a, b) | Except (a, b) -> nodes a + nodes b
  in
  let seen = ref [] in
  let observe e run =
    let r = run () in
    seen := e :: !seen;
    r
  in
  let observed, roots = Trace.collect (fun () -> Eval.eval_raw ~observe cat plan) in
  Alcotest.(check int) "every node observed once" (nodes plan) (List.length !seen);
  Alcotest.(check bool) "root finishes last" true (List.hd !seen == plan);
  Alcotest.(check bool) "same result unobserved" true
    (Relation.equal observed (Eval.eval_raw cat plan));
  Alcotest.(check int) "no evaluator spans" 0 (List.length roots)

(* ---- a disabled sink changes nothing ---------------------------------- *)

let quiet_script =
  {|CREATE DOMAIN quiet_being;
    CREATE CLASS quiet_bird UNDER quiet_being;
    CREATE CLASS quiet_penguin UNDER quiet_bird;
    CREATE INSTANCE quiet_tweety OF quiet_bird;
    CREATE INSTANCE quiet_opus OF quiet_penguin;
    CREATE RELATION quiet_flies (creature: quiet_being);
    INSERT INTO quiet_flies VALUES (+ ALL quiet_bird), (- ALL quiet_penguin);
    SELECT * FROM quiet_flies;
    SELECT * FROM quiet_flies WHERE creature = quiet_tweety;
    ASK quiet_flies (quiet_opus);
    COUNT quiet_flies;
    CHECK quiet_flies;|}

let run_quiet () =
  (* Same names in a fresh catalog each time: outputs must be identical. *)
  match Eval.run_script (Catalog.create ()) quiet_script with
  | Ok outputs -> String.concat "\n" outputs
  | Error e -> Alcotest.failf "script failed: %s" e

let disabled_sink_identical () =
  let enabled_out = Metrics.with_enabled true run_quiet in
  let verdicts_before = Metrics.counter_value "core.binding.verdicts" in
  let subs_before = Metrics.counter_value "hierarchy.subsumption_checks" in
  let disabled_out = Metrics.with_enabled false run_quiet in
  Alcotest.(check string) "byte-identical output" enabled_out disabled_out;
  Alcotest.(check int) "no verdict counted while disabled" verdicts_before
    (Metrics.counter_value "core.binding.verdicts");
  Alcotest.(check int) "no subsumption counted while disabled" subs_before
    (Metrics.counter_value "hierarchy.subsumption_checks")

(* ---- EXPLAIN ANALYZE golden ------------------------------------------- *)

(* Timings vary run to run; everything else (plan shape, row counts,
   counter deltas) is deterministic. Normalize [time=...ms] only. *)
let normalize_times s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  let starts_with at prefix =
    at + String.length prefix <= n && String.sub s at (String.length prefix) = prefix
  in
  while !i < n do
    if starts_with !i "time=" then begin
      Buffer.add_string buf "time=_ms";
      i := !i + 5;
      while !i < n && not (starts_with !i "ms") do
        Stdlib.incr i
      done;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      Stdlib.incr i
    end
  done;
  Buffer.contents buf

let golden_setup =
  {|CREATE DOMAIN gold_being;
    CREATE CLASS gold_bird UNDER gold_being;
    CREATE CLASS gold_penguin UNDER gold_bird;
    CREATE INSTANCE gold_tweety OF gold_bird;
    CREATE INSTANCE gold_opus OF gold_penguin;
    CREATE INSTANCE gold_rex OF gold_being;
    CREATE RELATION gold_flies (creature: gold_being);
    CREATE RELATION gold_swims (creature: gold_being);
    INSERT INTO gold_flies VALUES (+ ALL gold_bird), (- ALL gold_penguin);
    INSERT INTO gold_swims VALUES (+ ALL gold_penguin), (+ gold_rex);|}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let explain_analyze_golden () =
  let cat = Catalog.create () in
  (match Eval.run_script cat golden_setup with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "setup failed: %s" e);
  let got =
    match
      Eval.run_script cat
        "EXPLAIN ANALYZE SELECT (gold_flies UNION gold_swims) WHERE creature = gold_bird;"
    with
    | Ok [ out ] -> normalize_times out ^ "\n"
    | Ok outs -> Alcotest.failf "expected one output, got %d" (List.length outs)
    | Error e -> Alcotest.failf "EXPLAIN ANALYZE failed: %s" e
  in
  let expected = read_file "fixtures/explain_analyze.expected" in
  Alcotest.(check string) "golden EXPLAIN ANALYZE" expected got

(* ---- STATS statements ------------------------------------------------- *)

let stats_statement () =
  let cat = Catalog.create () in
  (match Eval.run_script cat "STATS;" with
  | Ok [ out ] ->
    Alcotest.(check bool) "text STATS mentions counters" true
      (out = "no metrics recorded\n"
      || String.length out > 9 && String.sub out 0 9 = "counters:")
  | Ok _ | Error _ -> Alcotest.fail "STATS; did not return one output");
  match Eval.run_script cat "STATS JSON;" with
  | Ok [ out ] ->
    Alcotest.(check bool) "JSON STATS has schema_version" true
      (let needle = "\"schema_version\":1" in
       let rec find i =
         i + String.length needle <= String.length out
         && (String.sub out i (String.length needle) = needle || find (i + 1))
       in
       find 0)
  | Ok _ | Error _ -> Alcotest.fail "STATS JSON; did not return one output"

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_counters_monotonic;
      prop_counter_value_exact;
      prop_histogram_conserves_count;
      prop_bucket_of_sane;
      prop_spans_well_nested;
    ]
  @ [
      Alcotest.test_case "evaluator observer sees every node" `Quick
        eval_observer_sees_every_node;
      Alcotest.test_case "disabled sink is byte-identical" `Quick disabled_sink_identical;
      Alcotest.test_case "EXPLAIN ANALYZE golden output" `Quick explain_analyze_golden;
      Alcotest.test_case "STATS text and JSON" `Quick stats_statement;
    ]

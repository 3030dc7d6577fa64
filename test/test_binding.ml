(* Truth-of-item tests: the paper's Figure 1 (flying creatures), Figure 4
   (Clyde the royal elephant) and the Appendix preemption semantics.

   Also here ([index_suite]): a differential harness for the one binding
   index, {!Relation.candidates} behind {!Binding.verdict}, against a
   reference that scans the whole relation body. *)

module Hierarchy = Hr_hierarchy.Hierarchy
module Workload = Hr_workload.Workload
module Prng = Hr_util.Prng
open Hierel

(* Deterministic replay: seed printed up front, pinned with
   [HRDB_TEST_SEED=n dune runtest]. *)
let seed =
  match Sys.getenv_opt "HRDB_TEST_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "HRDB_TEST_SEED must be an integer, got %S" s))
  | None -> Int64.to_int (Int64.rem (Int64.of_float (Unix.gettimeofday () *. 1e6)) 0xFFFFFFL)

let () =
  Printf.eprintf "test_binding: differential harness seed %d (replay with HRDB_TEST_SEED=%d)\n%!"
    seed seed

let fig1 () =
  let h = Fixtures.animals () in
  (h, Fixtures.flies h)

let test_fig1_verdicts () =
  let _, flies = fig1 () in
  Fixtures.check_holds flies [ "tweety" ] true "tweety flies (canary < bird)";
  Fixtures.check_holds flies [ "paul" ] false "paul does not fly (galapagos penguin)";
  Fixtures.check_holds flies [ "peter" ] true "peter flies (exact tuple overrides)";
  Fixtures.check_holds flies [ "pamela" ] true "pamela flies (amazing flying penguin)";
  Fixtures.check_holds flies [ "patricia" ] true
    "patricia flies (galapagos has no assertion, afp binds)"

let test_fig1_class_items () =
  let _, flies = fig1 () in
  Fixtures.check_holds flies [ "canary" ] true "all canaries fly";
  Fixtures.check_holds flies [ "penguin" ] false "penguins do not fly";
  Fixtures.check_holds flies [ "amazing_flying_penguin" ] true "afp fly";
  Fixtures.check_holds flies [ "galapagos_penguin" ] false
    "galapagos penguins inherit penguin exception"

let test_closed_world () =
  let h = Fixtures.animals () in
  let schema = Fixtures.flies_schema h in
  let empty = Relation.empty ~name:"flies" schema in
  let tweety = Item.of_names schema [ "tweety" ] in
  (match Binding.verdict empty tweety with
  | Binding.Unasserted -> ()
  | _ -> Alcotest.fail "expected Unasserted");
  Alcotest.(check bool) "closed world default" false (Binding.holds empty tweety)

let test_exception_chain_depth () =
  (* +bird, -penguin, +afp, and a further exception below afp *)
  let h = Fixtures.animals () in
  ignore (Hierarchy.add_class h ~parents:[ "amazing_flying_penguin" ] "tired_afp");
  ignore (Hierarchy.add_instance h ~parents:[ "tired_afp" ] "tina");
  let schema = Fixtures.flies_schema h in
  let flies =
    Relation.add_named (Fixtures.flies h) Types.Neg [ "tired_afp" ]
  in
  ignore schema;
  Fixtures.check_holds flies [ "tina" ] false "4-deep exception chain";
  Fixtures.check_holds flies [ "pamela" ] true "siblings unaffected"

let test_relevant_and_justification () =
  let h, flies = fig1 () in
  let schema = Relation.schema flies in
  let patricia = Item.of_names schema [ "patricia" ] in
  let relevant = Binding.relevant flies patricia in
  Alcotest.(check int) "three applicable tuples" 3 (List.length relevant);
  let peter = Item.of_names schema [ "peter" ] in
  let just = Binding.justification flies peter in
  (* exact tuple + bird + penguin *)
  Alcotest.(check int) "peter justification" 3 (List.length just);
  ignore h

let test_binding_graph_shape () =
  let _, flies = fig1 () in
  let schema = Relation.schema flies in
  let patricia = Item.of_names schema [ "patricia" ] in
  let g = Binding.binding_graph flies patricia in
  Alcotest.(check int) "three tuple nodes" 3 (Array.length g.Binding.nodes);
  (* only the afp tuple points at patricia *)
  let into_item = List.filter (fun (_, j) -> j = g.Binding.item_node) g.Binding.edges in
  Alcotest.(check int) "single immediate predecessor" 1 (List.length into_item)

(* -- Figure 4: Clyde and Appu ---------------------------------------- *)

let fig4 () =
  let he = Fixtures.elephants () in
  let hc = Fixtures.colors () in
  (he, hc, Fixtures.animal_color he hc)

let test_fig4_verdicts () =
  let _, _, color = fig4 () in
  Fixtures.check_holds color [ "clyde"; "dappled" ] true "clyde is dappled";
  Fixtures.check_holds color [ "clyde"; "white" ] false "explicit cancellation";
  Fixtures.check_holds color [ "clyde"; "grey" ] false "royal exception";
  Fixtures.check_holds color [ "appu"; "white" ] true "appu white (royal binds)";
  Fixtures.check_holds color [ "appu"; "grey" ] false
    "appu not grey: royal binds closer than elephant; indian is irrelevant";
  Fixtures.check_holds color [ "african_elephant"; "grey" ] true "africans grey"

let test_fig4_conflict_when_indian_grey_asserted () =
  (* If indian elephants were asserted grey, appu (royal+indian) would see
     two incomparable strongest binders of opposite sign. *)
  let he, hc, color = fig4 () in
  let color = Relation.add_named color Types.Pos [ "indian_elephant"; "grey" ] in
  let appu_grey = Item.of_names (Relation.schema color) [ "appu"; "grey" ] in
  Alcotest.(check bool) "conflict at appu/grey" true
    (Fixtures.is_conflict (Binding.verdict color appu_grey));
  ignore he;
  ignore hc

(* -- Appendix: preemption semantics ----------------------------------- *)

let test_on_path_patricia () =
  (* On-path preemption: patricia being a galapagos penguin gives the
     penguin tuple a path to patricia avoiding afp, so both +afp and
     -penguin bind: a conflict, exactly as the appendix describes. *)
  let _, flies = fig1 () in
  let schema = Relation.schema flies in
  let patricia = Item.of_names schema [ "patricia" ] in
  Alcotest.(check bool) "off-path: flies" true
    (Binding.holds ~semantics:Types.Off_path flies patricia);
  Alcotest.(check bool) "on-path: conflict" true
    (Fixtures.is_conflict (Binding.verdict ~semantics:Types.On_path flies patricia))

let test_on_path_pamela_no_conflict () =
  (* Pamela is only an afp: every path from penguin passes through afp, so
     the penguin tuple is preempted even on-path. *)
  let _, flies = fig1 () in
  let schema = Relation.schema flies in
  let pamela = Item.of_names schema [ "pamela" ] in
  Alcotest.(check bool) "on-path: pamela flies" true
    (Binding.holds ~semantics:Types.On_path flies pamela)

let test_no_preemption_conflicts_everywhere () =
  let _, flies = fig1 () in
  let schema = Relation.schema flies in
  let pamela = Item.of_names schema [ "pamela" ] in
  Alcotest.(check bool) "no-preemption: conflict at pamela" true
    (Fixtures.is_conflict (Binding.verdict ~semantics:Types.No_preemption flies pamela));
  let tweety = Item.of_names schema [ "tweety" ] in
  Alcotest.(check bool) "no-preemption: tweety still fine" true
    (Binding.holds ~semantics:Types.No_preemption flies tweety);
  let peter = Item.of_names schema [ "peter" ] in
  Alcotest.(check bool) "exact tuple still wins" true
    (Binding.holds ~semantics:Types.No_preemption flies peter)

let test_on_path_multi_attribute () =
  (* Two attributes: the product item hierarchy has multiple paths from a
     general tuple to the query item; on-path preemption must explore them
     coordinatewise. Setup mirrors Fig 1 in the role coordinate:
     role: staff > eng > senior_eng, with kim under senior_eng AND under
     contractor (a second parent of staff); area: one instance.
     Tuples: +(staff, a), -(eng, a), +(senior_eng, a).
     Off-path at (kim, a): senior_eng binds -> +.
     On-path: the -(eng, a) tuple reaches (kim, a) through the contractor
     side? No — contractor is not under eng — so every path from eng
     passes through senior_eng: still +. But a path from +(staff, a) via
     contractor avoids both others, so staff also binds on-path ->
     conflict between +staff and -eng?? staff is +, senior_eng is +, eng
     is -: binders on-path = {staff+, senior_eng+} minus preempted...
     eng's only route runs through senior_eng, so eng IS preempted:
     verdict +. *)
  let hr = Hierarchy.create "role" in
  ignore (Hierarchy.add_class hr "staff");
  ignore (Hierarchy.add_class hr ~parents:[ "staff" ] "eng");
  ignore (Hierarchy.add_class hr ~parents:[ "eng" ] "senior_eng");
  ignore (Hierarchy.add_class hr ~parents:[ "staff" ] "contractor");
  ignore (Hierarchy.add_instance hr ~parents:[ "senior_eng"; "contractor" ] "kim");
  let ha = Hierarchy.create "area" in
  ignore (Hierarchy.add_instance ha "a");
  let schema = Schema.make [ ("role", hr); ("area", ha) ] in
  let rel =
    Relation.of_tuples ~name:"r" schema
      [
        (Types.Pos, [ "staff"; "a" ]);
        (Types.Neg, [ "eng"; "a" ]);
        (Types.Pos, [ "senior_eng"; "a" ]);
      ]
  in
  let kim = Item.of_names schema [ "kim"; "a" ] in
  Alcotest.(check bool) "off-path: +" true (Binding.holds ~semantics:Types.Off_path rel kim);
  (* on-path: -(eng, a) is preempted (every path runs through senior_eng),
     +(staff, a) survives via the contractor path, +(senior_eng, a)
     survives — all surviving binders positive *)
  Alcotest.(check bool) "on-path: + (eng preempted, staff survives)" true
    (Binding.holds ~semantics:Types.On_path rel kim);
  (* flip the chain: now the negation sits at senior_eng *)
  let rel2 =
    Relation.of_tuples ~name:"r2" schema
      [
        (Types.Neg, [ "staff"; "a" ]);
        (Types.Pos, [ "eng"; "a" ]);
        (Types.Neg, [ "senior_eng"; "a" ]);
      ]
  in
  (* on-path: -staff survives via contractor, -senior_eng survives, +eng
     preempted -> uniformly negative *)
  Alcotest.(check bool) "on-path: - in the flipped chain" false
    (Binding.holds ~semantics:Types.On_path rel2 kim)

let test_preference_edge_resolves () =
  (* Appendix: an arbitrary preference edge resolves a conflict between
     incomparable classes. *)
  let he, hc, color = fig4 () in
  let color = Relation.add_named color Types.Pos [ "indian_elephant"; "grey" ] in
  Hierarchy.add_preference he ~weaker:"indian_elephant" ~stronger:"royal_elephant";
  let appu_grey = Item.of_names (Relation.schema color) [ "appu"; "grey" ] in
  Alcotest.(check bool) "preference resolves: royal wins, not grey" false
    (Binding.holds color appu_grey);
  ignore hc

(* ---- the binding index against a body scan ---------------------------- *)

(* The reference access path: every stored tuple, filtered by strict
   subsumption — no bucket index involved. *)
let scan_relevant rel item =
  let schema = Relation.schema rel in
  List.filter
    (fun (t : Relation.tuple) -> Item.strictly_subsumes schema t.Relation.item item)
    (Relation.tuples rel)

(* [Binding.verdict]'s signature, over a given [relevant] access path. *)
let verdict_via relevant ?semantics rel item =
  Binding.decide ?semantics (Relation.schema rel) item ~exact:(Relation.find rel item)
    ~relevant:(relevant rel item)

let reference = verdict_via scan_relevant

(* Binder order may legitimately differ between access paths. *)
let canon v =
  let items l = List.sort Item.compare (List.map (fun (t : Relation.tuple) -> t.Relation.item) l) in
  match v with
  | Binding.Asserted (s, binders) -> `Asserted (s, items binders)
  | Binding.Unasserted -> `Unasserted
  | Binding.Conflict { positive; negative } -> `Conflict (items positive, items negative)

let semantics_all = [ Types.Off_path; Types.On_path; Types.No_preemption ]

(* Every (item, semantics) pair of [items] on which [verdict] and the
   scan reference disagree. *)
let mismatches ?(verdict = Binding.verdict) rel items =
  List.concat_map
    (fun item ->
      List.filter_map
        (fun semantics ->
          if canon (verdict ~semantics rel item) = canon (reference ~semantics rel item) then None
          else Some (item, semantics))
        semantics_all)
    items

let check_agrees ?verdict what rel items =
  match mismatches ?verdict rel items with
  | [] -> ()
  | (item, semantics) :: _ as all ->
    Alcotest.failf "%s: %d mismatch(es), first at %s under %s (seed %d)" what (List.length all)
      (Item.to_string (Relation.schema rel) item)
      (match semantics with
      | Types.Off_path -> "off-path"
      | Types.On_path -> "on-path"
      | Types.No_preemption -> "no-preemption")
      seed

(* Every item of the relation's product hierarchy (all node tuples). *)
let all_items rel =
  let schema = Relation.schema rel in
  let rec go i =
    if i = Schema.arity schema then [ [] ]
    else
      let rest = go (i + 1) in
      List.concat_map
        (fun v -> List.map (fun tl -> v :: tl) rest)
        (Hierarchy.nodes (Schema.hierarchy schema i))
  in
  List.map (fun coords -> Item.make schema (Array.of_list coords)) (go 0)

(* Random consistent relations of arity 1 and 2, one fresh hierarchy per
   attribute, all drawn from the printed seed. *)
let random_relations () =
  let g = Prng.create (Int64.of_int seed) in
  let hierarchy k classes instances =
    Workload.random_hierarchy (Prng.split g)
      { Workload.name = Printf.sprintf "bh%d" k; classes; instances; multi_parent_prob = 0.25 }
  in
  let relation k schema tuples =
    Workload.consistent_random_relation (Prng.split g) schema
      { Workload.default_relation_spec with Workload.rel_name = Printf.sprintf "r%d" k; tuples }
  in
  List.init 40 (fun k -> relation k (Schema.make [ ("v", hierarchy k 8 12) ]) 12)
  @ List.init 20 (fun k ->
        let k = 100 + k in
        let schema = Schema.make [ ("a", hierarchy k 4 5); ("b", hierarchy (k + 50) 3 4) ] in
        relation k schema 8)

let fixture_relations () =
  let flies = Fixtures.flies (Fixtures.animals ()) in
  let color = Fixtures.animal_color (Fixtures.elephants ()) (Fixtures.colors ()) in
  [ flies; color ]

let test_index_agrees_on_fig1 () =
  let flies = Fixtures.flies (Fixtures.animals ()) in
  check_agrees "fig1" flies (all_items flies)

let test_index_relevant_same_set () =
  let flies = Fixtures.flies (Fixtures.animals ()) in
  List.iter
    (fun item ->
      let set l = List.sort Item.compare (List.map (fun (t : Relation.tuple) -> t.Relation.item) l) in
      Alcotest.(check bool)
        (Printf.sprintf "same relevant set at %s" (Item.to_string (Relation.schema flies) item))
        true
        (List.equal Item.equal (set (scan_relevant flies item)) (set (Binding.relevant flies item))))
    (all_items flies)

let test_index_multi_attribute () =
  let color = Fixtures.animal_color (Fixtures.elephants ()) (Fixtures.colors ()) in
  check_agrees "fig4 colors" color (all_items color)

let test_index_differential () =
  List.iter
    (fun rel -> check_agrees (Relation.name rel) rel (all_items rel))
    (random_relations ())

(* The harness must see a seeded bug: an access path that loses the
   last candidate changes some verdict on these relations. *)
let test_harness_catches_dropped_candidate () =
  let drop_last rel item =
    match List.rev (Binding.relevant rel item) with [] -> [] | _ :: rest -> List.rev rest
  in
  let found =
    List.fold_left
      (fun n rel -> n + List.length (mismatches ~verdict:(verdict_via drop_last) rel (all_items rel)))
      0
      (fixture_relations () @ random_relations ())
  in
  Alcotest.(check bool) "dropped candidate reported as a mismatch" true (found > 0)

let suite =
  [
    Alcotest.test_case "fig1: instance verdicts" `Quick test_fig1_verdicts;
    Alcotest.test_case "fig1: class items" `Quick test_fig1_class_items;
    Alcotest.test_case "closed world" `Quick test_closed_world;
    Alcotest.test_case "deep exception chains" `Quick test_exception_chain_depth;
    Alcotest.test_case "relevant tuples and justification" `Quick
      test_relevant_and_justification;
    Alcotest.test_case "tuple-binding graph (fig 1d)" `Quick test_binding_graph_shape;
    Alcotest.test_case "fig4: explicit cancellation chain" `Quick test_fig4_verdicts;
    Alcotest.test_case "fig4: multiple-inheritance conflict" `Quick
      test_fig4_conflict_when_indian_grey_asserted;
    Alcotest.test_case "appendix: on-path conflict at patricia" `Quick test_on_path_patricia;
    Alcotest.test_case "appendix: on-path pamela preempted" `Quick
      test_on_path_pamela_no_conflict;
    Alcotest.test_case "appendix: no-preemption" `Quick test_no_preemption_conflicts_everywhere;
    Alcotest.test_case "appendix: preference edges" `Quick test_preference_edge_resolves;
    Alcotest.test_case "on-path over product items" `Quick test_on_path_multi_attribute;
  ]

let index_suite =
  [
    Alcotest.test_case "agrees on fig1" `Quick test_index_agrees_on_fig1;
    Alcotest.test_case "same relevant set" `Quick test_index_relevant_same_set;
    Alcotest.test_case "multi-attribute" `Quick test_index_multi_attribute;
    Alcotest.test_case "indexed verdicts = scanned verdicts" `Quick test_index_differential;
    Alcotest.test_case "harness catches a dropped candidate" `Quick
      test_harness_catches_dropped_candidate;
  ]

(* The two workloads: their data, the operations they send, and the
   reference state those operations move through. Sizes live here and
   nowhere else; docs in README.md explain why each workload exists. *)

module H = Hr_hierarchy.Hierarchy
module Prng = Hr_util.Prng
module SM = Map.Make (String)
open Hierel

type read =
  | Ask of string * Item.t
  | Explain of string * Item.t
  | Select of string * H.node  (** SELECT * FROM r WHERE <first attribute> = value *)

type write = Insert of string * Types.sign * Item.t | Delete of string * Item.t
type op = Read of read | Write of write

(* The oracle's view of the database: relation values by name, and each
   relation's equivalent flat relation, computed once at set-up and then
   moved one atomic item per write. *)
type state = { rels : Relation.t SM.t; exts : Flatten.Item_set.t Lazy.t SM.t }

let rel st name = SM.find name st.rels
let ext st name = Lazy.force (SM.find name st.exts)

let apply st w =
  let r, rel', item, member =
    match w with
    | Insert (r, sign, item) ->
      let rel' = Relation.add (rel st r) item sign in
      (r, rel', item, lazy (sign = Types.Pos))
    | Delete (r, item) ->
      let rel' = Relation.remove (rel st r) item in
      (r, rel', item, lazy (Flatten.holds_atomic rel' item))
  in
  let prev = SM.find r st.exts in
  let ext =
    lazy
      (let e = Lazy.force prev in
       if Lazy.force member then Flatten.Item_set.add item e else Flatten.Item_set.remove item e)
  in
  { rels = SM.add r rel' st.rels; exts = SM.add r ext st.exts }

let statement st = function
  | Write (Insert (r, sign, item)) -> Gen.insert_stmt (rel st r) sign item
  | Write (Delete (r, item)) -> Gen.delete_stmt (rel st r) item
  | Read (Ask (r, item)) -> Gen.ask_stmt (rel st r) item
  | Read (Explain (r, item)) -> Gen.explain_stmt (rel st r) item
  | Read (Select (r, v)) ->
    let schema = Relation.schema (rel st r) in
    Printf.sprintf "SELECT * FROM %s WHERE %s = %s;" r (List.hd (Schema.names schema)) (Gen.value schema 0 v)

(* Fresh atomic items are inserted and the oldest inserted one is deleted
   next, so a relation's size stays within one tuple of its start. An
   atomic tuple never takes part in a conflict, and deleting one that was
   absent at set-up restores a consistent state, so no write fails. *)
type fifo = {
  f_rel : string;
  pool : Item.t array;  (** atomic items with no stored tuple *)
  mutable free : int;  (** pool.(0 .. free-1) are not stored *)
  live : Item.t Queue.t;
  f_rng : Prng.t;
  mutable insert_next : bool;
}

let fifo rng r pool = { f_rel = r; pool; free = Array.length pool; live = Queue.create (); f_rng = rng; insert_next = true }

let fifo_next f =
  let w =
    if f.insert_next || Queue.is_empty f.live then begin
      let k = Prng.int f.f_rng f.free in
      let item = f.pool.(k) in
      f.pool.(k) <- f.pool.(f.free - 1);
      f.pool.(f.free - 1) <- item;
      f.free <- f.free - 1;
      Queue.push item f.live;
      Insert (f.f_rel, Gen.random_sign f.f_rng, item)
    end
    else begin
      let item = Queue.pop f.live in
      (* return the item to the free part of the pool *)
      let k = ref f.free in
      while not (Item.equal f.pool.(!k) item) do incr k done;
      f.pool.(!k) <- f.pool.(f.free);
      f.pool.(f.free) <- item;
      f.free <- f.free + 1;
      Delete (f.f_rel, item)
    end
  in
  f.insert_next <- not f.insert_next;
  w

(* Atomic items over a relation's hierarchies that it stores no tuple on. *)
let unstored rng r ~count =
  let schema = Relation.schema r in
  let hiers = Array.init (Schema.arity schema) (Schema.hierarchy schema) in
  let seen = Hashtbl.create count in
  let out = ref [] in
  let attempts = ref 0 in
  while List.length !out < count && !attempts < 100 * count do
    incr attempts;
    let coords =
      Array.map
        (fun h ->
          let inst = Array.of_list (H.instances h) in
          inst.(Prng.int rng (Array.length inst)))
        hiers
    in
    let item = Item.make schema coords in
    if (not (Relation.mem r item)) && not (Hashtbl.mem seen item) then begin
      Hashtbl.add seen item ();
      out := item :: !out
    end
  done;
  Array.of_list (List.rev !out)

type t = {
  name : string;
  script : string;  (** HRQL that loads the database from empty *)
  init : state;
  ready : read;  (** the request whose correct reply means "ready" *)
  props : (string * string) list;  (** recorded input properties *)
  reads : unit -> read;  (** the read stream (lookup) *)
  writes : unit -> write;  (** the write stream *)
}

let rec_props hiers rels =
  let stored = List.fold_left (fun n r -> n + Relation.cardinality r) 0 rels in
  let neg =
    List.fold_left
      (fun n r -> Relation.fold (fun t n -> if t.Relation.sign = Types.Neg then n + 1 else n) r n)
      0 rels
  in
  let nodes = List.fold_left (fun n hr -> n + Gen.node_count hr) 0 hiers in
  let multi = List.fold_left (fun n hr -> n + hr.Gen.multi) 0 hiers in
  [
    ( "relation_sizes",
      String.concat ","
        (List.map (fun r -> Printf.sprintf "%s=%d" (Relation.name r) (Relation.cardinality r)) rels) );
    ("stored_tuples", string_of_int stored);
    ("negated_share", Printf.sprintf "%.3f" (float_of_int neg /. float_of_int (max 1 stored)));
    ( "hierarchy_depth",
      String.concat "," (List.map (fun hr -> Printf.sprintf "%s=%d" hr.Gen.dom hr.Gen.depth) hiers) );
    ("multi_inheritance_share", Printf.sprintf "%.3f" (float_of_int multi /. float_of_int (max 1 nodes)));
  ]

let script ddl rels =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_buffer buf ddl;
  List.iter (Gen.create_relation buf) rels;
  List.iter (Gen.insert_rows buf) rels;
  Buffer.contents buf

let state_of rels =
  List.fold_left
    (fun st r ->
      let n = Relation.name r in
      { rels = SM.add n r st.rels; exts = SM.add n (lazy (Flatten.extension r)) st.exts })
    { rels = SM.empty; exts = SM.empty } rels

(* Every seed runs against the same database, and lookup against the
   same key popularity, drawn from this seed, so runs compare like with
   like; [--seed] draws the operations: which items are written and
   read, in what order, and the signs. *)
let data_seed = 1989L

let instance_items r =
  let schema = Relation.schema r in
  Array.of_list
    (List.map (fun n -> Item.make schema [| n |]) (H.instances (Schema.hierarchy schema 0)))

(* churn: one relation of 530 stored tuples, half negated, rules with
   exceptions at every level of a depth-4 hierarchy with multiple
   inheritance; every write pays the full commit-time integrity check.
   Its only reads are the ASKs that verify its writes (see
   [E2e.write_loop]). *)
let churn seed =
  let rng = Prng.create data_seed and orng = Prng.create seed in
  let ddl = Buffer.create 4096 in
  let a = Gen.hierarchy rng ddl ~dom:"a" ~fanout:3 ~levels:3 ~instances:1000 ~multi_p:0.15 in
  let r = Gen.relation rng { Gen.name = "r"; attrs = [ ("x", a) ]; rules = 120; total = 530; neg = 0.5 } in
  let f = fifo (Prng.split orng) "r" (unstored orng r ~count:400) in
  let ready = Ask ("r", Item.make (Relation.schema r) [| a.Gen.instances.(0) |]) in
  {
    name = "churn";
    script = script ddl [ r ];
    init = state_of [ r ];
    ready;
    props = rec_props [ a ] [ r ];
    reads = (fun () -> invalid_arg "churn reads only to verify its writes");
    writes = (fun () -> fifo_next f);
  }

(* lookup: a 1-attribute and a 2-attribute relation of ~2000 tuples over
   DAG hierarchies; reads only, keys from a Zipf(1) distribution. The
   write stream, into the small relation [p], is used only by the traced
   run (see [Traced.probe_every]). *)
let lookup seed =
  let rng = Prng.create data_seed and orng = Prng.create seed in
  let ddl = Buffer.create 4096 in
  let a = Gen.hierarchy rng ddl ~dom:"a" ~fanout:4 ~levels:3 ~instances:2500 ~multi_p:0.2 in
  let b = Gen.hierarchy rng ddl ~dom:"b" ~fanout:3 ~levels:2 ~instances:40 ~multi_p:0.2 in
  let l1 =
    Gen.relation rng { Gen.name = "l1"; attrs = [ ("x", a) ]; rules = 150; total = 2000; neg = 0.25 }
  in
  let l2 =
    Gen.relation rng
      { Gen.name = "l2"; attrs = [ ("x", a); ("y", b) ]; rules = 100; total = 2200; neg = 0.25 }
  in
  let p = Gen.relation rng { Gen.name = "p"; attrs = [ ("x", a) ]; rules = 20; total = 150; neg = 0.5 } in
  (* Atomic keys are Zipf-skewed; one key in ten is a class-level item,
     drawn uniformly. The keys and their popularity come from the data
     seed, like the database, so every seed reads the same hot keys and a
     run's cost does not hang on which keys a seed made hot; [--seed]
     draws the sequence of requests. *)
  let keys1 = instance_items l1 in
  let keys2 =
    Array.init 6000 (fun _ ->
        Item.make (Relation.schema l2) [| Gen.random_instance rng a; Gen.random_instance rng b |])
  in
  let s1 = Gen.skew rng keys1 and s2 = Gen.skew rng keys2 in
  let rrng = Prng.split orng in
  let class_item r =
    if r = "l1" then Item.make (Relation.schema l1) [| Gen.random_class rrng a |]
    else
      let x = if Prng.bool rrng then Gen.random_class rrng a else Gen.random_instance rrng a in
      Item.make (Relation.schema l2) [| x; Gen.random_class rrng b |]
  in
  let reads () =
    let r, s = if Prng.bool rrng then ("l1", s1) else ("l2", s2) in
    let item = if Prng.bernoulli rrng 0.1 then class_item r else s.Gen.keys.(Gen.draw rrng s) in
    let u = Prng.int rrng 100 in
    if u < 80 then Ask (r, item)
    else if u < 95 then Explain (r, item)
    else Select (r, Item.coord s1.Gen.keys.(Gen.draw rrng s1) 0)
  in
  let f = fifo (Prng.split orng) "p" (unstored orng p ~count:200) in
  {
    name = "lookup";
    script = script ddl [ l1; l2; p ];
    init = state_of [ l1; l2; p ];
    ready = Ask ("l1", keys1.(0));
    props =
      rec_props [ a; b ] [ l1; l2; p ]
      @ [
          ( "key_skew",
            Printf.sprintf
              "Zipf(1) over atomic keys, hottest tenth draws %.3f (l1) and %.3f (l2); one key in ten a class item"
              (Gen.hot_share s1) (Gen.hot_share s2) );
        ];
    reads;
    writes = (fun () -> fifo_next f);
  }

let make name seed =
  match name with
  | "churn" -> churn seed
  | "lookup" -> lookup seed
  | _ -> invalid_arg name

let names = [ "churn"; "lookup" ]

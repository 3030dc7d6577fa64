(* Seeded workload generation: hierarchies, relations, the HRQL set-up
   script and the operations each workload sends. The same seed gives
   the same script and the same operations; nothing reads the clock. *)

module H = Hr_hierarchy.Hierarchy
module Prng = Hr_util.Prng
open Hierel

type hier = {
  h : H.t;
  dom : string;
  depth : int;  (** isa edges from the root to an instance *)
  classes : H.node array;  (** every class except the root *)
  instances : H.node array;
  multi : int;  (** nodes with two parents (multiple inheritance) *)
}

(* Classes come in layers and every isa edge joins adjacent layers, so
   the hierarchy stays transitively reduced (off-path preemption's
   precondition) even where a node takes a second parent. *)
let hierarchy rng ddl ~dom ~fanout ~levels ~instances ~multi_p =
  let h = H.create dom in
  Printf.bprintf ddl "CREATE DOMAIN %s;\n" dom;
  let multi = ref 0 in
  let parents layer =
    let p = Prng.int rng (Array.length layer) in
    if Array.length layer > 1 && Prng.bernoulli rng multi_p then begin
      incr multi;
      let q = (p + 1 + Prng.int rng (Array.length layer - 1)) mod Array.length layer in
      [ layer.(p); layer.(q) ]
    end
    else [ layer.(p) ]
  in
  let classes = ref [] in
  let layer = ref [| dom |] in
  for level = 1 to levels do
    let width = Array.length !layer * fanout in
    layer :=
      Array.init width (fun i ->
          let name = Printf.sprintf "%sc%d_%d" dom level i in
          let ps = if level = 1 then [ dom ] else parents !layer in
          let node = H.add_class h ~parents:ps name in
          Printf.bprintf ddl "CREATE CLASS %s UNDER %s;\n" name (String.concat ", " ps);
          classes := node :: !classes;
          name)
  done;
  let instances =
    Array.init instances (fun i ->
        let name = Printf.sprintf "%si%d" dom i in
        let ps = parents !layer in
        Printf.bprintf ddl "CREATE INSTANCE %s OF %s;\n" name (String.concat ", " ps);
        H.add_instance h ~parents:ps name)
  in
  {
    h;
    dom;
    depth = levels + 1;
    classes = Array.of_list (List.rev !classes);
    instances;
    multi = !multi;
  }

let node_count hr = Array.length hr.classes + Array.length hr.instances

(* --- relations ------------------------------------------------------- *)

let random_class rng hr = hr.classes.(Prng.int rng (Array.length hr.classes))
let random_instance rng hr = hr.instances.(Prng.int rng (Array.length hr.instances))

let opposite = function Types.Pos -> Types.Neg | Types.Neg -> Types.Pos
let random_sign rng = if Prng.bool rng then Types.Pos else Types.Neg

(* Asserts a random sign at every conflict witness until the ambiguity
   constraint holds (each round resolves every conflict found). *)
let repair rng rel =
  let rec loop rel rounds =
    match Integrity.check rel with
    | [] -> rel
    | _ when rounds = 0 -> failwith "perfbench: rule repair did not converge"
    | conflicts ->
      let rel =
        List.fold_left
          (fun rel (c : Integrity.conflict) ->
            List.fold_left
              (fun rel w -> if Relation.mem rel w then rel else Relation.set rel w (random_sign rng))
              rel c.Integrity.witnesses)
          rel conflicts
      in
      loop rel (rounds - 1)
  in
  loop rel 50

type rel_spec = {
  name : string;
  attrs : (string * hier) list;
  rules : int;  (** class-level tuples (before repair) *)
  total : int;  (** stored tuples: atomic tuples fill up to this *)
  neg : float;  (** target share of negated tuples *)
}

(* Class-level rules, mostly exceptions to what the rules above them
   already say, so exceptions nest at several depths; then atomic
   tuples, whose signs steer the negated share towards [spec.neg].
   Atomic tuples cannot create conflicts: an atomic item intersects only
   items that subsume it. *)
let relation rng spec =
  let schema = Schema.make (List.map (fun (a, hr) -> (a, hr.h)) spec.attrs) in
  let hiers = Array.of_list (List.map snd spec.attrs) in
  let arity = Array.length hiers in
  let rel = ref (Relation.empty ~name:spec.name schema) in
  for _ = 1 to spec.rules do
    let classy = Prng.int rng arity in
    let coords =
      Array.mapi
        (fun i hr ->
          if i = classy || Prng.bernoulli rng 0.5 then random_class rng hr
          else random_instance rng hr)
        hiers
    in
    let item = Item.make schema coords in
    if not (Relation.mem !rel item) then
      match Binding.verdict !rel item with
      | Binding.Asserted (s, _) ->
        rel := Relation.add !rel item (if Prng.bernoulli rng 0.8 then opposite s else s)
      | Binding.Unasserted -> rel := Relation.add !rel item (random_sign rng)
      | Binding.Conflict _ -> ()
  done;
  let rel = ref (repair rng !rel) in
  let neg = ref (Relation.fold (fun t n -> if t.Relation.sign = Types.Neg then n + 1 else n) !rel 0) in
  let attempts = ref 0 in
  while Relation.cardinality !rel < spec.total && !attempts < 50 * spec.total do
    incr attempts;
    let item = Item.make schema (Array.map (random_instance rng) hiers) in
    if not (Relation.mem !rel item) then begin
      let share = float_of_int !neg /. float_of_int (max 1 (Relation.cardinality !rel)) in
      let sign = if share < spec.neg then Types.Neg else Types.Pos in
      if sign = Types.Neg then incr neg;
      rel := Relation.add !rel item sign
    end
  done;
  !rel

(* --- rendering -------------------------------------------------------- *)

let value schema i node =
  let h = Schema.hierarchy schema i in
  let name = H.node_label h node in
  if H.is_class h node then "ALL " ^ name else name

let values schema item =
  String.concat ", " (List.init (Item.arity item) (fun i -> value schema i (Item.coord item i)))

let sign_str = function Types.Pos -> "+" | Types.Neg -> "-"

let create_relation buf rel =
  let schema = Relation.schema rel in
  Printf.bprintf buf "CREATE RELATION %s (%s);\n" (Relation.name rel)
    (String.concat ", "
       (List.mapi
          (fun i a -> Printf.sprintf "%s : %s" a (H.node_label (Schema.hierarchy schema i) 0))
          (Schema.names schema)))

let insert_rows buf rel =
  let schema = Relation.schema rel in
  Printf.bprintf buf "INSERT INTO %s VALUES %s;\n" (Relation.name rel)
    (String.concat ", "
       (List.map
          (fun (t : Relation.tuple) ->
            Printf.sprintf "(%s %s)" (sign_str t.Relation.sign) (values schema t.Relation.item))
          (Relation.tuples rel)))

let insert_stmt rel sign item =
  Printf.sprintf "INSERT INTO %s VALUES (%s %s);" (Relation.name rel) (sign_str sign)
    (values (Relation.schema rel) item)

let delete_stmt rel item =
  Printf.sprintf "DELETE FROM %s VALUES (%s);" (Relation.name rel)
    (values (Relation.schema rel) item)

let ask_stmt rel item =
  Printf.sprintf "ASK %s (%s);" (Relation.name rel) (values (Relation.schema rel) item)

let explain_stmt rel item =
  Printf.sprintf "EXPLAIN %s (%s);" (Relation.name rel) (values (Relation.schema rel) item)

(* --- skewed keys ------------------------------------------------------ *)

(* Zipf(1) over a seeded permutation of the keys: a cumulative table and
   a binary search per draw. *)
type 'a skew = { keys : 'a array; cdf : float array }

let skew rng keys =
  let keys = Array.copy keys in
  Prng.shuffle rng keys;
  let n = Array.length keys in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  Array.iteri (fun i c -> cdf.(i) <- c /. !acc) cdf;
  { keys; cdf }

let draw rng s =
  let u = Prng.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length s.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if s.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Share of draws that land on the hottest tenth of the keys. *)
let hot_share s =
  let k = max 1 (Array.length s.keys / 10) in
  s.cdf.(k - 1)

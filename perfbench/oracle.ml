(* Reference answers. ASK and EXPLAIN are judged by [Binding.verdict] and
   [Binding.justification] on the oracle's relation; SELECT by the
   equivalent flat relation ([Flatten]) of the oracle's relation, against
   the flat relation of whatever the server sent back.
   Replies are parsed, never compared as raw text, so tuple and binder
   order do not matter. *)

module H = Hr_hierarchy.Hierarchy
open Hierel
module IS = Flatten.Item_set

(* "(V a, b), (c, d)" -> the parenthesised groups, in order. *)
let groups s =
  let out = ref [] and depth = ref 0 and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '(' then begin
        if !depth = 0 then start := i;
        incr depth
      end
      else if c = ')' then begin
        decr depth;
        if !depth = 0 then out := String.sub s !start (i - !start + 1) :: !out
      end)
    s;
  List.rev !out

(* A verdict line up to binder order: "+ (by (V c), (i))" ->
   "+ (i) (V c)". *)
let norm_verdict s =
  let s = String.trim s in
  if String.length s > 6 && (s.[0] = '+' || s.[0] = '-') then
    String.make 1 s.[0] ^ " " ^ String.concat " " (List.sort compare (groups (String.sub s 1 (String.length s - 1))))
  else s

let verdict_text rel item =
  norm_verdict (Format.asprintf "%a" (Binding.pp_verdict (Relation.schema rel)) (Binding.verdict rel item))

(* Rows of a [Texttable] rendering: header cells, then data rows. *)
let table s =
  let cells line =
    let parts = String.split_on_char '|' line in
    let parts = List.filteri (fun i _ -> i > 0 && i < List.length parts - 1) parts in
    List.map String.trim parts
  in
  match List.filter (fun l -> String.length l > 0 && l.[0] = '|') (String.split_on_char '\n' s) with
  | [] -> None
  | header :: rows -> Some (cells header, List.map cells rows)

let node h cell =
  let name =
    if String.length cell > 2 && String.sub cell 0 2 = "V " then String.sub cell 2 (String.length cell - 2)
    else cell
  in
  H.find_exn h name

(* The relation a reply table denotes, over [schema] (columns matched by
   attribute name). *)
let relation_of_table schema (header, rows) =
  let cols = Array.of_list (List.tl header) in
  let names = Array.of_list (Schema.names schema) in
  if Array.length cols <> Array.length names then failwith "column count";
  let pos = Array.map (fun n -> Option.get (Array.find_index (String.equal n) cols)) names in
  List.fold_left
    (fun r row ->
      match row with
      | sign :: vals ->
        let vals = Array.of_list vals in
        let item =
          Item.make schema (Array.mapi (fun i p -> node (Schema.hierarchy schema i) vals.(p)) pos)
        in
        Relation.add r item (if sign = "+" then Types.Pos else Types.Neg)
      | [] -> failwith "empty row")
    (Relation.empty schema) rows

(* The items of [ext] whose first coordinate lies under [v]. Items order
   lexicographically by coordinates, so each leaf under [v] is one
   contiguous range of the set. *)
let restrict schema v ext =
  let arity = Schema.arity schema in
  List.fold_left
    (fun acc leaf ->
      let lo = Item.make schema (Array.init arity (fun k -> if k = 0 then leaf else 0)) in
      Seq.fold_left (fun acc it -> IS.add it acc) acc
        (Seq.take_while (fun it -> Item.coord it 0 = leaf) (IS.to_seq_from lo ext)))
    IS.empty
    (H.leaves_under (Schema.hierarchy schema 0) v)

let tuple_row schema (t : Relation.tuple) =
  (if t.Relation.sign = Types.Pos then "+" else "-")
  :: List.init (Schema.arity schema) (fun i ->
         let h = Schema.hierarchy schema i in
         let v = Item.coord t.Relation.item i in
         (if H.is_class h v then "V " else "") ^ H.node_label h v)

let after prefix s =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then Some (String.sub s n (String.length s - n))
  else None

(* Whether [reply] is a correct answer to [read] in state [st]. *)
let check (st : Work.state) (read : Work.read) reply =
  try
    match read with
    | Work.Ask (r, item) -> norm_verdict reply = verdict_text (Work.rel st r) item
    | Work.Explain (r, item) -> (
      let rel = Work.rel st r in
      match String.split_on_char '\n' reply with
      | first :: _ -> (
        match (after "verdict: " first, table reply) with
        | Some v, Some (_, rows) ->
          norm_verdict v = verdict_text rel item
          && List.sort compare rows
             = List.sort compare (List.map (tuple_row (Relation.schema rel)) (Binding.justification rel item))
        | _ -> false)
      | [] -> false)
    | Work.Select (r, v) -> (
      let rel = Work.rel st r in
      let schema = Relation.schema rel in
      match table reply with
      | None -> false
      | Some t -> IS.equal (Flatten.extension (relation_of_table schema t)) (restrict schema v (Work.ext st r)))
  with Not_found | Failure _ | Invalid_argument _ | Hr_hierarchy.Hierarchy.Error _ | Types.Model_error _ -> false

(* The acknowledgement a write must receive. *)
let write_ack = function
  | Work.Insert (r, _, _) -> Printf.sprintf "1 tuple(s) inserted into %s" r
  | Work.Delete (r, _) -> Printf.sprintf "1 tuple(s) deleted from %s" r

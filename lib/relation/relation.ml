module Value = Ghost_kernel.Value
module Sorted_ids = Ghost_kernel.Sorted_ids

type tuple = Value.t array

type t = {
  schema : Schema.table;
  tuples : tuple array;
  by_key : (int, tuple) Hashtbl.t;
}

let create schema rows =
  let arity = Schema.arity schema in
  let cols = Schema.all_columns schema in
  let by_key = Hashtbl.create (List.length rows) in
  List.iteri
    (fun i row ->
       if Array.length row <> arity then
         invalid_arg
           (Printf.sprintf "Relation.create(%s): row %d has arity %d, expected %d"
              schema.Schema.name i (Array.length row) arity);
       List.iteri
         (fun j (c : Column.t) ->
            if not (Value.has_ty c.Column.ty row.(j)) then
              invalid_arg
                (Printf.sprintf "Relation.create(%s): row %d column %s type mismatch"
                   schema.Schema.name i c.Column.name))
         cols;
       match row.(0) with
       | Value.Int k ->
         if Hashtbl.mem by_key k then
           invalid_arg
             (Printf.sprintf "Relation.create(%s): duplicate key %d" schema.Schema.name k);
         Hashtbl.add by_key k row
       | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
         invalid_arg
           (Printf.sprintf "Relation.create(%s): row %d key is not an integer"
              schema.Schema.name i))
    rows;
  { schema; tuples = Array.of_list rows; by_key }

let schema t = t.schema
let cardinality t = Array.length t.tuples
let tuples t = t.tuples

let key_of _t tuple =
  match tuple.(0) with
  | Value.Int k -> k
  | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ -> assert false

let find t k = Hashtbl.find_opt t.by_key k

let value t tuple column = tuple.(Schema.column_index t.schema column)

let select_ids t cmp column =
  let idx = Schema.column_index t.schema column in
  let ids = Array.make (Array.length t.tuples) 0 in
  let n = ref 0 in
  Array.iter
    (fun row ->
       if Predicate.eval cmp row.(idx) then begin
         ids.(!n) <- key_of t row;
         incr n
       end)
    t.tuples;
  Sorted_ids.of_unsorted_array (Array.sub ids 0 !n)

let iter f t = Array.iter f t.tuples

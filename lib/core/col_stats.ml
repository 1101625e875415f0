module Value = Ghost_kernel.Value
module Predicate = Ghost_relation.Predicate

module Vmap = Map.Make (struct
    type t = Value.t

    let compare = Value.compare
  end)

let exact_threshold = 512
let histogram_buckets = 64

type t = {
  count : int;
  distinct : int;
  freqs : int Vmap.t option;  (* exact, when distinct <= exact_threshold *)
  (* Equi-depth histogram: sorted sample of bucket upper bounds; bucket
     i covers values <= bounds.(i) (and > bounds.(i-1)). Each bucket
     holds ~count/buckets values. *)
  bounds : Value.t array;
}

let ascending values =
  let n = Array.length values in
  let i = ref 1 in
  while !i < n && Value.compare values.(!i - 1) values.(!i) <= 0 do
    incr i
  done;
  !i >= n

let of_values values =
  let count = Array.length values in
  let sorted = Array.copy values in
  (* A stable sort leaves an ascending input as it is. *)
  if not (ascending sorted) then Array.stable_sort Value.compare sorted;
  (* Each run of equal values is one distinct value. Values equal under
     [Value.compare] may still differ in CHAR padding; an exact
     frequency map is keyed by the last value of each run. *)
  let run_ends_at i = i = count - 1 || Value.compare sorted.(i) sorted.(i + 1) <> 0 in
  let distinct = ref 0 in
  for i = 0 to count - 1 do
    if run_ends_at i then incr distinct
  done;
  let distinct = !distinct in
  let freqs =
    if distinct > exact_threshold then None
    else begin
      let m = ref Vmap.empty and run = ref 0 in
      for i = 0 to count - 1 do
        incr run;
        if run_ends_at i then begin
          m := Vmap.add sorted.(i) !run !m;
          run := 0
        end
      done;
      Some !m
    end
  in
  let bounds =
    if count = 0 then [||]
    else
      Array.init histogram_buckets (fun i ->
        let pos = min (count - 1) (((i + 1) * count / histogram_buckets) - 1) in
        sorted.(max 0 pos))
  in
  { count; distinct; freqs; bounds }

let count t = t.count
let distinct t = t.distinct

(* Fraction of values <= v, from the histogram. *)
let cdf t v =
  let n = Array.length t.bounds in
  if n = 0 then 0.
  else begin
    (* first bucket whose bound is >= v *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare t.bounds.(mid) v < 0 then lo := mid + 1 else hi := mid
    done;
    Float.of_int (min n (!lo + 1)) /. Float.of_int n
  end

let clamp f = Float.max 0. (Float.min 1. f)

let sel_le t v =
  match t.freqs with
  | Some m ->
    let below =
      Vmap.fold
        (fun key c acc -> if Value.compare key v <= 0 then acc + c else acc)
        m 0
    in
    if t.count = 0 then 0. else Float.of_int below /. Float.of_int t.count
  | None -> cdf t v

let sel_eq t v =
  match t.freqs with
  | Some m ->
    if t.count = 0 then 0.
    else Float.of_int (Option.value (Vmap.find_opt v m) ~default:0) /. Float.of_int t.count
  | None -> if t.distinct = 0 then 0. else 1. /. Float.of_int t.distinct

let selectivity t cmp =
  if t.count = 0 then 0.
  else
    clamp
      (match cmp with
       | Predicate.Eq v -> sel_eq t v
       | Predicate.Ne v -> 1. -. sel_eq t v
       | Predicate.Le v -> sel_le t v
       | Predicate.Lt v -> sel_le t v -. sel_eq t v
       | Predicate.Gt v -> 1. -. sel_le t v
       | Predicate.Ge v -> 1. -. sel_le t v +. sel_eq t v
       | Predicate.Between (lo, hi) -> sel_le t hi -. sel_le t lo +. sel_eq t lo
       | Predicate.In vs ->
         List.fold_left
           (fun acc v -> acc +. sel_eq t v)
           0.
           (List.sort_uniq Value.compare vs)
       | Predicate.Prefix p ->
         (match t.freqs with
          | Some m ->
            let matching =
              Vmap.fold
                (fun key c acc ->
                   if Predicate.eval (Predicate.Prefix p) key then acc + c else acc)
                m 0
            in
            Float.of_int matching /. Float.of_int t.count
          | None ->
            let lo = sel_le t (Value.Str p) -. sel_eq t (Value.Str p) in
            let hi =
              match Predicate.prefix_upper p with
              | Some u -> sel_le t (Value.Str u) -. sel_eq t (Value.Str u)
              | None -> 1.
            in
            Float.max 0. (hi -. lo)))

let estimate_rows t cmp =
  int_of_float (Float.round (selectivity t cmp *. Float.of_int t.count))

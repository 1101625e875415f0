module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Cursor = Ghost_kernel.Cursor
module Sorted_ids = Ghost_kernel.Sorted_ids
module Resources = Ghost_kernel.Resources
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Trace = Ghost_device.Trace
module Device = Ghost_device.Device
module Page_cache = Ghost_device.Page_cache
module Bloom = Ghost_bloom.Bloom
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Climbing_index = Ghost_store.Climbing_index
module Merge_union = Ghost_store.Merge_union
module Ext_sort = Ghost_store.Ext_sort
module Public_store = Ghost_public.Public_store
module Metrics = Ghost_metrics.Metrics
module Oblivious = Ghost_oblivious.Oblivious

type op_stats = {
  op_label : string;
  tuples_in : int;
  tuples_out : int;
  ram_peak : int;
  usage : Device.usage;
}

type result = {
  rows : Value.t array list;
  row_count : int;
  ops : op_stats list;
  total : Device.usage;
  elapsed_us : float;
  ram_peak : int;
  bloom_fp_candidates : int;
  oblivious : Oblivious.mode;
  padding_bytes : int;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* A candidate row mid-flight: the SKT id vector plus visible values
   attached by the projection joins so far (reverse order). Rows coming
   from the insert delta log carry their own hidden values (they are
   not in the column stores). A row that failed a predicate is dropped
   at once, except under [Full]: there it rides through every stage
   with [live = false], so the work done never depends on the data, and
   is stripped only as its tuple is materialised. *)
type row = {
  ids : int array;
  mutable attached : Value.t list;
  delta_hidden : (string * Value.t) list option;
  live : bool;
}

type context = {
  catalog : Catalog.t;
  public : Public_store.t;
  plan : Plan.t;
  device : Device.t;
  ram : Ram.t;
  scratch : Flash.t;  (* spill region: shared (serial) or per-session *)
  cache : Page_cache.t option;  (* shared buffer manager, when configured *)
  resources : Resources.t;
  skt : Skt.t option;  (* the plan root's SKT *)
  levels : string list;  (* its level layout: the root's subtree, preorder *)
  mutable ops_rev : op_stats list;
  exact_post : bool;
  bloom_fpr : float;
  mutable bloom_fps : int;
  mutable shipped : (string * int array) list;
      (* visible Pre-filter id lists, kept for the delta scan *)
  mutable pad_bytes : int;
      (* dummy-padding bytes shipped or emitted so far (Pad / Full) *)
}

(* Operator class: the label prefix before the table/column argument —
   "Project+Join(T.c)" profiles as "Project+Join". *)
let op_class label =
  match String.index_opt label '(' with
  | Some i -> String.sub label 0 i
  | None -> label

let measure ctx label ~tuples_in f =
  let scope = Ram.open_scope ctx.ram in
  let before = Device.snapshot ctx.device in
  let m = Device.metrics ctx.device in
  (* Operator profiles are stamped on the session's virtual clock, so a
     preempted operator is not charged for the slices other sessions
     ran in the middle of it. *)
  let vstart =
    match m with None -> 0. | Some _ -> Device.session_us ctx.device
  in
  let value, tuples_out = f () in
  let usage =
    Device.usage_between ctx.device ~before ~after:(Device.snapshot ctx.device)
  in
  let ram_peak = Ram.close_scope ctx.ram scope in
  ctx.ops_rev <- { op_label = label; tuples_in; tuples_out; ram_peak; usage } :: ctx.ops_rev;
  (match m with
   | None -> ()
   | Some reg ->
     let dur = Device.session_us ctx.device -. vstart in
     let cls = op_class label in
     Metrics.incr reg ("exec.op." ^ cls ^ ".count");
     Metrics.observe reg ("exec.op." ^ cls ^ ".us") dur;
     let tid =
       match Trace.current_session (Device.trace ctx.device) with
       | Some s -> s
       | None -> 0
     in
     Metrics.span reg ~name:label ~cat:"exec" ~pid:2 ~tid
       ~args:
         [
           ("tuples_in", Float.of_int tuples_in);
           ("tuples_out", Float.of_int tuples_out);
           ("ram_peak", Float.of_int ram_peak);
           ("flash_reads", Float.of_int usage.Device.flash_page_reads);
           ("flash_programs", Float.of_int usage.Device.flash_page_programs);
           ("usb_bytes_in", Float.of_int usage.Device.used_usb_bytes_in);
           ("cache_hits", Float.of_int usage.Device.cache.Page_cache.hits);
           ("cache_misses", Float.of_int usage.Device.cache.Page_cache.misses);
         ]
       ~ts:vstart ~dur ());
  value

let cpu ctx n = Device.cpu ctx.device n

(* ---- helpers over the catalog ---- *)

let attr_index_exn ctx ~table ~column =
  match Catalog.attr_index ctx.catalog ~table ~column with
  | Some idx -> idx
  | None -> fail "no climbing index on %s.%s (H_index strategy invalid)" table column

let key_index_exn ctx table =
  match Catalog.key_index ctx.catalog table with
  | Some idx -> idx
  | None -> fail "no key climbing index for %s" table

let column_store_exn ctx ~table ~column =
  match Catalog.column_store ctx.catalog ~table ~column with
  | Some cs -> cs
  | None -> fail "no device column store for %s.%s" table column

(* Index of [table]'s id in an SKT row of the plan root. *)
let level_of ctx table =
  let rec loop i = function
    | [] -> fail "table %s is not in the subtree of %s" table ctx.plan.Plan.root
    | t :: rest -> if t = table then i else loop (i + 1) rest
  in
  loop 0 ctx.levels

(* A buffered reader over one hidden column, closed when the plan ends. *)
let column_reader ctx ~table ~column =
  let cs = column_store_exn ctx ~table ~column in
  let reader =
    Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:256 ?cache:ctx.cache cs
  in
  Resources.defer ctx.resources (fun () -> Column_store.close_reader reader);
  reader

(* ---- oblivious metering ----

   The three USB sites whose lengths could betray hidden data: id-list
   shipments, projection value streams, result emission. Under [Off]
   they go through the typed wire path untouched (bit-identical to the
   seed); under [Pad] / [Full] they bypass the varint encoder — whose
   frame sizes are value-dependent — and ship fixed-width frames padded
   up to a public bound, annotated with {!Trace.obl} so the leakage
   quantifier can price each event. *)

let receive_ids ctx ~table ids =
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off -> Device.receive_id_list ctx.device ~table ids
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let bound = Public_store.cardinality ctx.public table in
    let n = Array.length ids in
    let count =
      match m with
      | Oblivious.Pad -> Oblivious.pad_count ~bound n
      | Oblivious.Off | Oblivious.Full -> bound
    in
    let pad = 4 * (count - n) in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.receive ctx.device
      ~obl:{ Trace.obl_bound = bound; obl_values = 1; obl_pad_bytes = pad }
      (Trace.Id_list { table; count })
      ~bytes:(4 * count)

let receive_stream ctx ~table ~column ~ty stream =
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off ->
    Device.receive_value_stream ctx.device ~table ~column ~ty stream
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let bound = Public_store.cardinality ctx.public table in
    let n = Array.length stream in
    let count =
      match m with
      | Oblivious.Pad -> Oblivious.pad_count ~bound n
      | Oblivious.Off | Oblivious.Full -> bound
    in
    let width = 4 + Value.ty_width ty in
    let pad = width * (count - n) in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.receive ctx.device
      ~obl:{ Trace.obl_bound = bound; obl_values = 1; obl_pad_bytes = pad }
      (Trace.Value_stream { table; column; count })
      ~bytes:(width * count)

(* Bytes one emitted row occupies on the display link. Derived from the
   schema and the projection list alone — it sizes padded emission, so
   it must not depend on the data. Mirrors the baseline accounting:
   4 bytes of framing per projected column, plus the column width for
   non-key columns; aggregates emit 8 bytes per output column. *)
let emit_row_width ctx =
  let plan = ctx.plan in
  let schema = ctx.catalog.Catalog.schema in
  match plan.Plan.query.Bind.aggregate with
  | Some spec -> 8 * max 1 (List.length spec.Ghost_sql.Aggregate.output)
  | None ->
    List.fold_left
      (fun acc (table, column) ->
         let tbl = Schema.find_table schema table in
         if column = tbl.Schema.key then acc
         else acc + Value.ty_width (Schema.find_column tbl column).Column.ty)
      (4 * List.length plan.Plan.query.Bind.projections)
      plan.Plan.query.Bind.projections

(* Result emission. The cardinality is the one display-side count that
   depends on hidden data, so this is where the baseline's residual
   leakage concentrates: [Off] emits the real count annotated as
   ranging over [bound + 1] values; [Pad] rounds the count up to a
   power-of-two bucket; [Full] pads to the bound itself. The bound is
   the live root cardinality capped by the query's LIMIT — both public
   (the spy watched every load, insert and delete, and the LIMIT rides
   in the query text). [Off] and [Pad] charge the bytes of the
   [unlimited] rows materialised before the LIMIT cut; [Full] charges
   the [count] rows it emits, so its frame never outgrows the bound. *)
let emit_rows ctx ~count ~unlimited =
  let device = ctx.device in
  let width = emit_row_width ctx in
  let live = Catalog.live_count ctx.catalog ctx.plan.Plan.root in
  let bound =
    let b =
      match ctx.plan.Plan.query.Bind.limit with
      | Some l -> min l live
      | None -> live
    in
    (* a global aggregate over an empty table emits one row: never let
       the real count overrun the padding target *)
    max b count
  in
  let padded ~count ~values ~bytes ~padded_bytes =
    let pad = padded_bytes - bytes in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.emit_result device
      ~obl:{ Trace.obl_bound = bound; obl_values = values; obl_pad_bytes = pad }
      ~count ~bytes:padded_bytes
  in
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off ->
    Device.emit_result device
      ~obl:{ Trace.obl_bound = bound; obl_values = bound + 1; obl_pad_bytes = 0 }
      ~count ~bytes:(unlimited * width)
  | Oblivious.Pad ->
    let count = Oblivious.pad_count ~bound count in
    let bytes = unlimited * width in
    padded ~count ~values:(Oblivious.bucket_values ~bound) ~bytes
      ~padded_bytes:(max bytes (count * width))
  | Oblivious.Full ->
    padded ~count:bound ~values:1 ~bytes:(count * width)
      ~padded_bytes:(bound * width)

(* ---- pre-filter sources ---- *)

let union ctx sources =
  Merge_union.union ~ram:ctx.ram ~scratch:ctx.scratch
    ~resources:ctx.resources ~cpu:(cpu ctx) sources

(* The id list of each visible predicate, selected host-side and
   shipped into the device; [charge] prices the device's intake of one
   list. *)
let receive_pred_lists ctx ~table ~charge preds =
  List.map
    (fun p ->
       let ids = Public_store.select_ids ctx.public ~trace:(Device.trace ctx.device) p in
       receive_ids ctx ~table ids;
       charge ids;
       ids)
    preds

(* The sorted id list a set of visible predicates selects, shipped into
   the device. *)
let ship_visible_ids ctx ~table preds =
  measure ctx (Printf.sprintf "ShipIds(%s)" table) ~tuples_in:0 (fun () ->
    (* The per-predicate lists ship as one coalesced frame under the
       compact wire format (a no-op batch under the verbose default). *)
    let lists =
      Device.with_usb_batch ctx.device (fun () ->
        receive_pred_lists ctx ~table
          ~charge:(fun ids -> cpu ctx (Array.length ids))
          preds)
    in
    let ids =
      match lists with
      | [] -> [||]
      | ls -> Sorted_ids.intersect_many ls
    in
    ctx.shipped <- (table, ids) :: ctx.shipped;
    (ids, Array.length ids))

(* [Full]'s shipment: one frame per predicate, each padded to the table
   cardinality and charged at it. *)
let ship_padded_ids ctx (g : Plan.group) =
  let table = g.Plan.g_table in
  ignore
    (measure ctx (Printf.sprintf "ShipPadded(%s)" table) ~tuples_in:0 (fun () ->
       let bound = Public_store.cardinality ctx.public table in
       let lists =
         receive_pred_lists ctx ~table ~charge:(fun _ -> cpu ctx bound)
           g.Plan.g_visible
       in
       let ids = Sorted_ids.intersect_many lists in
       ctx.shipped <- (table, ids) :: ctx.shipped;
       ((), Array.length ids)))

(* Union of the per-value lists of one hidden predicate at [level]. *)
let hidden_pred_cursor ctx ~table ~(pred : Predicate.t) ~level =
  let idx = attr_index_exn ctx ~table ~column:pred.Predicate.column in
  let sources =
    Climbing_index.lookup_cmp ~ram:ctx.ram ?cache:ctx.cache idx pred.Predicate.cmp
      ~level
  in
  union ctx sources

(* Defer cursor construction to the first pull, so the opening reads
   are charged to the operator that drains the stream. *)
let lazy_cursor make =
  let inner = ref None in
  Cursor.make (fun () ->
    let c =
      match !inner with
      | Some c -> c
      | None ->
        let c = make () in
        inner := Some c;
        c
    in
    Cursor.next c)

(* Climb a T-id list to the plan root through the dense key index. *)
let climb ctx ~table ids =
  if table = ctx.plan.Plan.root then Cursor.of_array ids
  else
    lazy_cursor (fun () ->
      let key_idx = key_index_exn ctx table in
      let sources =
        Array.to_list
          (Array.map
             (fun id ->
                Climbing_index.lookup_id ~ram:ctx.ram ?cache:ctx.cache key_idx id
                  ~level:ctx.plan.Plan.root)
             ids)
      in
      union ctx sources)

let intersect_cursors cursors =
  match cursors with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (Cursor.intersect_sorted ~cmp:Int.compare) first rest)

(* A group whose visible predicates Pre-filter (ship id lists into the
   device), or Post-filter (build Bloom filters). *)
let is_pre (g : Plan.group) =
  g.Plan.g_visible <> []
  &&
  match g.Plan.g_visible_strategy with
  | Plan.V_pre | Plan.V_cross_pre -> true
  | Plan.V_post | Plan.V_cross_post -> false

let is_post (g : Plan.group) = g.Plan.g_visible <> [] && not (is_pre g)

(* The sorted R-id stream contributed by one plan group, if any. *)
let group_pre_cursor ctx (g : Plan.group) =
  let root = ctx.plan.Plan.root in
  let indexed =
    List.filter (fun (h : Plan.hidden_pred) -> h.Plan.h_strategy = Plan.H_index) g.Plan.g_hidden
  in
  let visible_pre = is_pre g in
  let cross =
    visible_pre
    && g.Plan.g_visible_strategy = Plan.V_cross_pre
    && (indexed <> [] || g.Plan.g_borrowed <> [])
  in
  if indexed = [] && not visible_pre then None
  else if cross then begin
    (* Intersect everything at T level, then climb once. *)
    let t_ids = ship_visible_ids ctx ~table:g.Plan.g_table g.Plan.g_visible in
    let filtered =
      measure ctx
        (Printf.sprintf "CrossFilter(%s)" g.Plan.g_table)
        ~tuples_in:(Array.length t_ids)
        (fun () ->
           let hidden_t =
             List.map
               (fun (h : Plan.hidden_pred) ->
                  hidden_pred_cursor ctx ~table:g.Plan.g_table ~pred:h.Plan.h_pred
                    ~level:g.Plan.g_table)
               indexed
             (* deep cross: descendant predicates' lists at this level *)
             @ List.map
                 (fun (d, pred) ->
                    hidden_pred_cursor ctx ~table:d ~pred ~level:g.Plan.g_table)
                 g.Plan.g_borrowed
           in
           let t_stream =
             intersect_cursors (Cursor.of_array t_ids :: hidden_t) |> Option.get
           in
           let filtered = Cursor.to_array t_stream in
           cpu ctx (Array.length filtered);
           (filtered, Array.length filtered))
    in
    Some (climb ctx ~table:g.Plan.g_table filtered)
  end
  else begin
    let hidden_r =
      if indexed = [] then []
      else
        measure ctx
          (Printf.sprintf "IndexLookup(%s)" g.Plan.g_table)
          ~tuples_in:(List.length indexed)
          (fun () ->
             let cursors =
               List.map
                 (fun (h : Plan.hidden_pred) ->
                    hidden_pred_cursor ctx ~table:g.Plan.g_table ~pred:h.Plan.h_pred
                      ~level:root)
                 indexed
             in
             (cursors, List.length cursors))
    in
    let visible_r =
      if not visible_pre then []
      else begin
        let t_ids = ship_visible_ids ctx ~table:g.Plan.g_table g.Plan.g_visible in
        [ climb ctx ~table:g.Plan.g_table t_ids ]
      end
    in
    intersect_cursors (hidden_r @ visible_r)
  end

(* ---- post filters ---- *)

type bloom_filter = {
  bf_table : string;
  bf_level : int;  (* level index in the SKT row *)
  bf : Bloom.t;
  bf_cell : Ram.cell;
}

type hidden_check = {
  hc_pred : Predicate.t;
  hc_level : int;
  hc_reader : Column_store.reader;
}

let open_check ctx (g : Plan.group) (h : Plan.hidden_pred) =
  let table = g.Plan.g_table in
  {
    hc_pred = h.Plan.h_pred;
    hc_level = level_of ctx table;
    hc_reader = column_reader ctx ~table ~column:h.Plan.h_pred.Predicate.column;
  }

let build_bloom ctx (g : Plan.group) =
  let table = g.Plan.g_table in
  measure ctx (Printf.sprintf "BloomBuild(%s)" table) ~tuples_in:0 (fun () ->
    let lists =
      Device.with_usb_batch ctx.device (fun () ->
        receive_pred_lists ctx ~table ~charge:ignore g.Plan.g_visible)
    in
    let t_ids = Sorted_ids.intersect_many lists in
    (* Cross-post: shrink the insertion set with the hidden predicates'
       own-level index lists before filling the filter. *)
    let t_ids =
      if g.Plan.g_visible_strategy = Plan.V_cross_post then begin
        let indexed =
          List.filter (fun (h : Plan.hidden_pred) -> h.Plan.h_strategy = Plan.H_index)
            g.Plan.g_hidden
        in
        match
          intersect_cursors
            (Cursor.of_array t_ids
             :: List.map
                  (fun (h : Plan.hidden_pred) ->
                     hidden_pred_cursor ctx ~table ~pred:h.Plan.h_pred ~level:table)
                  indexed)
        with
        | Some c -> Cursor.to_array c
        | None -> t_ids
      end
      else t_ids
    in
    let n = max 1 (Array.length t_ids) in
    let ideal_bytes = (Bloom.bits_for_fpr ~n ~fpr:ctx.bloom_fpr + 7) / 8 in
    let free = Ram.budget ctx.ram - Ram.in_use ctx.ram in
    let budget = max 64 (min ideal_bytes (free / 4)) in
    let cell = Ram.alloc ctx.ram ~label:(Printf.sprintf "bloom(%s)" table) budget in
    let bf = Bloom.sized_for ~budget_bytes:budget ~n in
    Array.iter
      (fun id ->
         Bloom.add bf id;
         cpu ctx (Bloom.k bf))
      t_ids;
    ( { bf_table = table; bf_level = level_of ctx table; bf; bf_cell = cell },
      Array.length t_ids ))

(* ---- projection phase ---- *)

(* Join one sorted (id, value) stream against the rows on the ids at
   [level]. In-RAM hash join when the stream fits, external sort-merge
   otherwise. [verify] drops rows without a match (Bloom false
   positives); attach_value keeps the joined value on the row. *)
let join_stream ctx ~label ~level ~verify ~attach_value ~value_width ~rows fetch_stream =
  measure ctx label ~tuples_in:(List.length rows) (fun () ->
    let stream : (int * Value.t) array = fetch_stream () in
    let n = Array.length stream in
    let hash_bytes = n * (8 + value_width) in
    let free = Ram.budget ctx.ram - Ram.in_use ctx.ram in
    let joined =
      if hash_bytes <= free / 2 then begin
        (* RAM-resident hash join. *)
        Ram.with_alloc ctx.ram ~label:(label ^ "-hash") hash_bytes (fun _ ->
          let table = Hashtbl.create (max 16 n) in
          Array.iter (fun (id, v) -> Hashtbl.replace table id v) stream;
          cpu ctx (2 * n);
          List.filter_map
            (fun row ->
               cpu ctx 3;
               match Hashtbl.find_opt table row.ids.(level) with
               | Some v ->
                 if attach_value then row.attached <- v :: row.attached;
                 Some row
               | None ->
                 if verify then begin
                   ctx.bloom_fps <- ctx.bloom_fps + 1;
                   None
                 end
                 else begin
                   (* approximate mode: a Bloom false positive survives
                      with an unknown (NULL) projected value *)
                   if attach_value then row.attached <- Value.Null :: row.attached;
                   Some row
                 end)
            rows)
      end
      else begin
        (* Spill: sort the rows by the join id on scratch, merge with
           the sorted stream. Records carry the row ordinal; their
           simulated width includes the attached values so Flash
           traffic is honest. *)
        let rows_arr = Array.of_list rows in
        let attached_bytes =
          match rows with
          | [] -> 0
          | r :: _ -> 8 * List.length r.attached
        in
        let record_bytes = (4 * Array.length (if rows = [] then [||] else rows_arr.(0).ids)) + 4 + attached_bytes in
        let encode i =
          let b = Bytes.make record_bytes '\000' in
          Codec.put_u32 b 0 rows_arr.(i).ids.(level);
          Codec.put_u32 b 4 i;
          b
        in
        let input = Cursor.map encode (Cursor.of_array (Array.init (Array.length rows_arr) Fun.id)) in
        let sorted =
          Ext_sort.sort ~ram:ctx.ram ~scratch:ctx.scratch
            ~resources:ctx.resources ~cpu:(cpu ctx) ~record_bytes
            ~compare:(fun a b -> Int.compare (Codec.get_u32 a 0) (Codec.get_u32 b 0))
            input
        in
        let out =
          Cursor.merge_join
            ~left_key:(fun b -> Codec.get_u32 b 0)
            ~right_key:fst sorted (Cursor.of_array stream)
          |> Cursor.to_list
        in
        cpu ctx (2 * List.length out);
        let matched = Hashtbl.create 64 in
        List.iter
          (fun (record, (_, v)) ->
             let ordinal = Codec.get_u32 record 4 in
             Hashtbl.replace matched ordinal v)
          out;
        (List.concat_map
             (fun i ->
                let row = rows_arr.(i) in
                match Hashtbl.find_opt matched i with
                | Some v ->
                  if attach_value then row.attached <- v :: row.attached;
                  [ row ]
                | None ->
                  if verify then begin
                    ctx.bloom_fps <- ctx.bloom_fps + 1;
                    []
                  end
                  else begin
                    if attach_value then row.attached <- Value.Null :: row.attached;
                    [ row ]
                  end)
           (List.init (Array.length rows_arr) Fun.id))
      end
    in
    (joined, List.length joined))

let check_bloom_fpr fpr =
  (* [not (fpr > 0. && fpr < 1.)] also rejects NaN *)
  if not (fpr > 0. && fpr < 1.) then
    invalid_arg
      (Printf.sprintf
         "Exec: bloom_fpr must lie strictly between 0 and 1, got %g" fpr)

(* ---- the pipeline ----

   setup -> candidates -> delta scan -> projection joins -> tuple
   materialisation -> aggregate / ORDER BY / LIMIT -> emit -> scratch
   reclaim -> result.

   One pipeline serves every {!Oblivious.mode}. The mode picks a
   {!shape} — the few stage parameters that differ — and, inside the
   metering sites above, how USB and display frames are padded. *)

(* The SKT row of each root id, read through a small buffered reader:
   a point-probe window keeps the charged read close to the row size
   while still batching adjacent ids. *)
let skt_rows ctx =
  let reader =
    Option.map
      (fun skt -> Skt.open_reader ~ram:ctx.ram ~buffer_bytes:64 ?cache:ctx.cache skt)
      ctx.skt
  in
  Option.iter
    (fun r -> Resources.defer ctx.resources (fun () -> Skt.close_reader r))
    reader;
  fun id -> match reader with Some r -> Skt.get r id | None -> [| id |]

(* Deleted root rows: load the tombstone log into RAM once and filter
   every candidate (main and delta) against it. *)
let load_tombstones ctx =
  match Catalog.tombstone ctx.catalog ctx.plan.Plan.root with
  | None -> [||]
  | Some log ->
    measure ctx "TombstoneLoad" ~tuples_in:0 (fun () ->
      let ids = Tombstone_log.load_sorted log in
      let cell =
        Ram.alloc ctx.ram ~label:"tombstones" (max 4 (4 * Array.length ids))
      in
      Resources.defer ctx.resources (fun () -> Ram.free ctx.ram cell);
      cpu ctx (Array.length ids);
      (ids, Array.length ids))

(* What the candidate stage hands on: the rows from the main
   structures, the Bloom filters Post-filtering built (the delta scan
   and the verification joins reuse them), and the hidden-column
   checks it opened. *)
type candidates = {
  main : row list;
  blooms : bloom_filter list;
  checks : hidden_check list;
}

(* [Off] / [Pad]: Pre-filter cursors merged into candidate root ids
   ("Merge+Index"), Bloom filters for the Post-filtered groups, then
   one SKT probe per candidate, short-circuiting on the first failed
   Bloom filter or hidden-column check. *)
let indexed_candidates ctx ~tombstones =
  let plan = ctx.plan in
  let pre_cursors = List.filter_map (group_pre_cursor ctx) plan.Plan.groups in
  let n_root = Catalog.table_count ctx.catalog plan.Plan.root in
  let candidates =
    measure ctx "Merge+Index" ~tuples_in:0 (fun () ->
      let c =
        match intersect_cursors pre_cursors with
        | Some c -> c
        | None ->
          (* No pre source: enumerate all root ids (dense). *)
          let i = ref 0 in
          Cursor.make (fun () ->
            incr i;
            if !i > n_root then None else Some !i)
      in
      let arr = Cursor.to_array c in
      cpu ctx (Array.length arr);
      let arr =
        (* A visible pre-filter on the root ships public-store ids,
           which include rows inserted after the load. The SKT and
           the column stores do not cover those: drop them here (the
           delta scan finds them through the same id lists). *)
        let n = Array.length arr in
        if n = 0 || arr.(n - 1) <= n_root then arr
        else begin
          let k = ref 0 in
          while !k < n && arr.(!k) <= n_root do incr k done;
          Array.sub arr 0 !k
        end
      in
      let arr =
        if Array.length tombstones = 0 then arr
        else Sorted_ids.difference arr tombstones
      in
      (arr, Array.length arr))
  in
  let blooms = List.map (build_bloom ctx) (List.filter is_post plan.Plan.groups) in
  List.iter
    (fun b -> Resources.defer ctx.resources (fun () -> Ram.free ctx.ram b.bf_cell))
    blooms;
  let checks =
    List.concat_map
      (fun (g : Plan.group) ->
         List.filter_map
           (fun (h : Plan.hidden_pred) ->
              if h.Plan.h_strategy <> Plan.H_check then None
              else Some (open_check ctx g h))
           g.Plan.g_hidden)
      plan.Plan.groups
  in
  let main =
    measure ctx "AccessSKT" ~tuples_in:(Array.length candidates) (fun () ->
      let skt_row = skt_rows ctx in
      let rows =
        Array.to_list candidates
        |> List.filter_map (fun id ->
          let ids = skt_row id in
          let pass_blooms =
            List.for_all
              (fun b ->
                 cpu ctx (Bloom.k b.bf);
                 Bloom.mem b.bf ids.(b.bf_level))
              blooms
          in
          let pass_checks =
            pass_blooms
            && List.for_all
                 (fun hc ->
                    cpu ctx 2;
                    Predicate.holds hc.hc_pred
                      (Column_store.get hc.hc_reader ids.(hc.hc_level)))
                 checks
          in
          if pass_checks then
            Some { ids; attached = []; delta_hidden = None; live = true }
          else None)
      in
      (rows, List.length rows))
  in
  { main; blooms; checks }

(* [Full]'s per-row test: every hidden check and every shipped-list
   membership is evaluated and charged whatever an earlier one said — a
   skipped test would show on the clock. [value] reads a check's
   column for this row. *)
let uniform_live ctx ~tombstones ~checks ~value ids =
  let dead = Sorted_ids.member tombstones ids.(0) in
  let hidden_ok =
    List.fold_left
      (fun acc hc ->
         cpu ctx 2;
         let ok = Predicate.holds hc.hc_pred (value hc) in
         acc && ok)
      true checks
  in
  let visible_ok =
    List.fold_left
      (fun acc (table, shipped) ->
         cpu ctx 2;
         let m = Sorted_ids.member shipped ids.(level_of ctx table) in
         acc && m)
      true ctx.shipped
  in
  (not dead) && hidden_ok && visible_ok

(* [Full]: every visible id list ships padded to its table's
   cardinality (the real intersection stays host-side for membership),
   every hidden predicate becomes a check, and the SKT is scanned
   bound-depth — every loaded root id, all the predicate work on each,
   the outcome kept as a live flag. *)
let bound_scan ctx ~tombstones =
  let plan = ctx.plan in
  List.iter
    (fun (g : Plan.group) -> if g.Plan.g_visible <> [] then ship_padded_ids ctx g)
    plan.Plan.groups;
  let checks =
    List.concat_map
      (fun (g : Plan.group) -> List.map (open_check ctx g) g.Plan.g_hidden)
      plan.Plan.groups
  in
  let n_root = Catalog.table_count ctx.catalog plan.Plan.root in
  let main =
    measure ctx "BoundScan" ~tuples_in:n_root (fun () ->
      let skt_row = skt_rows ctx in
      let out = ref [] in
      let live_out = ref 0 in
      for id = 1 to n_root do
        let ids = skt_row id in
        cpu ctx 1;
        let live =
          uniform_live ctx ~tombstones ~checks ids ~value:(fun hc ->
            Column_store.get hc.hc_reader ids.(hc.hc_level))
        in
        if live then incr live_out;
        out := { ids; attached = []; delta_hidden = None; live } :: !out
      done;
      (List.rev !out, !live_out))
  in
  { main; blooms = []; checks }

(* Rows inserted after the load live in the delta log: scan it,
   applying every predicate directly (indexes do not cover them).
   [make_test] runs inside the operator, so the readers it opens are
   charged there. Every scanned record comes back, flagged. *)
let scan_delta ctx log ~tuples_in ?lo ?hi make_test =
  measure ctx "DeltaScan" ~tuples_in (fun () ->
    let test = make_test () in
    let out = ref [] in
    let live_out = ref 0 in
    Delta_log.scan_range ?lo ?hi log (fun r ->
      cpu ctx 5;
      let live = test r in
      if live then incr live_out;
      out :=
        {
          ids = r.Delta_log.ids;
          attached = [];
          delta_hidden = Some (Delta_log.hidden_assoc log r);
          live;
        }
        :: !out);
    (List.rev !out, !live_out))

(* [Off] / [Pad]: visible Pre-filter predicates use the shipped id
   lists; Post predicates use the Bloom filters (plus the exact
   verification joins, like main rows). With leveled runs, a
   Pre-filtered root selection fences the scan: run pages outside the
   shipped id range are skipped (superset emission; the membership
   test still decides). The flat log has no runs, so the fence changes
   nothing there. *)
let fenced_delta_scan ctx ~tombstones cands log =
  let plan = ctx.plan in
  let root = plan.Plan.root in
  let lo, hi =
    if not (Delta_log.runs_enabled log) then (None, None)
    else if not (List.exists (fun (g : Plan.group) -> g.Plan.g_table = root && is_pre g)
                   plan.Plan.groups)
    then (None, None)
    else
      match List.assoc_opt root ctx.shipped with
      | Some ids when Array.length ids > 0 ->
        (Some ids.(0), Some ids.(Array.length ids - 1))
      | Some _ -> (Some 0, Some (-1))  (* empty selection *)
      | None -> (None, None)
  in
  scan_delta ctx log ~tuples_in:(Delta_log.count log) ?lo ?hi (fun () ->
    let hidden_evals =
      List.concat_map
        (fun (g : Plan.group) ->
           List.map
             (fun (h : Plan.hidden_pred) ->
                let table = g.Plan.g_table in
                let pred = h.Plan.h_pred in
                if table = root then
                  fun (r : Delta_log.row) ->
                    Predicate.holds pred
                      (Delta_log.hidden_value log r pred.Predicate.column)
                else begin
                  let reader =
                    column_reader ctx ~table ~column:pred.Predicate.column
                  in
                  let lvl = level_of ctx table in
                  fun (r : Delta_log.row) ->
                    Predicate.holds pred
                      (Column_store.get reader r.Delta_log.ids.(lvl))
                end)
             g.Plan.g_hidden)
        plan.Plan.groups
    in
    let visible_pre_checks =
      List.filter_map
        (fun (g : Plan.group) ->
           if not (is_pre g) then None
           else begin
             let lvl = level_of ctx g.Plan.g_table in
             match List.assoc_opt g.Plan.g_table ctx.shipped with
             | Some ids ->
               Some
                 (fun (r : Delta_log.row) ->
                    Sorted_ids.member ids r.Delta_log.ids.(lvl))
             | None -> fail "delta scan: no shipped id list for %s" g.Plan.g_table
           end)
        plan.Plan.groups
    in
    fun r ->
      not (Sorted_ids.member tombstones r.Delta_log.ids.(0))
      && List.for_all (fun f -> f r) hidden_evals
      && List.for_all (fun f -> f r) visible_pre_checks
      && List.for_all
           (fun b ->
              cpu ctx (Bloom.k b.bf);
              Bloom.mem b.bf r.Delta_log.ids.(b.bf_level))
           cands.blooms)
  |> List.filter (fun row -> row.live)

(* [Full]: the log is scanned end to end (its length is public: the
   spy watched every insert, and compaction folding depends only on the
   public insert/delete volume) with the same uniform test as the
   bound scan. No fence: the touched page set never depends on the
   selection. *)
let uniform_delta_scan ctx ~tombstones cands log =
  scan_delta ctx log ~tuples_in:(Delta_log.physical_records log) (fun () r ->
    uniform_live ctx ~tombstones ~checks:cands.checks r.Delta_log.ids
      ~value:(fun hc ->
        if hc.hc_level = 0 then
          Delta_log.hidden_value log r hc.hc_pred.Predicate.column
        else Column_store.get hc.hc_reader r.Delta_log.ids.(hc.hc_level)))

let visible_preds_on ctx table =
  let schema = ctx.catalog.Catalog.schema in
  List.filter
    (fun (p : Predicate.t) ->
       p.Predicate.table = table
       &&
       let tbl = Schema.find_table schema table in
       not (Column.is_hidden (Schema.find_column tbl p.Predicate.column)))
    ctx.plan.Plan.query.Bind.selections

(* The stages the mode decides; every other stage is shared.

   Under [Full] everything the spy observes — frame count, frame
   lengths, page-touch counts, the simulated clock — is a function of
   the schema and of public bounds (table cardinalities, live root
   count, delta / tombstone log lengths), never of hidden data.
   Filtering rides on the rows' live flags, so the answer is still
   exact. RAM occupancy inside the tamper-resistant device may vary
   with the data; it is not on any spy-visible link. *)
type shape = {
  candidates : context -> tombstones:int array -> candidates;
  delta_scan :
    context -> tombstones:int array -> candidates -> Delta_log.t -> row list;
  stream_preds : context -> string -> Predicate.t list;
      (* the visible predicates a projection stream is filtered by;
         [Full] fetches whole columns, so stream lengths are table
         cardinalities *)
  charged_rows : all:int -> real:int -> int;
      (* the row count aggregation and ORDER BY are charged at: the
         [real] one, or under [Full] [all] the rows the scans carried,
         dead ones included *)
}

let indexed_shape =
  {
    candidates = indexed_candidates;
    delta_scan = fenced_delta_scan;
    stream_preds = visible_preds_on;
    charged_rows = (fun ~all:_ ~real -> real);
  }

let fixed_shape =
  {
    candidates = bound_scan;
    delta_scan = uniform_delta_scan;
    stream_preds = (fun _ _ -> []);
    charged_rows = (fun ~all ~real:_ -> all);
  }

let shape_of = function
  | Oblivious.Off | Oblivious.Pad -> indexed_shape
  | Oblivious.Full -> fixed_shape

(* The visible non-key columns the query projects, each fetched as one
   (id, value) stream from the public store. *)
let projected_visible ctx =
  let schema = ctx.catalog.Catalog.schema in
  List.filter_map
    (fun (table, column) ->
       let tbl = Schema.find_table schema table in
       if column = tbl.Schema.key then None
       else begin
         let col = Schema.find_column tbl column in
         if Column.is_hidden col then None else Some (table, column, col.Column.ty)
       end)
    ctx.plan.Plan.query.Bind.projections
  |> List.sort_uniq compare

(* Projection joins: the visible projected columns, plus verification
   of Post-filtered tables — Bloom false positives never reach the
   result under [exact_post]. *)
let projection_joins ctx shape ~blooms ~projected rows =
  let post_tables = List.map (fun b -> b.bf_table) blooms in
  let rows =
    List.fold_left
      (fun rows (table, column, ty) ->
         let fetch () =
           let stream =
             Public_store.stream_column ctx.public ~trace:(Device.trace ctx.device)
               ~table ~column ~preds:(shape.stream_preds ctx table)
           in
           receive_stream ctx ~table ~column ~ty stream;
           stream
         in
         join_stream ctx
           ~label:(Printf.sprintf "Project+Join(%s.%s)" table column)
           ~level:(level_of ctx table)
           ~verify:(ctx.exact_post && List.mem table post_tables)
           ~attach_value:true ~value_width:(Value.ty_width ty) ~rows fetch)
      rows projected
  in
  let verify_only_tables =
    if not ctx.exact_post then []
    else
      List.filter
        (fun t -> not (List.exists (fun (t', _, _) -> t' = t) projected))
        post_tables
  in
  List.fold_left
    (fun rows table ->
       join_stream ctx
         ~label:(Printf.sprintf "Verify(%s)" table)
         ~level:(level_of ctx table) ~verify:true ~attach_value:false ~value_width:0
         ~rows
         (fun () ->
            let ids = ship_visible_ids ctx ~table (visible_preds_on ctx table) in
            Array.map (fun id -> (id, Value.Null)) ids))
    rows verify_only_tables

(* Tuple materialisation, aggregate, ORDER BY / LIMIT and emission to
   the secure display. Tuples are materialised for dead rows too
   (identical hidden-column page touches), then dropped. *)
let project ctx shape ~projected rows =
  let plan = ctx.plan in
  let schema = ctx.catalog.Catalog.schema in
  let root = plan.Plan.root in
  let attach_order = List.map (fun (t, c, _) -> (t, c)) projected in
  measure ctx "Project" ~tuples_in:(List.length rows) (fun () ->
    (* Readers for projected hidden columns. *)
    let hidden_readers = Hashtbl.create 8 in
    let reader_for table column =
      match Hashtbl.find_opt hidden_readers (table, column) with
      | Some r -> r
      | None ->
        let r = column_reader ctx ~table ~column in
        Hashtbl.replace hidden_readers (table, column) r;
        r
    in
    let tuples =
      List.filter_map
        (fun row ->
           let attached = Array.of_list (List.rev row.attached) in
           let tuple =
             Array.of_list
               (List.map
                  (fun (table, column) ->
                     cpu ctx 2;
                     let tbl = Schema.find_table schema table in
                     if column = tbl.Schema.key then Value.Int row.ids.(level_of ctx table)
                     else if Column.is_hidden (Schema.find_column tbl column) then begin
                       match row.delta_hidden with
                       | Some assoc when table = root -> List.assoc column assoc
                       | Some _ | None ->
                         Column_store.get (reader_for table column)
                           row.ids.(level_of ctx table)
                     end
                     else begin
                       let rec pos i = function
                         | [] -> fail "projection %s.%s not attached" table column
                         | (t, c) :: rest ->
                           if t = table && c = column then i else pos (i + 1) rest
                       in
                       attached.(pos 0 attach_order)
                     end)
                  plan.Plan.query.Bind.projections)
           in
           if row.live then Some tuple else None)
        rows
    in
    let charged = shape.charged_rows ~all:(List.length rows) in
    (* Aggregate queries fold the base rows on the device; the group
       table is RAM-resident. *)
    let out =
      match plan.Plan.query.Bind.aggregate with
      | None -> tuples
      | Some spec ->
        cpu ctx (5 * charged ~real:(List.length tuples));
        let grouped = Ghost_sql.Aggregate.apply spec tuples in
        let group_bytes =
          max 16
            (List.length grouped * 8 * max 1 (List.length spec.Ghost_sql.Aggregate.output))
        in
        Ram.with_alloc ctx.ram ~label:"aggregate-groups" group_bytes (fun _ -> ());
        grouped
    in
    let unlimited = List.length out in
    (* ORDER BY / LIMIT: the output rows are sorted in device RAM just
       before emission. *)
    let out =
      match plan.Plan.query.Bind.order_by, plan.Plan.query.Bind.limit with
      | [], None -> out
      | order_by, limit ->
        let n = charged ~real:unlimited in
        cpu ctx (n * Ext_sort.log2_ceil n);
        Ram.with_alloc ctx.ram ~label:"order-by"
          (max 16 (n * 8))
          (fun _ -> Ghost_sql.Postproc.apply ~order_by ~limit out)
    in
    emit_rows ctx ~count:(List.length out) ~unlimited;
    (out, List.length out))

let execute_once ~exact_post ~bloom_fpr ~scratch catalog public plan =
  Plan.validate plan;
  check_bloom_fpr bloom_fpr;
  let shape = shape_of plan.Plan.oblivious in
  let device = catalog.Catalog.device in
  let root = plan.Plan.root in
  let skt = Catalog.skt catalog root in
  Resources.with_resources (fun resources ->
    let ctx =
      {
        catalog;
        public;
        plan;
        device;
        ram = Device.ram device;
        scratch;
        cache = Device.page_cache device;
        resources;
        skt;
        levels = (match skt with Some s -> Skt.levels s | None -> [ root ]);
        ops_rev = [];
        exact_post;
        bloom_fpr;
        bloom_fps = 0;
        shipped = [];
        pad_bytes = 0;
      }
    in
    let trace = Device.trace device in
    let global_scope = Ram.open_scope ctx.ram in
    (* If execution dies mid-plan (cancellation, RAM exhaustion), the
       scope must still be closed so the arena stops tracking it; a
       second close on the normal path below is a no-op. *)
    Resources.defer resources (fun () ->
      ignore (Ram.close_scope ctx.ram global_scope));
    let run_start = Device.snapshot device in
    (* The query text itself travels to the device (spy-visible). *)
    ignore
      (measure ctx "ReceiveQuery" ~tuples_in:0 (fun () ->
         Device.receive_query device plan.Plan.query.Bind.text;
         ((), 0)));
    let tombstones = load_tombstones ctx in
    let cands = shape.candidates ctx ~tombstones in
    let delta_rows =
      match Catalog.delta catalog root with
      | None -> []
      | Some log -> shape.delta_scan ctx ~tombstones cands log
    in
    let projected = projected_visible ctx in
    let rows =
      projection_joins ctx shape ~blooms:cands.blooms ~projected
        (cands.main @ delta_rows)
    in
    let result_rows = project ctx shape ~projected rows in
    (* Reclaim the scratch region (block erases count). Live bytes, not
       cumulative programs: a pooled per-session region carries the
       program counters of earlier sessions, but only pages spilled by
       THIS plan are live here (the region is handed over erased). *)
    if Flash.live_bytes scratch > 0 then
      ignore
        (measure ctx "ScratchReclaim" ~tuples_in:0 (fun () ->
           Flash.erase_live_blocks scratch;
           ((), 0)));
    Resources.release resources;
    (* Buffer-manager counters travel with the results on the secure
       display channel (zero bytes — they are rendered, not shipped). *)
    (match ctx.cache with
     | Some c ->
       let s = Page_cache.stats c in
       Trace.record trace Trace.Device_to_display
         (Trace.Cache_stats
            {
              hits = s.Page_cache.hits;
              misses = s.Page_cache.misses;
              evictions = s.Page_cache.evictions;
            })
         ~bytes:0
     | None -> ());
    let total =
      Device.usage_between device ~before:run_start ~after:(Device.snapshot device)
    in
    let ram_peak = Ram.close_scope ctx.ram global_scope in
    {
      rows = result_rows;
      row_count = List.length result_rows;
      ops = List.rev ctx.ops_rev;
      total;
      elapsed_us = total.Device.total_us;
      ram_peak;
      bloom_fp_candidates = ctx.bloom_fps;
      oblivious = plan.Plan.oblivious;
      padding_bytes = ctx.pad_bytes;
    })

(* Graceful degradation under a detected integrity failure. A caught
   {!Flash.Integrity_error} aborts the attempt cleanly (the deferred
   RAM-scope close runs, the scratch region is reclaimable), the
   poisoned frame is dropped from the page cache, and a cache-bypass
   re-read of the accused page classifies the failure: if the cells
   still verify, the corruption was transient (a stale frame) and the
   plan is retried once from the top; if not, the damage is
   persistent and the session fails with the original error — never
   with silently wrong rows. *)
let execute ~exact_post ~bloom_fpr ~scratch catalog public plan =
  try execute_once ~exact_post ~bloom_fpr ~scratch catalog public plan with
  | Flash.Integrity_error { page; _ } as e ->
    let device = catalog.Catalog.device in
    (match Device.page_cache device with
     | Some c -> Page_cache.invalidate c ~page
     | None -> ());
    let transient = Flash.page_intact (Device.flash device) ~page in
    Device.note_integrity_error device ~transient;
    if transient then
      execute_once ~exact_post ~bloom_fpr ~scratch catalog public plan
    else raise e

let run ?(exact_post = true) ?(bloom_fpr = 0.01) catalog public plan =
  execute ~exact_post ~bloom_fpr
    ~scratch:(Device.scratch catalog.Catalog.device) catalog public plan

(* ---- resumable execution (the scheduler's step machine) ----

   The plan body above is written as one straight-line computation; to
   time-slice it without threading explicit state through every
   operator, it runs under an effect handler. The device's tick hook
   (invoked after every CPU / USB charge, i.e. at tuple granularity)
   performs [Yield] once the slice has consumed its quantum of
   simulated microseconds; the handler captures the one-shot
   continuation and hands control back to the scheduler. With an
   infinite quantum no hook is installed and the computation is the
   plain [run] — bit-identical results, trace and clock. *)

type _ Effect.t += Yield : unit Effect.t

exception Cancelled

type step_outcome = Yielded | Finished of result

type sm_state =
  | Sm_pending of (unit -> step_outcome)
  | Sm_suspended of (unit, step_outcome) Effect.Deep.continuation
  | Sm_finished of result
  | Sm_failed
  | Sm_cancelled

type step_machine = {
  sm_device : Device.t;
  sm_quantum : float;
  mutable sm_state : sm_state;
}

let start ?(exact_post = true) ?(bloom_fpr = 0.01) ?(quantum_us = infinity)
    ?scratch catalog public plan =
  check_bloom_fpr bloom_fpr;
  if not (quantum_us > 0.) then
    invalid_arg "Exec.start: quantum_us must be positive";
  let device = catalog.Catalog.device in
  let scratch =
    match scratch with Some s -> s | None -> Device.scratch device
  in
  {
    sm_device = device;
    sm_quantum = quantum_us;
    sm_state =
      Sm_pending
        (fun () ->
           Finished (execute ~exact_post ~bloom_fpr ~scratch catalog public plan));
  }

let finished m =
  match m.sm_state with Sm_finished r -> Some r | _ -> None

let step m =
  match m.sm_state with
  | Sm_finished r -> Finished r
  | Sm_failed -> invalid_arg "Exec.step: the execution previously failed"
  | Sm_cancelled -> invalid_arg "Exec.step: the execution was cancelled"
  | (Sm_pending _ | Sm_suspended _) as state ->
    let slice_start = Device.elapsed_us m.sm_device in
    if m.sm_quantum < infinity then
      Device.set_on_tick m.sm_device
        (Some
           (fun () ->
              if Device.elapsed_us m.sm_device -. slice_start >= m.sm_quantum
              then Effect.perform Yield));
    Fun.protect ~finally:(fun () -> Device.set_on_tick m.sm_device None)
    @@ fun () ->
    let outcome =
      match state with
      | Sm_pending thunk ->
        Effect.Deep.match_with thunk ()
          {
            Effect.Deep.retc = Fun.id;
            exnc =
              (fun e ->
                 m.sm_state <- Sm_failed;
                 raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                 match eff with
                 | Yield ->
                   Some
                     (fun (k : (a, step_outcome) Effect.Deep.continuation) ->
                        m.sm_state <- Sm_suspended k;
                        Yielded)
                 | _ -> None);
          }
      | Sm_suspended k ->
        (* One-shot: consumed now; the handler installed by the first
           slice's [match_with] re-captures on the next yield. *)
        Effect.Deep.continue k ()
      | Sm_finished _ | Sm_failed | Sm_cancelled -> assert false
    in
    (match outcome with
     | Finished r -> m.sm_state <- Sm_finished r
     | Yielded -> ());
    outcome

let cancel m =
  match m.sm_state with
  | Sm_pending _ -> m.sm_state <- Sm_cancelled
  | Sm_suspended k ->
    (* Raise [Cancelled] at the suspension point: the unwinding runs
       the plan's deferred releases (RAM cells, readers, the global
       scope), so the arena and the scratch lease come back clean. Any
       exception out of the unwinding — normally [Cancelled] itself,
       re-raised by the deep handler — ends the session either way. *)
    (try ignore (Effect.Deep.discontinue k Cancelled : step_outcome)
     with _ -> ());
    m.sm_state <- Sm_cancelled
  | Sm_finished _ | Sm_failed | Sm_cancelled -> ()

let pp_ops fmt ops =
  Format.fprintf fmt "%-28s %10s %10s %10s %12s@." "operator" "in" "out" "ram(B)"
    "time(us)";
  List.iter
    (fun o ->
       Format.fprintf fmt "%-28s %10d %10d %10d %12.0f@." o.op_label o.tuples_in
         o.tuples_out o.ram_peak o.usage.Device.total_us)
    ops

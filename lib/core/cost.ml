module Value = Ghost_kernel.Value
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Wire = Ghost_device.Device.Wire
module Bloom = Ghost_bloom.Bloom
module Oblivious = Ghost_oblivious.Oblivious

type estimate = {
  est_time_us : float;
  est_candidates : int;
  est_results : int;
  est_ram_bytes : int;
  est_usb_bytes : int;
  breakdown : (string * float) list;
}

let chunk = 256.
let avg_varint_bytes = 1.5
let locator_bytes = 16.

type env = {
  cat : Catalog.t;
  cfg : Device.config;
  fc : Flash.cost;
  plan : Plan.t;
  cache_hit : float;
      (* estimated page-cache hit ratio on the main Flash region; 0.
         without a cache *)
  mutable parts : (string * float) list;
  mutable usb_bytes : int;
  mutable ram_bytes : int;
}

let add env label us = env.parts <- (label, us) :: env.parts

(* Time to stream [bytes] through [chunk]-byte reads off the scratch
   region, which the page cache never fronts. *)
let scratch_read_us env bytes =
  if bytes <= 0. then 0.
  else
    let chunks = Float.max 1. (Float.round (bytes /. chunk)) in
    (chunks *. env.fc.Flash.read_seek_us) +. (bytes *. env.fc.Flash.read_byte_us)

(* Time to stream [bytes] off the main Flash region: cache hits are
   free, so the expected cost is the miss fraction of the uncached
   stream. *)
let read_stream_us env bytes = (1. -. env.cache_hit) *. scratch_read_us env bytes

(* One small random read (locator, directory entry, SKT row...) off the
   main region. With a cache a hit is free and a miss fills a whole
   frame — the expected cost can exceed the uncached partial read when
   the hit ratio is poor, which is exactly the regime where a tiny
   cache loses. *)
let point_read_us env bytes =
  if env.cache_hit > 0. then
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    (1. -. env.cache_hit)
    *. (env.fc.Flash.read_seek_us +. (page *. env.fc.Flash.read_byte_us))
  else env.fc.Flash.read_seek_us +. (bytes *. env.fc.Flash.read_byte_us)

let write_stream_us env bytes =
  if bytes <= 0. then 0.
  else
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    let pages = Float.max 1. (ceil (bytes /. page)) in
    (pages *. env.fc.Flash.program_seek_us) +. (bytes *. env.fc.Flash.program_byte_us)

let usb_us env bytes =
  env.usb_bytes <- env.usb_bytes + int_of_float bytes;
  env.cfg.Device.usb_per_message_us
  +. (bytes *. 8. /. env.cfg.Device.usb_mbit_per_s)

let cpu_us env ops = ops /. env.cfg.Device.cpu_mips

(* Per-encoding USB byte predictions: the formulas live next to the
   wire-format definition, the [population] (table cardinality the
   shipped subset was drawn from) fixes the expected varint-delta
   width. Under the default [Verbose] these are exactly the seed's
   fixed-width sizes. Padded modes bypass the wire encoder with
   fixed-width frames rounded up to their public bound, and the model
   follows suit. *)
let ship_bytes env ~n_t m =
  match env.plan.Plan.oblivious with
  | Oblivious.Off ->
    Wire.est_id_list_bytes env.cfg.Device.wire_format
      ~population:(Float.of_int n_t) m
  | Oblivious.Pad ->
    let n = min n_t (int_of_float (ceil m)) in
    4. *. Float.of_int (Oblivious.pad_count ~bound:n_t (max 0 n))
  | Oblivious.Full -> 4. *. Float.of_int n_t

let stream_bytes env ~n_t ~tys n =
  match env.plan.Plan.oblivious with
  | Oblivious.Off ->
    Wire.est_value_stream_bytes env.cfg.Device.wire_format
      ~population:(Float.of_int n_t) ~tys n
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let width =
      List.fold_left
        (fun acc ty -> acc +. Float.of_int (4 + Value.ty_width ty))
        0. tys
    in
    let count =
      match m with
      | Oblivious.Pad ->
        Oblivious.pad_count ~bound:n_t (max 0 (min n_t (int_of_float (ceil n))))
      | Oblivious.Off | Oblivious.Full -> n_t
    in
    width *. Float.of_int count

let sel env (p : Predicate.t) =
  Col_stats.selectivity
    (Catalog.column_stats env.cat ~table:p.Predicate.table ~column:p.Predicate.column)
    p.Predicate.cmp

(* live rows: loaded + inserted - tombstoned, so estimates track the
   logical state between reorganizations *)
let count env table = max 1 (Catalog.live_count env.cat table)

(* Hierarchical-merge overhead: the extra scratch passes unioning [k]
   lists totaling [bytes] needs beyond the final streaming pass. *)
let merge_passes_us env ~k ~bytes =
  let fan = Float.max 2. (Float.of_int env.cfg.Device.ram_budget /. 2. /. chunk) in
  if Float.of_int k <= fan then cpu_us env (Float.of_int k *. 10.)
  else begin
    let passes = ceil (log (Float.of_int k) /. log fan) -. 1. in
    (passes *. (scratch_read_us env bytes +. write_stream_us env bytes))
    +. cpu_us env (bytes /. avg_varint_bytes *. 5.)
  end

(* Traversing one hidden predicate's climbing index at [level]:
   directory binary search + list bytes. *)
let hidden_index_us env ~table (p : Predicate.t) ~level_count =
  let stats = Catalog.column_stats env.cat ~table ~column:p.Predicate.column in
  let distinct = Float.of_int (max 1 (Col_stats.distinct stats)) in
  let s = sel env p in
  let dir_probes = Float.max 1. (log distinct /. log 2.) in
  let list_bytes = s *. Float.of_int level_count *. avg_varint_bytes in
  let matched_values = Float.max 1. (s *. distinct) in
  point_read_us env 40. *. dir_probes
  +. read_stream_us env list_bytes
  +. merge_passes_us env ~k:(int_of_float matched_values) ~bytes:list_bytes

(* Climbing [m] T-ids to the root: per-id locator chunk read + per-id
   list chunk read(s) + hierarchical merge passes. The executor reads
   through [chunk]-byte buffers, so each id costs at least two chunk
   reads even when its list is tiny. *)
let climb_us env ~table m =
  ignore locator_bytes;
  if table = env.plan.Plan.root || m <= 0. then 0.
  else begin
    let fanout =
      Float.of_int (count env env.plan.Plan.root) /. Float.of_int (count env table)
    in
    let list_bytes = m *. fanout *. avg_varint_bytes in
    let chunk_read = point_read_us env chunk in
    (m *. chunk_read)
    +. Float.max (m *. chunk_read) (read_stream_us env list_bytes)
    +. merge_passes_us env ~k:(int_of_float m) ~bytes:list_bytes
  end

(* SKT probing: candidates share the reader's window when they are
   dense, so the number of Flash reads is the number of windows
   touched, not the number of candidates. *)
let skt_access_us env ~n_root ~candidates ~row_bytes =
  if candidates <= 0. || row_bytes <= 0. then 0.
  else begin
    let window = 64. in
    let rows_per_window = Float.max 1. (window /. row_bytes) in
    let n_windows = Float.of_int n_root /. rows_per_window in
    let density = Float.min 1. (candidates /. Float.of_int n_root) in
    let touched =
      Float.min candidates
        (n_windows *. (1. -. Float.pow (1. -. density) rows_per_window))
    in
    touched *. point_read_us env window
  end

let visible_sel env preds = List.fold_left (fun acc p -> acc *. sel env p) 1. preds

(* Public bound of the result cardinality: the live root count, capped
   by the query's LIMIT (which rides in the spy-visible query text). *)
let emit_bound env =
  let live = count env env.plan.Plan.root in
  match env.plan.Plan.query.Bind.limit with
  | Some l -> max 0 (min l live)
  | None -> live

(* Merge-on-read charge for the delta log under leveled runs: the read
   amplification is the run pages surviving fence skipping plus the
   (bounded) L0 pages, at scratch speed — run pages are recycled
   constantly, so the cache never fronts them — plus the executor's 5
   CPU ops per record scanned. [fraction] is the expected share of run
   pages a fenced scan touches (1 for an unfenced or oblivious scan).
   Zero — no term, no label — on a flat log, so the seed's estimates
   stay bit-identical. *)
let delta_scan_us env ~fraction =
  match Catalog.delta env.cat env.plan.Plan.root with
  | None -> 0.
  | Some log when not (Delta_log.runs_enabled log) -> 0.
  | Some log ->
    let page = Float.of_int env.cfg.Device.flash_geometry.Flash.page_size in
    let run_pages = Float.of_int (Delta_log.run_pages log) in
    let l0_pages = Float.of_int (Delta_log.l0_pages log) in
    let touched = (fraction *. run_pages) +. l0_pages in
    let total = run_pages +. l0_pages in
    let share = if total <= 0. then 0. else touched /. total in
    scratch_read_us env (touched *. page)
    +. cpu_us env (5. *. share *. Float.of_int (Delta_log.physical_records log))

(* Bytes the query-time point-read paths keep going back to: index
   directories (binary searches revisit the top levels constantly),
   SKT rows and hidden column stores. The list blobs are streamed once
   and excluded. *)
let cache_working_set cat =
  let dir i = Ghost_store.Climbing_index.directory_bytes i in
  List.fold_left
    (fun acc (_, (e : Catalog.table_entry)) ->
       acc
       + (match e.Catalog.key_index with Some i -> dir i | None -> 0)
       + List.fold_left (fun a (_, i) -> a + dir i) 0 e.Catalog.attr_indexes
       + List.fold_left
           (fun a (_, cs) -> a + Ghost_store.Column_store.size_bytes cs)
           0 e.Catalog.hidden_columns)
    0 cat.Catalog.entries
  + List.fold_left (fun a (_, s) -> a + Ghost_store.Skt.size_bytes s) 0 cat.Catalog.skts

(* Expected hit ratio of a [frames]-frame cache over that working set —
   the fraction of hot bytes resident at steady state, capped below 1
   because cold misses and log-append invalidations never vanish. *)
let hit_ratio cat (cfg : Device.config) =
  if cfg.Device.page_cache_frames <= 0 then 0.
  else begin
    let page = cfg.Device.flash_geometry.Flash.page_size in
    let ws = max page (cache_working_set cat) in
    Float.min 0.95
      (Float.of_int (cfg.Device.page_cache_frames * page) /. Float.of_int ws)
  end

(* Fixed-shape estimate ([Plan.oblivious = Full]): mirrors the
   executor's fixed-shape stages one by one instead of scaling by
   selectivities — by construction its cost is a function of the
   schema and public bounds alone, so nothing here consults a
   predicate's selectivity except to predict [est_results]. *)
let estimate_full env =
  let plan = env.plan in
  let cat = env.cat in
  let root = plan.Plan.root in
  let n_root = count env root in
  let schema = cat.Catalog.schema in
  let time = ref 0. in
  let spend label us =
    add env label us;
    time := !time +. us
  in
  (* one full-cardinality frame per visible predicate *)
  List.iter
    (fun (g : Plan.group) ->
       let t = g.Plan.g_table in
       let n_t = count env t in
       List.iter
         (fun (_ : Predicate.t) ->
            spend
              (Printf.sprintf "ship-pad(%s)" t)
              (usb_us env (4. *. Float.of_int n_t)
               +. cpu_us env (Float.of_int n_t)))
         g.Plan.g_visible)
    plan.Plan.groups;
  (* bound-depth SKT scan: every loaded root row, sequentially *)
  let skt_row_bytes =
    match Catalog.skt cat root with
    | Some skt -> Float.of_int (Ghost_store.Skt.row_width skt)
    | None -> 0.
  in
  spend "bound-scan"
    (read_stream_us env (Float.of_int n_root *. skt_row_bytes)
     +. cpu_us env (Float.of_int n_root *. 3.));
  (* the delta log is scanned whole — runs and L0, never fenced — on
     the oblivious path *)
  let ds = delta_scan_us env ~fraction:1. in
  if ds > 0. then spend "delta-scan" ds;
  (* every hidden predicate checked on every candidate *)
  List.iter
    (fun (g : Plan.group) ->
       List.iter
         (fun (h : Plan.hidden_pred) ->
            let tbl = Schema.find_table schema g.Plan.g_table in
            let col = Schema.find_column tbl h.Plan.h_pred.Predicate.column in
            spend
              (Printf.sprintf "check-all(%s.%s)" g.Plan.g_table
                 h.Plan.h_pred.Predicate.column)
              (Float.of_int n_root
               *. point_read_us env (Float.of_int (Value.ty_width col.Column.ty))))
         g.Plan.g_hidden)
    plan.Plan.groups;
  (* full-column projection streams, joined against all rows *)
  let projected_visible =
    List.filter_map
      (fun (table, column) ->
         let tbl = Schema.find_table schema table in
         if column = tbl.Schema.key then None
         else begin
           let col = Schema.find_column tbl column in
           if Column.is_hidden col then None
           else Some (table, column, col.Column.ty)
         end)
      plan.Plan.query.Bind.projections
    |> List.sort_uniq compare
  in
  let tables =
    List.sort_uniq String.compare (List.map (fun (t, _, _) -> t) projected_visible)
  in
  List.iter
    (fun table ->
       let n_t = count env table in
       let cols = List.filter (fun (t, _, _) -> t = table) projected_visible in
       let tys = List.map (fun (_, _, ty) -> ty) cols in
       spend
         (Printf.sprintf "stream-full(%s)" table)
         (usb_us env (stream_bytes env ~n_t ~tys (Float.of_int n_t)));
       spend
         (Printf.sprintf "join-hash(%s)" table)
         (cpu_us env ((Float.of_int n_t +. Float.of_int n_root) *. 4.)))
    tables;
  (* hidden projections read for every row, live or dead *)
  List.iter
    (fun (table, column) ->
       let tbl = Schema.find_table schema table in
       if column <> tbl.Schema.key then begin
         let col = Schema.find_column tbl column in
         if Column.is_hidden col then
           spend
             (Printf.sprintf "fetch-all(%s.%s)" table column)
             (Float.of_int n_root
              *. point_read_us env (Float.of_int (Value.ty_width col.Column.ty)))
       end)
    plan.Plan.query.Bind.projections;
  (* emission padded to the public bound *)
  let bound = emit_bound env in
  spend "emit-pad" (usb_us env (Float.of_int bound *. 16.));
  let all_sel =
    List.fold_left
      (fun acc (g : Plan.group) ->
         acc
         *. List.fold_left
              (fun a (h : Plan.hidden_pred) -> a *. sel env h.Plan.h_pred)
              1. g.Plan.g_hidden
         *. visible_sel env g.Plan.g_visible)
      1. plan.Plan.groups
  in
  {
    est_time_us = !time;
    est_candidates = n_root;
    est_results = int_of_float (Float.round (Float.of_int n_root *. all_sel));
    est_ram_bytes = env.ram_bytes;
    est_usb_bytes = env.usb_bytes;
    breakdown = List.rev env.parts;
  }

let estimate cat (plan : Plan.t) =
  let cfg = Device.config cat.Catalog.device in
  let env =
    {
      cat;
      cfg;
      fc = cfg.Device.flash_cost;
      plan;
      cache_hit = hit_ratio cat cfg;
      parts = [];
      usb_bytes = 0;
      ram_bytes = 0;
    }
  in
  if plan.Plan.oblivious = Oblivious.Full then estimate_full env
  else begin
  let root = plan.Plan.root in
  let n_root = count env root in
  let schema = cat.Catalog.schema in
  let time = ref 0. in
  let spend label us =
    add env label us;
    time := !time +. us
  in
  (* selectivity applied before SKT access (pre-filters) *)
  let pre_sel = ref 1. in
  (* selectivity of post filters (applied after SKT access) *)
  let post_sel = ref 1. in
  List.iter
    (fun (g : Plan.group) ->
       let t = g.Plan.g_table in
       let n_t = count env t in
       let vis_sel = visible_sel env g.Plan.g_visible in
       let indexed, checked =
         List.partition
           (fun (h : Plan.hidden_pred) -> h.Plan.h_strategy = Plan.H_index)
           g.Plan.g_hidden
       in
       let hidden_index_sel =
         List.fold_left (fun acc h -> acc *. sel env h.Plan.h_pred) 1. indexed
       in
       let hidden_check_sel =
         List.fold_left (fun acc h -> acc *. sel env h.Plan.h_pred) 1. checked
       in
       post_sel := !post_sel *. hidden_check_sel;
       (* hidden checks: per surviving candidate, later *)
       let strategy = g.Plan.g_visible_strategy in
       let cross_pre =
         strategy = Plan.V_cross_pre
         && g.Plan.g_visible <> []
         && (indexed <> [] || g.Plan.g_borrowed <> [])
       in
       (* deep cross: borrowed descendant lists read at this table's
          level, shrinking the climbed set *)
       let borrowed_sel =
         List.fold_left (fun acc (_, p) -> acc *. sel env p) 1. g.Plan.g_borrowed
       in
       if cross_pre then
         List.iter
           (fun (d, p) ->
              spend
                (Printf.sprintf "borrow(%s.%s@%s)" d p.Predicate.column t)
                (hidden_index_us env ~table:d p ~level_count:n_t))
           g.Plan.g_borrowed;
       (* hidden index traversals *)
       List.iter
         (fun (h : Plan.hidden_pred) ->
            let level_count = if cross_pre then n_t else n_root in
            spend
              (Printf.sprintf "index(%s.%s)" t h.Plan.h_pred.Predicate.column)
              (hidden_index_us env ~table:t h.Plan.h_pred ~level_count))
         indexed;
       (match g.Plan.g_visible, strategy with
        | [], _ ->
          if indexed <> [] then pre_sel := !pre_sel *. hidden_index_sel
        | preds, (Plan.V_pre | Plan.V_cross_pre) ->
          let m_vis = vis_sel *. Float.of_int n_t in
          spend (Printf.sprintf "ship(%s)" t) (usb_us env (ship_bytes env ~n_t m_vis));
          let m_climbed =
            if cross_pre then m_vis *. hidden_index_sel *. borrowed_sel else m_vis
          in
          spend (Printf.sprintf "climb(%s)" t) (climb_us env ~table:t m_climbed);
          ignore preds;
          pre_sel := !pre_sel *. vis_sel *. hidden_index_sel
        | _, (Plan.V_post | Plan.V_cross_post) ->
          let m_vis = vis_sel *. Float.of_int n_t in
          spend (Printf.sprintf "ship(%s)" t) (usb_us env (ship_bytes env ~n_t m_vis));
          let m_bloom =
            if strategy = Plan.V_cross_post && indexed <> [] then begin
              (* reading the hidden T-level lists for the cross *)
              List.iter
                (fun (h : Plan.hidden_pred) ->
                   spend
                     (Printf.sprintf "cross-index(%s.%s)" t h.Plan.h_pred.Predicate.column)
                     (hidden_index_us env ~table:t h.Plan.h_pred ~level_count:n_t))
                indexed;
              m_vis *. hidden_index_sel
            end
            else m_vis
          in
          let ideal_bytes =
            Float.of_int (Bloom.bits_for_fpr ~n:(max 1 (int_of_float m_bloom)) ~fpr:0.01)
            /. 8.
          in
          let bloom_bytes = Float.min ideal_bytes (Float.of_int cfg.Device.ram_budget /. 4.) in
          env.ram_bytes <- env.ram_bytes + int_of_float bloom_bytes;
          spend (Printf.sprintf "bloom-build(%s)" t) (cpu_us env (m_bloom *. 8.));
          pre_sel := !pre_sel *. hidden_index_sel;
          post_sel := !post_sel *. vis_sel))
    plan.Plan.groups;
  let candidates = Float.of_int n_root *. !pre_sel in
  (* SKT access for every candidate *)
  let skt_row_bytes =
    match Catalog.skt cat root with
    | Some skt -> Float.of_int (Ghost_store.Skt.row_width skt)
    | None -> 0.
  in
  if skt_row_bytes > 0. then
    spend "access-skt" (skt_access_us env ~n_root ~candidates ~row_bytes:skt_row_bytes);
  (* bloom probes + hidden checks per candidate *)
  spend "probes" (cpu_us env (candidates *. 8.));
  (* delta-log merge-on-read: a Pre-filtered root selection fences the
     run scan to its shipped id range. The touched share is modeled by
     the selection's selectivity — exact for contiguous (range)
     selections of the dense root key, optimistic for scattered
     ones. *)
  let delta_fraction =
    match
      List.find_opt (fun (g : Plan.group) -> g.Plan.g_table = root) plan.Plan.groups
    with
    | Some g
      when g.Plan.g_visible <> []
           && (g.Plan.g_visible_strategy = Plan.V_pre
               || g.Plan.g_visible_strategy = Plan.V_cross_pre) ->
      visible_sel env g.Plan.g_visible
    | _ -> 1.
  in
  let ds = delta_scan_us env ~fraction:delta_fraction in
  if ds > 0. then spend "delta-scan" ds;
  List.iter
    (fun (g : Plan.group) ->
       List.iter
         (fun (h : Plan.hidden_pred) ->
            if h.Plan.h_strategy = Plan.H_check then begin
              let tbl = Schema.find_table schema g.Plan.g_table in
              let col = Schema.find_column tbl h.Plan.h_pred.Predicate.column in
              spend
                (Printf.sprintf "check(%s.%s)" g.Plan.g_table h.Plan.h_pred.Predicate.column)
                (candidates *. point_read_us env (Float.of_int (Value.ty_width col.Column.ty)))
            end)
         g.Plan.g_hidden)
    plan.Plan.groups;
  let survivors = candidates *. !post_sel in
  (* projection joins *)
  let projected_visible =
    List.filter_map
      (fun (table, column) ->
         let tbl = Schema.find_table schema table in
         if column = tbl.Schema.key then None
         else begin
           let col = Schema.find_column tbl column in
           if Column.is_hidden col then None
           else Some (table, column, col.Column.ty)
         end)
      plan.Plan.query.Bind.projections
    |> List.sort_uniq compare
  in
  let post_tables =
    List.filter_map
      (fun (g : Plan.group) ->
         if
           g.Plan.g_visible <> []
           && (g.Plan.g_visible_strategy = Plan.V_post
               || g.Plan.g_visible_strategy = Plan.V_cross_post)
         then Some g.Plan.g_table
         else None)
      plan.Plan.groups
  in
  let join_tables =
    List.sort_uniq String.compare
      (List.map (fun (t, _, _) -> t) projected_visible @ post_tables)
  in
  List.iter
    (fun table ->
       let preds =
         List.filter
           (fun (p : Predicate.t) ->
              p.Predicate.table = table
              &&
              let tbl = Schema.find_table schema table in
              not (Column.is_hidden (Schema.find_column tbl p.Predicate.column)))
           plan.Plan.query.Bind.selections
       in
       let cols = List.filter (fun (t, _, _) -> t = table) projected_visible in
       let tys = List.map (fun (_, _, ty) -> ty) cols in
       let width = List.fold_left (fun acc ty -> acc + Value.ty_width ty) 0 tys in
       let n_stream = visible_sel env preds *. Float.of_int (count env table) in
       spend
         (Printf.sprintf "stream(%s)" table)
         (usb_us env (stream_bytes env ~n_t:(count env table) ~tys n_stream));
       let hash_bytes = n_stream *. Float.of_int (8 + width) in
       if hash_bytes <= Float.of_int cfg.Device.ram_budget /. 2. then
         spend (Printf.sprintf "join-hash(%s)" table) (cpu_us env ((n_stream +. survivors) *. 4.))
       else begin
         let row_bytes = survivors *. 24. in
         spend
           (Printf.sprintf "join-sort(%s)" table)
           (write_stream_us env row_bytes +. scratch_read_us env row_bytes
            +. cpu_us env (survivors *. 20.))
       end)
    join_tables;
  (* final projection: hidden column point reads + result emission *)
  let hidden_proj =
    List.filter
      (fun (table, column) ->
         let tbl = Schema.find_table schema table in
         column <> tbl.Schema.key
         && Column.is_hidden (Schema.find_column tbl column))
      plan.Plan.query.Bind.projections
  in
  List.iter
    (fun (table, column) ->
       let tbl = Schema.find_table schema table in
       let col = Schema.find_column tbl column in
       spend
         (Printf.sprintf "fetch(%s.%s)" table column)
         (survivors *. point_read_us env (Float.of_int (Value.ty_width col.Column.ty))))
    hidden_proj;
  let emit_n =
    match plan.Plan.oblivious with
    | Oblivious.Pad ->
      let bound = emit_bound env in
      Float.of_int
        (Oblivious.pad_count ~bound
           (max 0 (min bound (int_of_float (ceil survivors)))))
    | Oblivious.Off | Oblivious.Full -> survivors
  in
  spend "emit" (usb_us env (emit_n *. 16.));
  {
    est_time_us = !time;
    est_candidates = int_of_float (Float.round candidates);
    est_results = int_of_float (Float.round survivors);
    est_ram_bytes = env.ram_bytes;
    est_usb_bytes = env.usb_bytes;
    breakdown = List.rev env.parts;
  }
  end

(* The scheduler's shortest-remaining-cost-first policy reorders
   runnable sessions by this on every dispatch: the estimate minus the
   device time the session has already been charged, floored at zero
   (a plan may overrun its estimate without going negative, which
   would out-rank every fresh session forever). *)
let remaining_us e ~spent_us = Float.max 0. (e.est_time_us -. spent_us)

let pp fmt e =
  Format.fprintf fmt "est %.0f us, %d candidates, %d results, %d B ram, %d B usb"
    e.est_time_us e.est_candidates e.est_results e.est_ram_bytes e.est_usb_bytes

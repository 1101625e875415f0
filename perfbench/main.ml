(* GhostDB benchmark: three closed-loop workloads driven through the
   public API, every answer checked against the reference evaluator,
   metrics reported on the simulated device clock and on the host clock.

     dune exec --root . -- ./perfbench/main.exe \
       --workload read_mix --seed 1 --seconds 30 --trace 0

   The last line of standard output is one JSON object: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. The
   lines before it are a human-readable report of the same run: sample
   counts, failures, leaked bits and the write-path figures that only
   write_mix defines. A traced run also writes its spans to
   perfbench/out/.

   Device-clock figures are taken over a fixed "device segment" of each
   run (the first [segment] queries submitted, or the first [segment]
   write rounds), so they depend on the seed alone: the same seed gives
   the same device figures on any host, traced or not. Host-clock
   figures are taken over the whole run, which lasts until [--seconds]
   of measured host time have passed and the device segment is
   complete. Measured host time covers the calls into GhostDB (bind,
   plan, submit, scheduler steps, inserts, deletes); answer checks,
   reference upkeep and bookkeeping run outside it. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Zipf = Ghost_kernel.Zipf
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Page_cache = Ghost_device.Page_cache
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost
module Exec = Ghostdb.Exec
module Privacy = Ghostdb.Privacy
module Compaction = Ghostdb.Compaction
module Delta_log = Ghostdb.Delta_log
module Scheduler = Ghost_sched.Scheduler

(* ---- device profile ----

   The production shape the ROADMAP keeps: durable checksummed logs,
   compact wire framing, the leveled delta log, authenticated pages and
   a 64-frame page cache whose 128 KiB pool is added to the RAM budget,
   so queries keep the default 64 KiB of working RAM. *)

let cache_frames = 64

let device_config =
  let d = Device.default_config in
  { d with
    Device.durable_logs = true;
    wire_format = Ghost_wire.Wire.Compact;
    log_runs = Some Device.default_log_runs;
    verify_pages = true;
    page_cache_frames = cache_frames;
    ram_budget =
      d.Device.ram_budget + (cache_frames * d.Device.flash_geometry.Flash.page_size) }

let page_size = device_config.Device.flash_geometry.Flash.page_size

(* Load: 4 simulated sessions in one process, round-robin, 500 us
   device quantum. *)
let clients = 4
let quantum_us = 500.
let zipf_theta = 1.1

(* The dataset is the same in every run; the seed drives the operation
   stream: the order the query deck is dealt in, the inserted values,
   the deleted ids and the probe windows. With the dataset drawn from
   the seed as well, read_mix's device-clock latencies moved with it:
   over five seeds at 1000 queries the spread between quartiles was
   20 % of the median for device_p50_ms and 27 % for the tail, against
   13 % and 8 % with one dataset at 400 queries. Sampling error shrinks
   with the number of queries, the dataset's effect does not. *)
let dataset_seed = 1

(* write_mix round *)
let insert_calls = 50
let rows_per_insert = 4
let delete_calls = 10
let probes_per_round = 12

type kind = Read | Write

type shape = {
  kind : kind;
  oblivious : bool;  (** plans through [Planner.oblivious], run by the fixed-shape executor *)
  scale : Medical.scale;
  segment : int;  (** queries (read kinds) or rounds (write) in the device segment *)
  setups : int;  (** set-ups per run; setup_s is their median *)
}

let shapes =
  [
    ("read_mix", { kind = Read; oblivious = false; scale = Medical.medium;
                   segment = 1200; setups = 5 });
    ("oblivious_mix", { kind = Read; oblivious = true; scale = Medical.small;
                        segment = 1600; setups = 15 });
    ("write_mix", { kind = Write; oblivious = false; scale = Medical.small;
                    segment = 34; setups = 15 });
  ]

let smoke_shape s =
  { s with scale = Medical.tiny; segment = (match s.kind with Write -> 3 | Read -> 100);
           setups = 3 }

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* The tail percentile of query latency. Every run times at least 400
   queries of each kind, so 10 or more samples lie beyond it. It is not
   p95 because exactly 5 % of the read mix is its heaviest class
   (visible_only): p95 falls in the gap between that class and the
   next, where it swings with the single slowest query of the lighter
   class. *)
let tail = 0.975
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ---- one run ---- *)

type pending = {
  label : string;
  in_segment : bool;  (** one of the device segment's queries *)
  expected : Value.t array list;  (** sorted reference rows *)
  est_us : float;
  submit_host_s : float;
}

(* A query completed inside the device segment. *)
type sample = {
  s_label : string;
  s_latency_us : float;
  s_usage : Device.usage;
  s_slices : int;
  s_result : Exec.result;
  s_est_us : float;
}

type segment_end = {
  seg_device_us : float;
  seg_delta : Device.snapshot * Device.snapshot;  (** loop start, segment end *)
  seg_faults : Device.fault_counters;
  seg_blocked : int;
  seg_bits : float;
  seg_host_s : float;
  seg_ops : int;
  seg_log : int * int * float;  (** runs, L0 pages, read amplification *)
  seg_compact_us : float;
  seg_heap_words : int;  (** host heap high-water at the segment's end *)
  seg_spans : string -> Spans.layer;
      (** traced runs: per-layer totals of the spans up to the segment's
          end, whose allocation counts repeat exactly for one seed *)
}

type run = {
  db : Ghost_db.t;
  spans : Spans.t option;
  mutable host_s : float;
  mutable ops : int;
  mutable attempted : int;
  mutable failed : int;  (** failed, cancelled or wrong-answer operations *)
  mutable wrong : int;  (** completed with rows other than the reference's *)
  mutable host_lat_ms : float list;
  mutable samples : sample list;  (** device segment, newest first *)
  mutable writes_us : (bool * float) list;  (** (is insert, device us) in the segment *)
  mutable insert_programs : int;
  mutable rows_inserted : int;
  mutable compact_us : float;
  mutable delta_deleted : int;  (** deleted rows that lived in the delta log *)
  mutable seg : segment_end option;
  mutable loop_start : Device.snapshot;
  mutable working_ram : int;
  oblivious : bool;
  mutable bits : float;  (** data-dependent bits audited in the device segment *)
  mutable violations : int;  (** privacy-guarantee violations the auditor found *)
  pending : (int, pending) Hashtbl.t;
}

let new_run db spans ~oblivious =
  { db; spans; host_s = 0.; ops = 0; attempted = 0; failed = 0; wrong = 0; host_lat_ms = [];
    samples = []; writes_us = []; insert_programs = 0; rows_inserted = 0;
    compact_us = 0.; delta_deleted = 0; seg = None;
    loop_start = Device.snapshot (Ghost_db.device db); working_ram = 0;
    oblivious; bits = 0.; violations = 0; pending = Hashtbl.create 16 }

(* Runs [f] on the measured host clock, inside a span when tracing. *)
let timed r name ~op f =
  let t0 = Spans.now () in
  let x = match r.spans with Some sp -> Spans.record sp ~name ~op f | None -> f () in
  r.host_s <- r.host_s +. (Spans.now () -. t0);
  x

let device r = Ghost_db.device r.db

let log_shape r =
  match Catalog.delta (Ghost_db.catalog r.db) "Prescription" with
  | None -> (0, 0, 0.)
  | Some log ->
    (* records a scan touches per live record *)
    ( Delta_log.run_count log,
      Delta_log.l0_pages log,
      ratio (fi (Delta_log.physical_records log))
        (fi (Delta_log.count log - r.delta_deleted)) )

(* Audits the boundary trace recorded since the last call and clears
   it, so the trace stays small on long runs. Leaked bits are summed
   over the device segment: the auditor's bound is a sum over trace
   events, so auditing in pieces gives the same total. *)
let audit_trace r =
  let access = Ghost_db.access_profile r.db ~fixed_shape:r.oblivious in
  let v = Ghost_db.audit ~access r.db in
  Ghost_db.clear_trace r.db;
  if not v.Privacy.ok then r.violations <- r.violations + List.length v.Privacy.violations;
  if r.seg = None then r.bits <- r.bits +. v.Privacy.data_dependent_bits

let close_segment r ~sched ~device_us ~queries =
  let dev = device r in
  audit_trace r;
  r.seg <-
    Some
      { seg_device_us = device_us;
        seg_delta = (r.loop_start, Device.snapshot dev);
        seg_faults =
          Device.diff_faults ~after:(Device.fault_counters dev)
            ~before:r.loop_start.Device.faults;
        seg_blocked = (Scheduler.stats sched).Scheduler.admission_blocked;
        seg_bits = ratio r.bits (fi queries);
        seg_host_s = r.host_s;
        seg_ops = r.ops;
        seg_log = log_shape r;
        seg_compact_us = r.compact_us;
        seg_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
        seg_spans =
          (match r.spans with
           | Some sp -> Spans.by_name sp
           | None -> fun _ -> Spans.no_layer) }

(* Bind, plan and submit one query. *)
let issue r sched ~in_segment ~label ~sql ~expected =
  let cat = Ghost_db.catalog r.db in
  let op = r.attempted in
  r.attempted <- r.attempted + 1;
  let q = timed r "bind" ~op (fun () -> Ghost_db.bind r.db sql) in
  let plan, est =
    timed r "plan" ~op (fun () ->
      if r.oblivious then
        let p = Planner.oblivious cat q in
        (p, Cost.estimate cat p)
      else Planner.best cat q)
  in
  let submit_host_s = r.host_s in
  let working_ram = r.working_ram in
  let id = timed r "submit" ~op (fun () -> Scheduler.submit sched ~label ~working_ram plan) in
  Hashtbl.replace r.pending id
    { label; in_segment; expected; est_us = est.Cost.est_time_us; submit_host_s }

(* Accounts one finished session; tells whether it was one of the
   device segment's queries. *)
let finish r (f : Scheduler.finished) =
  let p = Hashtbl.find r.pending f.Scheduler.f_id in
  let in_segment = p.in_segment in
  Hashtbl.remove r.pending f.Scheduler.f_id;
  r.ops <- r.ops + 1;
  r.host_lat_ms <- ((r.host_s -. p.submit_host_s) *. 1e3) :: r.host_lat_ms;
  (match f.Scheduler.f_outcome with
  | Scheduler.Failed e ->
    r.failed <- r.failed + 1;
    Printf.eprintf "%s failed: %s\n%!" p.label (Printexc.to_string e)
  | Scheduler.Cancelled why ->
    r.failed <- r.failed + 1;
    Printf.eprintf "%s cancelled: %s\n%!" p.label why
  | Scheduler.Completed res ->
    if Reference.sort_rows res.Exec.rows <> p.expected then begin
      r.failed <- r.failed + 1;
      r.wrong <- r.wrong + 1
    end;
    if in_segment then
      r.samples <-
        { s_label = p.label;
          s_latency_us = f.Scheduler.f_finished_us -. f.Scheduler.f_submitted_us;
          s_usage = f.Scheduler.f_usage; s_slices = f.Scheduler.f_slices;
          s_result = { res with Exec.rows = [] }; s_est_us = p.est_us }
        :: r.samples);
  in_segment

(* Steps the scheduler until nothing is queued, runnable or pending in
   the background, handing each finished session to [on_finish]. A step
   taken with no session queued or runnable while compaction is pending
   is an idle compaction slice. *)
let drive r sched ~on_finish =
  let dev = device r in
  let continue = ref true in
  while !continue do
    let st = Scheduler.stats sched in
    let idle =
      st.Scheduler.queued = 0 && st.Scheduler.runnable = 0
      && Option.fold ~none:false ~some:(fun c -> not (Compaction.idle c))
           (Scheduler.compactor sched)
    in
    let t0 = Device.elapsed_us dev in
    let worked, fin =
      timed r (if idle then "compact" else "step") ~op:(-1) (fun () ->
        let w = Scheduler.step sched in
        (w, Scheduler.poll_finished sched))
    in
    if idle then r.compact_us <- r.compact_us +. (Device.elapsed_us dev -. t0);
    List.iter on_finish fin;
    continue := worked
  done

let new_sched r =
  Scheduler.create ~policy:Scheduler.Round_robin ~quantum_us
    (Ghost_db.catalog r.db) (Ghost_db.public r.db)

(* Each session reserves an equal share of the RAM left beside the page
   cache pool, as [Ghost_sched.Workload_driver] does with the whole
   budget. The scheduler's default reservation, the planner's RAM
   estimate, is too small for the external sort of doctor_patient: with
   four sessions admitted on it, that query fails with Ram_exceeded. *)
let working_ram r =
  let ram = Device.ram (device r) in
  (Ghost_device.Ram.budget ram - Ghost_device.Ram.in_use ram) / clients

(* ---- read_mix / oblivious_mix ---- *)

type cls = { c_name : string; c_sql : string; c_expected : Value.t array list }

(* The suite ranked cheapest first by the estimate of the plan the
   workload runs, with its reference answer. Outside the measured
   region. *)
let read_classes db ref_db ~oblivious =
  let schema = Ghost_db.schema db in
  let cat = Ghost_db.catalog db in
  Queries.all
  |> List.map (fun (name, sql) ->
       let q = Ghost_db.bind db sql in
       let est =
         if oblivious then (Cost.estimate cat (Planner.oblivious cat q)).Cost.est_time_us
         else (snd (Planner.best cat q)).Cost.est_time_us
       in
       (est, { c_name = name; c_sql = sql;
               c_expected = Reference.sort_rows (Reference.run schema ref_db q) }))
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd |> Array.of_list

(* Query classes are dealt from a shuffled deck of [deck_size] ranks
   whose counts follow the Zipf law exactly (largest remainder), so
   every complete deck runs the same mix and the seed only sets the
   order. Independent draws would let the share of the rare heavy
   queries, and with it every latency figure, swing from seed to seed. *)
let deck_size = 100

let zipf_deck n =
  let zipf = Zipf.create ~n ~theta:zipf_theta in
  let exact = Array.init n (fun k -> Zipf.probability zipf (k + 1) *. fi deck_size) in
  let counts = Array.map (fun x -> int_of_float x) exact in
  let short = deck_size - Array.fold_left ( + ) 0 counts in
  List.init n Fun.id
  |> List.sort (fun a b ->
       Float.compare (exact.(b) -. fi counts.(b)) (exact.(a) -. fi counts.(a)))
  |> List.iteri (fun i k -> if i < short then counts.(k) <- counts.(k) + 1);
  Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts))

let read_loop r ~classes ~seed ~seconds ~segment =
  let sched = new_sched r in
  let deck = zipf_deck (Array.length classes) in
  let rng = Rng.create seed in
  let start_us = Device.elapsed_us (device r) in
  let submitted = ref 0 in
  let completed = ref 0 in
  let segment_done = ref 0 in
  let submit_next () =
    if !submitted mod deck_size = 0 then Rng.shuffle rng deck;
    let c = classes.(deck.(!submitted mod deck_size)) in
    let in_segment = !submitted < segment in
    incr submitted;
    issue r sched ~in_segment ~label:c.c_name ~sql:c.c_sql
      ~expected:c.c_expected
  in
  for _ = 1 to clients do submit_next () done;
  drive r sched ~on_finish:(fun f ->
    incr completed;
    if finish r f then begin
      incr segment_done;
      if !segment_done = segment then
        close_segment r ~sched ~device_us:(f.Scheduler.f_finished_us -. start_us)
          ~queries:segment
    end;
    if !completed mod 32 = 0 then audit_trace r;
    (* the host window ends on a deck boundary, so it too runs the
       exact mix *)
    if r.seg = None || r.host_s < seconds || !submitted mod deck_size <> 0 then
      submit_next ())

(* ---- write_mix ---- *)

(* A fenced window probe: a visible root-key range plus a hidden
   predicate, so every probe scans the delta log's overlapping pages. *)
let probe_sql lo =
  Printf.sprintf
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE \
     Pre.PreID BETWEEN %d AND %d AND Pre.Quantity >= 1"
    lo (lo + 30)

let write_loop r ~rows ~seed ~seconds ~segment =
  let db = r.db in
  let dev = device r in
  let cat = Ghost_db.catalog db in
  let schema = Ghost_db.schema db in
  let pre_table = Schema.find_table schema "Prescription" in
  let medicines = Catalog.table_count cat "Medicine" in
  let visits = Catalog.table_count cat "Visit" in
  let live = Hashtbl.create 4096 in
  List.iter
    (fun (t : Relation.tuple) ->
       match t.(0) with Value.Int id -> Hashtbl.replace live id t | _ -> ())
    (List.assoc "Prescription" rows);
  let rng = Rng.create seed in
  let sched = new_sched r in
  Scheduler.set_compactor sched (Some (Compaction.create cat));
  let start_us = Device.elapsed_us dev in
  let base_rows = Catalog.table_count cat "Prescription" in
  let prev_round = ref [] in
  let round = ref 0 in
  while !round < segment || r.host_s < seconds do
    incr round;
    let in_segment = !round <= segment in
    let record_write is_insert us =
      if in_segment then r.writes_us <- (is_insert, us) :: r.writes_us
    in
    (* inserts: ids densely continue the root *)
    let inserted = ref [] in
    for _ = 1 to insert_calls do
      let next = Catalog.total_count cat "Prescription" + 1 in
      let tuples =
        List.init rows_per_insert (fun i ->
          [| Value.Int (next + i);
             Value.Int (Rng.int_in rng 1 10);
             Value.Int (Rng.int_in rng 1 4);
             Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
             Value.Int (1 + Rng.int rng medicines);
             Value.Int (1 + Rng.int rng visits) |])
      in
      let before = Device.snapshot dev in
      let op = r.attempted in
      r.attempted <- r.attempted + 1;
      timed r "insert" ~op (fun () -> Ghost_db.insert db tuples);
      let after = Device.snapshot dev in
      r.ops <- r.ops + 1;
      record_write true (after.Device.elapsed -. before.Device.elapsed);
      if in_segment then begin
        r.insert_programs <- r.insert_programs
          + after.Device.flash.Flash.page_programs - before.Device.flash.Flash.page_programs;
        r.rows_inserted <- r.rows_inserted + rows_per_insert
      end;
      List.iter
        (fun t ->
           match t.(0) with
           | Value.Int id -> Hashtbl.replace live id t; inserted := id :: !inserted
           | _ -> ())
        tuples
    done;
    (* deletes: retire rows of the previous round (the base on the
       first), so compaction has tombstoned records to fold away *)
    let pool =
      Array.of_list
        (match !prev_round with
         | [] -> List.init base_rows (fun i -> i + 1)
         | ids -> ids)
    in
    Rng.shuffle rng pool;
    for i = 0 to min delete_calls (Array.length pool) - 1 do
      let id = pool.(i) in
      let t0 = Device.elapsed_us dev in
      let op = r.attempted in
      r.attempted <- r.attempted + 1;
      timed r "delete" ~op (fun () -> Ghost_db.delete db [ id ]);
      r.ops <- r.ops + 1;
      record_write false (Device.elapsed_us dev -. t0);
      if id > base_rows then r.delta_deleted <- r.delta_deleted + 1;
      Hashtbl.remove live id
    done;
    prev_round := !inserted;
    (* probes: fenced windows over the whole key range, answered from
       the reference after this round's writes *)
    let ref_db =
      [ ("Prescription", Relation.create pre_table (Hashtbl.fold (fun _ t acc -> t :: acc) live [])) ]
    in
    let top = Catalog.total_count cat "Prescription" in
    let probes =
      List.init probes_per_round (fun _ ->
        let lo = Rng.int_in rng 1 (max 1 (top - 30)) in
        let sql = probe_sql lo in
        (sql, Reference.sort_rows (Reference.run schema ref_db (Ghost_db.bind db sql))))
    in
    let queue = ref probes in
    let submit_next () =
      match !queue with
      | [] -> ()
      | (sql, expected) :: rest ->
        queue := rest;
        issue r sched ~in_segment ~label:"probe" ~sql ~expected
    in
    for _ = 1 to clients do submit_next () done;
    drive r sched ~on_finish:(fun f ->
      ignore (finish r f);
      submit_next ());
    if !round = segment then begin
      let queries = List.length r.samples in
      close_segment r ~sched ~device_us:(Device.elapsed_us dev -. start_us) ~queries
    end
    else audit_trace r
  done

(* ---- set-up ---- *)

type setup = {
  generate_s : float;
  load_s : float;
  generate_words : float;
  load_words : float;
}

let setup_once shape =
  let w0 = Spans.words () in
  let t0 = Spans.now () in
  let rows = Medical.generate ~seed:dataset_seed shape.scale in
  let t1 = Spans.now () in
  let w1 = Spans.words () in
  let db = Ghost_db.of_schema ~device_config (Medical.schema ()) rows in
  let t2 = Spans.now () in
  let w2 = Spans.words () in
  ( rows, db,
    { generate_s = t1 -. t0; load_s = t2 -. t1;
      generate_words = w1 -. w0; load_words = w2 -. w1 } )

(* ---- metrics ---- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;
  layers : metric list;
  notes : string list;  (** report lines: counts and checks *)
}

let seg_exn r = match r.seg with Some s -> s | None -> failwith "device segment not reached"

let device_e2e r ~ram_kb =
  let seg = seg_exn r in
  let lat = List.map (fun s -> s.s_latency_us /. 1e3) r.samples in
  [ m "device_qps" "q/s" (ratio (fi (List.length r.samples)) (seg.seg_device_us /. 1e6));
    m "device_p50_ms" "ms" (median lat);
    m "device_p97.5_ms" "ms" (percentile lat tail);
    m "device_ram_peak_kb" "KiB" (List.fold_left Float.max 0. ram_kb) ]

(* Host latency of each query, from [Scheduler.submit] until it shows
   up in [poll_finished], on the measured host clock. Per-layer, not
   end-to-end: on a shared 2-core host the speed of the core itself
   drifts in phases of seconds (a fixed integer loop read 0.12-0.18 s
   per run of it), and the quartiles of these percentiles over ten
   seeds spread 28-33 % of their median on oblivious_mix, past any
   bound the benchmark may set. host_qps, the mean over the whole run,
   is the host figure that stays end-to-end. *)
let host_latency r =
  [ m "host.p50_ms" "ms" (median r.host_lat_ms);
    m "host.p97.5_ms" "ms" (percentile r.host_lat_ms tail) ]

let e2e_metrics r ~setup_s ~ram_kb =
  [ m "setup_s" "s" setup_s;
    m "host_qps" "ops/s" (ratio (fi r.ops) r.host_s) ]
  @ device_e2e r ~ram_kb
  @ [ m "host_peak_heap_mb" "MiB"
        (fi ((seg_exn r).seg_heap_words * (Sys.word_size / 8)) /. 1048576.) ]

let write_stats r =
  let all = List.map (fun (_, us) -> us /. 1e3) r.writes_us in
  let of_kind k = List.filter_map (fun (i, us) -> if i = k then Some (us /. 1e3) else None) r.writes_us in
  let record_bytes =
    match Catalog.delta (Ghost_db.catalog r.db) "Prescription" with
    | Some log -> Delta_log.record_bytes log
    | None -> 0
  in
  (all, of_kind true, of_kind false, record_bytes)

(* The figures only write_mix defines, over the device segment: device
   time per insert or delete call, and Flash bytes programmed (page
   programs x page size) per byte of inserted row, the row counted as
   its device-side delta-log record. *)
let write_metrics r =
  let seg = seg_exn r in
  let writes, _, _, record_bytes = write_stats r in
  let before, after = seg.seg_delta in
  let programs =
    after.Device.flash.Flash.page_programs - before.Device.flash.Flash.page_programs
  in
  [ m "write.p50_ms" "ms" (median writes);
    m "write.p95_ms" "ms" (percentile writes 0.95);
    m "write.amp" "ratio"
      (ratio (fi (programs * page_size)) (fi (r.rows_inserted * record_bytes))) ]

(* [setups] holds every set-up of the run; allocation counts are the
   same in each. *)
let layer_metrics r ~setups ~ram_kb ~overhead_pct =
  let seg = seg_exn r in
  let n = fi (List.length r.samples) in
  let per_q f = ratio (List.fold_left (fun a s -> a +. f s) 0. r.samples) n in
  let u f = per_q (fun s -> f s.s_usage) in
  let before, after = seg.seg_delta in
  let cache = Page_cache.diff_stats ~after:after.Device.cache ~before:before.Device.cache in
  let flash = Flash.diff_stats ~after:after.Device.flash ~before:before.Device.flash in
  let spans = Option.get r.spans in
  let sp = Spans.by_name spans in
  let mean_us name = let l = sp name in ratio l.Spans.total_s (fi l.Spans.count) *. 1e6 in
  let kwords_per name =
    let l = seg.seg_spans name in
    ratio l.Spans.alloc_words (fi l.Spans.count) /. 1e3
  in
  (* planner.est_ratio: per query class, the median of estimated over
     measured device time; then the median over classes *)
  let classes = List.sort_uniq compare (List.map (fun s -> s.s_label) r.samples) in
  let est_ratio =
    median
      (List.map
         (fun c ->
            median
              (List.filter_map
                 (fun s ->
                    if s.s_label = c then Some (ratio s.s_est_us s.s_usage.Device.total_us)
                    else None)
                 r.samples))
         classes)
  in
  let admitted, fp =
    List.fold_left
      (fun (adm, fp) s ->
         let res = s.s_result in
         ( adm
           + List.fold_left
               (fun a (o : Exec.op_stats) ->
                  if String.length o.Exec.op_label >= 6
                  && String.sub o.Exec.op_label 0 6 = "Verify"
                  then a + o.Exec.tuples_in else a)
               0 res.Exec.ops,
           fp + res.Exec.bloom_fp_candidates ))
      (0, 0) r.samples
  in
  let _, inserts, deletes, _ = write_stats r in
  let runs, l0, read_amp = seg.seg_log in
  let f = seg.seg_faults in
  let seg_ops = fi seg.seg_ops in
  let first = List.hd setups in
  host_latency r
  @ [ m "workload.generate_s" "s" (median (List.map (fun t -> t.generate_s) setups));
    m "workload.alloc_mwords" "Mwords" (first.generate_words /. 1e6);
    m "loader.load_s" "s" (median (List.map (fun t -> t.load_s) setups));
    m "loader.alloc_mwords" "Mwords" (first.load_words /. 1e6);
    m "sql.bind_us" "us" (mean_us "bind");
    m "sql.alloc_kwords" "kwords" (kwords_per "bind");
    m "planner.plan_ms" "ms" (mean_us "plan" /. 1e3);
    m "planner.alloc_kwords" "kwords" (kwords_per "plan");
    m "planner.est_ratio" "ratio" est_ratio;
    m "sched.submit_us" "us" (mean_us "submit");
    m "sched.step_host_us" "us" (mean_us "step");
    m "sched.slices_per_query" "count" (per_q (fun s -> fi s.s_slices));
    m "sched.wait_ms" "ms"
      (per_q (fun s -> s.s_latency_us -. s.s_usage.Device.total_us) /. 1e3);
    m "sched.admission_blocked" "count" (fi seg.seg_blocked);
    m "exec.flash_ms" "ms" (u (fun x -> x.Device.flash_us) /. 1e3);
    m "exec.usb_ms" "ms" (u (fun x -> x.Device.used_usb_us) /. 1e3);
    m "exec.cpu_ms" "ms" (u (fun x -> x.Device.cpu_us) /. 1e3);
    m "exec.ram_peak_kb" "KiB" (mean ram_kb);
    m "exec.bloom_fp_ratio" "ratio" (ratio (fi fp) (fi admitted));
    m "exec.alloc_kwords" "kwords"
      (ratio (seg.seg_spans "step").Spans.alloc_words (fi seg.seg_ops) /. 1e3);
    m "page_cache.hit_ratio" "ratio"
      (ratio (fi cache.Page_cache.hits) (fi (cache.Page_cache.hits + cache.Page_cache.misses)));
    m "page_cache.evictions_per_query" "count" (ratio (fi cache.Page_cache.evictions) n);
    m "flash.reads_per_query" "count" (u (fun x -> fi x.Device.flash_page_reads));
    m "flash.programs_per_op" "count" (ratio (fi flash.Flash.page_programs) seg_ops);
    m "wire.usb_in_kb_per_query" "KiB" (u (fun x -> fi x.Device.used_usb_bytes_in) /. 1024.);
    m "wire.usb_out_kb_per_query" "KiB"
      (ratio (fi (after.Device.usb_bytes_out - before.Device.usb_bytes_out)) n /. 1024.);
    m "oblivious.padding_kb_per_query" "KiB"
      (per_q (fun s -> fi s.s_result.Exec.padding_bytes) /. 1024.);
    m "privacy.bits" "bits" seg.seg_bits;
    m "insert.device_ms" "ms" (mean inserts);
    m "insert.host_ms" "ms" (mean_us "insert" /. 1e3);
    m "insert.programs_per_row" "count" (ratio (fi r.insert_programs) (fi r.rows_inserted));
    m "insert.alloc_kwords" "kwords" (kwords_per "insert");
    m "delete.device_ms" "ms" (mean deletes) ]
  @ write_metrics r
  @ [ m "delta_log.runs" "count" (fi runs);
    m "delta_log.l0_pages" "count" (fi l0);
    m "delta_log.read_amp" "ratio" read_amp;
    m "compaction.spills" "count" (fi f.Device.log_spills);
    m "compaction.merges" "count" (fi f.Device.log_compactions);
    m "compaction.pages" "count" (fi f.Device.compaction_pages);
    m "compaction.busy_ms" "ms" (seg.seg_compact_us /. 1e3);
    m "compaction.step_host_us" "us" (mean_us "compact");
    m "trace.spans" "count" (fi spans.Spans.len);
    m "trace.loop_self_s" "s" (Spans.root_self_s spans);
    m "trace.overhead_pct" "%" overhead_pct ]

(* ---- a whole run ---- *)

(* RAM high-water (KiB, cache pool included) of each of the workload's
   query shapes run alone. Under the closed loop the four sessions'
   reservations fill the arena, so the peak seen by a concurrent query
   always reads the whole budget. *)
let serial_ram_kb db (shape : shape) classes =
  let sqls =
    match shape.kind with
    | Read -> Array.to_list (Array.map (fun c -> c.c_sql) classes)
    | Write -> [ probe_sql 1 ]
  in
  List.map
    (fun sql -> fi (Ghost_db.query db ~oblivious:shape.oblivious sql).Exec.ram_peak /. 1024.)
    sqls

let loop (shape : shape) ~name ~classes ~rows ~seed ~seconds ~spans db =
  let r = new_run db spans ~oblivious:shape.oblivious in
  r.working_ram <- working_ram r;
  Ghost_db.clear_trace db;
  Option.iter (fun sp -> Spans.root sp name) spans;
  (match shape.kind with
   | Read -> read_loop r ~classes ~seed ~seconds ~segment:shape.segment
   | Write -> write_loop r ~rows ~seed ~seconds ~segment:shape.segment);
  Option.iter Spans.close_root spans;
  r

let run_workload ?spans_file ~name ~(shape : shape) ~seed ~seconds ~trace () =
  let oblivious = shape.oblivious in
  let timings = ref [] in
  let classes = ref [||] in
  let ram_kb = ref [] in
  let untraced = ref None in
  let result = ref None in
  for i = 1 to shape.setups do
    result := None;
    (* drop the previous instance before timing the next set-up *)
    Gc.compact ();
    let rows, db, t = setup_once shape in
    timings := t :: !timings;
    (* The first instance serves the reference answers and the RAM
       pass; a later one runs the loop. *)
    if i = 1 then begin
      (match shape.kind with
       | Read ->
         let ref_db = Reference.db_of_rows (Ghost_db.schema db) rows in
         classes := read_classes db ref_db ~oblivious
       | Write -> ());
      ram_kb := serial_ram_kb db shape !classes
    end;
    let go ~spans ~seconds =
      loop shape ~name ~classes:!classes ~rows ~seed ~seconds ~spans db
    in
    (* The traced run is compared with an untraced run of the device
       segment on a fresh instance of the same seed. *)
    if trace && i = shape.setups - 1 then begin
      let u = go ~spans:None ~seconds:0. in
      untraced := Some (device_e2e u ~ram_kb:!ram_kb, (seg_exn u).seg_host_s)
    end;
    if i = shape.setups then
      result := Some (go ~spans:(if trace then Some (Spans.create ()) else None) ~seconds)
  done;
  let r = Option.get !result in
  let setups = !timings in
  let setup_s = median (List.map (fun t -> t.generate_s +. t.load_s) setups) in
  let seg = seg_exn r in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let leak_ok = (not oblivious) || seg.seg_bits = 0. in
  if not leak_ok then note "FAIL: oblivious plans leaked %g bits per query" seg.seg_bits;
  if r.wrong > 0 then note "FAIL: %d answers differ from the reference" r.wrong;
  if r.violations > 0 then note "FAIL: the privacy auditor found %d violations" r.violations;
  let identical, overhead_pct =
    match !untraced with
    | None -> (true, 0.)
    | Some (dev, host_s) ->
      let same = dev = device_e2e r ~ram_kb:!ram_kb in
      if not same then note "FAIL: device-clock metrics differ between traced and untraced runs";
      (same, (ratio seg.seg_host_s host_s -. 1.) *. 100.)
  in
  let writes, _, _, record_bytes = write_stats r in
  let n_dev = List.length r.samples in
  note "samples: %d queries in the device segment (%d beyond p97.5), %d queries timed on \
        the host (%d beyond p97.5), %d write calls in the device segment"
    n_dev (n_dev - int_of_float (ceil (tail *. fi n_dev)))
    (List.length r.host_lat_ms)
    (List.length r.host_lat_ms - int_of_float (ceil (tail *. fi (List.length r.host_lat_ms))))
    (List.length writes);
  List.iter (fun x -> note "%s %g %s" x.m_name x.m_value x.m_unit) (host_latency r);
  note "measured host time %.3f s, %d operations attempted, %d failed (failed_ratio %g)"
    r.host_s r.attempted r.failed (ratio (fi r.failed) (fi r.attempted));
  note "leaked_bits_per_query %g bits (Privacy.audit over the device segment)" seg.seg_bits;
  if writes <> [] then begin
    List.iter (fun x -> note "%s %g %s" x.m_name x.m_value x.m_unit) (write_metrics r);
    note "write.amp base: %d inserted rows x %d B device-side delta record" r.rows_inserted
      record_bytes
  end;
  (match r.spans with
   | None -> ()
   | Some sp ->
     note "tracing: %d spans, host overhead %+.1f%% over the device segment" sp.Spans.len
       overhead_pct;
     Option.iter (Spans.write sp) spans_file);
  { correct = leak_ok && r.wrong = 0 && r.violations = 0 && identical;
    attempted = r.attempted; failed = r.failed;
    e2e = e2e_metrics r ~setup_s ~ram_kb:!ram_kb;
    layers = (if trace then layer_metrics r ~setups ~ram_kb:!ram_kb ~overhead_pct else []);
    notes = List.rev !notes }

(* ---- output ---- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json o metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun x ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
               (json_number x.m_value) x.m_unit)
          metrics))

let report name o =
  Printf.printf "== %s\n" name;
  List.iter (fun x -> Printf.printf "%-32s %14.6g %s\n" x.m_name x.m_value x.m_unit)
    (o.e2e @ o.layers);
  List.iter (fun s -> Printf.printf "  %s\n" s) o.notes

(* ---- smoke mode ----

   Runs every workload at tiny scale, untraced and traced, and checks
   the output against the metric names BENCHMARK.json declares. *)

(* The values of every ["name": "..."] field after [from] in [text]. *)
let names_after text from =
  let key = "\"name\": \"" in
  let rec scan i acc =
    match String.index_from_opt text i '"' with
    | None -> List.rev acc
    | Some j ->
      if j + String.length key <= String.length text
      && String.sub text j (String.length key) = key then begin
        let start = j + String.length key in
        let stop = String.index_from text start '"' in
        scan (stop + 1) (String.sub text start (stop - start) :: acc)
      end
      else scan (j + 1) acc
  in
  let rec find i =
    if String.sub text i (String.length from) = from then i else find (i + 1)
  in
  scan (find 0) []

let section text key stop =
  let all = names_after text key in
  match stop with
  | None -> all
  | Some s ->
    let rest = names_after text s in
    List.filteri (fun i _ -> i < List.length all - List.length rest) all

let smoke spec_path =
  let text = In_channel.with_open_bin spec_path In_channel.input_all in
  let workloads = section text "\"workloads\"" (Some "\"end_to_end\"") in
  let e2e = section text "\"end_to_end\"" (Some "\"per_layer\"") in
  let layers = section text "\"per_layer\"" None in
  let failures = ref 0 in
  let check cond fmt =
    Printf.ksprintf
      (fun s -> if not cond then (incr failures; Printf.printf "FAIL: %s\n" s)) fmt
  in
  check (List.map fst shapes = workloads) "workload names differ from the spec";
  List.iter
    (fun (name, shape) ->
       List.iter
         (fun trace ->
            let o =
              run_workload ~name ~shape:(smoke_shape shape) ~seed:7 ~seconds:0. ~trace ()
            in
            let before = !failures in
            let printed = List.map (fun x -> x.m_name) (if trace then o.layers else o.e2e) in
            let wanted = if trace then layers else e2e in
            check (printed = wanted) "%s: printed metrics differ from the spec" name;
            List.iter
              (fun x -> check (x.m_unit <> "") "%s: %s has no unit" name x.m_name)
              (o.e2e @ o.layers);
            check o.correct "%s: incorrect" name;
            check (o.failed = 0) "%s: %d failed operations" name o.failed;
            if name = "oblivious_mix" && trace then
              check (List.exists (fun x -> x.m_name = "privacy.bits" && x.m_value = 0.) o.layers)
                "oblivious_mix leaks";
            if !failures > before then report (Printf.sprintf "%s trace=%b" name trace) o)
         [ false; true ])
    shapes;
  if !failures > 0 then exit 1

(* ---- command line ---- *)

let usage =
  "main.exe --workload (read_mix|oblivious_mix|write_mix) --seed N --seconds S --trace (0|1)\n\
   main.exe --smoke BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let smoke_spec = ref "" in
  (try
     Arg.parse_argv Sys.argv
       [ ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
         ("--seconds", Arg.Set_float seconds, "S measured host seconds");
         ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
         ("--smoke", Arg.Set_string smoke_spec, "SPEC tiny-scale self-check against SPEC") ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
   | Arg.Bad msg -> prerr_string msg; exit 2
   | Arg.Help msg -> print_string msg; exit 0);
  if !smoke_spec <> "" then smoke !smoke_spec
  else
    match (List.assoc_opt !workload shapes, !seed) with
    | None, _ ->
      Printf.eprintf "unknown workload %S; expected one of: %s\n" !workload
        (String.concat ", " (List.map fst shapes));
      exit 2
    | _, None -> prerr_endline "--seed is required"; exit 2
    | Some shape, Some seed ->
      if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
      let trace = !trace = 1 in
      (* the traced run's spans go to perfbench/out/ of the checkout *)
      let spans_file =
        let dir = Filename.concat "perfbench" "out" in
        if trace && Sys.file_exists "perfbench" then begin
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Some (Filename.concat dir (Printf.sprintf "%s-seed%d.spans.tsv" !workload seed))
        end
        else None
      in
      let o =
        run_workload ?spans_file ~name:!workload ~shape ~seed ~seconds:!seconds ~trace ()
      in
      report !workload o;
      print_endline (json o (if trace then o.layers else o.e2e))

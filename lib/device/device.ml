module Flash = Ghost_flash.Flash
module Rng = Ghost_kernel.Rng
module Wire = Ghost_wire.Wire

type usb_fault = {
  usb_seed : int;
  corrupt_prob : float;
  max_retries : int;
  backoff_us : float;
  backoff_jitter : float;
}

let default_usb_fault = {
  usb_seed = 0;
  corrupt_prob = 0.;
  max_retries = 4;
  backoff_us = 250.0;
  backoff_jitter = 0.;
}

exception Usb_error of string

type config = {
  ram_budget : int;
  usb_mbit_per_s : float;
  usb_per_message_us : float;
  cpu_mips : float;
  flash_geometry : Flash.geometry;
  flash_cost : Flash.cost;
  flash_fault : Flash.fault_config option;
  usb_fault : usb_fault option;
  durable_logs : bool;
  page_cache_frames : int;
  wire_format : Wire.format;
  verify_pages : bool;
  log_runs : log_runs option;
}

and log_runs = {
  l0_spill_pages : int;
  run_fanout : int;
}

let default_log_runs = { l0_spill_pages = 4; run_fanout = 4 }

let default_config = {
  ram_budget = 64 * 1024;
  usb_mbit_per_s = 12.0;
  usb_per_message_us = 100.0;
  cpu_mips = 50.0;
  flash_geometry = Flash.default_geometry;
  flash_cost = Flash.default_cost;
  flash_fault = None;
  usb_fault = None;
  durable_logs = false;
  page_cache_frames = 0;
  wire_format = Wire.Verbose;
  verify_pages = false;
  log_runs = None;
}

let high_speed_usb config = { config with usb_mbit_per_s = 480.0 }

type fault_counters = {
  flash_bit_flips : int;
  flash_ecc_corrected : int;
  flash_ecc_uncorrected : int;
  flash_program_failures : int;
  flash_pages_remapped : int;
  flash_bad_blocks : int;
  flash_power_cuts : int;
  usb_corruptions : int;
  usb_retries : int;
  records_recovered : int;
  records_lost : int;
  reorg_checkpoints : int;
  reorg_rollbacks : int;
  reorg_rollforwards : int;
  integrity_errors : int;
  integrity_transients : int;
  pages_scrubbed : int;
  scrub_refreshes : int;
  repair_rebuilds : int;
  log_spills : int;
  log_compactions : int;
  compaction_pages : int;
}

type snapshot = {
  flash : Flash.stats;
  usb_bytes_in : int;
  usb_bytes_out : int;
  usb_us : float;
  cpu_ops : int;
  elapsed : float;
  faults : fault_counters;
  cache : Page_cache.stats;
}

type t = {
  config : config;
  flash : Flash.t;
  scratch : Flash.t;
  ram : Ram.t;
  page_cache : Page_cache.t option;
  trace : Trace.t;
  usb_rng : Rng.t option;
  jitter_rng : Rng.t option;
      (* separate stream (seed derived from [usb_seed]) so enabling
         backoff jitter never shifts the corruption/retry schedule *)
  mutable session_scratch : Flash.t list;
      (* per-session spill regions handed out to the query scheduler;
         their traffic counts toward the device clock like [scratch] *)
  mutable on_tick : (unit -> unit) option;
      (* scheduler hook, invoked after every clock charge on the CPU or
         USB paths; [None] (the serial default) costs one branch *)
  mutable usb_bytes_in : int;
  mutable usb_bytes_out : int;
  mutable usb_us : float;
  mutable usb_corruptions : int;
  mutable usb_retries : int;
  mutable records_recovered : int;
  mutable records_lost : int;
  mutable reorg_checkpoints : int;
  mutable reorg_rollbacks : int;
  mutable reorg_rollforwards : int;
  mutable integrity_errors : int;
  mutable integrity_transients : int;
  mutable pages_scrubbed : int;
  mutable scrub_refreshes : int;
  mutable repair_rebuilds : int;
  mutable log_spills : int;
  mutable log_compactions : int;
  mutable compaction_pages : int;
  mutable cpu_ops : int;
  mutable metrics : Ghost_metrics.Metrics.t option;
      (* observability registry; [None] (the default) costs one branch
         on the paths that would report into it *)
  mutable published : snapshot option;
      (* device-global totals already flushed into [metrics], so
         [flush_metrics] publishes windows, not lifetime sums *)
  session_spent : (int, float) Hashtbl.t;
      (* per-session virtual clock: device time charged while each
         scheduler session's bracket was open *)
  mutable vclock_session : int option;
  mutable vclock_open_at : float;  (* global clock at bracket open *)
  mutable vclock_offset : float;  (* session_us = elapsed_us + offset *)
  enc : Wire.encoder;
      (* the link's reused encode buffer + label-interning dictionary;
         both wire formats encode through it, so metered byte counts
         are real frame sizes *)
  mutable batch : (Trace.payload * int * Trace.obl option) list ref option;
      (* open coalescing bracket ([with_usb_batch], Compact only):
         messages encoded into the pending frame, newest first *)
}

let create ?(config = default_config) ~trace () =
  let flash =
    Flash.create ~geometry:config.flash_geometry ~cost:config.flash_cost
      ?fault:config.flash_fault ()
  in
  (* Only the main store carries trailers: scratch regions hold
     per-query spill runs that never outlive a session, so sealing
     them would buy nothing and complicate the spill writers. *)
  if config.verify_pages then Flash.set_authenticated flash true;
  let ram = Ram.create ~budget:config.ram_budget in
  {
  config;
  flash;
  scratch =
    Flash.create ~geometry:config.flash_geometry ~cost:config.flash_cost
      ?fault:config.flash_fault ();
  ram;
  page_cache =
    (if config.page_cache_frames > 0 then
       Some (Page_cache.create ~ram flash ~frames:config.page_cache_frames)
     else None);
  trace;
  usb_rng = Option.map (fun f -> Rng.create f.usb_seed) config.usb_fault;
  jitter_rng =
    Option.map (fun f -> Rng.create (f.usb_seed lxor 0x5DEECE66)) config.usb_fault;
  session_scratch = [];
  on_tick = None;
  usb_bytes_in = 0;
  usb_bytes_out = 0;
  usb_us = 0.;
  usb_corruptions = 0;
  usb_retries = 0;
  records_recovered = 0;
  records_lost = 0;
  reorg_checkpoints = 0;
  reorg_rollbacks = 0;
  reorg_rollforwards = 0;
  integrity_errors = 0;
  integrity_transients = 0;
  pages_scrubbed = 0;
  scrub_refreshes = 0;
  repair_rebuilds = 0;
  log_spills = 0;
  log_compactions = 0;
  compaction_pages = 0;
  cpu_ops = 0;
  metrics = None;
  published = None;
  session_spent = Hashtbl.create 16;
  vclock_session = None;
  vclock_open_at = 0.;
  vclock_offset = 0.;
  enc = Wire.encoder ();
  batch = None;
}

let metric t ?by name =
  match t.metrics with
  | None -> ()
  | Some m -> Ghost_metrics.Metrics.incr m ?by name

let config t = t.config
let flash t = t.flash
let scratch t = t.scratch
let ram t = t.ram
let page_cache t = t.page_cache
let trace t = t.trace

let new_scratch_region t =
  let region =
    Flash.create ~geometry:t.config.flash_geometry ~cost:t.config.flash_cost
      ?fault:t.config.flash_fault ()
  in
  t.session_scratch <- region :: t.session_scratch;
  region

let set_on_tick t hook = t.on_tick <- hook

let tick t =
  match t.on_tick with
  | None -> ()
  | Some f -> f ()

let cache_stats t =
  match t.page_cache with
  | Some c -> Page_cache.stats c
  | None -> Page_cache.zero_stats

let cpu t n =
  if n < 0 then invalid_arg "Device.cpu: negative";
  t.cpu_ops <- t.cpu_ops + n;
  tick t

let usb_transfer_us t bytes =
  t.config.usb_per_message_us
  +. (Float.of_int (bytes * 8) /. t.config.usb_mbit_per_s)

type direction = Inbound | Outbound

(* One logical USB frame — a list of messages sharing one transfer.
   Each attempt — the original and every retransmission — is charged
   to the clock, counted against the byte totals and recorded in the
   trace: a spy on the bus sees the retransmitted bytes exactly like
   the first copy. Corruption, retry and backoff operate on the whole
   frame (the receiver rejects a frame on its CRC, so a partial
   delivery is a full retransmission). When the retry budget is
   exhausted the transfer fails. *)
let transfer_frame t dir link msgs ~total =
  let rec attempt k =
    (match dir with
     | Inbound -> t.usb_bytes_in <- t.usb_bytes_in + total
     | Outbound -> t.usb_bytes_out <- t.usb_bytes_out + total);
    t.usb_us <- t.usb_us +. usb_transfer_us t total;
    List.iter
      (fun (payload, bytes, obl) -> Trace.record ?obl t.trace link payload ~bytes)
      msgs;
    let corrupted =
      match t.config.usb_fault, t.usb_rng with
      | Some f, Some rng when f.corrupt_prob > 0. ->
        Rng.float rng 1.0 < f.corrupt_prob
      | _ -> false
    in
    if corrupted then begin
      t.usb_corruptions <- t.usb_corruptions + 1;
      metric t "usb.corruptions";
      let f = Option.get t.config.usb_fault in
      if k >= f.max_retries then
        raise (Usb_error
                 (Printf.sprintf "transfer of %d bytes failed after %d attempts"
                    total (k + 1)))
      else begin
        t.usb_retries <- t.usb_retries + 1;
        metric t "usb.retries";
        let backoff = f.backoff_us *. Float.of_int (1 lsl k) in
        (* Seeded jitter decorrelates retry schedules across fleet
           devices. It draws from its own derived-seed stream, so the
           fault schedule (which rides [usb_rng]) is identical with
           jitter on or off, and the no-jitter default stays
           bit-identical to the seed path. *)
        let backoff =
          if f.backoff_jitter > 0. then
            let r = Rng.float (Option.get t.jitter_rng) 1.0 in
            backoff *. (1. +. (f.backoff_jitter *. (r -. 0.5)))
          else backoff
        in
        t.usb_us <- t.usb_us +. backoff;
        attempt (k + 1)
      end
    end
  in
  attempt 0;
  tick t

let transfer ?obl t dir link payload ~bytes =
  transfer_frame t dir link [ (payload, bytes, obl) ] ~total:bytes

let receive ?obl t payload ~bytes =
  transfer ?obl t Inbound Trace.Pc_to_device payload ~bytes

(* Typed inbound transfers: the message is really encoded (into the
   reused wire buffer), and the metered byte count is the encoded
   frame's exact size. Under [Verbose] the sizes are the seed's by
   construction; under [Compact] a message outside a batch travels as
   its own single-message frame, envelope included. *)
let receive_message t msg payload =
  match t.config.wire_format with
  | Wire.Verbose ->
    let bytes = Wire.encode_verbose t.enc msg in
    transfer t Inbound Trace.Pc_to_device payload ~bytes
  | Wire.Compact ->
    (match t.batch with
     | Some acc ->
       let n = Wire.add_message t.enc msg in
       acc := (payload, n, None) :: !acc
     | None ->
       Wire.begin_frame t.enc;
       ignore (Wire.add_message t.enc msg : int);
       let total = Wire.end_frame t.enc in
       transfer t Inbound Trace.Pc_to_device payload ~bytes:total)

let receive_query t text = receive_message t (Wire.Query text) (Trace.Query_text text)

let receive_id_list t ~table ids =
  receive_message t
    (Wire.Id_list { table; ids })
    (Trace.Id_list { table; count = Array.length ids })

let receive_value_stream t ~table ~column ~ty pairs =
  receive_message t
    (Wire.Value_stream { table; column; ty; pairs })
    (Trace.Value_stream { table; column; count = Array.length pairs })

(* Coalescing bracket: under [Compact] every typed receive inside [f]
   lands in one vectored frame, sent on exit — one per-transfer
   latency, one corruption draw, one retry unit for the burst. The
   frame envelope's bytes are attributed to the first message's trace
   event, so per-event byte sums stay equal to the device byte
   counters. The scheduler's preemption hook is suspended while the
   bracket is open (a vectored submission is one unit of work); the
   frame transfer itself ticks as usual. Under [Verbose], or nested
   inside another bracket, this is just [f ()]. *)
let with_usb_batch t f =
  match t.config.wire_format, t.batch with
  | Wire.Verbose, _ | _, Some _ -> f ()
  | Wire.Compact, None ->
    Wire.begin_frame t.enc;
    let acc = ref [] in
    t.batch <- Some acc;
    let hook = t.on_tick in
    t.on_tick <- None;
    let finish () =
      t.batch <- None;
      t.on_tick <- hook
    in
    (match f () with
     | r ->
       finish ();
       (match List.rev !acc with
        | [] -> ()
        | (p0, n0, o0) :: rest ->
          let total = Wire.end_frame t.enc in
          let body = List.fold_left (fun a (_, n, _) -> a + n) n0 rest in
          transfer_frame t Inbound Trace.Pc_to_device
            ((p0, n0 + (total - body), o0) :: rest)
            ~total);
       r
     | exception e ->
       finish ();
       raise e)

let emit_result ?obl t ~count ~bytes =
  transfer ?obl t Outbound Trace.Device_to_display
    (Trace.Result_tuples { count }) ~bytes

let emit_ack t = transfer t Outbound Trace.Device_to_pc Trace.Ack ~bytes:1

let note_recovery t ~recovered ~lost =
  t.records_recovered <- t.records_recovered + recovered;
  t.records_lost <- t.records_lost + lost;
  metric t ~by:recovered "recovery.records_recovered";
  metric t ~by:lost "recovery.records_lost"

let note_reorg_checkpoint t =
  t.reorg_checkpoints <- t.reorg_checkpoints + 1;
  metric t "reorg.checkpoints"

let note_reorg_outcome t ~rolled_forward =
  if rolled_forward then begin
    t.reorg_rollforwards <- t.reorg_rollforwards + 1;
    metric t "reorg.rollforwards"
  end
  else begin
    t.reorg_rollbacks <- t.reorg_rollbacks + 1;
    metric t "reorg.rollbacks"
  end

let note_integrity_error t ~transient =
  t.integrity_errors <- t.integrity_errors + 1;
  metric t "integrity.errors";
  if transient then begin
    t.integrity_transients <- t.integrity_transients + 1;
    metric t "integrity.transient_retries"
  end

let note_scrub t ~pages ~refreshes =
  t.pages_scrubbed <- t.pages_scrubbed + pages;
  t.scrub_refreshes <- t.scrub_refreshes + refreshes;
  metric t ~by:pages "scrub.pages";
  if refreshes > 0 then metric t ~by:refreshes "scrub.refreshes"

let note_repair t =
  t.repair_rebuilds <- t.repair_rebuilds + 1;
  metric t "repair.rebuilds"

let note_log_spill t ~pages ~records ~dropped =
  t.log_spills <- t.log_spills + 1;
  t.compaction_pages <- t.compaction_pages + pages;
  metric t "compaction.spills";
  metric t ~by:pages "compaction.pages_written";
  metric t ~by:records "run.records_installed";
  if dropped > 0 then metric t ~by:dropped "compaction.records_dropped"

let note_log_merge t ~pages ~records ~dropped =
  t.log_compactions <- t.log_compactions + 1;
  t.compaction_pages <- t.compaction_pages + pages;
  metric t "compaction.merges";
  metric t ~by:pages "compaction.pages_written";
  metric t ~by:records "run.records_installed";
  if dropped > 0 then metric t ~by:dropped "compaction.records_dropped"

let emit_reorg_progress t ~phase ~phases =
  transfer t Outbound Trace.Device_to_pc
    (Trace.Reorg_progress { phase; phases }) ~bytes:0

(* The device clock, summed in one fixed order. Inlined into its two
   callers so that [slice_expired], which runs on every CPU and USB
   charge of a sliced session, computes it in unboxed floats: a float
   returned across a call, or folded through [List.fold_left], would be
   boxed. *)
let[@inline] flash_time_us f =
  let s = Flash.stats f in
  s.Flash.read_time_us +. s.Flash.write_time_us

let[@inline] cpu_us t = Float.of_int t.cpu_ops /. t.config.cpu_mips

let[@inline] clock_us t =
  let scratch = ref 0. in
  let regions = ref t.session_scratch in
  while !regions != [] do
    match !regions with
    | f :: rest ->
      scratch := !scratch +. flash_time_us f;
      regions := rest
    | [] -> ()
  done;
  flash_time_us t.flash +. flash_time_us t.scratch +. !scratch +. t.usb_us
  +. cpu_us t

let cpu_time_us t = cpu_us t
let usb_time_us t = t.usb_us
let elapsed_us t = clock_us t
let slice_expired t ~start ~quantum = clock_us t -. start >= quantum

let spent_us t sid =
  match Hashtbl.find_opt t.session_spent sid with Some v -> v | None -> 0.

(* The per-session virtual clock. While a session's bracket is open,
   its virtual time advances with the global clock; while other
   sessions run, it stands still. Operator spans stamped with
   [session_us] therefore measure a session's own device time
   regardless of how the scheduler interleaved it — in serial execution
   (no session set) the offset is 0 and virtual time IS the global
   clock. *)
let set_session t session =
  let now = elapsed_us t in
  (match t.vclock_session with
   | Some sid ->
     Hashtbl.replace t.session_spent sid
       (spent_us t sid +. (now -. t.vclock_open_at))
   | None -> ());
  t.vclock_session <- session;
  t.vclock_open_at <- now;
  t.vclock_offset <-
    (match session with None -> 0. | Some sid -> spent_us t sid -. now);
  Trace.set_session t.trace session

let session_us t = elapsed_us t +. t.vclock_offset

let zero_faults = {
  flash_bit_flips = 0;
  flash_ecc_corrected = 0;
  flash_ecc_uncorrected = 0;
  flash_program_failures = 0;
  flash_pages_remapped = 0;
  flash_bad_blocks = 0;
  flash_power_cuts = 0;
  usb_corruptions = 0;
  usb_retries = 0;
  records_recovered = 0;
  records_lost = 0;
  reorg_checkpoints = 0;
  reorg_rollbacks = 0;
  reorg_rollforwards = 0;
  integrity_errors = 0;
  integrity_transients = 0;
  pages_scrubbed = 0;
  scrub_refreshes = 0;
  repair_rebuilds = 0;
  log_spills = 0;
  log_compactions = 0;
  compaction_pages = 0;
}

let add_faults a b = {
  flash_bit_flips = a.flash_bit_flips + b.flash_bit_flips;
  flash_ecc_corrected = a.flash_ecc_corrected + b.flash_ecc_corrected;
  flash_ecc_uncorrected = a.flash_ecc_uncorrected + b.flash_ecc_uncorrected;
  flash_program_failures = a.flash_program_failures + b.flash_program_failures;
  flash_pages_remapped = a.flash_pages_remapped + b.flash_pages_remapped;
  flash_bad_blocks = a.flash_bad_blocks + b.flash_bad_blocks;
  flash_power_cuts = a.flash_power_cuts + b.flash_power_cuts;
  usb_corruptions = a.usb_corruptions + b.usb_corruptions;
  usb_retries = a.usb_retries + b.usb_retries;
  records_recovered = a.records_recovered + b.records_recovered;
  records_lost = a.records_lost + b.records_lost;
  reorg_checkpoints = a.reorg_checkpoints + b.reorg_checkpoints;
  reorg_rollbacks = a.reorg_rollbacks + b.reorg_rollbacks;
  reorg_rollforwards = a.reorg_rollforwards + b.reorg_rollforwards;
  integrity_errors = a.integrity_errors + b.integrity_errors;
  integrity_transients = a.integrity_transients + b.integrity_transients;
  pages_scrubbed = a.pages_scrubbed + b.pages_scrubbed;
  scrub_refreshes = a.scrub_refreshes + b.scrub_refreshes;
  repair_rebuilds = a.repair_rebuilds + b.repair_rebuilds;
  log_spills = a.log_spills + b.log_spills;
  log_compactions = a.log_compactions + b.log_compactions;
  compaction_pages = a.compaction_pages + b.compaction_pages;
}

let diff_faults ~after ~before = {
  flash_bit_flips = after.flash_bit_flips - before.flash_bit_flips;
  flash_ecc_corrected = after.flash_ecc_corrected - before.flash_ecc_corrected;
  flash_ecc_uncorrected =
    after.flash_ecc_uncorrected - before.flash_ecc_uncorrected;
  flash_program_failures =
    after.flash_program_failures - before.flash_program_failures;
  flash_pages_remapped = after.flash_pages_remapped - before.flash_pages_remapped;
  flash_bad_blocks = after.flash_bad_blocks - before.flash_bad_blocks;
  flash_power_cuts = after.flash_power_cuts - before.flash_power_cuts;
  usb_corruptions = after.usb_corruptions - before.usb_corruptions;
  usb_retries = after.usb_retries - before.usb_retries;
  records_recovered = after.records_recovered - before.records_recovered;
  records_lost = after.records_lost - before.records_lost;
  reorg_checkpoints = after.reorg_checkpoints - before.reorg_checkpoints;
  reorg_rollbacks = after.reorg_rollbacks - before.reorg_rollbacks;
  reorg_rollforwards = after.reorg_rollforwards - before.reorg_rollforwards;
  integrity_errors = after.integrity_errors - before.integrity_errors;
  integrity_transients = after.integrity_transients - before.integrity_transients;
  pages_scrubbed = after.pages_scrubbed - before.pages_scrubbed;
  scrub_refreshes = after.scrub_refreshes - before.scrub_refreshes;
  repair_rebuilds = after.repair_rebuilds - before.repair_rebuilds;
  log_spills = after.log_spills - before.log_spills;
  log_compactions = after.log_compactions - before.log_compactions;
  compaction_pages = after.compaction_pages - before.compaction_pages;
}

let no_faults f = f = zero_faults

let fault_counters (t : t) =
  let fs =
    Flash.add_fault_stats (Flash.fault_stats t.flash) (Flash.fault_stats t.scratch)
  in
  let fs =
    List.fold_left
      (fun acc f -> Flash.add_fault_stats acc (Flash.fault_stats f))
      fs t.session_scratch
  in
  {
    flash_bit_flips = fs.Flash.bit_flips;
    flash_ecc_corrected = fs.Flash.ecc_corrected;
    flash_ecc_uncorrected = fs.Flash.ecc_uncorrected;
    flash_program_failures = fs.Flash.program_failures;
    flash_pages_remapped = fs.Flash.pages_remapped;
    flash_bad_blocks = fs.Flash.bad_blocks_marked;
    flash_power_cuts = fs.Flash.power_cuts;
    usb_corruptions = t.usb_corruptions;
    usb_retries = t.usb_retries;
    records_recovered = t.records_recovered;
    records_lost = t.records_lost;
    reorg_checkpoints = t.reorg_checkpoints;
    reorg_rollbacks = t.reorg_rollbacks;
    reorg_rollforwards = t.reorg_rollforwards;
    integrity_errors = t.integrity_errors;
    integrity_transients = t.integrity_transients;
    pages_scrubbed = t.pages_scrubbed;
    scrub_refreshes = t.scrub_refreshes;
    repair_rebuilds = t.repair_rebuilds;
    log_spills = t.log_spills;
    log_compactions = t.log_compactions;
    compaction_pages = t.compaction_pages;
  }

let snapshot (t : t) : snapshot = {
  flash =
    List.fold_left
      (fun acc f -> Flash.add_stats acc (Flash.stats f))
      (Flash.add_stats (Flash.stats t.flash) (Flash.stats t.scratch))
      t.session_scratch;
  usb_bytes_in = t.usb_bytes_in;
  usb_bytes_out = t.usb_bytes_out;
  usb_us = t.usb_us;
  cpu_ops = t.cpu_ops;
  elapsed = elapsed_us t;
  faults = fault_counters t;
  cache = cache_stats t;
}

type usage = {
  flash_page_reads : int;
  flash_page_programs : int;
  flash_us : float;
  used_usb_bytes_in : int;
  used_usb_us : float;
  used_cpu_ops : int;
  cpu_us : float;
  total_us : float;
  faults : fault_counters;
  cache : Page_cache.stats;
}

let usage_between t ~(before : snapshot) ~(after : snapshot) =
  let f = Flash.diff_stats ~after:after.flash ~before:before.flash in
  let cpu_ops = after.cpu_ops - before.cpu_ops in
  {
    flash_page_reads = f.Flash.page_reads;
    flash_page_programs = f.Flash.page_programs;
    flash_us = Flash.total_time_us f;
    used_usb_bytes_in = after.usb_bytes_in - before.usb_bytes_in;
    used_usb_us = after.usb_us -. before.usb_us;
    used_cpu_ops = cpu_ops;
    cpu_us = Float.of_int cpu_ops /. t.config.cpu_mips;
    total_us = after.elapsed -. before.elapsed;
    faults = diff_faults ~after:after.faults ~before:before.faults;
    cache = Page_cache.diff_stats ~after:after.cache ~before:before.cache;
  }

let set_metrics t m =
  t.metrics <- m;
  Trace.set_metrics t.trace m;
  Option.iter (fun c -> Page_cache.set_metrics c m) t.page_cache;
  (match m with
   | None -> t.published <- None
   | Some reg ->
     (* A registry can outlive a device (reorganization builds a fresh
        card): shift its time origin so this device's spans land after
        everything already recorded. *)
     Ghost_metrics.Metrics.rebase reg ~clock_now:(elapsed_us t);
     t.published <- Some (snapshot t))

let metrics t = t.metrics

(* Device-global totals are published as window diffs against the last
   flush: Flash reads/programs, USB traffic and CPU ops land as
   counters, component times as gauges. Diffing [snapshot]s keeps the
   totals exact however the scheduler interleaved the work. *)
let flush_metrics t =
  match t.metrics, t.published with
  | Some m, Some before ->
    let after = snapshot t in
    let u = usage_between t ~before ~after in
    let module M = Ghost_metrics.Metrics in
    M.incr m ~by:u.flash_page_reads "device.flash.page_reads";
    M.incr m ~by:u.flash_page_programs "device.flash.page_programs";
    M.add_gauge m "device.flash.us" u.flash_us;
    M.incr m ~by:u.used_usb_bytes_in "device.usb.bytes_in";
    M.incr m ~by:(after.usb_bytes_out - before.usb_bytes_out)
      "device.usb.bytes_out";
    M.add_gauge m "device.usb.us" u.used_usb_us;
    M.incr m ~by:u.used_cpu_ops "device.cpu.ops";
    M.add_gauge m "device.cpu.us" u.cpu_us;
    M.add_gauge m "device.elapsed_us" u.total_us;
    t.published <- Some after
  | _ -> ()

let zero_usage = {
  flash_page_reads = 0;
  flash_page_programs = 0;
  flash_us = 0.;
  used_usb_bytes_in = 0;
  used_usb_us = 0.;
  used_cpu_ops = 0;
  cpu_us = 0.;
  total_us = 0.;
  faults = zero_faults;
  cache = Page_cache.zero_stats;
}

let add_usage a b = {
  flash_page_reads = a.flash_page_reads + b.flash_page_reads;
  flash_page_programs = a.flash_page_programs + b.flash_page_programs;
  flash_us = a.flash_us +. b.flash_us;
  used_usb_bytes_in = a.used_usb_bytes_in + b.used_usb_bytes_in;
  used_usb_us = a.used_usb_us +. b.used_usb_us;
  used_cpu_ops = a.used_cpu_ops + b.used_cpu_ops;
  cpu_us = a.cpu_us +. b.cpu_us;
  total_us = a.total_us +. b.total_us;
  faults = add_faults a.faults b.faults;
  cache = Page_cache.add_stats a.cache b.cache;
}

let pp_usage fmt u =
  Format.fprintf fmt
    "%.0f us (flash %.0f us / %d rd %d wr; usb %.0f us / %d B in; cpu %.0f us / %d ops)"
    u.total_us u.flash_us u.flash_page_reads u.flash_page_programs u.used_usb_us
    u.used_usb_bytes_in u.cpu_us u.used_cpu_ops;
  if not (no_faults u.faults) then
    Format.fprintf fmt
      " [faults: %d flips (%d ecc-fixed, %d uncorrected), %d prog-fail, %d remapped, %d bad blk, %d power cuts, %d usb retries]"
      u.faults.flash_bit_flips u.faults.flash_ecc_corrected
      u.faults.flash_ecc_uncorrected
      u.faults.flash_program_failures u.faults.flash_pages_remapped
      u.faults.flash_bad_blocks u.faults.flash_power_cuts u.faults.usb_retries;
  if u.faults.integrity_errors > 0 || u.faults.pages_scrubbed > 0
     || u.faults.repair_rebuilds > 0 then
    Format.fprintf fmt
      " [integrity: %d errors (%d transient), %d scrubbed, %d refreshed, %d rebuilt]"
      u.faults.integrity_errors u.faults.integrity_transients
      u.faults.pages_scrubbed u.faults.scrub_refreshes
      u.faults.repair_rebuilds;
  if not (Page_cache.no_activity u.cache) then
    Format.fprintf fmt " [cache: %d hit %d miss %d evict %d inval]"
      u.cache.Page_cache.hits u.cache.Page_cache.misses
      u.cache.Page_cache.evictions u.cache.Page_cache.invalidations;
  if u.faults.reorg_checkpoints > 0 || u.faults.reorg_rollbacks > 0
     || u.faults.reorg_rollforwards > 0 then
    Format.fprintf fmt " [reorg: %d ckpt %d roll-fwd %d roll-back]"
      u.faults.reorg_checkpoints u.faults.reorg_rollforwards
      u.faults.reorg_rollbacks

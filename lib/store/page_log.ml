module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Page_cache = Ghost_device.Page_cache

type format =
  | Plain
  | Checksummed

(* Checksummed page header: magic (u32) | first_seq (u64) | count (u32)
   | crc32 (u32) over the rest of the header and the payload. *)
let header_bytes = 20

type t = {
  flash : Flash.t;
  magic : int;
  format : format;
  record_bytes : int;
  records_per_page : int;
  cache : Page_cache.t option;
      (* the device's page cache, invalidated when an append programs a
         recycled Flash page the cache may still hold *)
  mutable released : int;  (* records handed out by [release] *)
  mutable full_pages : int list;  (* reversed *)
  mutable tail : string list;  (* records of the tail page, reversed *)
  mutable tail_page : int option;  (* current (latest) program of the tail *)
  mutable stale_tails : int list;  (* superseded tail programs, newest first *)
  mutable count : int;
  mutable dead_bytes : int;
  mutable needs_recovery : bool;  (* a program was torn by a power cut *)
  mutable torn_page : int option;  (* the page that tore, if known *)
}

let create ?(format = Plain) ?cache flash ~magic ~record_bytes =
  let page = (Flash.geometry flash).Flash.page_size in
  let usable =
    match format with Plain -> page | Checksummed -> page - header_bytes
  in
  if record_bytes > usable then
    invalid_arg "Page_log.create: record exceeds a page";
  {
    flash;
    magic;
    format;
    record_bytes;
    records_per_page = usable / record_bytes;
    cache;
    released = 0;
    full_pages = [];
    tail = [];
    tail_page = None;
    stale_tails = [];
    count = 0;
    dead_bytes = 0;
    needs_recovery = false;
    torn_page = None;
  }

let format t = t.format
let count t = t.count
let dead_bytes t = t.dead_bytes
let needs_recovery t = t.needs_recovery
let full_pages t = List.rev t.full_pages

let pages t =
  List.length t.full_pages + (match t.tail_page with Some _ -> 1 | None -> 0)

let size_bytes t =
  ((List.length t.full_pages * t.records_per_page) + List.length t.tail)
  * t.record_bytes

let payload_off t =
  match t.format with Plain -> 0 | Checksummed -> header_bytes

(* The bytes of one page image holding [records] (oldest first), whose
   first record carries sequence number [first_seq]. *)
let build_page t ~first_seq records =
  let payload = String.concat "" records in
  match t.format with
  | Plain -> Bytes.of_string payload
  | Checksummed ->
    let b = Bytes.create (header_bytes + String.length payload) in
    Codec.put_u32 b 0 t.magic;
    Codec.put_u64 b 4 first_seq;
    Codec.put_u32 b 12 (List.length records);
    Bytes.blit_string payload 0 b header_bytes (String.length payload);
    let crc =
      Codec.crc32 b ~pos:0 ~len:16
      |> fun crc ->
      Codec.crc32 ~crc b ~pos:header_bytes ~len:(String.length payload)
    in
    Codec.put_u32 b 16 crc;
    b

(* Reads a checksummed page back and validates it: magic, plausible
   record count, checksum over header + payload. Returns the first
   sequence number and the records, oldest first. *)
let parse_page t page =
  match Flash.read_page t.flash page with
  | exception Invalid_argument _ -> None  (* erased (e.g. a zero-byte tear) *)
  | b ->
    if Codec.get_u32 b 0 <> t.magic then None
    else begin
      let first_seq = Codec.get_u64 b 4 in
      let n = Codec.get_u32 b 12 in
      let stored_crc = Codec.get_u32 b 16 in
      if n < 1 || n > t.records_per_page then None
      else begin
        let crc =
          Codec.crc32 b ~pos:0 ~len:16
          |> fun crc -> Codec.crc32 ~crc b ~pos:header_bytes ~len:(n * t.record_bytes)
        in
        if crc <> stored_crc then None
        else
          Some
            ( first_seq,
              List.init n (fun i ->
                  Bytes.sub_string b (header_bytes + (i * t.record_bytes)) t.record_bytes) )
      end
    end

let mark_power_cut t ~page =
  t.needs_recovery <- true;
  t.torn_page <- Some page

let append t record =
  if t.needs_recovery then
    invalid_arg "Page_log.append: log needs recovery after a power cut";
  if String.length record <> t.record_bytes then
    invalid_arg "Page_log.append: record width mismatch";
  t.tail <- record :: t.tail;
  t.count <- t.count + 1;
  (* Program the tail as a fresh page (no in-place writes); the
     previous tail program becomes dead space until reorganization. *)
  (match t.tail_page with
   | Some _ -> t.dead_bytes <- t.dead_bytes + ((List.length t.tail - 1) * t.record_bytes)
   | None -> ());
  let first_seq = t.released + (t.records_per_page * List.length t.full_pages) in
  match Flash.append t.flash (build_page t ~first_seq (List.rev t.tail)) with
  | page ->
    (* The append may have recycled an erased page whose old content is
       still resident in the shared cache. *)
    Option.iter (fun c -> Page_cache.invalidate c ~page) t.cache;
    (match t.tail_page with
     | Some old -> t.stale_tails <- old :: t.stale_tails
     | None -> ());
    if List.length t.tail = t.records_per_page then begin
      t.full_pages <- page :: t.full_pages;
      t.tail <- [];
      t.tail_page <- None
    end
    else t.tail_page <- Some page
  | exception (Flash.Power_cut { page; _ } as e) ->
    mark_power_cut t ~page;
    raise e

let read_records t ~page n f =
  let b = Flash.read t.flash ~page ~off:(payload_off t) ~len:(n * t.record_bytes) in
  for i = 0 to n - 1 do
    f b (i * t.record_bytes)
  done

let iter t f =
  List.iter (fun page -> read_records t ~page t.records_per_page f) (full_pages t);
  match t.tail_page with
  | Some page -> read_records t ~page (List.length t.tail) f
  | None -> ()

let page_records t page =
  let acc = ref [] in
  read_records t ~page t.records_per_page (fun b off ->
      acc := Bytes.sub_string b off t.record_bytes :: !acc);
  List.rev !acc

let release t pages =
  t.full_pages <- List.filter (fun p -> not (List.mem p pages)) t.full_pages;
  let records = List.length pages * t.records_per_page in
  t.released <- t.released + records;
  (* the released programs stay on Flash until reorganization *)
  t.dead_bytes <- t.dead_bytes + (records * t.record_bytes)

type recovery = {
  lost : int;
  torn_pages : int;
}

(* After a power cut the volatile state is untrusted: re-scan the
   on-flash pages, keep the longest checksum-valid, sequence-continuous
   prefix, and truncate the in-memory state to it. The record torn
   mid-program (never acknowledged to the caller) is dropped; its
   superseded predecessor page, still programmed, carries the durable
   tail. *)
let recover ?(on_record = fun _ -> ()) t =
  (match t.format with
   | Checksummed -> ()
   | Plain -> invalid_arg "Page_log.recover: log is not checksummed");
  let torn = ref (match t.torn_page with Some _ -> 1 | None -> 0) in
  let old_count = t.count in
  let rec verify_full acc n = function
    | [] -> (acc, n, true)
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records)
         when first_seq = t.released + (n * t.records_per_page)
              && List.length records = t.records_per_page ->
         List.iter on_record records;
         verify_full (p :: acc) (n + 1) rest
       | _ ->
         incr torn;
         (acc, n, false))
  in
  let full_rev, n_full, full_intact = verify_full [] 0 (full_pages t) in
  let expected_seq = t.released + (n_full * t.records_per_page) in
  (* Newest tail program whose sequence continues the full prefix. A
     corrupted full page invalidates everything after it, tail
     included. *)
  let candidates =
    if not full_intact then []
    else (match t.tail_page with Some p -> [ p ] | None -> []) @ t.stale_tails
  in
  let rec pick = function
    | [] -> (None, [])
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records) when first_seq = expected_seq ->
         (Some (p, records), rest)
       | _ ->
         incr torn;
         pick rest)
  in
  let tail_winner, older = pick candidates in
  (match tail_winner with
   | Some (page, records) ->
     List.iter on_record records;
     t.tail <- List.rev records;
     t.tail_page <- Some page;
     t.stale_tails <- older;
     t.count <- expected_seq + List.length records
   | None ->
     t.tail <- [];
     t.tail_page <- None;
     t.stale_tails <- [];
     t.count <- expected_seq);
  t.full_pages <- full_rev;
  t.needs_recovery <- false;
  t.torn_page <- None;
  { lost = old_count - t.count; torn_pages = !torn }

module Codec = Ghost_kernel.Codec
module Sorted_ids = Ghost_kernel.Sorted_ids
module Flash = Ghost_flash.Flash
module Page_log = Ghost_store.Page_log

type durability = Page_log.format =
  | Plain
  | Checksummed

let magic = 0x47544D42  (* "GTMB" *)

type t = {
  table : string;
  log : Page_log.t;  (* one 4-byte record per deleted root id *)
  members : (int, unit) Hashtbl.t;
}

let create ?(durability = Plain) ?cache flash ~table =
  {
    table;
    log = Page_log.create ~format:durability ?cache flash ~magic ~record_bytes:4;
    members = Hashtbl.create 64;
  }

let table t = t.table
let count t = Page_log.count t.log
let needs_recovery t = Page_log.needs_recovery t.log
let mem t id = Hashtbl.mem t.members id
let id_of record = Codec.get_u32 (Bytes.unsafe_of_string record) 0

let append t ids =
  if needs_recovery t then
    invalid_arg "Tombstone_log.append: log needs recovery after a power cut";
  List.iter
    (fun id ->
       let b = Bytes.create 4 in
       Codec.put_u32 b 0 id;
       Hashtbl.replace t.members id ();
       Page_log.append t.log (Bytes.unsafe_to_string b))
    ids

type recovery = {
  recovered : int;
  lost : int;
  torn_pages : int;
}

let recover t =
  let durable = ref [] in
  let r = Page_log.recover t.log ~on_record:(fun rc -> durable := id_of rc :: !durable) in
  Hashtbl.reset t.members;
  List.iter (fun id -> Hashtbl.replace t.members id ()) !durable;
  { recovered = count t; lost = r.Page_log.lost; torn_pages = r.Page_log.torn_pages }

let load_sorted t =
  let acc = ref [] in
  Page_log.iter t.log (fun b off -> acc := Codec.get_u32 b off :: !acc);
  Sorted_ids.of_unsorted !acc

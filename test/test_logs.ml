(* Direct unit tests of the append-only logs (insert delta, deletion
   tombstones): encoding, Flash behaviour, write amplification. *)

module Value = Ghost_kernel.Value
module Flash = Ghost_flash.Flash
module Delta_log = Ghostdb.Delta_log
module Tombstone_log = Ghostdb.Tombstone_log

let check = Alcotest.check

let flash () = Flash.create ~geometry:{ Flash.page_size = 256; pages_per_block = 8 } ()

let make_delta f =
  Delta_log.create f ~table:"R" ~levels:[ "R"; "A"; "B" ]
    ~hidden_cols:[ ("q", Value.T_int); ("s", Value.T_char 8) ]

let test_delta_roundtrip () =
  let f = flash () in
  let log = make_delta f in
  check Alcotest.int "record bytes" (12 + 8 + 8) (Delta_log.record_bytes log);
  for i = 1 to 25 do
    Delta_log.append log
      ~ids:[| 100 + i; i; (2 * i) + 1 |]
      ~hidden:[| Value.Int (i * 3); Value.Str (Printf.sprintf "s%d" i) |]
  done;
  check Alcotest.int "count" 25 (Delta_log.count log);
  let seen = ref 0 in
  Delta_log.scan log (fun r ->
    incr seen;
    let i = !seen in
    check Alcotest.(array int) "ids" [| 100 + i; i; (2 * i) + 1 |] r.Delta_log.ids;
    check Alcotest.bool "hidden value" true
      (Value.equal (Value.Int (i * 3)) (Delta_log.hidden_value log r "q"));
    check Alcotest.bool "hidden assoc" true
      (List.assoc "s" (Delta_log.hidden_assoc log r)
       = Value.Str (Printf.sprintf "s%d" i)));
  check Alcotest.int "scanned all" 25 !seen

let test_delta_validation () =
  let log = make_delta (flash ()) in
  (try
     Delta_log.append log ~ids:[| 1 |] ~hidden:[| Value.Int 1; Value.Str "a" |];
     Alcotest.fail "expected misaligned ids"
   with Invalid_argument _ -> ());
  try
    Delta_log.append log ~ids:[| 1; 2; 3 |] ~hidden:[| Value.Int 1 |];
    Alcotest.fail "expected misaligned hidden"
  with Invalid_argument _ -> ()

let test_delta_write_amplification () =
  let f = flash () in
  let log = make_delta f in
  (* 256-byte pages, 28-byte records: 9 per page. Every append
     re-programs the tail page. *)
  for i = 1 to 9 do
    Delta_log.append log ~ids:[| i; 1; 1 |] ~hidden:[| Value.Int 0; Value.Str "" |]
  done;
  let s = Flash.stats f in
  check Alcotest.int "one program per append" 9 s.Flash.page_programs;
  check Alcotest.bool "dead bytes accumulate" true (Delta_log.dead_bytes log > 0);
  check Alcotest.int "live = 9 records" (9 * 28) (Delta_log.size_bytes log)

let test_tombstones () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  Tombstone_log.append log [ 5; 1; 9 ];
  Tombstone_log.append log [ 2 ];
  check Alcotest.int "count" 4 (Tombstone_log.count log);
  check Alcotest.bool "mem" true (Tombstone_log.mem log 9);
  check Alcotest.bool "not mem" false (Tombstone_log.mem log 3);
  check Alcotest.(array int) "sorted load" [| 1; 2; 5; 9 |]
    (Tombstone_log.load_sorted log);
  (* load is metered *)
  let before = (Flash.stats f).Flash.page_reads in
  ignore (Tombstone_log.load_sorted log);
  check Alcotest.bool "flash read charged" true
    ((Flash.stats f).Flash.page_reads > before)

let test_tombstones_many_pages () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  (* 64 ids per 256-byte page: cross several pages *)
  Tombstone_log.append log (List.init 200 (fun i -> i + 1));
  check Alcotest.int "count" 200 (Tombstone_log.count log);
  check Alcotest.int "all back" 200 (Array.length (Tombstone_log.load_sorted log))

let make_durable_delta f =
  Delta_log.create ~durability:Delta_log.Checksummed f ~table:"R"
    ~levels:[ "R"; "A"; "B" ]
    ~hidden_cols:[ ("q", Value.T_int); ("s", Value.T_char 8) ]

let append_n log n =
  for i = 1 to n do
    Delta_log.append log
      ~ids:[| 100 + i; i; (2 * i) + 1 |]
      ~hidden:[| Value.Int (i * 3); Value.Str (Printf.sprintf "s%d" i) |]
  done

let scanned_ids log =
  let acc = ref [] in
  Delta_log.scan log (fun r -> acc := r.Delta_log.ids.(0) :: !acc);
  List.rev !acc

let test_delta_checksummed_roundtrip () =
  let f = flash () in
  let log = make_durable_delta f in
  (* 256-byte pages minus the 20-byte header: 8 records of 28 bytes *)
  append_n log 25;
  check Alcotest.int "count" 25 (Delta_log.count log);
  check Alcotest.(list int) "all records back, in order"
    (List.init 25 (fun i -> 101 + i)) (scanned_ids log)

let test_delta_dead_bytes_quantified () =
  let f = flash () in
  let log = make_delta f in
  (* rpp = 9 (plain): k tail reprograms strand 0+1+...+(k-1) records *)
  for k = 1 to 8 do
    Delta_log.append log ~ids:[| k; 1; 1 |] ~hidden:[| Value.Int 0; Value.Str "" |];
    check Alcotest.int (Printf.sprintf "dead after %d" k)
      (28 * (k * (k - 1) / 2)) (Delta_log.dead_bytes log)
  done;
  (* the 9th append completes the page: its superseded predecessor
     still counts, and the next append opens a fresh tail with no dead
     space *)
  Delta_log.append log ~ids:[| 9; 1; 1 |] ~hidden:[| Value.Int 0; Value.Str "" |];
  check Alcotest.int "dead after full page" (28 * 36) (Delta_log.dead_bytes log);
  Delta_log.append log ~ids:[| 10; 1; 1 |] ~hidden:[| Value.Int 0; Value.Str "" |];
  check Alcotest.int "fresh tail adds none" (28 * 36) (Delta_log.dead_bytes log)

let test_delta_power_cut_recovery () =
  let f = flash () in
  let log = make_durable_delta f in
  append_n log 11;  (* one full page (8) + tail of 3 *)
  Flash.arm_power_cut f ~after_programs:1;
  (try
     Delta_log.append log ~ids:[| 112; 12; 25 |]
       ~hidden:[| Value.Int 36; Value.Str "s12" |];
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Delta_log.needs_recovery log);
  (* volatile state still counts the unacknowledged record *)
  check Alcotest.int "volatile count" 12 (Delta_log.count log);
  (try
     append_n log 1;
     Alcotest.fail "append must refuse"
   with Invalid_argument _ -> ());
  let r = Delta_log.recover log in
  check Alcotest.int "recovered acknowledged prefix" 11 r.Delta_log.recovered;
  check Alcotest.int "lost the torn record" 1 r.Delta_log.lost;
  check Alcotest.bool "torn page seen" true (r.Delta_log.torn_pages >= 1);
  check Alcotest.bool "recovered" false (Delta_log.needs_recovery log);
  check Alcotest.(list int) "contents = acknowledged appends"
    (List.init 11 (fun i -> 101 + i)) (scanned_ids log);
  (* the log is usable again *)
  Delta_log.append log ~ids:[| 112; 12; 25 |]
    ~hidden:[| Value.Int 36; Value.Str "s12" |];
  check Alcotest.int "append after recovery" 12 (Delta_log.count log)

let test_delta_power_cut_on_first_append () =
  let f = flash () in
  let log = make_durable_delta f in
  Flash.arm_power_cut f ~after_programs:1;
  (try append_n log 1; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Delta_log.recover log in
  check Alcotest.int "nothing durable" 0 r.Delta_log.recovered;
  check Alcotest.int "one lost" 1 r.Delta_log.lost;
  check Alcotest.int "empty log" 0 (Delta_log.count log);
  append_n log 3;
  check Alcotest.(list int) "restarts cleanly" [ 101; 102; 103 ] (scanned_ids log)

let test_delta_plain_cannot_recover () =
  let log = make_delta (flash ()) in
  try
    ignore (Delta_log.recover log);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_tombstone_power_cut_recovery () =
  let f = flash () in
  let log = Tombstone_log.create ~durability:Tombstone_log.Checksummed f ~table:"R" in
  Tombstone_log.append log [ 5; 1; 9 ];
  (* tear the program of the 2nd id of the next batch: the 1st id is
     durable, the 2nd is not *)
  Flash.arm_power_cut f ~after_programs:2;
  (try Tombstone_log.append log [ 2; 7; 4 ]; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Tombstone_log.needs_recovery log);
  let r = Tombstone_log.recover log in
  check Alcotest.int "durable prefix of the batch" 4 r.Tombstone_log.recovered;
  check Alcotest.int "torn id lost" 1 r.Tombstone_log.lost;
  check Alcotest.(array int) "sorted load" [| 1; 2; 5; 9 |]
    (Tombstone_log.load_sorted log);
  check Alcotest.bool "membership rebuilt" true (Tombstone_log.mem log 2);
  check Alcotest.bool "torn id not a member" false (Tombstone_log.mem log 7);
  Tombstone_log.append log [ 7; 4 ];
  check Alcotest.int "resumes" 6 (Tombstone_log.count log)

(* Golden on-flash layout. A 64-byte page keeps each image short
   enough to pin in full: a Checksummed page is the 20-byte header
   (magic, first sequence number, record count, CRC-32 over the rest
   of the header and the payload), then the records; a Plain page is
   the records alone. Each expected image below lists the header
   fields in that order, then one record per chunk. Pages are zero-padded past the programmed
   prefix. Any change to these bytes breaks every saved device image. *)

let small_flash () =
  Flash.create ~geometry:{ Flash.page_size = 64; pages_per_block = 8 } ()

let hex b =
  String.concat "" (List.init (Bytes.length b) (fun i ->
      Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* [chunks] concatenated, zero-padded to the page, against the page. *)
let check_page f page label chunks =
  let expected = String.concat "" chunks in
  let expected = expected ^ String.make (128 - String.length expected) '0' in
  check Alcotest.string label expected (hex (Flash.read_page f page))

let golden_delta ?durability () =
  let f = small_flash () in
  let log =
    Delta_log.create ?durability f ~table:"R" ~levels:[ "R"; "A" ]
      ~hidden_cols:[ ("q", Value.T_int) ]
  in
  (f, log)

let golden_append log i =
  Delta_log.append log ~ids:[| i; 10 + i |] ~hidden:[| Value.Int (1000 * i) |]

let test_golden_checksummed_delta () =
  let f, log = golden_delta ~durability:Delta_log.Checksummed () in
  (* 16-byte records, 2 per checksummed page: three appends program a
     one-record tail (page 0), the full page 1 and a new tail (page 2) *)
  List.iter (golden_append log) [ 1; 2; 3 ];
  check Alcotest.int "pages programmed" 3 (Flash.page_count f);
  let before = Flash.stats f in
  let seen = ref [] in
  Delta_log.scan log (fun r -> seen := r.Delta_log.ids.(0) :: !seen);
  let s = Flash.diff_stats ~after:(Flash.stats f) ~before in
  check Alcotest.(list int) "scan order" [ 1; 2; 3 ] (List.rev !seen);
  check Alcotest.int "L0 scan: one read per live page" 2 s.Flash.page_reads;
  check Alcotest.int "L0 scan: payload bytes only" 48 s.Flash.bytes_read;
  check (Alcotest.float 1e-9) "L0 scan: read time" 51.2 s.Flash.read_time_us;
  check_page f 1 "full page"
    [ "47444c54"; "0000000000000000"; "00000002"; "2eb6af08";
      "000000010000000b80000000000003e8";
      "000000020000000c80000000000007d0" ];
  check_page f 2 "partial tail"
    [ "47444c54"; "0000000000000002"; "00000001"; "ccccf479";
      "000000030000000d8000000000000bb8" ]

let test_golden_checksummed_tombstones () =
  let f = small_flash () in
  let log = Tombstone_log.create ~durability:Tombstone_log.Checksummed f ~table:"R" in
  (* 4-byte ids, 11 per checksummed page: page 10 is the first full
     page, page 12 the two-id tail after it *)
  Tombstone_log.append log (List.init 13 (fun i -> 13 - i));
  check Alcotest.int "pages programmed" 13 (Flash.page_count f);
  check_page f 10 "full page"
    [ "47544d42"; "0000000000000000"; "0000000b"; "999b27cd";
      "0000000d"; "0000000c"; "0000000b"; "0000000a"; "00000009"; "00000008";
      "00000007"; "00000006"; "00000005"; "00000004"; "00000003" ];
  check_page f 12 "partial tail"
    [ "47544d42"; "000000000000000b"; "00000002"; "5cb87355";
      "00000002"; "00000001" ]

let test_golden_plain_delta () =
  let f, log = golden_delta () in
  (* 4 records per plain page: page 3 is full, page 4 the tail *)
  List.iter (golden_append log) [ 1; 2; 3; 4; 5 ];
  check Alcotest.int "pages programmed" 5 (Flash.page_count f);
  check_page f 3 "full page"
    [ "000000010000000b80000000000003e8";
      "000000020000000c80000000000007d0";
      "000000030000000d8000000000000bb8";
      "000000040000000e8000000000000fa0" ];
  check_page f 4 "partial tail"
    [ "000000050000000f8000000000001388" ]

let suite = [
  Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
  Alcotest.test_case "delta checksummed roundtrip" `Quick test_delta_checksummed_roundtrip;
  Alcotest.test_case "delta dead bytes quantified" `Quick test_delta_dead_bytes_quantified;
  Alcotest.test_case "delta power-cut recovery" `Quick test_delta_power_cut_recovery;
  Alcotest.test_case "delta power cut on first append" `Quick test_delta_power_cut_on_first_append;
  Alcotest.test_case "plain log cannot recover" `Quick test_delta_plain_cannot_recover;
  Alcotest.test_case "tombstone power-cut recovery" `Quick test_tombstone_power_cut_recovery;
  Alcotest.test_case "delta validation" `Quick test_delta_validation;
  Alcotest.test_case "delta write amplification" `Quick test_delta_write_amplification;
  Alcotest.test_case "tombstones" `Quick test_tombstones;
  Alcotest.test_case "tombstones across pages" `Quick test_tombstones_many_pages;
  Alcotest.test_case "golden checksummed delta page" `Quick test_golden_checksummed_delta;
  Alcotest.test_case "golden checksummed tombstone page" `Quick
    test_golden_checksummed_tombstones;
  Alcotest.test_case "golden plain page" `Quick test_golden_plain_delta;
]

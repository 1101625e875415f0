(* Live inserts: new prescriptions arrive while the doctor keeps
   querying.

   New facts append to a Flash-resident delta log (NAND forbids
   rewriting the SKTs and climbing indexes in place); queries scan the
   log next to the indexed structures, so results are immediately
   fresh. The growing log slowly taxes every query - the output below
   shows when an offline reorganization (a reload in the secure
   setting) pays off.

   dune exec examples/live_inserts.exe *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Exec = Ghostdb.Exec

let scale = Medical.small

let fresh_prescriptions db rng n =
  let next = Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1 in
  Medical.prescriptions rng scale ~first:next n

let count_prescriptions db =
  match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
  | [ [| Value.Int n |] ] -> n
  | _ -> assert false

let () =
  let rng = Rng.create 2007 in
  let db = Ghost_db.of_schema (Medical.schema ()) (Medical.generate scale) in
  Printf.printf "loaded %d prescriptions\n" (count_prescriptions db);
  Printf.printf "\n%8s %12s %14s %12s %10s\n" "pending" "insert/row" "demo query"
    "log (live)" "log (dead)";
  let baseline = (Ghost_db.query db Queries.demo).Exec.elapsed_us in
  List.iter
    (fun batch ->
       let device = Ghost_db.device db in
       let t0 = Ghost_device.Device.elapsed_us device in
       Ghost_db.insert db (fresh_prescriptions db rng batch);
       let per_row =
         (Ghost_device.Device.elapsed_us device -. t0) /. Float.of_int batch
       in
       let q = (Ghost_db.query db Queries.demo).Exec.elapsed_us in
       let log = Catalog.delta (Ghost_db.catalog db) "Prescription" in
       let live, dead =
         match log with
         | Some l -> (Ghostdb.Delta_log.size_bytes l, Ghostdb.Delta_log.dead_bytes l)
         | None -> (0, 0)
       in
       Printf.printf "%8d %9.0f us %11.1f ms %10d B %8d B\n"
         (Ghost_db.delta_count db) per_row (q /. 1000.) live dead)
    [ 50; 200; 750; 2000 ];
  Printf.printf
    "\nfresh-load query time was %.1f ms: once the delta tax dominates, reorganize\n\
     (reload in the secure setting, folding the log into the SKTs and indexes).\n"
    (baseline /. 1000.);
  Printf.printf "total prescriptions now: %d\n" (count_prescriptions db);
  let verdict = Ghost_db.audit db in
  Printf.printf "privacy audit after all of it: %s\n"
    (if verdict.Ghostdb.Privacy.ok then "OK" else "VIOLATION")

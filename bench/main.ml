(* Benchmark harness.

   Two layers:
   1. The experiment suite (E1-E23 and A1-A5, see DESIGN.md Section 5
      and --list): prints, for every table/figure of the paper, the
      same rows/series the paper reports, measured in deterministic
      simulated device time.
   2. Bechamel wall-clock micro-benchmarks - one Test.make per
      experiment - measuring the cost of running each reproduction on
      the host (useful to track regressions of the simulator itself).

   Usage: main.exe [--full] [--scale tiny|small|medium] [--no-wallclock]
          [--only E1,E5] [--json DIR] [--metrics DIR] [--force] [--list] *)

open Bechamel
open Toolkit
module Experiments = Ghost_bench.Experiments
module Report = Ghost_bench.Report
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Planner = Ghostdb.Planner
module Baseline = Ghost_baseline.Baseline
module Metrics = Ghost_metrics.Metrics

type options = {
  full : bool;
  scale : Medical.scale;
  wallclock : bool;
  only : string list option;
  json_dir : string option;
  metrics_dir : string option;
  force : bool;
  list : bool;
}

let parse_args () =
  let full = ref false in
  let scale = ref Medical.small in
  let wallclock = ref true in
  let only = ref None in
  let json_dir = ref None in
  let metrics_dir = ref None in
  let force = ref false in
  let list = ref false in
  let set_scale s =
    scale :=
      match s with
      | "tiny" -> Medical.tiny
      | "small" -> Medical.small
      | "medium" -> Medical.medium
      | "paper" -> Medical.paper
      | _ -> invalid_arg "scale must be tiny|small|medium|paper"
  in
  let set_only s = only := Some (String.split_on_char ',' s) in
  let specs = [
    ("--full", Arg.Set full, " include the 1M-prescription point (E10)");
    ("--scale", Arg.String set_scale, "SCALE tiny|small|medium|paper (default small)");
    ("--no-wallclock", Arg.Clear wallclock, " skip the Bechamel wall-clock pass");
    ("--only", Arg.String set_only, "IDS comma-separated experiment ids (e.g. E1,E5)");
    ("--json", Arg.String (fun d -> json_dir := Some d),
     "DIR also write each selected report as DIR/BENCH_<id>.json");
    ("--metrics", Arg.String (fun d -> metrics_dir := Some d),
     "DIR for the instrumented experiments (E16-E23), also write \
      DIR/METRICS_<id>.json, DIR/TRACE_<id>.json (Chrome trace) and \
      DIR/CALIBRATION_<id>.txt");
    ("--force", Arg.Set force, " overwrite existing output files");
    ("--list", Arg.Set list, " print experiment ids with descriptions and exit");
  ] in
  Arg.parse (Arg.align specs) (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "GhostDB benchmark harness";
  { full = !full; scale = !scale; wallclock = !wallclock; only = !only;
    json_dir = !json_dir; metrics_dir = !metrics_dir; force = !force;
    list = !list }

(* Benchmark outputs are results: never clobber a previous run's file
   unless the user asked for it. *)
let refuse_overwrite path =
  Printf.eprintf "main.exe: refusing to overwrite %s (pass --force)\n" path;
  exit 3

let write_json ~force dir report =
  try ignore (Report.write_file ~dir ~force report)
  with Report.Would_overwrite path -> refuse_overwrite path

let write_metrics ~force dir id m =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name contents =
    let path = Filename.concat dir name in
    try Report.write_string ~path ~force contents
    with Report.Would_overwrite p -> refuse_overwrite p
  in
  write (Printf.sprintf "METRICS_%s.json" id) (Metrics.to_json m);
  write (Printf.sprintf "TRACE_%s.json" id) (Metrics.to_chrome_trace m);
  write
    (Printf.sprintf "CALIBRATION_%s.txt" id)
    (Format.asprintf "%a" Metrics.pp_calibration (Metrics.calibration_report m))

let list_experiments opts =
  List.iter
    (fun (id, description, _) -> Printf.printf "%-4s %s\n" id description)
    (Experiments.all ~scale:opts.scale ~full:opts.full ())

let print_experiments opts =
  (* One registry per instrumented experiment, created lazily when the
     experiment asks for it (only E16-E23 do). *)
  let registries : (string, Metrics.t) Hashtbl.t = Hashtbl.create 4 in
  let metrics id =
    match opts.metrics_dir with
    | None -> None
    | Some _ ->
      (match Hashtbl.find_opt registries id with
       | Some m -> Some m
       | None ->
         let m = Metrics.create () in
         Hashtbl.add registries id m;
         Some m)
  in
  let reports = Experiments.all ~scale:opts.scale ~full:opts.full ~metrics () in
  let selected =
    match Experiments.select opts.only reports with
    | Ok selected -> selected
    | Error msg ->
      Printf.eprintf
        "main.exe: %s\nUsage: main.exe [--full] [--scale SCALE] [--no-wallclock] \
         [--only IDS] [--json DIR] [--metrics DIR] [--force] [--list]\n"
        msg;
      exit 2
  in
  List.iter
    (fun (id, _, thunk) ->
       let report = thunk () in
       print_string (Report.to_string report);
       Option.iter (fun dir -> write_json ~force:opts.force dir report)
         opts.json_dir;
       Option.iter
         (fun dir ->
            Option.iter
              (fun m -> write_metrics ~force:opts.force dir id m)
              (Hashtbl.find_opt registries id))
         opts.metrics_dir)
    selected

(* ---- Bechamel wall-clock pass ---- *)

(* Shared tiny instance so each staged function measures query
   execution, not loading. *)
let bench_db = lazy (Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.tiny))

let run_plan_of strategy () =
  let db = Lazy.force bench_db in
  let cat = Ghost_db.catalog db in
  let q = Ghost_db.bind db Queries.demo in
  ignore (Ghost_db.run_plan db (strategy cat q))

let bechamel_tests () =
  let db = Lazy.force bench_db in
  let cat = Ghost_db.catalog db in
  let public = Ghost_db.public db in
  let demo_q = Ghost_db.bind db Queries.demo in
  [
    Test.make ~name:"e1_fig6_all_pre" (Staged.stage (run_plan_of Planner.all_pre));
    Test.make ~name:"e1_fig6_all_post" (Staged.stage (run_plan_of Planner.all_post));
    Test.make ~name:"e1_fig6_cross" (Staged.stage (run_plan_of Planner.cross));
    Test.make ~name:"e2_crossover_point"
      (Staged.stage (fun () ->
         let sql = Queries.demo_with ~date_selectivity:0.1 () in
         ignore (Ghost_db.query db sql)));
    Test.make ~name:"e3_operator_stats"
      (Staged.stage (fun () -> ignore (Ghost_db.query db Queries.demo)));
    Test.make ~name:"e4_privacy_audit"
      (Staged.stage (fun () ->
         ignore (Ghost_db.query db Queries.demo);
         ignore (Ghost_db.audit db)));
    Test.make ~name:"e5_baseline_grace_hash"
      (Staged.stage (fun () -> ignore (Baseline.run Baseline.Grace_hash cat public demo_q)));
    Test.make ~name:"e5_baseline_sort_merge"
      (Staged.stage (fun () -> ignore (Baseline.run Baseline.Sort_merge cat public demo_q)));
    Test.make ~name:"e6_flash_asymmetry_probe" (Staged.stage (run_plan_of Planner.all_post));
    Test.make ~name:"e7_ram_probe"
      (Staged.stage (fun () ->
         ignore (Ghost_db.run_plan db ~bloom_fpr:0.1 (Planner.all_post cat demo_q))));
    Test.make ~name:"e8_usb_probe" (Staged.stage (run_plan_of Planner.all_pre));
    Test.make ~name:"e9_storage_report"
      (Staged.stage (fun () -> ignore (Ghost_db.storage db)));
    Test.make ~name:"e10_scale_probe"
      (Staged.stage (fun () -> ignore (Ghost_db.query db Queries.demo)));
    Test.make ~name:"e11_insert_probe"
      (Staged.stage (fun () ->
         (* fresh tiny instance per run: inserts are stateful *)
         let db = Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.tiny) in
         let next = Ghostdb.Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1 in
         Ghost_db.insert db
           [ [| Ghost_kernel.Value.Int next; Ghost_kernel.Value.Int 5;
                Ghost_kernel.Value.Int 2; Ghost_kernel.Value.Date Medical.date_lo;
                Ghost_kernel.Value.Int 1; Ghost_kernel.Value.Int 1 |] ]));
    Test.make ~name:"a1_approximate_post"
      (Staged.stage (fun () ->
         ignore (Ghost_db.run_plan db ~exact_post:false (Planner.all_post cat demo_q))));
    Test.make ~name:"a2_loose_bloom"
      (Staged.stage (fun () ->
         ignore (Ghost_db.run_plan db ~bloom_fpr:0.3 (Planner.all_post cat demo_q))));
    Test.make ~name:"a3_hidden_fk_check"
      (Staged.stage (fun () ->
         ignore
           (Ghost_db.query db
              "SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.DocID = 3 \
               AND Pre.VisID = Vis.VisID")));
    Test.make ~name:"a4_skew_probe"
      (Staged.stage (fun () -> ignore (Ghost_db.query db Queries.demo)));
    Test.make ~name:"e12_lifecycle_probe"
      (Staged.stage (fun () ->
         let db = Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.tiny) in
         Ghost_db.delete db [ 1; 2; 3 ];
         ignore (Ghost_db.reorganize db)));
    Test.make ~name:"a5_deep_cross_probe"
      (Staged.stage (fun () ->
         ignore
           (Ghost_db.query db
              "SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
               Vis.Date > '2005-01-01' AND Pat.BodyMassIndex >= 35.0 AND Pre.VisID \
               = Vis.VisID AND Vis.PatID = Pat.PatID")));
    Test.make ~name:"e13_calibration_probe"
      (Staged.stage (fun () ->
         ignore (Ghostdb.Planner.with_estimates cat demo_q)));
    Test.make ~name:"e14_retail_probe"
      (Staged.stage (fun () ->
         let module Retail = Ghost_workload.Retail in
         let rdb = Ghost_db.of_schema (Retail.schema ()) (Retail.generate Retail.tiny) in
         ignore (Ghost_db.query rdb (List.assoc "region_volume" Retail.queries))));
    Test.make ~name:"e18_sched_probe"
      (Staged.stage (fun () ->
         let module Scheduler = Ghost_sched.Scheduler in
         let module Driver = Ghost_sched.Workload_driver in
         ignore
           (Driver.run ~policy:Scheduler.Round_robin ~quantum_us:500. db
              { Driver.default_spec with
                Driver.clients = 2; queries_per_client = 1; theta = 1.0;
                seed = 3 })));
    Test.make ~name:"e19_fleet_probe"
      (Staged.stage (fun () ->
         let module Fleet = Ghost_fleet.Fleet in
         let module Driver = Ghost_fleet.Fleet_driver in
         let fleet =
           Fleet.create
             ~topology:
               { Fleet.shards = 2; replicas = 1; partitioning = Fleet.Range }
             (Medical.schema ()) (Medical.generate Medical.tiny)
         in
         ignore
           (Driver.run fleet
              { Driver.default_spec with
                Driver.clients = 2; queries_per_client = 1; theta = 1.0;
                seed = 3 })));
  ]

let run_bechamel () =
  let tests = Test.make_grouped ~name:"ghostdb" (bechamel_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "== Bechamel wall-clock (host time per run) ==\n";
  let entries = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
       let est =
         match Analyze.OLS.estimates ols with
         | Some (e :: _) -> Printf.sprintf "%.0f ns" e
         | Some [] | None -> "n/a"
       in
       Printf.printf "  %-40s %12s\n" name est)
    (List.sort compare entries);
  print_newline ()

let () =
  let opts = parse_args () in
  if opts.list then list_experiments opts
  else begin
    print_experiments opts;
    if opts.wallclock then run_bechamel ()
  end

(* Regenerate every experiment table (E1-E23 and A1-A5, see DESIGN.md
   Section 5, EXPERIMENTS.md and [--list]). All numbers are
   deterministic simulated device time. An unknown [--only] id exits 2
   and lists the valid ids. *)

module Experiments = Ghost_bench.Experiments
module Report = Ghost_bench.Report
module Medical = Ghost_workload.Medical
module Metrics = Ghost_metrics.Metrics
open Cmdliner

let scale_conv =
  let parse = function
    | "tiny" -> Ok Medical.tiny
    | "small" -> Ok Medical.small
    | "medium" -> Ok Medical.medium
    | "paper" -> Ok Medical.paper
    | s -> Error (`Msg (Printf.sprintf "unknown scale %S (tiny|small|medium|paper)" s))
  in
  let print fmt (s : Medical.scale) =
    Format.fprintf fmt "%d-prescriptions" s.Medical.prescriptions
  in
  Arg.conv (parse, print)

let scale_arg =
  Arg.(value & opt scale_conv Medical.small
       & info [ "scale" ] ~docv:"SCALE"
           ~doc:"Dataset scale: tiny, small (default), medium or paper (1M).")

let full_arg =
  Arg.(value & flag
       & info [ "full" ] ~doc:"Include the paper's 1M-prescription point in E10.")

let only_arg =
  Arg.(value & opt (some (list string)) None
       & info [ "only" ] ~docv:"IDS" ~doc:"Run only the given comma-separated experiment ids (see $(b,--list)); \
                 an unknown id exits with status 2.")

let list_arg =
  Arg.(value & flag
       & info [ "list" ]
           ~doc:"Print the experiment ids with one-line descriptions and exit.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"DIR"
           ~doc:"For the instrumented experiments (E16-E23), also write \
                 METRICS_<id>.json, TRACE_<id>.json (Chrome about:tracing \
                 format) and CALIBRATION_<id>.txt into $(docv).")

let force_arg =
  Arg.(value & flag
       & info [ "force" ]
           ~doc:"Overwrite existing metrics output files instead of refusing.")

let write_metrics ~force dir id m =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name contents =
    let path = Filename.concat dir name in
    try Report.write_string ~path ~force contents
    with Report.Would_overwrite p ->
      Printf.eprintf "experiments: refusing to overwrite %s (pass --force)\n" p;
      exit 3
  in
  write (Printf.sprintf "METRICS_%s.json" id) (Metrics.to_json m);
  write (Printf.sprintf "TRACE_%s.json" id) (Metrics.to_chrome_trace m);
  write
    (Printf.sprintf "CALIBRATION_%s.txt" id)
    (Format.asprintf "%a" Metrics.pp_calibration (Metrics.calibration_report m))

let run scale full only list metrics_dir force =
  let registries : (string, Metrics.t) Hashtbl.t = Hashtbl.create 4 in
  let metrics id =
    match metrics_dir with
    | None -> None
    | Some _ ->
      (match Hashtbl.find_opt registries id with
       | Some m -> Some m
       | None ->
         let m = Metrics.create () in
         Hashtbl.add registries id m;
         Some m)
  in
  let reports = Experiments.all ~scale ~full ~metrics () in
  if list then
    List.iter
      (fun (id, description, _) -> Printf.printf "%-4s %s\n" id description)
      reports
  else begin
    let selected =
      match Experiments.select only reports with
      | Ok selected -> selected
      | Error msg ->
        Printf.eprintf "experiments: %s\n" msg;
        exit 2
    in
    List.iter
      (fun (id, _, thunk) ->
         print_string (Report.to_string (thunk ()));
         Option.iter
           (fun dir ->
              Option.iter
                (fun m -> write_metrics ~force dir id m)
                (Hashtbl.find_opt registries id))
           metrics_dir)
      selected
  end

let cmd =
  let doc = "regenerate the GhostDB reproduction's experiment tables" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const run $ scale_arg $ full_arg $ only_arg $ list_arg $ metrics_arg
          $ force_arg)

let () = exit (Cmd.eval cmd)

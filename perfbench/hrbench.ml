(* hrbench — the end-to-end benchmark through hrdb_server.

   hrbench --workload churn|lookup --seed N --seconds S --trace 0|1
           --server PATH --work DIR

   With --trace 0 it drives a server child over the wire protocol and
   reports the end-to-end metrics; with --trace 1 it replays the same
   seeded operations in-process with spans around each layer and reports
   the per-layer metrics. The last line of output is the JSON result.

   hrbench --arm traced|metrics|bare|probe --db DIR is one replay arm of
   the traced run, started by the run itself (see traced.ml). *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let server = ref "" and work = ref "" and arm = ref "" and db = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "churn|lookup");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "length of the timed window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--server", Arg.Set_string server, "path of hrdb_server.exe");
      ("--work", Arg.Set_string work, "scratch directory for databases");
      ("--arm", Arg.Set_string arm, "run one replay arm of the traced run");
      ("--db", Arg.Set_string db, "the arm's database directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hrbench --workload W --seed N --seconds S --trace 0|1 --server EXE --work DIR";
  if !arm <> "" then begin
    Traced.arm_main !arm !db;
    exit 0
  end;
  if not (List.mem !workload Work.names) then (prerr_endline "hrbench: unknown workload"; exit 2);
  if !server = "" || !work = "" then (prerr_endline "hrbench: --server and --work are required"; exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Client.kill_all;
  let seed64 = Int64.of_int !seed in
  (* a fixed CPU-bound loop, timed at both ends of the run, shows how fast
     the host ran: shared hosts drift by tens of percent over minutes *)
  let reference () =
    let t0 = Unix.gettimeofday () in
    let x = ref 0 in
    for i = 1 to 50_000_000 do
      x := (!x * 31) + i
    done;
    ignore (Sys.opaque_identity !x);
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let ref_start = reference () in
  let t0 = Unix.gettimeofday () in
  let wl = Work.make !workload seed64 in
  Report.note "workload %s seed %d (ocaml %s): generated in %.3f s" !workload !seed Sys.ocaml_version
    (Unix.gettimeofday () -. t0);
  List.iter (fun (k, v) -> Report.note "property %s = %s" k v) wl.Work.props;
  E2e.rm_rf !work;
  Unix.mkdir !work 0o755;
  let ctx = { E2e.exe = !server; work = !work; seconds = !seconds } in
  let tally =
    if !trace = 0 then E2e.run ctx wl else Traced.run ctx wl
  in
  E2e.rm_rf !work;
  Report.note "host speed: reference loop %.1f ms at start, %.1f ms at end" ref_start (reference ());
  Report.print ~correct:(tally.E2e.failed = 0) ~attempted:tally.E2e.attempted ~failed:tally.E2e.failed

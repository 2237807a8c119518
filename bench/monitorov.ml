(* Monitor-overhead experiment (Ext M): the same deterministic workload
   with the continuous monitor off / at 100 ms / at 10 ms, proving the
   "cheap when off" contract of lib/obs/monitor.

   The engine samples at the end of the first operation past each
   deadline on its own clock, and this workload runs on a logical clock
   advanced 20 ms per transaction, so each mode's sample count is a pure
   function of the workload.  Wall times are printed for the operator
   only: the logical clock packs minutes of engine time into a fraction
   of a second, so these runs sample far more often per CPU second than
   a wall-clock engine would (EXPERIMENTS.md Ext M).
   BENCH_monitorov.json carries the deterministic part: each
   mode's sample count and a [counters_identical] bool certifying that
   sampling changed nothing the engine itself counts.  The monitor's own
   counters (monitor.samples, monitor.dropped) are excluded from that
   comparison, exactly as traceov excludes trace.*.  A mode that has the
   monitor on but records no sample fails the run: an overhead figure
   with nothing sampled would measure nothing. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module S = Imdb_core.Schema

let schema =
  S.make
    [
      { S.col_name = "id"; col_type = S.T_int };
      { S.col_name = "val"; col_type = S.T_string };
    ]

let row i v = [ S.V_int i; S.V_string v ]

let is_monitor_counter name =
  String.length name >= 8 && String.sub name 0 8 = "monitor."

(* Update-heavy traffic over a small key set — the hotpath shape: group
   commit, lazy stamping, time splits all fire while the monitor (when
   on) snapshots the registry at its deadlines. *)
let run_mode ~scale ~interval_ms =
  let txns = Harness.scaled ~scale 6000 in
  let keys = 64 in
  let config =
    { E.default_config with E.monitor_interval_ms = interval_ms; auto_checkpoint_every = 0 }
  in
  let clock = Imdb_clock.Clock.create_logical () in
  let db = Db.open_memory ~config ~clock () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema;
  let elapsed, () =
    Harness.time_it (fun () ->
        for i = 1 to txns do
          Imdb_clock.Clock.advance clock 20L;
          Db.exec db (fun txn ->
              Db.upsert_row db txn ~table:"t"
                (row (i mod keys) (Printf.sprintf "v%08d" i)))
        done;
        Imdb_clock.Clock.advance clock 20L;
        let ts = Imdb_clock.Clock.last_issued (Db.engine db).E.clock in
        Db.exec db (fun txn ->
            ignore (Db.scan_rows_as_of db txn ~table:"t" ~ts));
        Db.checkpoint db)
  in
  let m = Db.metrics db in
  let samples = M.get m M.monitor_samples in
  let engine_snapshot =
    List.filter (fun (name, _) -> not (is_monitor_counter name)) (M.snapshot m)
  in
  Db.close db;
  (elapsed, txns, samples, engine_snapshot)

let modes = [ ("off", 0); ("100ms", 100); ("10ms", 10) ]

let run ~scale =
  let results =
    List.map
      (fun (name, interval_ms) -> (name, interval_ms, run_mode ~scale ~interval_ms))
      modes
  in
  let base_s =
    match results with (_, _, (s, _, _, _)) :: _ -> s | [] -> 0.0
  in
  Harness.print_table
    ~title:"monitorov: continuous-monitor overhead (same workload; off is the contract)"
    ~header:[ "mode"; "interval ms"; "wall ms"; "vs off"; "samples" ]
    (List.map
       (fun (name, interval_ms, (s, _, samples, _)) ->
         [
           name;
           string_of_int interval_ms;
           Harness.ms s;
           Harness.pct s base_s;
           string_of_int samples;
         ])
       results);
  List.iter
    (fun (name, interval_ms, (_, _, samples, _)) ->
      if interval_ms > 0 && samples = 0 then
        failwith (Printf.sprintf "monitorov: mode %s recorded no samples" name))
    results;
  let snapshots = List.map (fun (_, _, (_, _, _, snap)) -> snap) results in
  let counters_identical =
    match snapshots with
    | first :: rest -> List.for_all (fun s -> s = first) rest
    | [] -> true
  in
  if not counters_identical then
    Fmt.pr "WARNING: the monitor perturbed engine counters@.";
  let module J = Imdb_obs.Json in
  Harness.emit_json ~name:"monitorov"
    (J.Obj
       [
         ("schema_version", J.Int M.schema_version);
         ( "modes",
           J.List
             (List.map
                (fun (name, interval_ms, (_, txns, samples, _)) ->
                  J.Obj
                    [
                      ("mode", J.String name);
                      ("interval_ms", J.Int interval_ms);
                      ("txns", J.Int txns);
                      ("samples", J.Int samples);
                    ])
                results) );
         ("counters_identical", J.Bool counters_identical);
       ])

let () =
  Harness.register ~name:"monitorov"
    ~doc:"continuous-monitor overhead: off vs 100ms vs 10ms sampling" run

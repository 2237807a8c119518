(* history_read: temporal reads over a deep history.

   One session.  Setup bulk-loads the moving-objects table and then
   builds a deep history with one-row update commits (whose latencies
   give this workload's commit metrics), so that the data pages outgrow
   the buffer pool several times over.  The timed loop mixes AS OF full
   scans at past commit timestamps drawn uniformly, AS OF point gets and
   history walks of random keys; every answer is checked against the
   model after it is timed.  The run ends with a crash and recovery. *)

open Common

let objects = 2_000
let history_commits = 80_000
let setup_reps = 4

(* Bulk loads of the objects into throwaway engines, besides the
   set-ups' own, spread over the timed loop so that [load_rows_s] has
   samples from all of it to find the machine's quiet speed in (see
   [Stats.quiet_scale]); their time is not the loop's.  None when
   traced. *)
let load_probes = 20

(* Extra recoveries from copies of the crashed devices, so that
   [recovery_ms] has several to pick from. *)
let recovery_copies = 5

(* Operation mix of the timed loop, in percent: AS OF scans, AS OF gets,
   history walks. *)
let mix = (5, 60, 35)

(* One setup: a fresh engine, the bulk load and the history.  Returns the
   engine, its clock, the model and the commit timestamps of the
   history, in order. *)
let build t ~loads ~updates ~opens ~load_lat ~commits =
  let t0 = Stats.now_ns () in
  let clock = Clock.create_logical () in
  let db = open_db ~config:(config ()) ~clock () in
  Db.create_table db ~name:table ~mode:Db.Immortal ~schema;
  Stats.add opens (Stats.us_since t0 /. 1e6);
  let s = Db.session db in
  let model = Model.create () in
  bulk_load t s clock model load_lat loads;
  let ts_of = Array.make (Array.length updates) Ts.zero in
  let committed = Array.copy updates in
  let nts = ref 0 in
  Array.iter
    (fun row ->
      Clock.advance clock 20L;
      let t1 = Stats.now_ns () in
      match update_txn s row with
      | Some ts ->
          ignore (Stats.record commits t1);
          ok t;
          ts_of.(!nts) <- ts;
          incr nts;
          committed.(!nts - 1) <- row
      | None -> failure t "update transaction returned no timestamp"
      | exception e -> failure t ("update: " ^ Printexc.to_string e))
    updates;
  for i = 0 to !nts - 1 do
    Model.add model ~key:committed.(i).key ~ts:ts_of.(i) ~payload:committed.(i).payload
  done;
  (db, clock, model, Array.sub ts_of 0 !nts)

let run ~seed ~seconds =
  let t = tally () in
  let loads, updates = generate ~seed ~objects ~updates:history_commits in
  let rng = Imdb_util.Rng.create ((seed * 7919) + 17) in
  let p_scan, p_get, _ = mix in
  let plan =
    Array.init 200_000 (fun _ ->
        let d = Imdb_util.Rng.int rng 100 in
        (d, Imdb_util.Rng.int rng objects, Imdb_util.Rng.int rng history_commits))
  in
  let opens = Stats.create () and commits = Stats.create () and load_lat = Stats.create () in
  let made = ref None in
  for _ = 1 to reps setup_reps do
    Option.iter (fun (db, _, _, _) -> Db.close db) !made;
    made := None;
    Gc.compact ();
    made := Some (build t ~loads ~updates ~opens ~load_lat ~commits)
  done;
  let db, clock, model, stamps = Option.get !made in
  let log_bytes_per_txn =
    float_of_int (counter db M.log_bytes) /. float_of_int (max 1 (counter db M.txn_commits))
  in
  let pages = data_pages db in
  let pool = (config ()).E.pool_capacity in
  (* The timed loop. *)
  let s = Db.session db in
  let r = reads () in
  let read (d, k, i) =
    let key = loads.(k).key and ts = stamps.(i mod Array.length stamps) in
    if d < p_scan then Scan ts else if d < p_scan + p_get then Get (key, ts) else Walk (key, ts)
  in
  let reads_plan = Array.map read plan in
  (* Some reads first, untimed, from the far end of the plan: the loop
     reports the steady state of the buffer pool and the decoded-history
     cache. *)
  warm_up t model s (Array.sub reads_plan (Array.length plan - 4_000) 4_000);
  let mark = if !Ledger.on then Some (Ledger.begin_phase (Db.metrics db)) else None in
  Ledger.collect_raw := true;
  let misses0 = counter db M.buf_misses in
  let ops = ref 0 and probes = ref 0 in
  let start = Stats.now_ns () in
  let probe_every_us = float_of_int seconds *. 1e6 /. float_of_int load_probes in
  while Stats.us_since start < float_of_int seconds *. 1e6 do
    timed_read t model s r reads_plan.(!ops mod Array.length plan);
    incr ops;
    Ledger.maybe_drain ();
    if (not !Ledger.on) && Stats.us_since start >= float_of_int !probes *. probe_every_us then begin
      incr probes;
      let clock = Clock.create_logical () in
      let db = open_db ~config:(config ()) ~clock () in
      Db.create_table db ~name:table ~mode:Db.Immortal ~schema;
      bulk_load t (Db.session db) clock (Model.create ()) load_lat loads;
      Db.close db
    end
  done;
  Ledger.collect_raw := false;
  let main = Option.map (Ledger.end_phase (Db.metrics db)) mark in
  let misses = counter db M.buf_misses - misses0 in
  (* Crash and recover; the heap is measured first, since the recoveries
     from copies hold a copy of the devices. *)
  let heap_mb = top_heap_mb () in
  let registry = Db.metrics db in
  let db, recovery, recovery_ms = crash_and_recover ~clock ~copies:recovery_copies db in
  check_current t model (Db.session db);
  let space = space_amp db model in
  let ledger =
    match (main, recovery) with
    | Some main, Some recovery ->
        Some
          {
            Ledger.main;
            recovery;
            ops = !ops;
            reads = !ops;
            registry;
            overhead_pct = 0.0;
            top_heap_mb = 0.0;
          }
    | _ -> None
  in
  Db.close db;
  report_size "history_read" ~pages model;
  let ops_s = reads_rate r in
  {
    tally = t;
    ops_s;
    ledger;
    guards =
      [
        ("buffer.misses > 0 in the timed loop", misses > 0);
        ("data pages >= 4 x pool_capacity", pages >= 4 * pool);
      ];
    e2e =
      [
        setup_metric opens [ (Array.length loads / 100, load_lat); (Array.length stamps, commits) ];
        metric "ops_s" "ops/s" ops_s;
        metric "heap_mb" "MiB" heap_mb;
        load_metric load_lat;
      ]
      @ commit_metrics commits
      @ [
          metric ~samples:(List.length recovery_ms) "recovery_ms" "ms" (Stats.low recovery_ms);
          metric "log_bytes_per_txn" "B" log_bytes_per_txn;
          metric "space_amp" "ratio" space;
        ]
      @ scan_metrics r @ get_metrics r.gets @ history_metrics r;
  }

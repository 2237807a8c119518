(* update_stream: the paper's Fig. 5 worst case, on the commit path.

   One session.  Each round opens a fresh engine, bulk-loads the
   moving-objects table in 100-row transactions, then runs one-row UPDATE
   transactions from [Moving_objects.generate] over the loaded objects so
   that keys build up versions and pages time-split.  It then crashes and
   recovers, and checks the recovered database against the model: the
   current state, AS OF scans at past commit timestamps, point reads and
   history walks (these post-recovery reads give this workload's read
   metrics).  The point reads go through SQL ([Parser], [Executor]):
   [BEGIN TRAN AS OF "<ts>"; SELECT ... WHERE Oid = k; COMMIT TRAN], and
   every 8th a current SELECT under an S lock, so that the sql layer and
   the lock manager sit under a gated metric ([get_us_*]).  Rounds repeat
   until the run's seconds are used. *)

open Common

let objects = 2_000
let updates_per_round = 24_000
let setup_reps = 10

(* Post-recovery reads per round: (AS OF scans, SQL point reads, history
   walks). *)
let verify_mix = (100, 2000, 1000)

type acc = {
  setup : Stats.t;
  loads : Stats.t;  (** us per 100-row load transaction *)
  commits : Stats.t;
  recovery : Stats.t;
  reads : reads;
  mutable log_bytes_per_txn : float list;
  mutable space_amp : float list;
  mutable guards : (string * bool) list;
  mutable ledger : Ledger.inputs option;
}

let guard acc name ok = acc.guards <- (name, ok) :: acc.guards

let round ~seed ~r t acc =
  (* Inputs: rows, and the verification plan as indices into the commit
     sequence, all drawn from the seed before any clock starts. *)
  let loads, updates = generate ~seed:((seed * 1009) + r) ~objects ~updates:updates_per_round in
  let rng = Imdb_util.Rng.create ((seed * 7919) + r) in
  let n_scans, n_gets, n_walks = verify_mix in
  let plan =
    Array.init (n_scans + n_gets + n_walks) (fun i ->
        let kind = if i < n_scans then 0 else if i < n_scans + n_gets then 1 else 2 in
        (kind, Imdb_util.Rng.int rng objects, Imdb_util.Rng.int rng updates_per_round))
  in
  Imdb_util.Rng.shuffle rng plan;
  (* Setup and bulk load, several times; the last engine is the one used. *)
  let cfg = config () in
  let made = ref None in
  for _ = 1 to reps setup_reps do
    Option.iter (fun (db, _, _) -> Db.close db) !made;
    let t0 = Stats.now_ns () in
    let clock = Clock.create_logical () in
    let db = open_db ~config:cfg ~clock () in
    Db.create_table db ~name:table ~mode:Db.Immortal ~schema;
    Stats.add acc.setup (Stats.us_since t0 /. 1e6);
    let model = Model.create () in
    bulk_load t (Db.session db) clock model acc.loads loads;
    made := Some (db, clock, model)
  done;
  let db, clock, model = Option.get !made in
  let s = Db.session db in
  (* The update stream: one row per transaction. *)
  let mark = if !Ledger.on then Some (Ledger.begin_phase (Db.metrics db)) else None in
  Ledger.collect_raw := true;
  let before = M.snapshot (Db.metrics db) in
  let stream_ts = Array.make updates_per_round None in
  Array.iteri
    (fun i row ->
      Clock.advance clock 20L;
      let t1 = Stats.now_ns () in
      (match update_txn s row with
      | Some ts ->
          ignore (Stats.record acc.commits t1);
          ok t;
          stream_ts.(i) <- Some ts
      | None -> failure t "update transaction returned no timestamp"
      | exception e -> failure t ("update: " ^ Printexc.to_string e));
      Ledger.maybe_drain ())
    updates;
  Ledger.collect_raw := false;
  let main = Option.map (Ledger.end_phase (Db.metrics db)) mark in
  let d = M.diff ~before ~after:(M.snapshot (Db.metrics db)) in
  let dget name = Option.value ~default:0 (List.assoc_opt name d) in
  Array.iteri
    (fun i ts ->
      Option.iter (fun ts -> Model.add model ~key:updates.(i).key ~ts ~payload:updates.(i).payload) ts)
    stream_ts;
  acc.log_bytes_per_txn <-
    (float_of_int (counter db M.log_bytes) /. float_of_int (max 1 (counter db M.txn_commits)))
    :: acc.log_bytes_per_txn;
  guard acc "ptt.inserts = commits in the stream" (dget M.ptt_inserts = dget M.txn_commits && dget M.txn_commits > 0);
  guard acc "split.time > 0" (dget M.time_splits > 0);
  guard acc "engine.checkpoints > 0" (dget M.checkpoints > 0);
  (* Crash after the whole stream, then recover. *)
  let registry = Db.metrics db in
  let db, recovery, ms = crash_and_recover ~clock ~copies:1 db in
  List.iter (Stats.add acc.recovery) ms;
  guard acc "recovery.redo_records > 0" (counter db M.recovery_redo > 0);
  (* Every acknowledged commit must be readable after recovery. *)
  let s = Db.session db in
  check_current t model s;
  let all_ts = Array.of_list (List.filter_map Fun.id (Array.to_list stream_ts)) in
  if Array.length all_ts > 0 then begin
    let read j (kind, k, i) =
      let key = loads.(k).key and ts = all_ts.(i mod Array.length all_ts) in
      let select = select_text loads.(k).oid in
      match kind with
      | 0 -> Scan ts
      | 1 when j mod 8 = 7 -> Sql_get { key; ts = Ts.infinity; begin_tran = None; select }
      | 1 -> Sql_get { key; ts; begin_tran = Some (begin_as_of ts); select }
      | _ -> Walk (key, ts)
    in
    let locks = counter db M.lock_acquires in
    timed_reads ~sql:(Ex.make_session db) t model s acc.reads (Array.mapi read plan);
    guard acc "lock.acquires > 0 in the SQL reads" (counter db M.lock_acquires > locks)
  end;
  acc.space_amp <- space_amp db model :: acc.space_amp;
  if r = 0 then report_size "update_stream" ~pages:(data_pages db) model;
  (match (main, recovery) with
  | Some main, Some recovery ->
      acc.ledger <-
        Some
          {
            Ledger.main;
            recovery;
            ops = updates_per_round;
            reads = 0;
            registry;
            overhead_pct = 0.0;
            top_heap_mb = 0.0;
          }
  | _ -> ());
  Db.close db

let run ~seed ~seconds =
  let t = tally () in
  let acc =
    {
      setup = Stats.create ();
      loads = Stats.create ();
      commits = Stats.create ();
      recovery = Stats.create ();
      reads = reads ();
      log_bytes_per_txn = [];
      space_amp = [];
      guards = [];
      ledger = None;
    }
  in
  (* The traced pass runs one round: its ledger covers that round. *)
  let max_rounds = if !Ledger.on then 1 else max_int in
  let start = Stats.now_ns () in
  let r = ref 0 in
  while !r < max_rounds && (!r < 2 || Stats.us_since start < float_of_int seconds *. 1e6) do
    Gc.compact ();
    round ~seed ~r:!r t acc;
    incr r
  done;
  let ops_s = Stats.quiet_rate acc.commits in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let guards =
    List.map (fun name -> (name, List.for_all (fun (n, ok) -> n <> name || ok) acc.guards))
      (List.sort_uniq compare (List.map fst acc.guards))
  in
  {
    tally = t;
    ops_s;
    guards;
    ledger = acc.ledger;
    e2e =
      [
        setup_metric acc.setup [];
        metric "ops_s" "ops/s" ops_s;
        metric "heap_mb" "MiB" (top_heap_mb ());
        load_metric acc.loads;
      ]
      @ commit_metrics acc.commits
      @ [
          metric ~samples:(Stats.count acc.recovery) "recovery_ms" "ms" (Stats.low_of acc.recovery);
          metric "log_bytes_per_txn" "B" (mean acc.log_bytes_per_txn);
          metric "space_amp" "ratio" (mean acc.space_amp);
        ]
      @ scan_metrics acc.reads @ get_metrics acc.reads.gets @ history_metrics acc.reads;
  }

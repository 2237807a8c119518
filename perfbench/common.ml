(* Plumbing shared by the workloads: engine configuration, devices,
   generated rows, failure accounting and the result record. *)

module Db = Imdb_core.Db
module E = Imdb_core.Engine
module S = Imdb_core.Schema
module Ts = Imdb_clock.Timestamp
module Clock = Imdb_clock.Clock
module M = Imdb_obs.Metrics
module Mo = Imdb_workload.Moving_objects

let table = "MovingObjects"
let schema = Imdb_workload.Driver.moving_objects_schema

(* Repetitions made only for steadier end-to-end figures (setups and
   recovery copies): the traced pass, which reports per-layer figures
   only, makes one. *)
let reps n = if !Ledger.on then 1 else n

(* The config every workload runs: the default except a checkpoint every
   1000 commits (as fig5 uses), and a log sync at every commit. *)
let config ?(lock_wait_timeout_ms = 0) () =
  {
    E.default_config with
    E.auto_checkpoint_every = 1000;
    group_commit_window = 1;
    trace_sampling = (if !Ledger.on then 1 else 0);
    lock_wait_timeout_ms;
  }

(* In-memory devices; [sync_delay_s] adds a fixed sleep to every log
   sync.  The traced run wraps both devices to time them. *)
let open_db ?(sync_delay_s = 0.0) ~config ~clock () =
  let disk = Imdb_storage.Disk.in_memory ~page_size:config.E.page_size () in
  let log = Imdb_wal.Wal.Device.in_memory () in
  let log =
    if sync_delay_s <= 0.0 then log
    else
      {
        log with
        Imdb_wal.Wal.Device.sync =
          (fun () ->
            Unix.sleepf sync_delay_s;
            log.Imdb_wal.Wal.Device.sync ());
      }
  in
  let disk, log = if !Ledger.on then (Ledger.wrap_disk disk, Ledger.wrap_log log) else (disk, log) in
  let db = Db.open_devices ~config ~clock ~disk ~log_device:log () in
  Ledger.attach (Db.tracer db);
  db

(* One generated row: encoded key and payload, as the engine stores them. *)
type row = { oid : int; key : string; payload : string; x : int; y : int }

let row_of_event ev =
  let oid, x, y =
    match ev with Mo.Insert { oid; x; y } | Mo.Update { oid; x; y } -> (oid, x, y)
  in
  let vals = [ S.V_int oid; S.V_int x; S.V_int y ] in
  { oid; key = S.key_of_row schema vals; payload = S.payload_of_row schema vals; x; y }

(* [objects] inserts followed by [updates] one-row updates of them. *)
let generate ~seed ~objects ~updates =
  let evs = Array.of_list (Mo.generate ~seed ~inserts:objects ~total:(objects + updates) ()) in
  let rows = Array.map row_of_event evs in
  (Array.sub rows 0 objects, Array.sub rows objects updates)

(* --- failure accounting -------------------------------------------------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }
let ok t = t.attempted <- t.attempted + 1

let failure t msg =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- msg :: t.errors

(* A check made outside the timed region on an operation already counted
   as attempted: a wrong answer turns it into a failure. *)
let wrong t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 8 then t.errors <- msg :: t.errors

let merge a b =
  a.attempted <- a.attempted + b.attempted;
  a.failed <- a.failed + b.failed;
  a.errors <- a.errors @ b.errors

(* --- bulk load ------------------------------------------------------------ *)

let load_txn s rows lo hi =
  Ledger.span "op.load" (fun () ->
      let txn = Db.Session.begin_txn s in
      match
        for j = lo to hi - 1 do
          Db.Session.insert s txn ~table ~key:rows.(j).key ~payload:rows.(j).payload
        done
      with
      | () -> Db.Session.commit s txn
      | exception e ->
          (try Db.Session.abort s txn with _ -> ());
          raise e)

(* Insert [rows] in 100-row transactions, the clock advancing 20 ms per
   transaction, adding each transaction's time in microseconds to
   [lat].  The committed rows go into [model] after the clock stops. *)
let bulk_load t s clock model lat rows =
  let n = Array.length rows in
  let stamps =
    Array.init ((n + 99) / 100) (fun b ->
        Clock.advance clock 20L;
        let t0 = Stats.now_ns () in
        match load_txn s rows (b * 100) (min n ((b * 100) + 100)) with
        | Some ts ->
            ignore (Stats.record lat t0);
            ok t;
            Some ts
        | None ->
            failure t "load transaction returned no timestamp";
            None
        | exception e ->
            failure t ("load: " ^ Printexc.to_string e);
            None)
  in
  Array.iteri
    (fun b ts ->
      Option.iter
        (fun ts ->
          for j = b * 100 to min n ((b * 100) + 100) - 1 do
            Model.add model ~key:rows.(j).key ~ts ~payload:rows.(j).payload
          done)
        ts)
    stamps

(* One row updated in its own transaction: the paper's worst case. *)
let update_txn s row =
  Ledger.span "op.update" (fun () ->
      let txn = Ledger.span "db.begin" (fun () -> Db.Session.begin_txn s) in
      match Ledger.span "db.write" (fun () -> Db.Session.update s txn ~table ~key:row.key ~payload:row.payload) with
      | () -> Ledger.span "db.commit" (fun () -> Db.Session.commit s txn)
      | exception e ->
          (try Db.Session.abort s txn with _ -> ());
          raise e)

(* --- crash and recovery --------------------------------------------------- *)

(* What the devices hold at a crash: the data pages and the durable log.
   Recovering from a fresh copy of it repeats exactly the recovery
   [Db.crash_and_reopen] runs, so one crash yields several samples. *)
type snapshot = { pages : (int * bytes) list; log : bytes; page_size : int }

let snapshot db =
  let disk, log = Db.devices db in
  let n = disk.Imdb_storage.Disk.page_count () in
  {
    pages =
      List.filter_map
        (fun p -> if disk.page_exists p then Some (p, disk.read_page p) else None)
        (List.init n Fun.id);
    log = log.Imdb_wal.Wal.Device.read ~pos:0 ~len:(log.size ());
    page_size = disk.page_size;
  }

(* Milliseconds to open and recover a fresh copy of [snap]. *)
let recover_copy ~config snap =
  let disk = Imdb_storage.Disk.in_memory ~page_size:snap.page_size () in
  List.iter (fun (p, b) -> disk.write_page p b) snap.pages;
  let log = Imdb_wal.Wal.Device.in_memory () in
  log.append snap.log;
  let t0 = Stats.now_ns () in
  let db = Db.open_devices ~config ~clock:(Clock.create_logical ()) ~disk ~log_device:log () in
  let ms = Stats.us_since t0 /. 1e3 in
  Db.close db;
  ms

(* Crash [db] and recover it (the ledger's recovery phase when traced),
   then recover [copies] more times from copies of the crashed devices.
   Returns the recovered database, the traced phase and every recovery
   time in milliseconds. *)
let crash_and_recover ~clock ~copies db =
  let copies = if !Ledger.on then 0 else copies in
  let snap = if copies > 0 then Some (snapshot db) else None in
  let mark = if !Ledger.on then Some (Ledger.begin_phase M.null) else None in
  let t0 = Stats.now_ns () in
  let db = Db.crash_and_reopen ~clock db in
  let first = Stats.us_since t0 /. 1e3 in
  Ledger.attach (Db.tracer db);
  let phase = Option.map (Ledger.end_phase (Db.metrics db)) mark in
  let config = (Db.engine db).E.config in
  let more = match snap with Some snap -> List.init copies (fun _ -> recover_copy ~config snap) | None -> [] in
  (db, phase, first :: more)

(* --- results ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

type outcome = {
  tally : tally;
  e2e : metric list;
  guards : (string * bool) list;
  ops_s : float;
  ledger : Ledger.inputs option;  (** set by the traced pass *)
}

let metric ?(samples = 0) name unit_ value = { name; value; unit_; samples }

(* A percentile of latency samples in us, scaled to the metric's unit,
   with the number of samples: at the machine's quiet speed
   ([Stats.quiet_percentile]) for streams of alike operations (commits,
   load transactions, full scans), pooled for point reads and history
   walks, whose cost varies with the key drawn and with whether its
   pages are cached, so that chunks of them differ by more than the
   machine's speed. *)
let pct ?(scale = 1.0) ?(quiet = true) name unit_ s q =
  let v = if quiet then Stats.quiet_percentile s q else Stats.percentile_array (Stats.samples s) q in
  metric ~samples:(Stats.count s) name unit_ (scale *. v)

(* Rows per second of bulk loads, from their 100-row transaction times. *)
let load_metric lat = metric ~samples:(Stats.count lat) "load_rows_s" "rows/s" (100.0 *. Stats.quiet_rate lat)

(* Set-up time in seconds: the quiet time to open the engine and create
   the table ([opens], in s), plus each timed part of one set-up at its
   quiet mean: (operations per set-up, their latencies in us). *)
let setup_metric opens parts =
  let part (n, lat) = float_of_int n *. Stats.quiet_mean lat /. 1e6 in
  metric ~samples:(Stats.count opens) "setup_s" "s"
    (List.fold_left (fun acc p -> acc +. part p) (Stats.low_of opens) parts)

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Data-device bytes per user byte written (key + payload of every
   version).  A checkpoint first writes back dirty pages. *)
let space_amp db model =
  Db.checkpoint db;
  let disk, _ = Db.devices db in
  float_of_int (disk.Imdb_storage.Disk.page_count () * disk.Imdb_storage.Disk.page_size)
  /. float_of_int (max 1 model.Model.user_bytes)

let data_pages db =
  let disk, _ = Db.devices db in
  disk.Imdb_storage.Disk.page_count ()

let counter db name = M.get (Db.metrics db) name

let report_size workload ~pages model =
  let mib n = float_of_int (n * E.default_config.E.page_size) /. 1048576.0 in
  let pool = E.default_config.E.pool_capacity in
  Printf.printf "%s: %d data pages = %.1f MiB against a %d-frame pool (%.1f MiB), %d versions\n"
    workload pages (mib pages) pool (mib pool) (Model.versions model)

(* --- SQL ------------------------------------------------------------------ *)

module Parser = Imdb_sql.Parser
module Ex = Imdb_sql.Executor

let exec_sql session text =
  let stmt = Ledger.span "sql.parse" (fun () -> Parser.parse_one text) in
  Ledger.span "sql.exec" (fun () -> Ex.exec session stmt)

let payload_of_rows = function
  | Ex.R_rows { rows = [ row ]; _ } -> Some (Some (S.payload_of_row schema row))
  | Ex.R_rows { rows = []; _ } -> Some None
  | _ -> None

let select_text oid = Printf.sprintf "SELECT * FROM %s WHERE Oid = %d" table oid
let begin_as_of ts = Printf.sprintf "BEGIN TRAN AS OF \"%s\"" (Ts.to_string ts)

(* --- reads checked against the model ------------------------------------- *)

(* The timed read operations shared by the workloads.  Each returns its
   answer; the caller times it and checks it afterwards. *)
let scan_as_of s ts =
  Ledger.span "op.asof_scan" (fun () ->
      let acc = ref [] in
      Db.Session.as_of s ts (fun txn ->
          Ledger.span "db.scan_as_of" (fun () ->
              Db.Session.scan_as_of s txn ~table ~ts (fun k p -> acc := (k, p) :: !acc)));
      List.rev !acc)

let get_as_of s ts key =
  Ledger.span "op.asof_get" (fun () ->
      Db.Session.as_of s ts (fun txn -> Ledger.span "db.get" (fun () -> Db.Session.get s txn ~table ~key)))

(* Traced, a history walk also counts its buffer-pool page fixes. *)
let history s ts key =
  let fixes () =
    let m = Db.metrics (Db.Session.db s) in
    M.get m M.buf_hits + M.get m M.buf_misses
  in
  let before = if !Ledger.on then fixes () else 0 in
  let h =
    Ledger.span "op.history" (fun () ->
        Db.Session.as_of s ts (fun txn ->
            Ledger.span "db.history" (fun () -> Db.Session.history s txn ~table ~key)))
  in
  if !Ledger.on then begin
    Ledger.dev_add Ledger.History_walks 1;
    Ledger.dev_add Ledger.History_fixes (fixes () - before)
  end;
  h

let check_scan t model ts got =
  let want = Model.scan_at model ~ts in
  if got <> want then
    wrong t
      (Printf.sprintf "AS OF scan at %s: %d rows, model has %d" (Ts.to_string ts) (List.length got)
         (List.length want))

let check_get t model ts key got =
  if got <> Model.get_at model ~key ~ts then
    wrong t (Printf.sprintf "AS OF get at %s differs from the model" (Ts.to_string ts))

let check_history t model key got =
  let want = List.map (fun (ts, p) -> (ts, Some p)) (Model.history model ~key) in
  if got <> want then
    wrong t
      (Printf.sprintf "history of a key: %d versions, model has %d" (List.length got) (List.length want))

(* Read latencies by kind, in us: AS OF scans, AS OF gets and history
   walks. *)
type reads = { scans : Stats.t; gets : Stats.t; walks : Stats.t }

let reads () = { scans = Stats.create (); gets = Stats.create (); walks = Stats.create () }

let scan_metrics r =
  [
    pct ~scale:1e-3 "asof_scan_ms_p50" "ms" r.scans 0.5;
    pct ~scale:1e-3 "asof_scan_ms_p90" "ms" r.scans 0.9;
  ]

let history_metrics r =
  [ pct ~quiet:false "history_us_p50" "us" r.walks 0.5; pct ~quiet:false "history_us_p99" "us" r.walks 0.99 ]

let get_metrics s = [ pct ~quiet:false "get_us_p50" "us" s 0.5; pct ~quiet:false "get_us_p99" "us" s 0.99 ]

let commit_metrics s =
  [ pct "commit_us_p50" "us" s 0.5; pct "commit_us_p99" "us" s 0.99; pct "commit_us_p999" "us" s 0.999 ]

(* Reads per second of a read mix, counting only the time spent in reads. *)
let reads_rate r =
  let busy s = Array.fold_left ( +. ) 0.0 (Stats.samples s) in
  let n = Stats.count r.scans + Stats.count r.gets + Stats.count r.walks in
  float_of_int n /. ((busy r.scans +. busy r.gets +. busy r.walks) /. 1e6)

(* One timed read, its inputs generated before any clock starts. *)
type read =
  | Scan of Ts.t  (** full AS OF scan *)
  | Get of string * Ts.t  (** AS OF get of a key *)
  | Walk of string * Ts.t  (** history of a key, from a transaction AS OF the time *)
  | Sql_get of { key : string; ts : Ts.t; begin_tran : string option; select : string }
      (** the SELECT of one key, in [begin_tran] ... COMMIT TRAN, or
          alone (a current read, under an S lock) with [ts] infinity *)

(* Run [op] on session [s] ([sql] for [Sql_get]) and record its time in
   [r]; the answer is checked after the clock stops. *)
let timed_read ?sql t model s r op =
  let t0 = Stats.now_ns () in
  let timed w = ignore (Stats.record w t0); ok t in
  match op with
  | Scan ts -> (
      match scan_as_of s ts with
      | got ->
          timed r.scans;
          check_scan t model ts got
      | exception e -> failure t ("AS OF scan: " ^ Printexc.to_string e))
  | Get (key, ts) -> (
      match get_as_of s ts key with
      | got ->
          timed r.gets;
          check_get t model ts key got
      | exception e -> failure t ("AS OF get: " ^ Printexc.to_string e))
  | Walk (key, ts) -> (
      match history s ts key with
      | got ->
          timed r.walks;
          check_history t model key got
      | exception e -> failure t ("history: " ^ Printexc.to_string e))
  | Sql_get { key; ts; begin_tran; select } -> (
      let session = Option.get sql in
      match
        Ledger.span "op.sql_get" (fun () ->
            match begin_tran with
            | None -> exec_sql session select
            | Some b ->
                ignore (exec_sql session b);
                let rows = exec_sql session select in
                ignore (exec_sql session "COMMIT TRAN");
                rows)
      with
      | rows -> (
          timed r.gets;
          match payload_of_rows rows with
          | Some got -> check_get t model ts key got
          | None -> wrong t "SQL SELECT returned no row set")
      | exception e ->
          (try ignore (exec_sql session "ROLLBACK TRAN") with _ -> ());
          failure t ("SQL SELECT: " ^ Printexc.to_string e))

(* Run the first tenth of a read plan untimed, so that the timed reads
   report the engine's steady state (buffer pool and decoded history
   pages filled) rather than their first touches. *)
let warm_up ?sql t model s plan =
  let scratch = reads () in
  Array.iter (timed_read ?sql t model s scratch) (Array.sub plan 0 (Array.length plan / 10))

(* Warm up, then run the whole plan timed. *)
let timed_reads ?sql t model s r plan =
  warm_up ?sql t model s plan;
  Array.iter (timed_read ?sql t model s r) plan

(* The current state after recovery must equal the model's newest state:
   every acknowledged commit is readable. *)
let check_current t model s =
  match Db.Session.with_txn s (fun txn ->
            let acc = ref [] in
            Db.Session.scan s txn ~table (fun k p -> acc := (k, p) :: !acc);
            List.rev !acc)
  with
  | got ->
      ok t;
      let want = Model.scan_at model ~ts:Ts.infinity in
      if got <> want then
        wrong t
          (Printf.sprintf "current state after recovery: %d rows, model has %d (or payloads differ)"
             (List.length got) (List.length want))
  | exception e -> failure t ("current scan after recovery: " ^ Printexc.to_string e)

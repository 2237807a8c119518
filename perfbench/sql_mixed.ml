(* sql_mixed: a SQL writer beside a SQL reader of fresh versions.

   Two sessions on two domains, each an [Executor] session fed SQL text,
   with blocking lock waits.  Every log sync sleeps a fixed 1 ms, so
   waiting on the log shows.  The writer autocommits
   [UPDATE MovingObjects SET ... WHERE Oid = k] for a fixed stream of
   generated updates.  Until the writer is done, the reader runs
   [BEGIN TRAN AS OF "<writer's latest commit ts>"; SELECT ... WHERE
   Oid = k; COMMIT TRAN] on random keys; every 8th read is instead a
   current SERIALIZABLE SELECT of the key the writer updates next, whose
   S lock meets the writer's X lock.  The reader reads versions that
   have just committed and are not yet stamped: the lazy-stamping trade.
   Then the database crashes and recovers, and AS OF scans and the
   history of every key are checked against the model. *)

open Common

let objects = 2_000
let setup_reps = 6
let sync_delay_s = 0.001

(* Writer updates per second of --seconds: about what one writer
   completes against a 1 ms log sync, so the timed phase lasts roughly
   --seconds. *)
let writer_rate = 560

(* Post-recovery reads: AS OF scans, and history walks of every key this
   many times, in a shuffled order. *)
let verify_scans = 600
let verify_walks = 6

(* Extra recoveries from copies of the crashed devices, so that
   [recovery_ms] has several to pick from. *)
let recovery_copies = 9

(* [ops_s] counts the operations both sessions finish in each slice of
   the timed phase, and reports the median of the full slices: the
   writer's rate is set by its log sync, and the reader's by the
   writer's locks. *)
let slice_us = 1_000_000.0

let committed_ts = function
  | Ex.R_ok msg when String.length msg > 13 && String.sub msg 0 13 = "committed at " ->
      Some (Ts.of_string (String.sub msg 13 (String.length msg - 13)))
  | _ -> None

type answer =
  | As_of of { key : string; ts : Ts.t; got : string option }
  | Current of { key : string; lo : Ts.t; hi_index : int; got : string option }

let setup t ~loads ~opens ~load_lat =
  let t0 = Stats.now_ns () in
  let clock = Clock.create_logical () in
  let db = open_db ~sync_delay_s ~config:(config ~lock_wait_timeout_ms:1000 ()) ~clock () in
  let session = Ex.make_session db in
  ignore
    (exec_sql session
       (Printf.sprintf
          "CREATE IMMORTAL TABLE %s (Oid INT PRIMARY KEY, LocationX INT, LocationY INT)" table));
  Stats.add opens (Stats.us_since t0 /. 1e6);
  let model = Model.create () in
  let n = Array.length loads in
  for b = 0 to ((n + 99) / 100) - 1 do
    Clock.advance clock 20L;
    let lo = b * 100 and hi = min n ((b * 100) + 100) in
    let t1 = Stats.now_ns () in
    match
      ignore (exec_sql session "BEGIN TRAN");
      for j = lo to hi - 1 do
        let r = loads.(j) in
        ignore
          (exec_sql session
             (Printf.sprintf "INSERT INTO %s VALUES (%d, %d, %d)" table r.oid r.x r.y))
      done;
      committed_ts (exec_sql session "COMMIT TRAN")
    with
    | Some ts ->
        ignore (Stats.record load_lat t1);
        ok t;
        for j = lo to hi - 1 do
          Model.add model ~key:loads.(j).key ~ts ~payload:loads.(j).payload
        done
    | None -> failure t "load transaction returned no timestamp"
    | exception e ->
        (try ignore (exec_sql session "ROLLBACK TRAN") with _ -> ());
        failure t ("load: " ^ Printexc.to_string e)
  done;
  (db, clock, model)

let run ~seed ~seconds =
  let t = tally () in
  let writes = writer_rate * seconds in
  let loads, updates = generate ~seed ~objects ~updates:writes in
  let update_text =
    Array.map
      (fun r ->
        Printf.sprintf "UPDATE %s SET LocationX = %d, LocationY = %d WHERE Oid = %d" table r.x r.y r.oid)
      updates
  in
  let rng = Imdb_util.Rng.create ((seed * 7919) + 29) in
  let reader_keys = Array.init 65_536 (fun _ -> Imdb_util.Rng.int rng objects) in
  let select = Array.map (fun r -> select_text r.oid) loads in
  let select_next = Array.map (fun r -> select_text r.oid) updates in
  let verify_plan =
    Array.append
      (Array.init verify_scans (fun _ -> (0, Imdb_util.Rng.int rng writes)))
      (Array.init (verify_walks * objects) (fun i -> (2, i mod objects)))
  in
  Imdb_util.Rng.shuffle rng verify_plan;
  let opens = Stats.create () and load_lat = Stats.create () in
  let made = ref None in
  for _ = 1 to reps setup_reps do
    Option.iter (fun (db, _, _) -> Db.close db) !made;
    made := None;
    Gc.compact ();
    made := Some (setup t ~loads ~opens ~load_lat)
  done;
  let db, clock, model = Option.get !made in
  let last_load_ts = Clock.last_issued clock in
  (* Shared between the two domains. *)
  let latest = Atomic.make last_load_ts in
  let next_write = Atomic.make 0 in
  let writer_done = Atomic.make false in
  let reader_ready = Atomic.make false in
  let write_ts = Array.make writes None in
  let write_lat = Stats.create () and read_lat = Stats.create () in
  let wt = tally () and rt = tally () in
  let max_slices = 1 + int_of_float (4.0 *. float_of_int seconds *. 1e6 /. slice_us) in
  let w_counts = Array.make max_slices 0 and r_counts = Array.make max_slices 0 in
  let start = ref (Stats.now_ns ()) in
  let tick counts =
    let sl = min (max_slices - 1) (int_of_float (Stats.us_since !start /. slice_us)) in
    counts.(sl) <- counts.(sl) + 1
  in
  let reader () =
    Ledger.reader_domain := (Domain.self () :> int);
    Atomic.set reader_ready true;
    let session = Ex.make_session db in
    let answers = ref [] and stamps = ref 0 and i = ref 0 in
    let applied () = counter db M.stamps_applied in
    while not (Atomic.get writer_done) do
      let t0 = Stats.now_ns () in
      let a0 = applied () in
      (if !i mod 8 = 7 then begin
         let lo = Atomic.get latest in
         let w = min (writes - 1) (Atomic.get next_write) in
         let key = updates.(w).key in
         match Ledger.span "op.read_current" (fun () -> exec_sql session select_next.(w)) with
         | r -> (
             tick r_counts;
             ignore (Stats.record read_lat t0);
             match payload_of_rows r with
             | Some got ->
                 ok rt;
                 answers := Current { key; lo; hi_index = Atomic.get next_write; got } :: !answers
             | None -> failure rt "current SELECT returned no row set")
         | exception e -> failure rt ("current SELECT: " ^ Printexc.to_string e)
       end
       else begin
         let ts = Atomic.get latest in
         let k = reader_keys.(!i mod Array.length reader_keys) in
         match
           Ledger.span "op.read_asof" (fun () ->
               ignore (exec_sql session (begin_as_of ts));
               let r = exec_sql session select.(k) in
               ignore (exec_sql session "COMMIT TRAN");
               r)
         with
         | r -> (
             tick r_counts;
             ignore (Stats.record read_lat t0);
             match payload_of_rows r with
             | Some got ->
                 ok rt;
                 answers := As_of { key = loads.(k).key; ts; got } :: !answers
             | None -> failure rt "AS OF SELECT returned no row set")
         | exception e ->
             (try ignore (exec_sql session "ROLLBACK TRAN") with _ -> ());
             failure rt ("AS OF SELECT: " ^ Printexc.to_string e)
       end);
      stamps := !stamps + (applied () - a0);
      incr i;
      Ledger.maybe_drain ()
    done;
    (!answers, !stamps)
  in
  let writer () =
    let session = Ex.make_session db in
    Array.iteri
      (fun i text ->
        Atomic.set next_write i;
        Clock.advance clock 20L;
        let t0 = Stats.now_ns () in
        (match Ledger.span "op.update" (fun () -> exec_sql session text) with
        | Ex.R_ok "1 row(s) updated" ->
            tick w_counts;
            ignore (Stats.record write_lat t0);
            ok wt;
            let ts = Clock.last_issued clock in
            write_ts.(i) <- Some ts;
            Atomic.set latest ts
        | r -> failure wt (Format.asprintf "UPDATE answered %a" Ex.pp_result r)
        | exception e -> failure wt ("UPDATE: " ^ Printexc.to_string e));
        Ledger.maybe_drain ())
      update_text;
    Atomic.set next_write writes;
    Atomic.set writer_done true
  in
  let mark = if !Ledger.on then Some (Ledger.begin_phase (Db.metrics db)) else None in
  let before = M.snapshot (Db.metrics db) in
  Ledger.collect_raw := true;
  start := Stats.now_ns ();
  let rd = Domain.spawn reader in
  (* The ledger attributes spans by domain: wait until the reader has
     published its id before the writer starts. *)
  while not (Atomic.get reader_ready) do
    Domain.cpu_relax ()
  done;
  writer ();
  let answers, reader_stamps = Domain.join rd in
  let elapsed_us = Stats.us_since !start in
  let full = min max_slices (int_of_float (elapsed_us /. slice_us)) in
  let rates = List.init full (fun i -> float_of_int (w_counts.(i) + r_counts.(i)) /. (slice_us /. 1e6)) in
  Ledger.collect_raw := false;
  let main = Option.map (Ledger.end_phase (Db.metrics db)) mark in
  let d = M.diff ~before ~after:(M.snapshot (Db.metrics db)) in
  let dget name = Option.value ~default:0 (List.assoc_opt name d) in
  let log_bytes_per_txn =
    float_of_int (counter db M.log_bytes) /. float_of_int (max 1 (counter db M.txn_commits))
  in
  (* Fold the writer's commits into the model, then check the reader. *)
  Array.iteri
    (fun i ts -> Option.iter (fun ts -> Model.add model ~key:updates.(i).key ~ts ~payload:updates.(i).payload) ts)
    write_ts;
  let ts_of_write i =
    let rec back i = if i < 0 then Ts.infinity else match write_ts.(i) with Some ts -> ts | None -> back (i - 1) in
    if i >= writes then Ts.infinity else back i
  in
  List.iter
    (function
      | As_of { key; ts; got } ->
          if got <> Model.get_at model ~key ~ts then wrong rt "AS OF SELECT differs from the model"
      | Current { key; lo; hi_index; got } ->
          let allowed = Model.window model ~key ~lo ~hi:(ts_of_write hi_index) in
          if not (List.exists (fun p -> Some p = got) allowed) then
            wrong rt "current SELECT returned a version outside its window")
    answers;
  merge t wt;
  merge t rt;
  (* Crash and recover, then check every key's history and AS OF scans. *)
  (* The heap is measured first: the recoveries from copies hold a copy
     of the devices. *)
  let heap_mb = top_heap_mb () in
  let registry = Db.metrics db in
  let db, recovery, recovery_ms = crash_and_recover ~clock ~copies:recovery_copies db in
  let s = Db.session db in
  check_current t model s;
  let r = reads () in
  let final = Clock.last_issued clock in
  let plan =
    Array.map (fun (kind, k) -> if kind = 0 then Scan (ts_of_write k) else Walk (loads.(k).key, final)) verify_plan
  in
  timed_reads t model s r plan;
  let space = space_amp db model in
  report_size "sql_mixed" ~pages:(data_pages db) model;
  let ledger =
    match (main, recovery) with
    | Some main, Some recovery ->
        Some
          {
            Ledger.main;
            recovery;
            ops = wt.attempted + rt.attempted;
            reads = rt.attempted;
            registry;
            overhead_pct = 0.0;
            top_heap_mb = 0.0;
          }
    | _ -> None
  in
  Db.close db;
  Ledger.reader_domain := -1;
  let ops_s = Stats.median rates in
  Printf.printf "sql_mixed: writer %d updates, reader %d reads in %.2f s\n" wt.attempted rt.attempted
    (elapsed_us /. 1e6);
  {
    tally = t;
    ops_s;
    ledger;
    guards =
      [
        ("writer committed every update", wt.failed = 0 && wt.attempted = writes);
        ("reader completed its reads", rt.failed = 0 && rt.attempted > 0);
        ( (if !Ledger.on then "reader applied stamps (stamp spans on its domain)"
           else "tstamp.applied grew during reader calls"),
          if !Ledger.on then
            match main with
            | Some p ->
                List.exists
                  (fun (n, (a : Ledger.agg)) -> (n = "stamp.record" || n = "stamp.page") && a.n > 0)
                  p.Ledger.p_reader
            | None -> false
          else reader_stamps > 0 );
        ("lock.acquires > 0", dget M.lock_acquires > 0);
      ];
    e2e =
      [
        setup_metric opens [ (Array.length loads / 100, load_lat) ];
        metric "ops_s" "ops/s" ops_s;
        metric "heap_mb" "MiB" heap_mb;
        load_metric load_lat;
      ]
      @ commit_metrics write_lat
      @ [
          metric ~samples:(List.length recovery_ms) "recovery_ms" "ms" (Stats.low recovery_ms);
          metric "log_bytes_per_txn" "B" log_bytes_per_txn;
          metric "space_amp" "ratio" space;
        ]
      @ scan_metrics r @ get_metrics read_lat @ history_metrics r;
  }

(* The traced run's per-layer cost ledger.

   Spans come from two sources, both recorded into the engine's own
   tracer (on when [trace_sampling = 1]) so that they nest into one tree
   per operation:
   - the engine's existing spans (txn.commit, ptt.insert, wal.flush,
     split.time, scan.asof, history.walk, checkpoint, recovery.*, ...);
   - the benchmark's spans around every call it makes into a layer
     (op.X, db.X and sql.X spans) and around the storage and log device closures
     it hands to [Db.open_devices] (the disk and wal.device spans).

   The tracer keeps completed spans in a bounded ring, so the ledger
   drains it often enough that nothing is evicted unseen, and folds every
   span into per-name aggregates: count, total and self time (the span
   minus the part its children cover).  Children always complete before
   their parent, so self time is computed in one streaming pass. *)

module Tr = Imdb_obs.Tracer
module M = Imdb_obs.Metrics

let on = ref false
let tracer = ref Tr.null

(* Run [f] inside a span named [name] when tracing, else just run it. *)
let span name f = if !on then Tr.with_span !tracer name (fun _ -> f ()) else f ()

(* --- span aggregation ---------------------------------------------------- *)

type agg = { mutable n : int; mutable total_us : int; mutable self_us : int }

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 64

(* Spans recorded on the sql_mixed reader's domain, kept apart so that
   work the reader does (lazy stamping, log syncs) can be told from the
   writer's. *)
let reader_aggs : (string, agg) Hashtbl.t = Hashtbl.create 64
let reader_domain = ref (-1)
let child_us : (int, int) Hashtbl.t = Hashtbl.create 1024

(* A bounded sample of raw spans (the first [raw_cap] of the measured
   phase), written out when the run ends. *)
let raw_cap = 50_000
let collect_raw = ref false
let raw : Tr.completed list ref = ref []
let raw_n = ref 0
let mu = Mutex.create ()
let last_seen = ref 0
let seen_in_ring = ref 0
let dropped_prev = ref 0
let lost = ref 0

let bump tbl name ~dur ~self =
  let a =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None ->
        let a = { n = 0; total_us = 0; self_us = 0 } in
        Hashtbl.add tbl name a;
        a
  in
  a.n <- a.n + 1;
  a.total_us <- a.total_us + dur;
  a.self_us <- a.self_us + self

let process (c : Tr.completed) =
  let covered =
    match Hashtbl.find_opt child_us c.c_id with
    | Some v ->
        Hashtbl.remove child_us c.c_id;
        v
    | None -> 0
  in
  if c.c_parent <> 0 then
    Hashtbl.replace child_us c.c_parent
      (c.c_dur_us + Option.value ~default:0 (Hashtbl.find_opt child_us c.c_parent));
  let self = max 0 (c.c_dur_us - covered) in
  bump aggs c.c_name ~dur:c.c_dur_us ~self;
  if c.c_domain = !reader_domain then bump reader_aggs c.c_name ~dur:c.c_dur_us ~self;
  if !collect_raw && !raw_n < raw_cap then begin
    raw := c :: !raw;
    incr raw_n
  end

(* Fold every span completed since the last drain.  The ring is FIFO in
   completion order, so the fresh spans are those after the newest one
   already processed; if that one was evicted, everything in the ring is
   fresh and the evictions beyond the spans already seen are lost. *)
let drain_locked () =
  let t = !tracer in
  if Tr.enabled t then begin
    let dropped = Tr.dropped t in
    let ring = Tr.spans t in
    let rec after = function
      | [] -> None
      | (c : Tr.completed) :: rest -> if c.c_id = !last_seen then Some rest else after rest
    in
    let fresh =
      match if !last_seen = 0 then None else after ring with
      | Some rest -> rest
      | None ->
          lost := !lost + max 0 (dropped - !dropped_prev - !seen_in_ring);
          ring
    in
    List.iter process fresh;
    dropped_prev := dropped;
    seen_in_ring := List.length ring;
    (match List.rev ring with c :: _ -> last_seen := c.c_id | [] -> ());
    List.length fresh
  end
  else 0

let drain () = Mutex.protect mu (fun () -> ignore (drain_locked ()))

(* Drain after every [drain_every] operations, adapting the period so
   that about a quarter of the ring's capacity fills between drains. *)
let drain_every = ref 8
let pending = Atomic.make 0

let maybe_drain () =
  if !on && Atomic.fetch_and_add pending 1 + 1 >= !drain_every then
    Mutex.protect mu (fun () ->
        Atomic.set pending 0;
        let fresh = drain_locked () in
        drain_every := max 1 (min 4096 (!drain_every * 1024 / max 1 fresh)))

(* Follow a new engine (after open or crash_and_reopen): finish the old
   tracer first, since span ids restart with every tracer. *)
let attach t =
  if !on then
    Mutex.protect mu (fun () ->
        ignore (drain_locked ());
        tracer := t;
        last_seen := 0;
        seen_in_ring := 0;
        dropped_prev := 0;
        Hashtbl.reset child_us)

(* --- probe counters -------------------------------------------------------- *)

(* Counters the benchmark keeps itself: calls into the wrapped devices,
   and the buffer-pool page fixes of history walks (the engine counts no
   pages on that path). *)
type dev_counter =
  | Disk_reads
  | Disk_read_ns
  | Disk_writes
  | Disk_write_ns
  | Disk_bytes_written
  | Log_syncs
  | Log_sync_ns
  | Log_bytes
  | Log_reader_syncs
  | Log_read_bytes
  | History_walks
  | History_fixes

let dev_index = function
  | Disk_reads -> 0
  | Disk_read_ns -> 1
  | Disk_writes -> 2
  | Disk_write_ns -> 3
  | Disk_bytes_written -> 4
  | Log_syncs -> 5
  | Log_sync_ns -> 6
  | Log_bytes -> 7
  | Log_reader_syncs -> 8
  | Log_read_bytes -> 9
  | History_walks -> 10
  | History_fixes -> 11

let dev = Array.init 12 (fun _ -> Atomic.make 0)
let dev_add c v = ignore (Atomic.fetch_and_add dev.(dev_index c) v)
let dev_snapshot () = Array.map Atomic.get dev

let timed ~count ~ns f =
  let t0 = Stats.now_ns () in
  let r = f () in
  dev_add count 1;
  dev_add ns (Int64.to_int (Int64.sub (Stats.now_ns ()) t0));
  r

let wrap_disk (d : Imdb_storage.Disk.t) =
  {
    d with
    Imdb_storage.Disk.read_page =
      (fun id ->
        span "disk.read" (fun () ->
            timed ~count:Disk_reads ~ns:Disk_read_ns (fun () -> d.read_page id)));
    write_page =
      (fun id b ->
        span "disk.write" (fun () ->
            dev_add Disk_bytes_written (Bytes.length b);
            timed ~count:Disk_writes ~ns:Disk_write_ns (fun () -> d.write_page id b)));
  }

let wrap_log (d : Imdb_wal.Wal.Device.t) =
  {
    d with
    Imdb_wal.Wal.Device.append =
      (fun b ->
        dev_add Log_bytes (Bytes.length b);
        d.append b);
    read =
      (fun ~pos ~len ->
        dev_add Log_read_bytes len;
        d.read ~pos ~len);
    sync =
      (fun () ->
        if (Domain.self () :> int) = !reader_domain then dev_add Log_reader_syncs 1;
        span "wal.device.sync" (fun () ->
            timed ~count:Log_syncs ~ns:Log_sync_ns (fun () -> d.sync ())));
  }

(* --- phases ------------------------------------------------------------- *)

type gc_point = { minor : int; major : int; promoted : float }

let gc_point () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections; promoted = s.Gc.promoted_words }

(* One measured phase: span aggregates plus the deltas of the engine's
   counters, the device counters and the GC over the phase. *)
type phase = {
  p_aggs : (string * agg) list;
  p_reader : (string * agg) list;
  p_counters : M.snapshot;
  p_dev : int array;
  p_gc : gc_point;
  p_lost : int;  (** spans evicted from the ring unseen *)
}

type mark = { m_counters : M.snapshot; m_dev : int array; m_gc : gc_point; m_lost : int }

let copy_aggs tbl =
  Hashtbl.fold (fun k a acc -> (k, { a with n = a.n }) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Start a phase: forget the spans seen so far. *)
let begin_phase metrics =
  drain ();
  Mutex.protect mu (fun () ->
      Hashtbl.reset aggs;
      Hashtbl.reset reader_aggs);
  { m_counters = M.snapshot metrics; m_dev = dev_snapshot (); m_gc = gc_point (); m_lost = !lost }

let end_phase metrics m =
  drain ();
  let g = gc_point () in
  {
    p_aggs = Mutex.protect mu (fun () -> copy_aggs aggs);
    p_reader = Mutex.protect mu (fun () -> copy_aggs reader_aggs);
    p_counters = M.diff ~before:m.m_counters ~after:(M.snapshot metrics);
    p_dev = Array.mapi (fun i v -> v - m.m_dev.(i)) (dev_snapshot ());
    p_gc =
      {
        minor = g.minor - m.m_gc.minor;
        major = g.major - m.m_gc.major;
        promoted = g.promoted -. m.m_gc.promoted;
      };
    p_lost = !lost - m.m_lost;
  }

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset aggs;
      Hashtbl.reset reader_aggs;
      Hashtbl.reset child_us;
      raw := [];
      raw_n := 0;
      lost := 0;
      last_seen := 0;
      seen_in_ring := 0;
      dropped_prev := 0);
  Array.iter (fun a -> Atomic.set a 0) dev

(* --- the per-layer report ------------------------------------------------ *)

(* Layers by module, and the spans whose self time each owns.  Buffer
   pool and B-tree work has no span of its own: it shows inside the self
   time of the span that called it.  The self time of the benchmark's
   calls into [Db.Session] and [Executor.exec] (gate waits, glue and
   unspanned engine work) is the unattributed remainder. *)
let layers =
  [
    ("sql", [ "sql.parse" ]);
    ("db (unattributed)", [ "db.begin"; "db.write"; "db.commit"; "db.get"; "db.scan_as_of"; "db.history"; "sql.exec" ]);
    ("txnmgr", [ "txn.commit"; "txn.abort"; "txn.begin" ]);
    ("tstamp", [ "ptt.insert"; "ptt.gc"; "ptt.delete_batch"; "stamp.record"; "stamp.page" ]);
    ("ingest", [ "ingest.flush" ]);
    ("table/version", [ "txn.update" ]);
    ("split", [ "split.time"; "split.key" ]);
    ("tsb/asof", [ "scan.asof"; "scan.range"; "history.walk"; "history.page" ]);
    ("storage", [ "disk.read"; "disk.write"; "compress.decode" ]);
    ("wal", [ "wal.flush"; "wal.group_commit"; "wal.device.sync" ]);
    ("checkpoint", [ "checkpoint" ]);
    ("recovery", [ "recovery"; "recovery.analysis"; "recovery.redo"; "recovery.undo" ]);
    ("lock", [ "lock.wait" ]);
  ]

let find_agg l name = List.assoc_opt name l
let self_of l name = match find_agg l name with Some a -> a.self_us | None -> 0
let total_of l name = match find_agg l name with Some a -> a.total_us | None -> 0
let count_of l name = match find_agg l name with Some a -> a.n | None -> 0
let counter (p : phase) name = Option.value ~default:0 (List.assoc_opt name p.p_counters)

(* The benchmark's root span around each timed operation. *)
let is_op name = String.length name > 3 && String.sub name 0 3 = "op."

(* Time of the timed operations themselves. *)
let op_total_us p =
  List.fold_left (fun acc (name, a) -> if is_op name then acc + a.total_us else acc) 0 p.p_aggs

type inputs = {
  main : phase;  (** the workload's timed phase *)
  recovery : phase;  (** the crash's recovery *)
  ops : int;  (** timed operations in [main] *)
  reads : int;  (** AS OF / point queries among them *)
  registry : M.t;  (** the last engine's registry, for histograms *)
  overhead_pct : float;
  top_heap_mb : float;
}

(* Every per-layer metric: (name, value, unit).  Times are self time in
   microseconds per timed operation, except [db.*_us] and [sql.exec_us]
   (inclusive time of the benchmark's call into [Db.Session] or
   [Executor.exec]) and [recovery.*] (per recovery); counts are per timed
   operation. *)
let metrics i =
  let p = i.main and r = i.recovery in
  let ops = float_of_int (max 1 i.ops) in
  let per v = float_of_int v /. ops in
  let self name = per (self_of p.p_aggs name) in
  let total name = per (total_of p.p_aggs name) in
  let cnt name = per (counter p name) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let dev c = p.p_dev.(dev_index c) in
  let db_self =
    List.fold_left (fun acc n -> acc + self_of p.p_aggs n) 0 (List.assoc "db (unattributed)" layers)
  in
  let op_self = List.fold_left (fun acc (name, a) -> if is_op name then acc + a.self_us else acc) 0 p.p_aggs in
  let op_us = op_total_us p in
  let attributed = op_us - db_self - op_self in
  let reader_stamps =
    count_of p.p_reader "stamp.record" + count_of p.p_reader "stamp.page"
  in
  let hist name f =
    match M.histogram i.registry name with Some h when h.M.h_count > 0 -> f h | _ -> 0.0
  in
  [
    ("sql.parse_us", self "sql.parse", "us");
    ("sql.exec_us", total "sql.exec", "us");
    ("sql.statements", per (count_of p.p_aggs "sql.exec"), "1/op");
    ("db.begin_us", total "db.begin", "us");
    ("db.write_us", total "db.write", "us");
    ("db.commit_us", total "db.commit", "us");
    ("db.get_us", total "db.get", "us");
    ("db.scan_as_of_us", total "db.scan_as_of", "us");
    ("db.history_us", total "db.history", "us");
    ("db.unattributed_us", per db_self, "us");
    ("txn.commit_self_us", self "txn.commit", "us");
    ("txn.commits", cnt M.txn_commits, "1/op");
    ("txn.aborts", cnt M.txn_aborts, "1/op");
    ("ptt.insert_us", self "ptt.insert", "us");
    ("ptt.inserts", cnt M.ptt_inserts, "1/op");
    ("ptt.deletes", cnt M.ptt_deletes, "1/op");
    ("ptt.lookups", cnt M.ptt_lookups, "1/op");
    ("vtt.hits", cnt M.vtt_hits, "1/op");
    ("tstamp.applied", cnt M.stamps_applied, "1/op");
    ("tstamp.reader_stamp_spans", per reader_stamps, "1/op");
    ("stamp.record_us", self "stamp.record", "us");
    ("stamp.page_us", self "stamp.page", "us");
    ("ptt.gc_us", self "ptt.gc" +. self "ptt.delete_batch", "us");
    ("ingest.appends", cnt M.ingest_appends, "1/op");
    ("ingest.flushes", cnt M.ingest_flushes, "1/op");
    ("ingest.msgs_per_flush", ratio (counter p M.ingest_flush_messages) (counter p M.ingest_flushes), "ratio");
    ("ingest.flush_us", self "ingest.flush", "us");
    ("txn.update_us", self "txn.update", "us");
    ("session.rows_written", cnt M.session_rows_written, "1/op");
    ("session.rows_read", cnt M.session_rows_read, "1/op");
    ("split.time", cnt M.time_splits, "1/op");
    ("split.key", cnt M.key_splits, "1/op");
    ("split.copied", cnt M.split_copied, "1/op");
    ("split.time_us", self "split.time", "us");
    ("split.key_us", self "split.key", "us");
    ("btree.node_splits", cnt M.btree_node_splits, "1/op");
    ( "buffer.keydir_hit_ratio",
      ratio (counter p M.keydir_hits) (counter p M.keydir_hits + counter p M.keydir_misses),
      "ratio" );
    ("asof.pages_per_query", ratio (counter p M.asof_pages) i.reads, "ratio");
    ("asof.versions_per_query", ratio (counter p M.asof_versions) i.reads, "ratio");
    ("scan.asof_us", self "scan.asof", "us");
    ("history.walk_us", self "history.walk", "us");
    ("history.pages_per_walk", ratio (dev History_fixes) (dev History_walks), "ratio");
    ( "buffer.hit_ratio",
      ratio (counter p M.buf_hits) (counter p M.buf_hits + counter p M.buf_misses),
      "ratio" );
    ("buffer.misses", cnt M.buf_misses, "1/op");
    ("buffer.evictions", cnt M.buf_evictions, "1/op");
    ("buffer.sweeps_per_eviction", ratio (counter p M.buf_clock_sweeps) (counter p M.buf_evictions), "ratio");
    ("disk.reads", per (dev Disk_reads), "1/op");
    ("disk.read_us", per (dev Disk_read_ns) /. 1e3, "us");
    ("disk.writes", per (dev Disk_writes), "1/op");
    ("disk.write_us", per (dev Disk_write_ns) /. 1e3, "us");
    ("disk.bytes_written", per (dev Disk_bytes_written), "B/op");
    ("compress.ratio", float_of_int (M.gauge i.registry M.compress_ratio) /. 100.0, "ratio");
    ("compress.decode_us", self "compress.decode", "us");
    ("log.appends", cnt M.log_appends, "1/op");
    ("log.bytes", cnt M.log_bytes, "B/op");
    ("log.flushes", cnt M.log_flushes, "1/op");
    ("wal.flush_us", self "wal.flush", "us");
    ("wal.device.syncs", per (dev Log_syncs), "1/op");
    ("wal.device.sync_us", per (dev Log_sync_ns) /. 1e3, "us");
    ("wal.device.bytes", per (dev Log_bytes), "B/op");
    ("wal.device.reader_syncs", per (dev Log_reader_syncs), "1/op");
    ("engine.checkpoints", cnt M.checkpoints, "1/op");
    ("checkpoint_us", self "checkpoint", "us");
    ( "ptt.gc_batch",
      hist M.h_ptt_gc_batch (fun h -> float_of_int h.M.h_sum /. float_of_int h.M.h_count),
      "ratio" );
    ("recovery.analysis_us", float_of_int (total_of r.p_aggs "recovery.analysis"), "us");
    ("recovery.redo_us", float_of_int (total_of r.p_aggs "recovery.redo"), "us");
    ("recovery.undo_us", float_of_int (total_of r.p_aggs "recovery.undo"), "us");
    ("recovery.redo_records", float_of_int (counter r M.recovery_redo), "count");
    ("wal.device.read_bytes", float_of_int r.p_dev.(dev_index Log_read_bytes), "B");
    ("lock.acquires", cnt M.lock_acquires, "1/op");
    ("lock.conflicts", cnt M.lock_conflicts, "1/op");
    ("lock.wait_us_p99", hist M.h_lock_wait_us (fun h -> float_of_int h.M.h_p99), "us");
    ("lock.deadlocks", cnt M.lock_deadlocks, "1/op");
    ("lock.timeouts", cnt M.lock_timeouts, "1/op");
    ("gc.minor_collections", per p.p_gc.minor, "1/op");
    ("gc.major_collections", per p.p_gc.major, "1/op");
    ("gc.promoted_words_per_op", p.p_gc.promoted /. ops, "words");
    ("gc.top_heap_mb", i.top_heap_mb, "MiB");
    ("op_us", per op_us, "us");
    ("ledger.coverage_pct", 100.0 *. ratio attributed op_us, "%");
    ("ledger.unattributed_pct", 100.0 *. ratio (db_self + op_self) op_us, "%");
    ("trace.overhead_pct", i.overhead_pct, "%");
    ("trace.dropped", float_of_int (p.p_lost + r.p_lost), "count");
  ]

(* The ledger table: one row per layer with its self time per op and
   share of op time, then the count metrics. *)
let table ~workload i =
  let p = i.main in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  let ops = float_of_int (max 1 i.ops) in
  let op_us = op_total_us p in
  pr "== ledger: %s (traced run, %d timed ops) ==\n" workload i.ops;
  pr "%-20s %12s %8s  %s\n" "layer" "self us/op" "share" "spans (count/op, self us/op)";
  let named = List.concat_map snd layers in
  let row layer names =
    let self = List.fold_left (fun acc n -> acc + self_of p.p_aggs n) 0 names in
    let detail =
      List.filter_map
        (fun n ->
          match find_agg p.p_aggs n with
          | Some a when a.n > 0 ->
              Some (Printf.sprintf "%s %.3g/%.3g" n (float_of_int a.n /. ops) (float_of_int a.self_us /. ops))
          | _ -> None)
        names
    in
    pr "%-20s %12.3f %7.1f%%  %s\n" layer (float_of_int self /. ops)
      (if op_us = 0 then 0.0 else 100.0 *. float_of_int self /. float_of_int op_us)
      (String.concat ", " detail)
  in
  List.iter (fun (layer, names) -> if layer <> "recovery" then row layer names) layers;
  let ops_names = List.filter_map (fun (n, _) -> if is_op n then Some n else None) p.p_aggs in
  row "op glue (unattr.)" ops_names;
  let other =
    List.filter_map
      (fun (n, _) -> if List.mem n named || List.mem n ops_names then None else Some n)
      p.p_aggs
  in
  if other <> [] then row "other spans" other;
  pr "\n%-28s %14s %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> pr "%-28s %14.4f %s\n" n v u) (metrics i);
  Buffer.contents b

(* Raw spans of the measured phase's first operations, one per line:
   id, parent, op (root span id), domain, name, start_us, dur_us. *)
let dump_spans path =
  let spans = List.rev !raw in
  let parent = Hashtbl.create 4096 in
  List.iter (fun (c : Tr.completed) -> Hashtbl.replace parent c.c_id c.c_parent) spans;
  let rec root id depth =
    match Hashtbl.find_opt parent id with
    | Some p when p <> 0 && depth < 64 -> root p (depth + 1)
    | _ -> id
  in
  let oc = open_out path in
  output_string oc "id\tparent\top\tdomain\tname\tstart_us\tdur_us\n";
  List.iter
    (fun (c : Tr.completed) ->
      Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\n" c.c_id c.c_parent (root c.c_id 0) c.c_domain
        c.c_name c.c_start_us c.c_dur_us)
    spans;
  close_out oc

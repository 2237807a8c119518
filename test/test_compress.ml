(* Delta-compressed history pages (PR 4).

   The codec must round-trip every engine-built history image exactly
   (chains with delete stubs, single-version chains, redundant split
   copies); the [history_compression] flag must be observationally
   invisible — identical rows, identical histories, identical [asof.*]
   work counters; the trimmed Op_image logging must shrink the history
   footprint; and crash recovery must rebuild compressed pages from
   their trimmed log images. *)

open Helpers
module Db = Imdb_core.Db
module E = Imdb_core.Engine
module M = Imdb_obs.Metrics
module P = Imdb_storage.Page
module Vc = Imdb_storage.Vcompress
module BP = Imdb_buffer.Buffer_pool

let config ?(compress = true) () =
  {
    default_config with
    E.page_size = 1024;
    pool_capacity = 16;
    tsb_enabled = false;
    history_compression = compress;
  }

let fresh ?compress () =
  let db, clock = fresh_db ~config:(config ?compress ()) () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (db, clock)

let k i = Printf.sprintf "k%03d" i

(* Deletes of absent keys become upserts so any generated sequence is
   total, and the clock ticks identically per commit. *)
let apply db clock ops =
  let present = Hashtbl.create 32 in
  List.mapi
    (fun step (kind, i) ->
      let key = k i in
      let ts =
        commit_write db (fun txn ->
            match kind with
            | `Delete when Hashtbl.mem present key ->
                Hashtbl.remove present key;
                Db.delete db txn ~table:"t" ~key
            | _ ->
                Hashtbl.replace present key ();
                Db.upsert db txn ~table:"t" ~key
                  ~payload:(Printf.sprintf "v%d-%s" step key))
      in
      tick clock;
      ts)
    ops

let churn db clock ~keys ~rounds =
  List.concat_map
    (fun r ->
      List.map
        (fun i ->
          let ts =
            commit_write db (fun txn ->
                Db.upsert db txn ~table:"t" ~key:(k i)
                  ~payload:
                    (Printf.sprintf "r%d-%s-%s" r (k i)
                       (String.make (20 + ((r * 7) + i mod 40)) 'x')))
          in
          tick clock;
          ts)
        (List.init keys Fun.id))
    (List.init rounds Fun.id)

let collect ?lo ?hi db ts =
  let out = ref [] in
  Db.as_of db ts (fun txn ->
      Db.scan ?lo ?hi db txn ~table:"t" (fun key v -> out := (key, v) :: !out));
  List.rev !out

let hist db key = Db.exec db (fun txn -> Db.history db txn ~table:"t" ~key)
let flush db = BP.flush_all (Db.engine db).E.pool

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 80 160)
      (pair
         (frequency [ (4, return `Upsert); (1, return `Delete) ])
         (int_bound 24)))

(* --- property: the codec round-trips every engine-built history image -- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trips engine-built history pages"
    ~count:10 (QCheck.make ops_gen) (fun ops ->
      (* compression off: stable storage keeps the plain images the
         encoder is defined against *)
      let db, clock = fresh ~compress:false () in
      ignore (apply db clock ops);
      ignore (churn db clock ~keys:10 ~rounds:5);
      flush db;
      let eng = Db.engine db in
      let exercised = ref 0 in
      for pid = 0 to eng.E.meta.Imdb_core.Meta.hwm - 1 do
        match eng.E.disk.Imdb_storage.Disk.read_page pid with
        | exception _ -> ()
        | b ->
            if P.page_type b = P.P_history then (
              match Vc.encode b with
              | None -> () (* a page the codec declines is a fallback *)
              | Some c ->
                  incr exercised;
                  if not (Vc.is_compressed c) then
                    QCheck.Test.fail_report "encode produced a non-compressed page";
                  if Vc.encoded_size c <> Bytes.length c then
                    QCheck.Test.fail_report "encoded_size disagrees with image";
                  if Bytes.length c >= Bytes.length b then
                    QCheck.Test.fail_report "compressed image did not shrink";
                  (* the trimmed image reaches readers zero-filled to page
                     size (Op_image redo / the page write path) *)
                  let full = Bytes.make (Bytes.length b) '\000' in
                  Bytes.blit c 0 full 0 (Bytes.length c);
                  if not (Bytes.equal (Vc.decode full) b) then
                    QCheck.Test.fail_report "decode(encode(page)) <> page")
      done;
      Db.close db;
      if !exercised = 0 then
        QCheck.Test.fail_report "workload produced no encodable history page";
      true)

(* --- property: the flag is observationally invisible ------------------- *)

let prop_transparent =
  QCheck.Test.make
    ~name:"compressed == plain: rows, histories, asof work counters" ~count:8
    (QCheck.make ops_gen) (fun ops ->
      let db1, c1 = fresh ~compress:false () in
      let db2, c2 = fresh ~compress:true () in
      let ts1 = apply db1 c1 ops in
      let ts2 = apply db2 c2 ops in
      if ts1 <> ts2 then
        QCheck.Test.fail_report "commit timestamps diverged across engines";
      flush db1;
      flush db2;
      let n = List.length ts1 in
      let probes =
        List.map (List.nth ts1) [ 0; n / 4; n / 2; 3 * n / 4; n - 1 ]
      in
      let before1 = M.snapshot (Db.metrics db1) in
      let before2 = M.snapshot (Db.metrics db2) in
      List.iter
        (fun ts ->
          if collect db1 ts <> collect db2 ts then
            QCheck.Test.fail_report "AS OF scan diverged";
          if
            collect ~lo:(k 4) ~hi:(k 18) db1 ts
            <> collect ~lo:(k 4) ~hi:(k 18) db2 ts
          then QCheck.Test.fail_report "windowed AS OF scan diverged")
        probes;
      List.iter
        (fun i ->
          if hist db1 (k i) <> hist db2 (k i) then
            QCheck.Test.fail_reportf "history diverged for %s" (k i))
        [ 0; 7; 13; 23 ];
      let d1 = M.diff ~before:before1 ~after:(M.snapshot (Db.metrics db1)) in
      let d2 = M.diff ~before:before2 ~after:(M.snapshot (Db.metrics db2)) in
      let get d name = Option.value ~default:0 (List.assoc_opt name d) in
      if
        get d1 M.asof_pages <> get d2 M.asof_pages
        || get d1 M.asof_versions <> get d2 M.asof_versions
      then QCheck.Test.fail_report "asof.* work counters diverged";
      Db.close db1;
      Db.close db2;
      true)

(* --- the footprint actually shrinks ------------------------------------ *)

let test_footprint () =
  let run compress =
    let db, clock = fresh ~compress () in
    ignore (churn db clock ~keys:12 ~rounds:10);
    let m = Db.metrics db in
    let bytes = M.get m M.hist_bytes_written in
    let zpages = M.get m M.compress_pages in
    let splits = M.get m M.time_splits in
    Db.close db;
    (bytes, zpages, splits)
  in
  let plain_bytes, plain_zpages, plain_splits = run false in
  let z_bytes, z_zpages, z_splits = run true in
  Alcotest.(check int) "same split schedule" plain_splits z_splits;
  Alcotest.(check int) "plain mode never compresses" 0 plain_zpages;
  Alcotest.(check bool) "compressed pages written" true (z_zpages > 0);
  Alcotest.(check bool)
    (Printf.sprintf "history bytes shrink (%d -> %d)" plain_bytes z_bytes)
    true
    (z_bytes < plain_bytes)

(* --- recovery rebuilds compressed pages from trimmed log images -------- *)

let test_recovery_compressed () =
  let cfg = config () in
  let db, clock = fresh_db ~config:cfg () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  let tss = churn db clock ~keys:10 ~rounds:8 in
  List.iter
    (fun i ->
      ignore (commit_write db (fun txn -> Db.delete db txn ~table:"t" ~key:(k i)));
      tick clock)
    [ 0; 1; 2 ];
  Alcotest.(check bool)
    "workload produced compressed pages" true
    (M.get (Db.metrics db) M.compress_pages > 0);
  let mid = List.nth tss (List.length tss / 2) in
  let expect_mid = collect db mid in
  let expect_hist = hist db (k 3) in
  let db = Db.crash_and_reopen ~config:cfg ~clock db in
  Alcotest.(check (list (pair string string)))
    "AS OF scan survives recovery" expect_mid (collect db mid);
  Alcotest.(check bool)
    "history survives recovery" true (expect_hist = hist db (k 3));
  Db.close db

let suite =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_transparent;
    Alcotest.test_case "history footprint shrinks under compression" `Quick
      test_footprint;
    Alcotest.test_case "recovery rebuilds compressed history" `Quick
      test_recovery_compressed;
  ]

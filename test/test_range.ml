(* Key-range scans: the access path of the paper's own example query
   ("SELECT * FROM MovingObjects WHERE Oid < 10"), across isolation
   levels, table modes and history depths. *)

open Helpers
module Db = Imdb_core.Db
module S = Imdb_core.Schema
module Sql = Imdb_sql.Executor

let ids rows = List.map (function S.V_int i :: _ -> i | _ -> -1) rows

let setup ?(mode = Db.Immortal) ?(n = 30) () =
  let db, clock = fresh_db () in
  Db.create_table db ~name:"t" ~mode ~schema:kv_schema;
  for i = 1 to n do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.insert_row db txn ~table:"t" (row i (Printf.sprintf "v%d" i))))
  done;
  (db, clock)

let test_current_range () =
  let db, _ = setup () in
  Db.exec db (fun txn ->
      Alcotest.(check (list int)) "low..high" [ 10; 11; 12 ]
        (ids (Db.scan_rows_range ~low:(S.V_int 10) ~high:(S.V_int 13) db txn ~table:"t"));
      Alcotest.(check (list int)) "open low" [ 1; 2; 3 ]
        (ids (Db.scan_rows_range ~high:(S.V_int 4) db txn ~table:"t"));
      Alcotest.(check (list int)) "open high" [ 28; 29; 30 ]
        (ids (Db.scan_rows_range ~low:(S.V_int 28) db txn ~table:"t"));
      Alcotest.(check int) "empty window" 0
        (List.length (Db.scan_rows_range ~low:(S.V_int 20) ~high:(S.V_int 20) db txn ~table:"t")));
  Db.close db

let test_conventional_range () =
  let db, _ = setup ~mode:Db.Conventional () in
  Db.exec db (fun txn ->
      Alcotest.(check (list int)) "conventional range" [ 5; 6; 7 ]
        (ids (Db.scan_rows_range ~low:(S.V_int 5) ~high:(S.V_int 8) db txn ~table:"t")));
  Db.close db

let test_as_of_range () =
  let db, clock = setup () in
  let cut = Imdb_clock.Clock.last_issued (Db.engine db).Imdb_core.Engine.clock in
  (* mutate after the cut: delete 11, update 10 *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.delete_row db txn ~table:"t" ~key:(S.V_int 11)));
  ignore (commit_write db (fun txn -> Db.update_row db txn ~table:"t" (row 10 "changed")));
  (* force enough churn to split pages, so history pages are involved *)
  for u = 1 to 300 do
    tick clock;
    ignore
      (commit_write db (fun txn ->
           Db.upsert_row db txn ~table:"t" (row (1 + (u mod 30)) (Printf.sprintf "u%d" u))))
  done;
  (* key 11 was re-created by the churn; delete it again so the current
     state differs from the AS OF state *)
  tick clock;
  ignore (commit_write db (fun txn -> Db.delete_row db txn ~table:"t" ~key:(S.V_int 11)));
  Db.as_of db cut (fun txn ->
      let rows = Db.scan_rows_range ~low:(S.V_int 10) ~high:(S.V_int 13) db txn ~table:"t" in
      Alcotest.(check (list int)) "as-of range sees old state" [ 10; 11; 12 ] (ids rows);
      (match rows with
      | [ r10; _; _ ] ->
          Alcotest.(check bool) "old value of 10" true (r10 = row 10 "v10")
      | _ -> Alcotest.fail "unexpected rows"));
  (* current range reflects the delete and update *)
  Db.exec db (fun txn ->
      let rows = Db.scan_rows_range ~low:(S.V_int 10) ~high:(S.V_int 13) db txn ~table:"t" in
      Alcotest.(check (list int)) "current range" [ 10; 12 ] (ids rows));
  Db.close db

let test_snapshot_range_own_writes () =
  let db, _ = setup () in
  let txn = Db.begin_txn ~isolation:Db.Snapshot_isolation db in
  Db.update_row db txn ~table:"t" (row 15 "mine");
  Db.delete_row db txn ~table:"t" ~key:(S.V_int 16);
  let rows = Db.scan_rows_range ~low:(S.V_int 14) ~high:(S.V_int 18) db txn ~table:"t" in
  Alcotest.(check (list int)) "own delete hidden" [ 14; 15; 17 ] (ids rows);
  Alcotest.(check bool) "own write visible" true (List.mem (row 15 "mine") rows);
  Db.abort db txn;
  Db.close db

let test_sql_range_pushdown () =
  let db, _ = setup ~n:50 () in
  let s = Sql.make_session db in
  (match Sql.exec_string s "SELECT * FROM t WHERE id < 10" with
  | [ Sql.R_rows { rows; _ } ] -> Alcotest.(check int) "nine rows" 9 (List.length rows)
  | _ -> Alcotest.fail "unexpected result");
  (match Sql.exec_string s "SELECT * FROM t WHERE id >= 45 AND id < 48" with
  | [ Sql.R_rows { rows; _ } ] ->
      Alcotest.(check (list int)) "conjunct bounds" [ 45; 46; 47 ] (ids rows)
  | _ -> Alcotest.fail "unexpected result");
  (* mixed conditions still filter correctly *)
  (match Sql.exec_string s "SELECT * FROM t WHERE id <= 5 AND val = 'v3'" with
  | [ Sql.R_rows { rows; _ } ] -> Alcotest.(check (list int)) "range+filter" [ 3 ] (ids rows)
  | _ -> Alcotest.fail "unexpected result");
  Db.close db

let test_paper_query_shape () =
  (* the paper's exact query against the paper's table, via AS OF *)
  let db, clock = Imdb_workload.Driver.fresh_moving_objects ~mode:Db.Immortal () in
  let events = Imdb_workload.Moving_objects.generate ~seed:5 ~inserts:20 ~total:600 () in
  let r = Imdb_workload.Driver.run_events ~clock db ~table:"MovingObjects" events in
  let mid = List.nth r.Imdb_workload.Driver.rr_commit_ts 300 in
  let s = Sql.make_session db in
  let results =
    Sql.exec_string s
      (Printf.sprintf
         "BEGIN TRAN AS OF \"%s\"; SELECT * FROM MovingObjects WHERE Oid < 10; COMMIT TRAN"
         (Imdb_clock.Timestamp.to_string mid))
  in
  (match results with
  | [ _; Sql.R_rows { rows; _ }; _ ] ->
      Alcotest.(check int) "nine objects below 10" 9 (List.length rows)
  | _ -> Alcotest.fail "unexpected results");
  Db.close db

(* --- a window whose answer spans several history pages ------------------ *)

let k i = Printf.sprintf "k%03d" i

(* Rounds of upserts with varying payload sizes: deep history chains and
   (with enough keys) router key splits. *)
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

let scan_vs_pointwise db ts ~lo_i ~hi_i =
  let got = ref [] in
  Db.as_of db ts (fun txn ->
      Db.scan ~lo:(k lo_i) ~hi:(k hi_i) db txn ~table:"t" (fun key v ->
          got := (key, v) :: !got));
  let expected =
    List.filter_map
      (fun i ->
        Db.as_of db ts (fun txn -> Db.get db txn ~table:"t" ~key:(k i))
        |> Option.map (fun v -> (k i, v)))
      (List.init (hi_i - lo_i) (fun d -> lo_i + d))
  in
  Alcotest.(check (list (pair string string))) "window vs pointwise" expected
    (List.rev !got)

let test_range_spans_history_pages ~tsb () =
  let config =
    {
      default_config with
      Imdb_core.Engine.page_size = 1024;
      pool_capacity = 32;
      tsb_enabled = tsb;
    }
  in
  let db, clock = fresh_db ~config () in
  Db.create_table db ~name:"t" ~mode:Db.Immortal ~schema:kv_schema;
  (* enough keys for router key splits, enough rounds for deep chains:
     a window's answer then lives in several historical pages *)
  let tss = churn db clock ~keys:60 ~rounds:12 in
  let n = List.length tss in
  List.iter
    (fun idx ->
      let ts = List.nth tss idx in
      scan_vs_pointwise db ts ~lo_i:0 ~hi_i:60;
      scan_vs_pointwise db ts ~lo_i:10 ~hi_i:45)
    [ n / 10; n / 3; n / 2; 3 * n / 4; n - 1 ];
  Db.close db

let suite =
  [
    Alcotest.test_case "current range" `Quick test_current_range;
    Alcotest.test_case "conventional range" `Quick test_conventional_range;
    Alcotest.test_case "as-of range" `Quick test_as_of_range;
    Alcotest.test_case "snapshot range + own writes" `Quick test_snapshot_range_own_writes;
    Alcotest.test_case "SQL range pushdown" `Quick test_sql_range_pushdown;
    Alcotest.test_case "paper's example query" `Quick test_paper_query_shape;
    Alcotest.test_case "AS OF window spans history pages (chain)" `Quick
      (test_range_spans_history_pages ~tsb:false);
    Alcotest.test_case "AS OF window spans history pages (TSB)" `Quick
      (test_range_spans_history_pages ~tsb:true);
  ]

(* Lock manager: compatibility, upgrades, release, deadlock detection. *)

module L = Imdb_lock.Lock_manager
module Tid = Imdb_clock.Tid

let t1 = Tid.of_int 1
let t2 = Tid.of_int 2
let t3 = Tid.of_int 3
let rec_a = L.Record (1, "a")
let tbl = L.Table 1

let test_compatibility () =
  let lm = L.create () in
  (* S + S compatible *)
  Alcotest.(check bool) "S grant" true (L.acquire lm t1 rec_a L.S = L.Granted);
  Alcotest.(check bool) "S+S" true (L.acquire lm t2 rec_a L.S = L.Granted);
  (* X conflicts with S *)
  (match L.acquire lm t3 rec_a L.X with
  | L.Would_block blockers -> Alcotest.(check int) "two blockers" 2 (List.length blockers)
  | L.Granted -> Alcotest.fail "X granted over S");
  (* intention locks *)
  Alcotest.(check bool) "IS" true (L.acquire lm t1 tbl L.IS = L.Granted);
  Alcotest.(check bool) "IX+IS" true (L.acquire lm t2 tbl L.IX = L.Granted);
  (match L.acquire lm t3 tbl L.X with
  | L.Would_block _ -> ()
  | L.Granted -> Alcotest.fail "table X granted over intents")

let test_upgrade_and_reentry () =
  let lm = L.create () in
  Alcotest.(check bool) "S" true (L.acquire lm t1 rec_a L.S = L.Granted);
  (* self-upgrade S -> X with no other holders *)
  Alcotest.(check bool) "upgrade to X" true (L.acquire lm t1 rec_a L.X = L.Granted);
  Alcotest.(check bool) "holds X" true (L.holds lm t1 rec_a = Some L.X);
  (* re-request is idempotent *)
  Alcotest.(check bool) "reentrant" true (L.acquire lm t1 rec_a L.X = L.Granted);
  (* but another reader now blocks *)
  (match L.acquire lm t2 rec_a L.S with
  | L.Would_block _ -> ()
  | L.Granted -> Alcotest.fail "S granted over X")

let test_upgrade_blocked_by_other_reader () =
  let lm = L.create () in
  ignore (L.acquire lm t1 rec_a L.S);
  ignore (L.acquire lm t2 rec_a L.S);
  (match L.acquire lm t1 rec_a L.X with
  | L.Would_block blockers ->
      Alcotest.(check bool) "blocked by the other reader" true
        (List.exists (Tid.equal t2) blockers)
  | L.Granted -> Alcotest.fail "upgrade granted over concurrent reader")

let test_release_all () =
  let lm = L.create () in
  ignore (L.acquire lm t1 rec_a L.X);
  ignore (L.acquire lm t1 tbl L.IX);
  Alcotest.(check int) "holds two" 2 (List.length (L.held_by lm t1));
  L.release_all lm t1;
  Alcotest.(check int) "holds none" 0 (List.length (L.held_by lm t1));
  Alcotest.(check bool) "lock free again" true (L.acquire lm t2 rec_a L.X = L.Granted)

let test_deadlock_cycle () =
  let lm = L.create () in
  let rec_b = L.Record (1, "b") in
  ignore (L.acquire lm t1 rec_a L.X);
  ignore (L.acquire lm t2 rec_b L.X);
  (* t1 waits for b (held by t2) *)
  (match L.acquire lm t1 rec_b L.X with
  | L.Would_block _ -> ()
  | L.Granted -> Alcotest.fail "b granted to t1");
  (* t2 requesting a completes the cycle: deadlock *)
  (match L.acquire lm t2 rec_a L.X with
  | exception L.Deadlock victim ->
      Alcotest.(check bool) "victim is requester" true (Tid.equal victim t2)
  | _ -> Alcotest.fail "deadlock undetected");
  (* after releasing t1, t2 can proceed *)
  L.release_all lm t1;
  Alcotest.(check bool) "t2 proceeds after release" true
    (L.acquire lm t2 rec_a L.X = L.Granted)

let test_three_party_cycle () =
  let lm = L.create () in
  let r1 = L.Record (1, "r1") and r2 = L.Record (1, "r2") and r3 = L.Record (1, "r3") in
  ignore (L.acquire lm t1 r1 L.X);
  ignore (L.acquire lm t2 r2 L.X);
  ignore (L.acquire lm t3 r3 L.X);
  ignore (L.acquire lm t1 r2 L.X); (* t1 -> t2 *)
  ignore (L.acquire lm t2 r3 L.X); (* t2 -> t3 *)
  (match L.acquire lm t3 r1 L.X with
  | exception L.Deadlock _ -> ()
  | _ -> Alcotest.fail "three-party deadlock undetected")

let test_no_false_deadlock () =
  let lm = L.create () in
  let rec_b = L.Record (1, "b") in
  ignore (L.acquire lm t1 rec_a L.X);
  (* t2 waits on a; t3 waits on a too: a queue, not a cycle *)
  (match L.acquire lm t2 rec_a L.X with L.Would_block _ -> () | _ -> Alcotest.fail "?");
  (match L.acquire lm t3 rec_a L.X with L.Would_block _ -> () | _ -> Alcotest.fail "?");
  (* an unrelated grant must not be declared a deadlock *)
  Alcotest.(check bool) "independent resource fine" true
    (L.acquire lm t2 rec_b L.X = L.Granted)

(* --- multigranularity upgrade edges ------------------------------------ *)

let test_lub_collapse () =
  (* the merge table, including the S+IX -> X collapse (no SIX mode) *)
  Alcotest.(check bool) "S lub IX = X" true (L.lub L.S L.IX = L.X);
  Alcotest.(check bool) "IX lub S = X" true (L.lub L.IX L.S = L.X);
  Alcotest.(check bool) "IS lub IX = IX" true (L.lub L.IS L.IX = L.IX);
  Alcotest.(check bool) "IS lub S = S" true (L.lub L.IS L.S = L.S);
  Alcotest.(check bool) "X absorbs" true (L.lub L.X L.IS = L.X && L.lub L.S L.X = L.X);
  (* behaviorally: a table-scanning writer (S then IX) ends up exclusive *)
  let lm = L.create () in
  Alcotest.(check bool) "S" true (L.acquire lm t1 tbl L.S = L.Granted);
  Alcotest.(check bool) "then IX" true (L.acquire lm t1 tbl L.IX = L.Granted);
  Alcotest.(check bool) "collapsed to X" true (L.holds lm t1 tbl = Some L.X);
  (match L.acquire lm t2 tbl L.IS with
  | L.Would_block blockers ->
      Alcotest.(check bool) "even IS blocks now" true (List.exists (Tid.equal t1) blockers)
  | L.Granted -> Alcotest.fail "IS granted over collapsed X")

let test_is_ix_interleavings () =
  let lm = L.create () in
  (* intents stack freely in either order *)
  Alcotest.(check bool) "IX" true (L.acquire lm t1 tbl L.IX = L.Granted);
  Alcotest.(check bool) "IS over IX" true (L.acquire lm t2 tbl L.IS = L.Granted);
  (* a whole-table reader conflicts with the writer's intent only *)
  (match L.acquire lm t3 tbl L.S with
  | L.Would_block blockers ->
      Alcotest.(check bool) "IX blocks S" true (List.exists (Tid.equal t1) blockers);
      Alcotest.(check bool) "IS does not" false (List.exists (Tid.equal t2) blockers)
  | L.Granted -> Alcotest.fail "table S granted over IX");
  (* writer commits: S is now compatible with the remaining IS *)
  L.release_all lm t1;
  Alcotest.(check bool) "S over IS after release" true (L.acquire lm t3 tbl L.S = L.Granted);
  (* and a late IX now blocks on the granted S *)
  (match L.acquire lm t1 tbl L.IX with
  | L.Would_block blockers ->
      Alcotest.(check bool) "S blocks IX" true (List.exists (Tid.equal t3) blockers)
  | L.Granted -> Alcotest.fail "IX granted over table S")

let test_deadlock_victim_determinism () =
  (* the victim is always the transaction whose wait edge closes the
     cycle — whichever side that is, on every run *)
  let round closer =
    let lm = L.create () in
    let rec_b = L.Record (1, "b") in
    ignore (L.acquire lm t1 rec_a L.X);
    ignore (L.acquire lm t2 rec_b L.X);
    if closer = 2 then begin
      (match L.acquire lm t1 rec_b L.X with
      | L.Would_block _ -> ()
      | L.Granted -> Alcotest.fail "b granted to t1");
      match L.acquire lm t2 rec_a L.X with
      | exception L.Deadlock victim -> victim
      | _ -> Alcotest.fail "deadlock undetected"
    end
    else begin
      (match L.acquire lm t2 rec_a L.X with
      | L.Would_block _ -> ()
      | L.Granted -> Alcotest.fail "a granted to t2");
      match L.acquire lm t1 rec_b L.X with
      | exception L.Deadlock victim -> victim
      | _ -> Alcotest.fail "deadlock undetected"
    end
  in
  for _ = 1 to 5 do
    Alcotest.(check bool) "t2 closes, t2 dies" true (Tid.equal (round 2) t2);
    Alcotest.(check bool) "t1 closes, t1 dies" true (Tid.equal (round 1) t1)
  done

(* --- blocking waits ----------------------------------------------------- *)

let test_wait_granted_on_release () =
  let lm = L.create () in
  ignore (L.acquire lm t1 rec_a L.X);
  let got = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let waited = L.acquire_wait ~timeout_us:2_000_000 lm t2 rec_a L.X in
        if waited > 0 then Atomic.set got true)
  in
  (* let the waiter park, then release: the wait must resolve to a grant *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "still parked" false (Atomic.get got);
  L.release_all lm t1;
  Domain.join d;
  Alcotest.(check bool) "granted after release" true (Atomic.get got);
  Alcotest.(check bool) "holds X" true (L.holds lm t2 rec_a = Some L.X)

let test_wait_timeout () =
  let lm = L.create () in
  ignore (L.acquire lm t1 rec_a L.X);
  (match L.acquire_wait ~timeout_us:30_000 lm t2 rec_a L.X with
  | exception L.Lock_timeout { tid; res } ->
      Alcotest.(check bool) "victim is the waiter" true (Tid.equal tid t2);
      Alcotest.(check bool) "on the contested resource" true (res = rec_a)
  | _ -> Alcotest.fail "wait succeeded against a held X lock");
  (* the timed-out waiter left no residue: after release, t2 gets through *)
  L.release_all lm t1;
  ignore (L.acquire_wait ~timeout_us:30_000 lm t2 rec_a L.X);
  Alcotest.(check bool) "clean retry" true (L.holds lm t2 rec_a = Some L.X)

let test_wait_deadlock_at_edge_insert () =
  let lm = L.create () in
  let rec_b = L.Record (1, "b") in
  ignore (L.acquire lm t1 rec_a L.X);
  ignore (L.acquire lm t2 rec_b L.X);
  (match L.acquire lm t1 rec_b L.X with
  | L.Would_block _ -> ()
  | L.Granted -> Alcotest.fail "b granted to t1");
  (* the blocking path detects the cycle before parking — no timeout burn *)
  match L.acquire_wait ~timeout_us:5_000_000 lm t2 rec_a L.X with
  | exception L.Deadlock victim ->
      Alcotest.(check bool) "closer is the victim" true (Tid.equal victim t2)
  | _ -> Alcotest.fail "deadlock undetected on the wait path"

(* A manager's condvar is on the process-wide ticker only while one of
   its waiters is parked: reopened engines must not pile up condvars the
   ticker keeps broadcasting. *)
let test_ticker_drops_idle_managers () =
  let parked_somewhere () =
    let deadline = Unix.gettimeofday () +. 2.0 in
    while L.ticker_registrations () = 0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    L.ticker_registrations () > 0
  in
  (* manager 1: the wait ends in a grant *)
  let lm1 = L.create () in
  ignore (L.acquire lm1 t1 rec_a L.X);
  let d =
    Domain.spawn (fun () ->
        ignore (L.acquire_wait ~timeout_us:2_000_000 lm1 t2 rec_a L.X))
  in
  Alcotest.(check bool) "registered while parked" true (parked_somewhere ());
  L.release_all lm1 t1;
  Domain.join d;
  Alcotest.(check bool) "granted" true (L.holds lm1 t2 rec_a = Some L.X);
  (* manager 2: the wait ends in a timeout *)
  let lm2 = L.create () in
  ignore (L.acquire lm2 t1 rec_a L.X);
  (match L.acquire_wait ~timeout_us:20_000 lm2 t2 rec_a L.X with
  | exception L.Lock_timeout _ -> ()
  | _ -> Alcotest.fail "wait succeeded against a held X lock");
  Alcotest.(check int) "no registration left" 0 (L.ticker_registrations ())

let suite =
  [
    Alcotest.test_case "compatibility" `Quick test_compatibility;
    Alcotest.test_case "upgrade & reentry" `Quick test_upgrade_and_reentry;
    Alcotest.test_case "upgrade blocked" `Quick test_upgrade_blocked_by_other_reader;
    Alcotest.test_case "release all" `Quick test_release_all;
    Alcotest.test_case "deadlock cycle" `Quick test_deadlock_cycle;
    Alcotest.test_case "three-party cycle" `Quick test_three_party_cycle;
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "lub collapse S+IX" `Quick test_lub_collapse;
    Alcotest.test_case "IS/IX interleavings" `Quick test_is_ix_interleavings;
    Alcotest.test_case "deadlock victim determinism" `Quick test_deadlock_victim_determinism;
    Alcotest.test_case "wait granted on release" `Quick test_wait_granted_on_release;
    Alcotest.test_case "wait timeout" `Quick test_wait_timeout;
    Alcotest.test_case "wait deadlock at edge insert" `Quick test_wait_deadlock_at_edge_insert;
    Alcotest.test_case "ticker drops idle managers" `Quick test_ticker_drops_idle_managers;
  ]

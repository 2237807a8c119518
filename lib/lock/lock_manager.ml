(* Lock manager.

   Strict two-phase locking for the serializable path (the paper's base
   engine supports "serializable, via fine grained locking"); snapshot
   isolation transactions bypass read locks entirely, which is the point
   of the versioning machinery.

   Resources are hierarchical: table locks in intention modes, record
   locks in S/X.  The lock table is sharded by resource hash; each shard
   carries its own mutex and condition variable, so sessions on different
   OCaml domains contending for different resources never serialize on
   one lock.  Two acquisition disciplines share the same grant logic:

   - fail fast ([acquire] / [acquire_exn]): a conflicting request never
     parks — it returns [Would_block] (recording its wait-for edge) or
     raises, exactly the protocol the single-session engine has always
     used for logically interleaved transactions;

   - blocking ([acquire_wait]): the requester parks on the shard's
     condition variable until a release makes the grant possible, a
     wait-for cycle is detected at edge insert (raising [Deadlock]), or
     the deadline passes (raising [Lock_timeout] — timeout-based victim
     selection, the waiter is the victim).  A lazily-spawned global
     ticker thread bounds the time between deadline checks, since the
     stdlib condition variable has no timed wait.

   The wait-for graph and the per-transaction held-resource index are
   global (cross-shard) hash-set-backed structures under their own
   mutexes, always taken strictly inside a shard mutex — never the other
   way around — so the lock order is acyclic by construction. *)

module M = Imdb_obs.Metrics

type resource = Table of int | Record of int * string (* table_id, key *)

let pp_resource ppf = function
  | Table id -> Fmt.pf ppf "table:%d" id
  | Record (id, k) -> Fmt.pf ppf "rec:%d/%S" id k

type mode = IS | IX | S | X

let pp_mode ppf m =
  Fmt.string ppf (match m with IS -> "IS" | IX -> "IX" | S -> "S" | X -> "X")

(* Standard multigranularity compatibility matrix. *)
let compatible a b =
  match (a, b) with
  | IS, (IS | IX | S) | (IX | S), IS -> true
  | IX, IX -> true
  | S, S -> true
  | _, X | X, _ -> false
  | IX, S | S, IX -> false

(* Mode strength for upgrades: the least upper bound. *)
let lub a b =
  match (a, b) with
  | X, _ | _, X -> X
  | S, IX | IX, S -> X (* SIX collapsed to X for simplicity *)
  | S, _ | _, S -> S
  | IX, _ | _, IX -> IX
  | IS, IS -> IS

type entry = { holders : (Imdb_clock.Tid.t, mode) Hashtbl.t }

type shard = {
  sh_mu : Mutex.t;
  sh_cond : Condition.t; (* released locks broadcast here *)
  sh_table : (resource, entry) Hashtbl.t;
}

let shard_count = 16 (* power of two: shard index is a mask of the hash *)

(* One blocked request: what it wants and whom it waits for.  Keeping
   the resource/mode on the node (not just the edge set) lets the
   introspection dump say what each waiter is parked on, and lets
   [release_all] purge the reverse edges of exactly the resources it
   releases. *)
type waiter = {
  w_res : resource;
  w_mode : mode;
  w_set : (Imdb_clock.Tid.t, unit) Hashtbl.t;
}

type t = {
  shards : shard array;
  held_mu : Mutex.t;
  held : (Imdb_clock.Tid.t, (resource, unit) Hashtbl.t) Hashtbl.t;
      (* per-transaction held-resource sets (strict 2PL release index) *)
  waits_mu : Mutex.t;
  waits : (Imdb_clock.Tid.t, waiter) Hashtbl.t;
      (* wait-for edges recorded on blocked requests, for deadlock
         detection and the introspection dump *)
  mutable registered : bool; (* shard condvars known to the ticker *)
  mutable metrics : M.t;
  mutable tracer : Imdb_obs.Tracer.t;
}

let create () =
  {
    shards =
      Array.init shard_count (fun _ ->
          {
            sh_mu = Mutex.create ();
            sh_cond = Condition.create ();
            sh_table = Hashtbl.create 64;
          });
    held_mu = Mutex.create ();
    held = Hashtbl.create 64;
    waits_mu = Mutex.create ();
    waits = Hashtbl.create 16;
    registered = false;
    metrics = M.null;
    tracer = Imdb_obs.Tracer.null;
  }

let set_metrics t m = t.metrics <- m
let set_tracer t tr = t.tracer <- tr
let shard_of t res = t.shards.(Hashtbl.hash res land (shard_count - 1))

type outcome = Granted | Would_block of Imdb_clock.Tid.t list

exception Deadlock of Imdb_clock.Tid.t
exception Conflict of { tid : Imdb_clock.Tid.t; blockers : Imdb_clock.Tid.t list }
exception Lock_timeout of { tid : Imdb_clock.Tid.t; res : resource }

(* --- the wake-up ticker --------------------------------------------- *)

(* [Condition] has no timed wait, so a parked waiter cannot by itself
   notice a passed deadline.  One process-wide ticker thread broadcasts
   every registered shard condvar while any waiter is parked anywhere;
   woken waiters re-check their grant and their deadline.  Spawned on the
   first blocking wait in the process — engines that never block never
   pay for the thread. *)
let ticker_mu = Mutex.create ()
let ticker_conds : Condition.t list ref = ref []
let ticker_running = ref false
let waiters_total = Atomic.make 0

(* The ticker must EXIT the moment no one is parked: a domain cannot
   terminate while a thread it spawned is still running, so a
   forever-looping ticker created from a worker domain (whichever domain
   parks first) would make that domain unjoinable.  The liveness
   handshake: a parker increments [waiters_total] {e before} ensuring a
   ticker exists, and the ticker re-checks the count under [ticker_mu]
   before retiring — a racing parker either finds it still running or
   finds [ticker_running] already false and spawns a fresh one. *)
let rec ticker_loop () =
  Thread.delay 0.002;
  Mutex.lock ticker_mu;
  let conds = !ticker_conds in
  let live = Atomic.get waiters_total > 0 in
  if not live then ticker_running := false;
  Mutex.unlock ticker_mu;
  if live then begin
    List.iter Condition.broadcast conds;
    ticker_loop ()
  end

let ensure_ticker () =
  Mutex.lock ticker_mu;
  if not !ticker_running then begin
    ticker_running := true;
    ignore (Thread.create ticker_loop ())
  end;
  Mutex.unlock ticker_mu

let register_with_ticker t =
  if not t.registered then begin
    Mutex.lock ticker_mu;
    if not t.registered then begin
      Array.iter (fun sh -> ticker_conds := sh.sh_cond :: !ticker_conds) t.shards;
      t.registered <- true
    end;
    Mutex.unlock ticker_mu
  end

(* --- held / waits indexes (hash-set backed) -------------------------- *)

(* Both indexes are innermost in the lock order: they are taken while a
   shard mutex is held, and never hold anything else themselves. *)

let note_held t tid res =
  Mutex.lock t.held_mu;
  (match Hashtbl.find_opt t.held tid with
  | Some set -> Hashtbl.replace set res ()
  | None ->
      let set = Hashtbl.create 8 in
      Hashtbl.replace set res ();
      Hashtbl.add t.held tid set);
  Mutex.unlock t.held_mu

let clear_waits t tid =
  Mutex.lock t.waits_mu;
  Hashtbl.remove t.waits tid;
  Mutex.unlock t.waits_mu

(* Extend the wait-for graph with edges tid->blockers unless doing so
   closes a cycle reachable from [tid]; returns [true] on a cycle (and
   leaves the graph unchanged).  Hash-set-backed BFS: visited set and
   successor sets are hashtables, so the check stays near-linear however
   many locks are held. *)
let note_wait_or_cycle t tid ~res ~mode blockers =
  Mutex.lock t.waits_mu;
  let seen : (Imdb_clock.Tid.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let frontier = ref blockers in
  let cycle = ref false in
  while (not !cycle) && !frontier <> [] do
    match !frontier with
    | [] -> ()
    | x :: rest ->
        frontier := rest;
        if Imdb_clock.Tid.equal x tid then cycle := true
        else if not (Hashtbl.mem seen x) then begin
          Hashtbl.add seen x ();
          match Hashtbl.find_opt t.waits x with
          | Some w -> Hashtbl.iter (fun y () -> frontier := y :: !frontier) w.w_set
          | None -> ()
        end
  done;
  if not !cycle then begin
    let set = Hashtbl.create 4 in
    List.iter (fun b -> Hashtbl.replace set b ()) blockers;
    Hashtbl.replace t.waits tid { w_res = res; w_mode = mode; w_set = set }
  end;
  Mutex.unlock t.waits_mu;
  !cycle

(* --- grant logic (callers hold the shard mutex) ---------------------- *)

let entry_of sh res =
  match Hashtbl.find_opt sh.sh_table res with
  | Some e -> e
  | None ->
      let e = { holders = Hashtbl.create 4 } in
      Hashtbl.add sh.sh_table res e;
      e

(* The requested (upgrade-merged) mode and the incompatible holders. *)
let probe sh tid res mode =
  let e = entry_of sh res in
  let requested =
    match Hashtbl.find_opt e.holders tid with Some m -> lub m mode | None -> mode
  in
  let conflicts =
    Hashtbl.fold
      (fun other m acc ->
        if Imdb_clock.Tid.equal other tid then acc
        else if compatible requested m then acc
        else other :: acc)
      e.holders []
  in
  (e, requested, conflicts)

let grant t e tid res requested =
  Hashtbl.replace e.holders tid requested;
  note_held t tid res;
  clear_waits t tid;
  M.incr t.metrics M.lock_acquires

(* --- fail-fast acquisition ------------------------------------------ *)

let acquire t tid res mode =
  let sh = shard_of t res in
  Mutex.lock sh.sh_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.sh_mu)
    (fun () ->
      let e, requested, conflicts = probe sh tid res mode in
      match conflicts with
      | [] ->
          grant t e tid res requested;
          Granted
      | blockers ->
          M.incr t.metrics M.lock_conflicts;
          if note_wait_or_cycle t tid ~res ~mode blockers then begin
            M.incr t.metrics M.lock_deadlocks;
            raise (Deadlock tid)
          end;
          Would_block blockers)

(* Acquire or raise: the engine's normal path, where a block is surfaced
   to the caller as an exception (no thread parks).  Because the
   requester does not actually wait, its wait-for edge is erased before
   raising — otherwise stale edges would accumulate into phantom
   deadlocks.  True waiting callers use [acquire] (keeping their edge) or
   [acquire_wait]. *)
let acquire_exn t tid res mode =
  match acquire t tid res mode with
  | Granted -> ()
  | Would_block blockers ->
      clear_waits t tid;
      raise (Conflict { tid; blockers })

(* --- blocking acquisition ------------------------------------------- *)

let acquire_wait ?(timeout_us = 100_000) t tid res mode =
  let sh = shard_of t res in
  Mutex.lock sh.sh_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.sh_mu)
    (fun () ->
      let e0, requested0, conflicts0 = probe sh tid res mode in
      match conflicts0 with
      | [] ->
          grant t e0 tid res requested0;
          0
      | first_blockers ->
          M.incr t.metrics M.lock_conflicts;
          register_with_ticker t;
          let started = Unix.gettimeofday () in
          let deadline = started +. (float_of_int timeout_us /. 1e6) in
          let waited () =
            int_of_float ((Unix.gettimeofday () -. started) *. 1e6)
          in
          let finish_wait w = M.observe t.metrics M.h_lock_wait_us w in
          Imdb_obs.Tracer.with_span t.tracer "lock.wait"
            ~attrs:
              (if Imdb_obs.Tracer.enabled t.tracer then
                 [
                   ("res", Fmt.str "%a" pp_resource res);
                   ("mode", Fmt.str "%a" pp_mode mode);
                 ]
               else [])
          @@ fun _ ->
          let rec loop blockers =
            if note_wait_or_cycle t tid ~res ~mode blockers then begin
              M.incr t.metrics M.lock_deadlocks;
              finish_wait (waited ());
              raise (Deadlock tid)
            end;
            if Unix.gettimeofday () >= deadline then begin
              clear_waits t tid;
              M.incr t.metrics M.lock_timeouts;
              finish_wait (waited ());
              raise (Lock_timeout { tid; res })
            end;
            Atomic.incr waiters_total;
            ensure_ticker ();
            Fun.protect
              ~finally:(fun () -> Atomic.decr waiters_total)
              (fun () -> Condition.wait sh.sh_cond sh.sh_mu);
            let e, requested, conflicts = probe sh tid res mode in
            match conflicts with
            | [] ->
                grant t e tid res requested;
                let w = waited () in
                finish_wait w;
                w
            | blockers -> loop blockers
          in
          loop first_blockers)

(* --- queries and release --------------------------------------------- *)

let holds t tid res =
  let sh = shard_of t res in
  Mutex.lock sh.sh_mu;
  let r =
    match Hashtbl.find_opt sh.sh_table res with
    | None -> None
    | Some e -> Hashtbl.find_opt e.holders tid
  in
  Mutex.unlock sh.sh_mu;
  r

(* Strict 2PL: all locks released together at commit/abort.  Each touched
   shard is broadcast so parked waiters re-probe.

   While a resource's shard mutex is held, the releaser also erases
   itself (under [waits_mu], the inner lock) from the blocker sets of
   waiters parked on that resource.  Edge creation holds the same shard
   mutex, so a wait-for edge and its target's holdership now change
   atomically with respect to anyone holding that shard — which is what
   makes [dump] (all shards + [waits_mu]) internally consistent: every
   blocker named by a waiter edge is a current holder of the waited-on
   resource in the same dump. *)
let release_all t tid =
  Mutex.lock t.held_mu;
  let resources =
    match Hashtbl.find_opt t.held tid with
    | None -> []
    | Some set ->
        Hashtbl.remove t.held tid;
        Hashtbl.fold (fun res () acc -> res :: acc) set []
  in
  Mutex.unlock t.held_mu;
  List.iter
    (fun res ->
      let sh = shard_of t res in
      Mutex.lock sh.sh_mu;
      (match Hashtbl.find_opt sh.sh_table res with
      | None -> ()
      | Some e ->
          Hashtbl.remove e.holders tid;
          if Hashtbl.length e.holders = 0 then Hashtbl.remove sh.sh_table res);
      Mutex.lock t.waits_mu;
      Hashtbl.iter
        (fun _ w -> if w.w_res = res then Hashtbl.remove w.w_set tid)
        t.waits;
      Mutex.unlock t.waits_mu;
      Condition.broadcast sh.sh_cond;
      Mutex.unlock sh.sh_mu)
    resources;
  clear_waits t tid

let held_by t tid =
  Mutex.lock t.held_mu;
  let r =
    match Hashtbl.find_opt t.held tid with
    | Some set -> Hashtbl.fold (fun res () acc -> res :: acc) set []
    | None -> []
  in
  Mutex.unlock t.held_mu;
  r

let active_locks t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.sh_mu;
      let acc =
        Hashtbl.fold
          (fun res e acc ->
            Hashtbl.fold (fun tid m acc -> (res, tid, m) :: acc) e.holders acc)
          sh.sh_table acc
      in
      Mutex.unlock sh.sh_mu;
      acc)
    [] t.shards

(* --- introspection dump ---------------------------------------------- *)

type dump = {
  d_holders : (resource * Imdb_clock.Tid.t * mode) list;
  d_waiters : (Imdb_clock.Tid.t * resource * mode * Imdb_clock.Tid.t list) list;
}

(* One consistent cut across all 16 shards: every shard mutex is taken in
   array order (a total order no other thread competes with — everyone
   else holds at most one shard), then [waits_mu], which is strictly
   inside any shard in the global lock order.  Because edge creation and
   the release-time reverse-edge purge both run under the waited-on
   resource's shard mutex, no edge can appear or lose its holder while
   the dump holds every shard: each waiter's blockers are holders of the
   waited-on resource in this same cut. *)
let dump t =
  Array.iter (fun sh -> Mutex.lock sh.sh_mu) t.shards;
  Mutex.lock t.waits_mu;
  let holders =
    Array.fold_left
      (fun acc sh ->
        Hashtbl.fold
          (fun res e acc ->
            Hashtbl.fold (fun tid m acc -> (res, tid, m) :: acc) e.holders acc)
          sh.sh_table acc)
      [] t.shards
  in
  let waiters =
    Hashtbl.fold
      (fun tid w acc ->
        let blockers = Hashtbl.fold (fun b () acc -> b :: acc) w.w_set [] in
        (tid, w.w_res, w.w_mode, List.sort Imdb_clock.Tid.compare blockers)
        :: acc)
      t.waits []
  in
  Mutex.unlock t.waits_mu;
  Array.iter (fun sh -> Mutex.unlock sh.sh_mu) t.shards;
  {
    d_holders = List.sort compare holders;
    d_waiters = List.sort compare waiters;
  }

let resource_json res =
  let module J = Imdb_obs.Json in
  match res with
  | Table id -> J.Obj [ ("kind", J.String "table"); ("table", J.Int id) ]
  | Record (id, k) ->
      J.Obj
        [
          ("kind", J.String "record");
          ("table", J.Int id);
          ("key", J.String (String.escaped k));
        ]

let dump_json t =
  let module J = Imdb_obs.Json in
  let d = dump t in
  let tid_json tid = J.String (Imdb_clock.Tid.to_string tid) in
  J.Obj
    [
      ( "holders",
        J.List
          (List.map
             (fun (res, tid, m) ->
               J.Obj
                 [
                   ("resource", resource_json res);
                   ("tid", tid_json tid);
                   ("mode", J.String (Fmt.str "%a" pp_mode m));
                 ])
             d.d_holders) );
      ( "waiters",
        J.List
          (List.map
             (fun (tid, res, m, blockers) ->
               J.Obj
                 [
                   ("tid", tid_json tid);
                   ("resource", resource_json res);
                   ("mode", J.String (Fmt.str "%a" pp_mode m));
                   ("waits_for", J.List (List.map tid_json blockers));
                 ])
             d.d_waiters) );
    ]

(* Sample buffers, order statistics, the monotonic clock, and the
   machine's quiet speed. *)

let now_ns () = Monotonic_clock.now ()

(* Microseconds elapsed since [t0] (a [now_ns] reading). *)
let us_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e3

(* A growable buffer of float samples, in the order they were taken. *)
type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

(* --- the least contended CPU ------------------------------------------------ *)

(* The guest's CPUs share their cores with other guests' work: each of
   them runs up to 1.5x slower for seconds at a time, rarely both at
   once.  So every [cpu_check_ns] the main thread times a short kernel on
   each CPU it may use and moves to one that runs it at least
   [cpu_switch] faster than its own; it stays put otherwise, since a move
   costs it its caches.  Only the main domain moves: sql_mixed's reader
   domain is left to the scheduler. *)
external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin : int -> bool = "perfbench_pin"

let cpus = allowed_cpus ()
let cpu_check_ns = 50_000_000L
let cpu_switch = 0.9
let current_cpu = ref (-1)
let last_cpu_check = ref 0L
let kernel_buf = Array.init 8192 (fun i -> i)

let kernel_ns () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for r = 0 to 7 do
    for i = 0 to 8191 do
      acc := !acc + (kernel_buf.(((i * 31) + r) land 8191) * (i lor 1))
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Int64.to_float (Int64.sub (now_ns ()) t0)

(* The better of two timings of the kernel on [cpu], or infinity if the
   thread cannot run there. *)
let time_on cpu = if pin cpu then Float.min (kernel_ns ()) (kernel_ns ()) else infinity

let follow_fastest_cpu () =
  let now = now_ns () in
  if Array.length cpus > 1 && Domain.is_main_domain () && Int64.sub now !last_cpu_check >= cpu_check_ns then begin
    if !current_cpu < 0 then current_cpu := cpus.(0);
    let here = time_on !current_cpu in
    let best = ref !current_cpu and best_ns = ref (here *. cpu_switch) in
    Array.iter
      (fun c ->
        if c <> !current_cpu then begin
          let ns = time_on c in
          if ns < !best_ns then begin
            best := c;
            best_ns := ns
          end
        end)
      cpus;
    if pin !best then current_cpu := !best;
    last_cpu_check := now_ns ()
  end

(* Add the time of an operation that started at [t0] (a [now_ns]
   reading) and has just ended, in us, and return it; then, outside the
   operation's time, check which CPU to run on. *)
let record s t0 =
  let us = us_since t0 in
  add s us;
  follow_fastest_cpu ();
  us

let count s = s.n
let samples s = Array.sub s.a 0 s.n

(* Nearest-rank percentile of a sorted array; [q] in (0, 1]. *)
let percentile_sorted b q =
  let n = Array.length b in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    b.(max 0 (min (n - 1) (rank - 1)))

let percentile_array b q =
  let b = Array.copy b in
  Array.sort Float.compare b;
  percentile_sorted b q

let median l = percentile_array (Array.of_list l) 0.5

(* --- the machine's quiet speed --------------------------------------------- *)

(* The machine these figures come from is a shared guest whose speed
   swings with its neighbours' load: the engine runs up to 1.8x slower,
   at times for minutes, while stretches of a few tens of milliseconds at
   full speed keep recurring.  A stream of latencies of one kind of
   operation is cut into chunks of consecutive samples that take about
   [chunk_us] together (at least eight samples), and the quietest tenth
   of the chunks, those with the lowest median, give the stream's quiet
   median.  A figure of the stream is its pooled value scaled by the
   quiet median over the pooled median: the pool keeps every operation,
   so a tail keeps its share of slow operations (time splits,
   checkpoints), and the scale removes the part of the machine's state
   that the quiet chunks show was not the engine's.  Repetitions timed
   one by one (opening an engine, recoveries) report their 10th
   percentile, or their fastest when fewer than ten. *)
let chunk_us = 25_000.0
let quiet_share = 0.1

let mean b = Array.fold_left ( +. ) 0.0 b /. float_of_int (max 1 (Array.length b))

(* Quiet median over pooled median of [s], at most 1. *)
let quiet_scale s =
  let all = samples s in
  let len = max 8 (int_of_float (Float.ceil (chunk_us /. Float.max (mean all) 1e-3))) in
  if s.n < 2 * len then 1.0
  else begin
    let chunks = Array.init (s.n / len) (fun c -> Array.sub s.a (c * len) len) in
    let medians = Array.map (fun c -> percentile_array c 0.5) chunks in
    let order = Array.init (Array.length chunks) Fun.id in
    Array.stable_sort (fun i j -> Float.compare medians.(i) medians.(j)) order;
    let k = max 1 (int_of_float (Float.ceil (quiet_share *. float_of_int (Array.length chunks)))) in
    let quiet = Array.concat (List.init k (fun i -> chunks.(order.(i)))) in
    Float.min 1.0 (percentile_array quiet 0.5 /. percentile_array all 0.5)
  end

(* Percentile [q] of [s] at the machine's quiet speed. *)
let quiet_percentile s q = percentile_array (samples s) q *. quiet_scale s

(* Mean of [s] at the machine's quiet speed. *)
let quiet_mean s = mean (samples s) *. quiet_scale s

(* Operations per second of [s], one latency sample per operation in us,
   at the machine's quiet speed. *)
let quiet_rate s = 1e6 /. quiet_mean s

(* The 10th percentile of repetitions timed one by one. *)
let low_of s = percentile_array (samples s) quiet_share
let low l = percentile_array (Array.of_list l) quiet_share

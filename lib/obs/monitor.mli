(** Continuous monitor: periodic [Metrics.snapshot]s in a bounded ring,
    with derived rates between the two newest samples.

    Sampling is either manual ([sample]) or deadline-driven: the owner
    calls [tick] after each of its operations and a sample is taken once
    the monitor's clock has passed the next deadline.  There is no
    thread, so CPU-bound work cannot starve the sampler, and under an
    injected logical clock the samples are a pure function of the
    workload.  The shared [null] monitor short-circuits every operation
    on one branch, so an engine without monitoring pays nothing and
    perturbs no counters (proved by the BENCH_monitorov gate). *)

type t

type sample = {
  s_seq : int;  (** monotonic per monitor, survives ring eviction *)
  s_at_us : int64;  (** clock at capture, microseconds *)
  s_counters : Metrics.snapshot;
}

type rates = {
  r_interval_us : int64;  (** span between the two newest samples *)
  r_txn_per_s : float;
  r_wal_bytes_per_s : float;
  r_splits_per_s : float;  (** time splits + key splits *)
  r_stamping_backlog : int;
      (** ptt.inserts - ptt.deletes at the newest sample: rows whose
          timestamps lazy stamping has not yet made permanent.  A level,
          not a rate. *)
}

val null : t
(** Shared disabled monitor: [sample]/[tick] are no-ops,
    [samples] is empty, [rates] is [None]. *)

val create :
  ?interval_ms:int -> ?capacity:int -> ?clock_us:(unit -> int64) -> Metrics.t -> t
(** [clock_us] defaults to wall time; tests inject a logical source.
    [interval_ms] (default 1000) is the [tick] deadline spacing, the
    first deadline one interval after creation; [capacity] (default
    {!default_capacity}) bounds the ring. *)

val default_capacity : int
val enabled : t -> bool

val sample : t -> unit
(** Capture one snapshot now.  Increments [Metrics.monitor_samples]
    (and [monitor_dropped] when the ring evicts). *)

val tick : t -> unit
(** Sample if the clock has reached the next deadline, then move the
    deadline one interval on (or one interval past now, when the clock
    jumped further — missed samples are not replayed).  One branch on
    [null].  Not reentrant: the owner serializes its calls. *)

val samples : t -> sample list
(** Oldest first. *)

val dropped : t -> int
val rates : t -> rates option

val to_json : t -> Json.t
(** The whole ring plus newest-interval rates and current p50/p90/p99 of
    every histogram — the payload embedded in flight-recorder reports
    and printed by [imdb monitor]. *)

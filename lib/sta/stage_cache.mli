(** Memoization of per-stage QWM solves.

    Large timing graphs repeat gates: a decoder fan-out tree instantiates
    the same stage (same topology, device sizes, load) hundreds of times,
    and after slew bucketing their switching inputs coincide too. The
    cache solves every repeated gate exactly once.

    Keys: the table is keyed on [(model name, config, scenario)] — the
    shaped scenario value itself, covering stage topology, device
    geometry, external loads, initial node biases and input source
    shapes. A table key therefore holds the scenario (sharing its stage
    and technology with the graph) rather than a 16-byte digest, and a
    lookup neither serializes nor digests anything. The key's hash is
    read from the scenario's name, stage loads, initial biases and
    sources before the lock is taken; the locked section is one table
    probe plus the use-count bump.

    Exactness: two keys are equal when the values are structurally
    equal, floats bit for bit ([0.0] and [-0.0] are different keys, as
    are rise times one ulp apart), strings and integers by value.
    Physically shared parts are equal without a walk, so a hit on a
    pooled cell — one whose stage, technology and bias vector are shared
    — compares only the freshly shaped sources. This is the equality of
    {!fingerprint} with one exception: values that differ only in
    internal sharing (two sources holding one shape block vs two equal
    blocks) share an entry here, while the digest, which serializes
    sharing, tells them apart. No scenario builder in this library
    produces such a pair.

    Thread-safety: the table is mutex-protected and the counters are
    atomic, so one cache may be shared by all domains of the
    {!Parallel} engine. Lookups are single-flight: the first domain to
    request a key solves it while concurrent requesters for the same key
    block until the report lands, so a stage is never solved twice and
    the miss count is deterministic — a parallel run reports exactly the
    misses (one per distinct stage) of the sequential run. This holds
    under {!Parallel}'s work stealing: a worker that blocks on an
    in-flight key simply sleeps inside its current chunk while the
    level's other chunks remain stealable by the rest of the
    team. Cached reports are immutable and safe to share across
    domains.

    Telemetry: hits and misses are additionally accumulated across all
    cache instances in the global {!Tqwm_obs.Metrics} registry as
    [stage_cache.hits] / [stage_cache.misses], so metrics snapshots
    ([qwm_sim --metrics]) carry cache effectiveness without a handle on
    the cache value itself. *)

type t

type stats = {
  hits : int;
  misses : int;  (** actual QWM solves performed through the cache *)
  entries : int;
}

val create : ?slew_bucket:float -> unit -> t
(** [slew_bucket] (default 1 ps, must be positive) quantizes input slews
    before they are used as cache keys — see {!bucket_slew}. *)

val fork : ?copy_uses:bool -> t -> t
(** A new cache handle sharing this cache's solve table — and its
    single-flight coordination — so solves memoized through any fork are
    hits for every other fork, while {!uses} provenance and {!stats}
    restart at zero for the fork. With [copy_uses] (default false) the
    fork starts from a snapshot of the parent's per-key request counts
    instead, as if it had submitted the parent's work itself — the mode
    for forking a session whose baseline analysis already ran, keeping
    path-explain attribution identical to a from-scratch session.
    {!clear} on any fork clears the shared table but only the calling
    fork's own counts. *)

val slew_bucket : t -> float

val bucket_slew : t -> float -> float
(** Round a positive slew to the nearest bucket multiple (at least one
    bucket); non-positive slews pass through. Arrival propagation buckets
    the driving slew {e before} shaping a stage's input ramp, so the
    cached solve and the waveform actually used agree exactly and results
    are deterministic regardless of hit order. The default 1 ps bucket
    perturbs delays well below the QWM-vs-reference model error. *)

val fingerprint :
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  string
(** Canonical external digest of (model name, config, scenario): a
    stable byte string for records outside the process (graph digests,
    ledgers). It is not the table key and is never computed by {!run},
    {!peek} or {!uses}; two scenarios with equal digests are one cache
    entry. Device models are identified by name only, in the digest and
    in the table key alike — do not share one cache between models that
    answer differently under the same name. *)

val run :
  t ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  Tqwm_core.Qwm.report
(** [Qwm.run] through the cache. On a hit the stored report is returned
    (its [runtime_seconds] is the original solve's). *)

val peek :
  t ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  Tqwm_core.Qwm.report option
(** The stored report for this scenario's key, if its solve already
    landed — never solves, never blocks on an in-flight entry, and does
    not count as a hit, miss or use. The read-only lookup path-explain
    replays through. *)

val uses :
  t ->
  model:Tqwm_device.Device_model.t ->
  config:Tqwm_core.Config.t ->
  Tqwm_circuit.Scenario.t ->
  int
(** How many {!run} calls requested this scenario's key (hits and misses
    alike; 0 = never requested). The count reflects the work submitted,
    not the scheduling, so it is identical across domain counts and
    chunk sizes; {!peek} and [uses] itself leave it untouched. *)

val stats : t -> stats

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when the cache is unused. *)

val clear : t -> unit

module Qwm = Tqwm_core.Qwm
module Metrics = Tqwm_obs.Metrics

(* Process-wide totals across every cache instance, exported through the
   metrics registry; the per-instance atomics below remain for
   instance-scoped [stats]. *)
let c_hits = Metrics.counter "stage_cache.hits"
let c_misses = Metrics.counter "stage_cache.misses"

type stats = { hits : int; misses : int; entries : int }

(* A table key is the shaped scenario itself, with the model name and
   config it is solved under. [hash] is computed by [key] before the
   cache lock is taken, so the locked section is one probe plus the
   use-count bump. *)
type key = {
  hash : int;
  model_name : string;
  config : Tqwm_core.Config.t;
  scenario : Tqwm_circuit.Scenario.t;
}

(* Exact structural equality over pure data, by one generic walk (the
   comparison counterpart of [Marshal]): physically equal values are
   equal without a look inside, so scenarios that share their stage,
   technology and bias vector compare only their sources; floats are
   equal when their bits are ([0.0] <> [-0.0], as in [fingerprint]);
   strings and immediates by value. Scenarios and configs are plain
   data; a closure or custom block would be rejected. *)
let float_bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec same (a : Obj.t) (b : Obj.t) =
  a == b
  || Obj.is_block a && Obj.is_block b
     &&
     let tag = Obj.tag a in
     tag = Obj.tag b
     && Obj.size a = Obj.size b
     &&
     if tag < Obj.lazy_tag then begin
       let n = Obj.size a in
       let rec fields i =
         i = n || (same (Obj.field a i) (Obj.field b i) && fields (i + 1))
       in
       fields 0
     end
     else if tag = Obj.double_tag then float_bits_equal (Obj.obj a) (Obj.obj b)
     else if tag = Obj.double_array_tag then begin
       let n = Array.length (Obj.obj a : float array) in
       let rec doubles i =
         i = n
         || (float_bits_equal (Obj.double_field a i) (Obj.double_field b i)
            && doubles (i + 1))
       in
       doubles 0
     end
     else if tag = Obj.string_tag then String.equal (Obj.obj a) (Obj.obj b)
     else invalid_arg "Stage_cache: key holds a value that is not plain data"

module Table = Hashtbl.Make (struct
  type t = key

  let hash k = k.hash

  let equal a b =
    a == b
    || a.hash = b.hash
       && String.equal a.model_name b.model_name
       && same (Obj.repr a.config) (Obj.repr b.config)
       && same (Obj.repr a.scenario) (Obj.repr b.scenario)
end)

(* The hash reads the bounded fields that tell shaped stages apart —
   names, stage loads, initial biases and sources — and leaves the config
   and stage topology to the equality. Equal keys hash equally: float
   bits feed the hash directly, and [Hashtbl.hash] maps bit-equal floats
   to one value. *)
let key ~model ~config (scenario : Tqwm_circuit.Scenario.t) =
  let model_name = model.Tqwm_device.Device_model.name in
  let mix h v = (h lxor v) * 0x100000001b3 in
  let mix_floats h (xs : float array) =
    let h = ref h in
    for i = 0 to Array.length xs - 1 do
      let b = Int64.bits_of_float (Array.unsafe_get xs i) in
      h := mix !h (Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 32)))
    done;
    !h
  in
  let h = mix (Hashtbl.hash model_name) (Hashtbl.hash scenario.name) in
  let h = mix_floats h scenario.stage.Tqwm_circuit.Stage.loads in
  let h = mix_floats h scenario.initial in
  let h = List.fold_left (fun h source -> mix h (Hashtbl.hash source)) h scenario.sources in
  { hash = Hashtbl.hash h; model_name; config; scenario }

(* Single-flight slots: the first domain to request a key claims it and
   solves; later requesters block on [cond] until the report lands. This
   keeps the miss count deterministic (one miss per distinct stage, the
   same number a sequential run reports) and never burns two domains on
   the same solve. An entry keeps the key it was claimed under, so a
   hit bumps [uses] with that very key and the bump's probe stops at
   physical equality. *)
type slot = Ready of Qwm.report | In_flight

type entry = { canonical : key; slot : slot }

type t = {
  slew_bucket : float;
  table : entry Table.t;
  (* per-key request counts: how many [run] calls asked for each key,
     hits and misses alike. The total per key is a property of the work
     submitted, not of scheduling, so it is deterministic across domain
     counts and chunk sizes — the provenance path-explain reports lean on. *)
  uses : int Table.t;
  lock : Mutex.t;
  cond : Condition.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(slew_bucket = 1e-12) () =
  if slew_bucket <= 0.0 then invalid_arg "Stage_cache.create: slew_bucket <= 0";
  {
    slew_bucket;
    table = Table.create 256;
    uses = Table.create 256;
    lock = Mutex.create ();
    cond = Condition.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

(* Fork: share the solve table (and its single-flight lock/condition) so
   every fork benefits from — and contributes to — the same memoized
   solves, while [uses] provenance and hit/miss stats restart
   per-fork. With [copy_uses] the fork inherits the parent's current
   per-key request counts, as if it had submitted the parent's work
   itself — the mode a server uses when handing a client a baseline
   session whose full propagation already happened. *)
let fork ?(copy_uses = false) t =
  Mutex.lock t.lock;
  let uses = if copy_uses then Table.copy t.uses else Table.create 256 in
  Mutex.unlock t.lock;
  {
    slew_bucket = t.slew_bucket;
    table = t.table;
    uses;
    lock = t.lock;
    cond = t.cond;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let slew_bucket t = t.slew_bucket

let bucket_slew t s =
  if s <= 0.0 then s
  else Float.max t.slew_bucket (Float.round (s /. t.slew_bucket) *. t.slew_bucket)

(* The canonical external digest; the table itself keys on [key] above.
   A scenario is pure data (stage arrays, source shapes, floats), as is a
   config, so marshalling yields a canonical byte string covering stage
   topology, device sizes, loads and (pre-bucketed) input source shapes.
   Device models contain closures and cannot be marshalled; only the
   model name enters the key, so a cache must not be shared between
   models that answer differently under the same name. The initial-bias
   vector is the one bulk-numeric field: it is hashed as its raw float64
   bits directly instead of having Marshal walk a boxed float array, and
   spliced into the digest alongside the structural remainder. *)
let fingerprint ~model ~config scenario =
  let initial = scenario.Tqwm_circuit.Scenario.initial in
  let n = Array.length initial in
  let bits = Bytes.create (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le bits (i * 8) (Int64.bits_of_float initial.(i))
  done;
  let structural =
    Marshal.to_string
      ( model.Tqwm_device.Device_model.name,
        config,
        { scenario with Tqwm_circuit.Scenario.initial = [||] } )
      []
  in
  Digest.string (structural ^ Bytes.unsafe_to_string bits)

let count uses k =
  Table.replace uses k (1 + Option.value (Table.find_opt uses k) ~default:0)

let run t ~model ~config scenario =
  let key = key ~model ~config scenario in
  Mutex.lock t.lock;
  let found = Table.find_opt t.table key in
  count t.uses (match found with Some e -> e.canonical | None -> key);
  let rec claim = function
    | Some { slot = Ready report; _ } -> `Hit report
    | Some { slot = In_flight; _ } ->
      (* another domain is already solving this stage: wait for its
         report rather than duplicating the solve *)
      Condition.wait t.cond t.lock;
      claim (Table.find_opt t.table key)
    | None ->
      Table.replace t.table key { canonical = key; slot = In_flight };
      `Solve
  in
  let claimed = claim found in
  Mutex.unlock t.lock;
  match claimed with
  | `Hit report ->
    Atomic.incr t.hits;
    Metrics.incr c_hits;
    report
  | `Solve ->
    (* each STA worker runs on its own domain, so the per-domain default
       workspace hands every single-flight solver its own preallocated
       scratch with no coordination; passing it explicitly documents that
       the cache never shares one workspace across domains *)
    let workspace = Tqwm_core.Qwm_solver.Workspace.for_current_domain () in
    (match Qwm.run ~model ~config ~workspace scenario with
    | exception e ->
      (* release the claim so waiters retry instead of hanging *)
      Mutex.lock t.lock;
      Table.remove t.table key;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      raise e
    | report ->
      Atomic.incr t.misses;
      Metrics.incr c_misses;
      Mutex.lock t.lock;
      Table.replace t.table key { canonical = key; slot = Ready report };
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      report)

let peek t ~model ~config scenario =
  let key = key ~model ~config scenario in
  Mutex.protect t.lock (fun () ->
      match Table.find_opt t.table key with
      | Some { slot = Ready report; _ } -> Some report
      | Some { slot = In_flight; _ } | None -> None)

let uses t ~model ~config scenario =
  let key = key ~model ~config scenario in
  Mutex.protect t.lock (fun () -> Option.value (Table.find_opt t.uses key) ~default:0)

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    entries =
      Mutex.protect t.lock (fun () ->
          Table.fold
            (fun _ e n -> match e.slot with Ready _ -> n + 1 | In_flight -> n)
            t.table 0);
  }

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total

let clear t =
  Mutex.protect t.lock (fun () ->
      Table.reset t.table;
      Table.reset t.uses;
      (* any domain waiting on an in-flight slot re-claims and solves *)
      Condition.broadcast t.cond);
  Atomic.set t.hits 0;
  Atomic.set t.misses 0

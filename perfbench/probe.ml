(* Per-layer measurements taken from outside the program: timed calls into
   each layer's public functions, a counting wrapper around the device
   model, micro-sweeps of the device lookup and linear-solve kernels, and
   self times folded from the spans the program already emits. *)

open Util
open Tqwm_circuit
module Device_model = Tqwm_device.Device_model
module Table_model = Tqwm_device.Table_model
module Qwm = Tqwm_core.Qwm
module Config = Tqwm_core.Config
module Stage_cache = Tqwm_sta.Stage_cache
module Trace = Tqwm_obs.Trace
module Vec = Tqwm_num.Vec

(* ---------- device model wrapper ---------- *)

let evals = Atomic.make 0

(* The same model, counting every I/V and derivative query. The name is
   kept, so stage-cache fingerprints are unchanged. *)
let counting (m : Device_model.t) : Device_model.t =
  {
    m with
    iv =
      (fun d v ->
        Atomic.incr evals;
        m.iv d v);
    iv_derivatives =
      (fun d v ->
        Atomic.incr evals;
        m.iv_derivatives d v);
    iv_derivatives_into =
      (fun d v out ->
        Atomic.incr evals;
        m.iv_derivatives_into d v out);
  }

(* ---------- kernel sweeps ---------- *)

(* ns per call of [f], median of [reps] batches of [n] calls. *)
let ns_per_call ?(reps = 7) ~n f =
  median
    (Array.init reps (fun _ ->
         let (), dt =
           time (fun () ->
               for i = 0 to n - 1 do
                 f i
               done)
         in
         dt *. 1e9 /. float_of_int n))

(* Table_model.lookup_derivs_into over a 16^3 grid of terminal voltages. *)
let device_eval_ns tech =
  let table = Table_model.of_analytic tech Tqwm_device.Mosfet.N in
  let vdd = tech.Tqwm_device.Tech.vdd in
  let out = Device_model.derivs () in
  let pts =
    Array.init 4096 (fun i ->
        let a = float_of_int (i land 15) /. 15.0
        and b = float_of_int ((i lsr 4) land 15) /. 15.0
        and c = float_of_int (i lsr 8) /. 15.0 in
        let vs = vdd *. 0.5 *. b in
        (vdd *. a, vs, vs +. ((vdd -. vs) *. c)))
  in
  ns_per_call ~n:200_000 (fun i ->
      let vg, vs, vd = pts.(i land 4095) in
      Table_model.lookup_derivs_into table ~vg ~vs ~vd out)

(* The default-config region solve kernel (bordered tridiagonal block
   elimination) on a diagonally dominant K x K system. *)
let linsolve_ns k =
  let n = k - 1 in
  let v f = Vec.init k f in
  let lower = v (fun _ -> -1.0) and upper = v (fun _ -> -1.2)
  and diag = v (fun i -> 4.0 +. float_of_int i)
  and last_col = v (fun i -> 0.1 *. float_of_int (i + 1))
  and last_row = v (fun i -> 0.2 /. float_of_int (i + 1))
  and b = v (fun i -> float_of_int (i + 1)) in
  let cp = Vec.create k and dp = Vec.create k and y = Vec.create k and z = Vec.create k in
  let x = Vec.create k in
  ns_per_call ~n:200_000 (fun _ ->
      Tqwm_num.Bordered.solve_into ~n ~lower ~diag ~upper ~last_col ~last_row ~corner:3.0
        ~cp ~dp ~y ~z ~b ~x)

(* ---------- probe set: the scenarios a workload actually solved ---------- *)

type probes = {
  solve_us : float array;  (** one sample per timed Qwm.run *)
  lower_us : float array;
  fingerprint_us : float array;
  hit_us : float array;
  evals_per_newton : float;
  evals_per_solve : float;
}

let per_call_us n f =
  let (), dt =
    time (fun () ->
        for _ = 1 to n do
          f ()
        done)
  in
  dt *. 1e6 /. float_of_int n

let probe_scenarios ~model ~config (scenarios : Scenario.t list) =
  let solve = Samples.create () and lower = Samples.create () in
  let fp = Samples.create () and hit = Samples.create () in
  let cache = Stage_cache.create () in
  List.iter
    (fun s ->
      ignore (Stage_cache.run cache ~model ~config s);
      for _ = 1 to 3 do
        Samples.add solve (per_call_us 1 (fun () -> ignore (Qwm.run ~model ~config s)))
      done;
      Samples.add lower (per_call_us 200 (fun () -> ignore (Qwm.lower_scenario ~model ~config s)));
      Samples.add fp
        (per_call_us 200 (fun () -> ignore (Stage_cache.fingerprint ~model ~config s)));
      Samples.add hit (per_call_us 200 (fun () -> ignore (Stage_cache.run cache ~model ~config s))))
    scenarios;
  let wrapped = counting model in
  let e0 = Atomic.get evals in
  let newton =
    List.fold_left
      (fun acc s ->
        acc + (Qwm.run ~model:wrapped ~config s).Qwm.stats.Tqwm_core.Qwm_solver.newton_iterations)
      0 scenarios
  in
  let n_evals = float_of_int (Atomic.get evals - e0) in
  {
    solve_us = Samples.to_array solve;
    lower_us = Samples.to_array lower;
    fingerprint_us = Samples.to_array fp;
    hit_us = Samples.to_array hit;
    evals_per_newton = ratio n_evals (float_of_int newton);
    evals_per_solve = ratio n_evals (float_of_int (List.length scenarios));
  }

(* ---------- trace folding ---------- *)

type span = { name : string; cat : string; tid : int; ts : float; dur : float }

let spans_of_trace () =
  let str k e = match Json.member k e with Some (Json.String s) -> s | _ -> "" in
  let num k e =
    match Json.member k e with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.0
  in
  match Json.member "traceEvents" (Trace.to_json ()) with
  | Some (Json.List events) ->
    List.filter_map
      (fun e ->
        if str "ph" e <> "X" then None
        else
          Some
            {
              name = str "name" e;
              cat = str "cat" e;
              tid = int_of_float (num "tid" e);
              ts = num "ts" e;
              dur = num "dur" e;
            })
      events
  | _ -> []

(* The layer a span's self time is charged to. *)
let layer_of sp =
  match sp.cat with
  | "bench" ->
    if String.starts_with ~prefix:"bench.daemon" sp.name then "client_wait" else "bench"
  | "server" -> "protocol"
  | "script" -> "script"
  | "incr" -> "session"
  | "sta" -> "scheduler"
  | "sta.stage" -> "arrival"
  | "qwm" -> "stage_solve"
  | "spice" -> "golden"
  | _ -> "other"

let layers =
  [
    "bench"; "client_wait"; "protocol"; "script"; "session"; "scheduler"; "arrival";
    "stage_solve"; "golden"; "other";
  ]

(* Accumulated over every traced round of a run. *)
type fold = {
  self_us : (string, float) Hashtbl.t;  (** per layer, all lanes *)
  mutable main_self_us : float;  (** self time on the driving domain's lane *)
  mutable main_wall_us : float;  (** duration of the driving domain's root spans *)
  durations : Keyed.t;  (** span durations by layer, in us *)
  mutable kept : bool;  (** a Chrome trace of one round was written *)
}

let new_fold () =
  {
    self_us = Hashtbl.create 16;
    main_self_us = 0.0;
    main_wall_us = 0.0;
    durations = Keyed.create ();
    kept = false;
  }

(* Self time = a span's duration minus the part covered by its children
   on the same lane. Spans on one lane nest, so a stack walk over spans
   sorted by start (longest first on ties) finds each span's parent. *)
let fold_spans fold spans =
  let main = (Domain.self () :> int) in
  let by_lane = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      Hashtbl.replace by_lane sp.tid
        (sp :: Option.value (Hashtbl.find_opt by_lane sp.tid) ~default:[]))
    spans;
  Hashtbl.iter
    (fun tid lane ->
      let lane =
        List.sort
          (fun a b -> if a.ts = b.ts then Float.compare b.dur a.dur else Float.compare a.ts b.ts)
          lane
        |> Array.of_list
      in
      let child = Array.make (Array.length lane) 0.0 in
      let stack = ref [] in
      Array.iteri
        (fun i sp ->
          let rec pop () =
            match !stack with
            | j :: rest when lane.(j).ts +. lane.(j).dur <= sp.ts ->
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | j :: _ ->
            let parent_end = lane.(j).ts +. lane.(j).dur in
            child.(j) <- child.(j) +. Float.min sp.dur (parent_end -. sp.ts)
          | [] -> if tid = main then fold.main_wall_us <- fold.main_wall_us +. sp.dur);
          stack := i :: !stack)
        lane;
      Array.iteri
        (fun i sp ->
          let self = Float.max 0.0 (sp.dur -. child.(i)) in
          let layer = layer_of sp in
          Hashtbl.replace fold.self_us layer
            (self +. Option.value (Hashtbl.find_opt fold.self_us layer) ~default:0.0);
          if tid = main then fold.main_self_us <- fold.main_self_us +. self;
          Keyed.add fold.durations layer sp.dur)
        lane)
    by_lane

(* Run [f] as one traced round: the program's spans plus a [bench.round]
   root span are captured and folded into [fold]; the first traced round
   of a run is also written to [keep] as a Chrome trace. Returns [f]'s
   result and its duration, which excludes the folding. *)
let traced_round fold ~keep f =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable (fun () ->
      let r, dt = time (fun () -> Trace.with_span ~name:"bench.round" ~cat:"bench" f) in
      fold_spans fold (spans_of_trace ());
      if not fold.kept then begin
        Trace.write_file keep;
        fold.kept <- true
      end;
      (r, dt))

let span name f = Trace.with_span ~name ~cat:"bench" f

(* Run [round ~record i] until the run's seconds are up, from a freshly
   collected heap each time. In a traced run every other round is traced
   (and not recorded); each round's duration lands in [untraced] or
   [traced], which {!overhead_pct} compares. *)
let rounds ctx fold ~untraced ~traced round =
  loop ~seconds:ctx.seconds (fun i ->
      Gc.full_major ();
      if ctx.trace && i mod 2 = 1 then
        Samples.add traced (snd (traced_round fold ~keep:(trace_file ctx) (round ~record:false i)))
      else Samples.add untraced (snd (time (round ~record:true i))))

let self_us fold l = Option.value (Hashtbl.find_opt fold.self_us l) ~default:0.0

(* Self time per unit of work ([ops] operations ran in the traced rounds),
   summed over every lane. *)
let self_metrics fold ~ops =
  List.map (fun l -> scalar ("self_us_per_op." ^ l) "us" (ratio (self_us fold l) ops)) layers
  @ [ scalar "trace.self_sum_over_wall" "ratio" (ratio fold.main_self_us fold.main_wall_us) ]

(* Rows of the per-layer self-time table, for the human-readable report. *)
let self_table fold =
  let total = List.fold_left (fun acc l -> acc +. self_us fold l) 0.0 layers in
  List.filter_map
    (fun l ->
      let us = self_us fold l in
      if us > 0.0 then Some (l, us /. 1e3, ratio us total) else None)
    layers

(* ---------- per-layer metrics shared by every workload ---------- *)

let solver_counters =
  [
    "qwm.solves"; "qwm.regions"; "qwm.newton_iterations"; "qwm.linear_solves"; "qwm.failures";
    "qwm.bisections"; "qwm.alloc.minor_words"; "stage_cache.hits"; "stage_cache.misses";
    "sta.steals"; "sta.chunks";
  ]

let solver_metrics deltas =
  let c name = float_of_int (List.assoc name deltas) in
  let solves = c "qwm.solves" and regions = c "qwm.regions" in
  let newton = c "qwm.newton_iterations" in
  let hits = c "stage_cache.hits" and misses = c "stage_cache.misses" in
  [
    scalar "qwm_solver.regions_per_solve" "count" (ratio regions solves);
    scalar "qwm_solver.newton_per_region" "count" (ratio newton regions);
    scalar "qwm_solver.linear_solves_per_newton" "count" (ratio (c "qwm.linear_solves") newton);
    scalar "qwm_solver.fallback_regions_per_solve" "count" (ratio (c "qwm.failures") solves);
    scalar "qwm_solver.bisections_per_solve" "count" (ratio (c "qwm.bisections") solves);
    scalar "qwm_solver.minor_words_per_region" "words" (ratio (c "qwm.alloc.minor_words") regions);
    scalar "stage_cache.hit_rate" "ratio" (ratio hits (hits +. misses));
    scalar "stage_cache.lookups" "count" (hits +. misses);
  ]

(* Kernel sweeps, the probe set and the device model's share of a solve. *)
let layer_metrics ~tech ~model ~config scenarios =
  let eval_ns = device_eval_ns tech in
  let p = probe_scenarios ~model ~config scenarios in
  [
    metric ~value:(percentile p.solve_us 0.5) "qwm.solve_us_p50" "us" p.solve_us;
    metric ~value:(percentile p.solve_us 0.9) "qwm.solve_us_p90" "us" p.solve_us;
    metric "qwm.lower_us_p50" "us" p.lower_us;
    scalar "device.evals_per_newton" "count" p.evals_per_newton;
    scalar "device.eval_ns" "ns" eval_ns;
    scalar "device.share_of_solve" "ratio"
      (ratio (p.evals_per_solve *. eval_ns /. 1e3) (mean p.solve_us));
    scalar "num.linsolve_ns_k6" "ns" (linsolve_ns 6);
    scalar "num.linsolve_ns_k10" "ns" (linsolve_ns 10);
    metric "stage_cache.fingerprint_us" "us" p.fingerprint_us;
    metric "stage_cache.hit_us" "us" p.hit_us;
  ]

(* GC work per unit of work. GC counters are domain-local in OCaml 5:
   worker domains fold theirs into the program's qwm.alloc.domains_*
   counters when they finish, and this domain flushes its own before
   reading. Promoted words are what the major heap (and peak memory) grows
   by. *)
let gc_counters = [ "qwm.alloc.domains_minor_words"; "qwm.alloc.domains_promoted_words" ]

let gc_metrics ~ops deltas =
  let per name = ratio (float_of_int (List.assoc name deltas)) ops in
  [
    scalar "gc.minor_words_per_op" "words" (per "qwm.alloc.domains_minor_words");
    scalar "gc.promoted_words_per_op" "words" (per "qwm.alloc.domains_promoted_words");
  ]

(* Counter deltas ({!solver_counters} and {!gc_counters}) over [f]. *)
let with_counters f =
  Tqwm_obs.Alloc.flush_domain ();
  counter_delta (gc_counters @ solver_counters) (fun () ->
      let r = f () in
      Tqwm_obs.Alloc.flush_domain ();
      r)

let overhead_pct ~traced ~untraced =
  scalar "trace.overhead_pct" "%" (100.0 *. (ratio (median traced) (median untraced) -. 1.0))

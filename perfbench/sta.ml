(* sta-reuse: full propagations of a generated 21,000-stage graph drawn
   from a small cell pool, each with a fresh stage cache, at 2 domains and
   at 1 (the sequential baseline). Almost every stage is a cache hit, so
   fingerprinting, cache lookup, input shaping and scheduling dominate and
   the solver does almost nothing. *)

open Util
module Models = Tqwm_device.Models
module Config = Tqwm_core.Config
module Timing_graph = Tqwm_sta.Timing_graph
module Stage_cache = Tqwm_sta.Stage_cache
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel

let graph_spec = { Gen.levels = 50; width = 420; pool = Some 2; loads = [| 10e-15; 12e-15 |] }

let domains = 2

(* Bit-level equality of two analyses of one graph. *)
let same_analysis (a : Arrival.analysis) (b : Arrival.analysis) =
  let same_timing (x : Arrival.stage_timing) (y : Arrival.stage_timing) =
    x.Arrival.id = y.Arrival.id
    && bits_equal x.Arrival.arrival_in y.Arrival.arrival_in
    && bits_equal x.Arrival.delay y.Arrival.delay
    && bits_equal x.Arrival.slew y.Arrival.slew
    && bits_equal x.Arrival.arrival_out y.Arrival.arrival_out
    && x.Arrival.critical_fanin = y.Arrival.critical_fanin
  in
  Array.length a.Arrival.timings = Array.length b.Arrival.timings
  && Array.for_all2 same_timing a.Arrival.timings b.Arrival.timings
  && a.Arrival.critical_path = b.Arrival.critical_path
  && bits_equal a.Arrival.worst_arrival b.Arrival.worst_arrival

type state = { model : Tqwm_device.Device_model.t; gen : Gen.t }

let run ctx =
  let freeze_ms = Samples.create () in
  let st, setup_times =
    setup ~reps:3 (fun () ->
        let model = Models.table ctx.tech in
        let gen = Gen.generate ~seed:ctx.seed ctx.tech graph_spec in
        let _, dt = time (fun () -> Timing_graph.freeze gen.Gen.graph) in
        Samples.add freeze_ms (dt *. 1e3);
        { model; gen })
  in
  let graph = st.gen.Gen.graph and stages = float_of_int st.gen.Gen.stages in
  let config = Config.default in
  let attempted = ref 0 and failed = ref 0 in
  let par_rate = Samples.create () and seq_rate = Samples.create () in
  let latency = Samples.create () and hit_rate = Samples.create () in
  let round_untraced = Samples.create () and round_traced = Samples.create () in
  let propagations = ref 0 in
  let last = ref None in
  let fold = Probe.new_fold () in
  let propagate d =
    let cache = Stage_cache.create () in
    let a, dt =
      Probe.span (Printf.sprintf "bench.propagate.d%d" d) (fun () ->
          time (fun () -> Parallel.propagate ~model:st.model ~config ~cache ~domains:d graph))
    in
    (a, dt, Stage_cache.hit_rate cache)
  in
  let round ~record i () =
    attempted := !attempted + 2;
    incr propagations;
    match
      (* alternate which side runs first, so neither always sees a warm heap *)
      if i mod 2 = 0 then
        let p = propagate domains in
        (p, propagate 1)
      else
        let s = propagate 1 in
        (propagate domains, s)
    with
    | (par, dt_par, hits), (seq, dt_seq, _) ->
      if not (same_analysis par seq) then incr failed;
      if Array.length seq.Arrival.timings <> st.gen.Gen.stages then incr failed;
      last := Some seq;
      if record then begin
        Samples.add par_rate (stages /. dt_par);
        Samples.add seq_rate (stages /. dt_seq);
        Samples.add latency (dt_par *. 1e3);
        Samples.add hit_rate hits
      end
    | exception _ -> failed := !failed + 2
  in
  let (), deltas =
    Probe.with_counters (fun () ->
        Probe.rounds ctx fold ~untraced:round_untraced ~traced:round_traced round)
  in
  let digest = Gen.digest ~model:st.model ~config st.gen in
  (* Every figure is the best round of the run. The host's speed drifts by
     tens of percent over seconds to minutes, so the median round moves
     with it from run to run, while the fastest round, taken from a freshly
     collected heap like every other, stays close to the uncontended speed.
     One unit of work (the whole graph), so both latency figures are the
     best analysis time at 2 domains. *)
  let rate raw = Array.fold_left Float.max 0.0 (Samples.to_array raw) in
  let par_ms = minimum (Samples.to_array latency) in
  let e2e =
    e2e_common ~setup_times
      ~throughput:(rate par_rate, Samples.to_array par_rate)
      ~reference:(rate seq_rate, Samples.to_array seq_rate)
      ~latency_ms:(par_ms, par_ms, Samples.to_array latency)
  in
  let layer =
    if not ctx.trace then []
    else begin
      (* the shaped scenarios a sample of stages actually solved *)
      let frozen = Timing_graph.freeze graph in
      let timings =
        match !last with
        | Some a -> Array.map Option.some a.Arrival.timings
        | None -> [||]
      in
      let rng = Random.State.make [| ctx.seed; 17 |] in
      let probes =
        if timings = [||] then []
        else
          List.init 48 (fun _ ->
              let id = Random.State.int rng st.gen.Gen.stages in
              let _, _, s =
                Arrival.replay_stage ~model:st.model ~config ~default_slew:20e-12
                  ~cache:(Stage_cache.create ()) frozen timings id
              in
              s)
      in
      let common = Probe.layer_metrics ~tech:ctx.tech ~model:st.model ~config probes in
      let find name = List.find (fun m -> m.name = name) common in
      let d name = float_of_int (List.assoc name deltas) in
      let runs = float_of_int (2 * !propagations) in
      let seq_us_per_stage = 1e6 /. rate seq_rate in
      let solve_us_per_stage =
        d "stage_cache.misses" /. runs *. mean (find "qwm.solve_us_p50").samples /. stages
      in
      common @ Probe.solver_metrics deltas
      @ [
          scalar "arrival.other_us_per_stage" "us"
            (seq_us_per_stage -. solve_us_per_stage -. (find "stage_cache.hit_us").value);
          metric "timing_graph.freeze_ms" "ms" (Samples.to_array freeze_ms);
          scalar "stage_cache.misses_per_run" "count" (d "stage_cache.misses" /. runs);
          scalar "parallel.efficiency" "ratio"
            (ratio (rate par_rate) (float_of_int domains *. rate seq_rate));
          scalar "parallel.steals_per_run" "count" (d "sta.steals" /. float_of_int !propagations);
          scalar "parallel.chunks_per_run" "count" (d "sta.chunks" /. float_of_int !propagations);
        ]
      @ Probe.gc_metrics ~ops:(stages *. runs) deltas
      @ [
          Probe.overhead_pct ~traced:(Samples.to_array round_traced)
            ~untraced:(Samples.to_array round_untraced);
        ]
      @ Probe.self_metrics fold ~ops:(stages *. float_of_int (2 * Samples.(round_traced.len)))
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    e2e;
    layer;
    self_table = Probe.self_table fold;
    facts =
      [
        ("stages", Json.Int st.gen.Gen.stages);
        ("levels", Json.Int st.gen.Gen.levels);
        ("connections", Json.Int st.gen.Gen.connections);
        ("distinct_cells", Json.Int st.gen.Gen.distinct_cells);
        ("graph_digest", Json.String digest);
        ("cache_hit_rate", Json.Float (median (Samples.to_array hit_rate)));
        ("propagations", Json.Int (2 * !propagations));
        ("domains", Json.Int domains);
      ];
  }

(* Tests for the parallel propagation engine, the frozen graph form and
   the stage cache: multi-domain runs must be bit-identical to
   sequential propagation, with and without memoization. *)

open Tqwm_device
open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Parallel = Tqwm_sta.Parallel
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads

let tech = Tech.cmosp35

let table = lazy (Models.table tech)

let check_identical what (a : Arrival.analysis) (b : Arrival.analysis) =
  Alcotest.(check int)
    (what ^ ": same stage count")
    (Array.length a.Arrival.timings)
    (Array.length b.Arrival.timings);
  Array.iteri
    (fun i (ta : Arrival.stage_timing) ->
      let tb = b.Arrival.timings.(i) in
      if ta <> tb then
        Alcotest.failf
          "%s: stage %d differs (arrival_out %.17g vs %.17g, delay %.17g vs %.17g)"
          what i ta.Arrival.arrival_out tb.Arrival.arrival_out ta.Arrival.delay
          tb.Arrival.delay)
    a.Arrival.timings;
  Alcotest.(check (list int))
    (what ^ ": critical path")
    a.Arrival.critical_path b.Arrival.critical_path;
  Alcotest.(check bool)
    (what ^ ": worst arrival bit-equal")
    true
    (a.Arrival.worst_arrival = b.Arrival.worst_arrival)

let propagate ?cache ~domains graph =
  Parallel.propagate ~model:(Lazy.force table) ?cache ~domains graph

(* ---------- frozen graph form ---------- *)

let test_freeze_levels () =
  let graph = Workloads.diamond tech in
  let frozen = Timing_graph.freeze graph in
  Alcotest.(check int) "level count" 3 (Array.length frozen.Timing_graph.levels);
  Alcotest.(check (array (array int)))
    "level schedule"
    [| [| 0 |]; [| 1; 2 |]; [| 3 |] |]
    frozen.Timing_graph.levels;
  Alcotest.(check (list int)) "order is level concatenation" [ 0; 1; 2; 3 ]
    (Timing_graph.topological_order graph);
  Alcotest.(check int) "fanin of sink" 2 (Array.length frozen.Timing_graph.fanin.(3));
  Alcotest.(check int) "fanout of source" 2
    (Array.length frozen.Timing_graph.fanout.(0));
  (* freezing is memoized until the graph mutates *)
  Alcotest.(check bool) "memoized" true (Timing_graph.freeze graph == frozen);
  let extra = Timing_graph.add_stage graph (Scenario.inverter_falling tech) in
  Timing_graph.connect graph ~from_stage:3 ~to_stage:extra ~input:"a1";
  Alcotest.(check bool) "invalidated by mutation" true
    (Timing_graph.freeze graph != frozen);
  Alcotest.(check int) "new level appears" 4
    (Array.length (Timing_graph.levels graph))

let test_connect_rejects_duplicates () =
  (* an exact duplicate edge (same endpoints, same input) is rejected,
     and neither it nor a rejected cycle-creating edge disturbs the
     edges already inserted *)
  let graph = Timing_graph.create () in
  let a = Timing_graph.add_stage graph (Scenario.inverter_falling tech) in
  let b = Timing_graph.add_stage graph (Scenario.nand_falling ~n:2 tech) in
  Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a1";
  Alcotest.check_raises "duplicate rejected"
    (Invalid_argument "Timing_graph.connect: duplicate edge") (fun () ->
      Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a1");
  (* same endpoints on a different input is a parallel edge, not a duplicate *)
  Timing_graph.connect graph ~from_stage:a ~to_stage:b ~input:"a2";
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Timing_graph.connect: cycle detected") (fun () ->
      Timing_graph.connect graph ~from_stage:b ~to_stage:a ~input:"a1");
  Alcotest.(check int) "surviving fanin edges" 2
    (List.length (Timing_graph.fanin graph b));
  Alcotest.(check int) "connection count intact" 2 (Timing_graph.num_connections graph)

(* ---------- parallel vs sequential ---------- *)

let test_parallel_identical_diamond () =
  let graph = Workloads.diamond tech in
  let seq = propagate ~domains:1 graph in
  check_identical "diamond, 2 domains" seq (propagate ~domains:2 graph);
  check_identical "diamond, 4 domains" seq (propagate ~domains:4 graph);
  (* sanity: the slow branch must define the sink's arrival *)
  Alcotest.(check (option int)) "slow branch critical" (Some 2)
    seq.Arrival.timings.(3).Arrival.critical_fanin

let test_parallel_identical_decoder_tree () =
  let graph = Workloads.decoder_tree ~fanout:2 ~depth:2 ~levels:2 tech in
  Alcotest.(check int) "tree size" 7 (Timing_graph.num_stages graph);
  let seq = propagate ~domains:1 graph in
  check_identical "decoder tree, 2 domains" seq (propagate ~domains:2 graph);
  check_identical "decoder tree, 4 domains" seq (propagate ~domains:4 graph)

let test_parallel_identical_with_cache () =
  let graph = Workloads.fanout_tree ~fanout:2 ~depth:2 (Scenario.nand_falling ~n:3 tech) in
  (* fresh caches per run: hit patterns differ between domain counts but
     results may not *)
  let run domains =
    let cache = Stage_cache.create () in
    let analysis = propagate ~cache ~domains graph in
    (analysis, Stage_cache.stats cache)
  in
  let seq, seq_stats = run 1 in
  let par2, _ = run 2 in
  let par4, par4_stats = run 4 in
  check_identical "cached, 2 domains" seq par2;
  check_identical "cached, 4 domains" seq par4;
  Alcotest.(check bool) "repeated gates hit the cache" true
    (seq_stats.Stage_cache.hits > 0 && par4_stats.Stage_cache.hits > 0);
  Alcotest.(check bool) "fewer solves than stages" true
    (seq_stats.Stage_cache.misses < Timing_graph.num_stages graph);
  (* cached and uncached propagation agree to within the slew bucket's
     perturbation; with the bucket at 1 ps the delays stay within a few
     tenths of a picosecond *)
  let uncached = propagate ~domains:1 graph in
  Alcotest.(check bool) "bucketing perturbs arrivals by < 1 ps" true
    (Float.abs (uncached.Arrival.worst_arrival -. seq.Arrival.worst_arrival)
    < 1e-12)

let test_cache_bucketing () =
  let cache = Stage_cache.create ~slew_bucket:2e-12 () in
  Alcotest.(check (float 1e-18)) "rounds to bucket" 42e-12
    (Stage_cache.bucket_slew cache 41.3e-12);
  Alcotest.(check (float 1e-18)) "never below one bucket" 2e-12
    (Stage_cache.bucket_slew cache 0.4e-12);
  Alcotest.(check (float 0.0)) "non-positive passes through" 0.0
    (Stage_cache.bucket_slew cache 0.0);
  let model = Lazy.force table in
  let config = Tqwm_core.Config.default in
  let a = Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 tech) in
  let b =
    Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 ~load:9e-15 tech)
  in
  Alcotest.(check bool) "load changes the fingerprint" true (a <> b);
  Alcotest.(check bool) "fingerprint is deterministic" true
    (String.equal a
       (Stage_cache.fingerprint ~model ~config (Scenario.nand_falling ~n:2 tech)));
  (* the public digest is pinned: external records (the benchmark's graph
     digest among them) are built from it, so its bytes may not drift *)
  Alcotest.(check string) "nand2 digest pinned" "5249a6ecff2c9e599d5e358cd0c6a3c1"
    (Digest.to_hex a);
  Alcotest.(check string) "inverter digest pinned" "ec94064d0d6d1f25bed854c18e9c9582"
    (Digest.to_hex
       (Stage_cache.fingerprint ~model ~config (Scenario.inverter_falling tech)))

(* ---------- exact structural keys ---------- *)

let run_through cache scenarios =
  let model = Lazy.force table and config = Tqwm_core.Config.default in
  List.iter (fun s -> ignore (Stage_cache.run cache ~model ~config s)) scenarios;
  Stage_cache.stats cache

let check_counts what ~hits ~misses (stats : Stage_cache.stats) =
  Alcotest.(check (pair int int))
    (what ^ ": hits, misses")
    (hits, misses)
    (stats.Stage_cache.hits, stats.Stage_cache.misses)

let test_cache_exact_keys () =
  (* equal values built separately share no memory, yet share an entry *)
  check_counts "separately built inverters" ~hits:1 ~misses:1
    (run_through (Stage_cache.create ())
       [ Scenario.inverter_falling tech; Scenario.inverter_falling tech ]);
  (* floats are keyed by their bits: a signed zero is a different key *)
  let inv = Scenario.inverter_falling tech in
  let stage = inv.Scenario.stage in
  let with_supply_load c =
    { inv with Scenario.stage = Stage.with_load stage stage.Stage.supply c }
  in
  check_counts "load 0.0 vs -0.0" ~hits:0 ~misses:2
    (run_through (Stage_cache.create ()) [ with_supply_load 0.0; with_supply_load (-0.0) ]);
  (* [Hashtbl.hash] maps both zeros to one value, so here only the
     equality tells the two step times apart *)
  let with_step_at t0 =
    let step = Tqwm_wave.Source.step ~t0 ~low:0.0 ~high:tech.Tech.vdd () in
    { inv with Scenario.sources = [ ("a1", step) ] }
  in
  check_counts "step at 0.0 vs -0.0" ~hits:0 ~misses:2
    (run_through (Stage_cache.create ()) [ with_step_at 0.0; with_step_at (-0.0) ]);
  let rise = 20e-12 in
  check_counts "rise time one ulp apart" ~hits:0 ~misses:2
    (run_through (Stage_cache.create ())
       [
         Scenario.with_ramp_input ~rise_time:rise inv;
         Scenario.with_ramp_input ~rise_time:(Float.succ rise) inv;
       ]);
  (* the one departure from the digest: values that differ only in
     internal sharing are one key, while [fingerprint] (which serializes
     sharing) tells them apart. No builder in the library produces this. *)
  let nand = Scenario.nand_falling ~n:3 tech in
  let shared =
    match nand.Scenario.sources with
    | [ a1; (n2, s2); (n3, _) ] ->
      { nand with Scenario.sources = [ a1; (n2, s2); (n3, s2) ] }
    | _ -> Alcotest.fail "nand3 has three sources"
  in
  let model = Lazy.force table and config = Tqwm_core.Config.default in
  Alcotest.(check bool) "sharing changes the digest" false
    (String.equal
       (Stage_cache.fingerprint ~model ~config nand)
       (Stage_cache.fingerprint ~model ~config shared));
  check_counts "sharing-only difference shares an entry" ~hits:1 ~misses:1
    (run_through (Stage_cache.create ()) [ nand; shared ])

let test_cache_clear_shared () =
  let model = Lazy.force table and config = Tqwm_core.Config.default in
  let inv = Scenario.inverter_falling tech in
  let parent = Stage_cache.create () in
  let child = Stage_cache.fork parent in
  ignore (Stage_cache.run parent ~model ~config inv);
  Alcotest.(check bool) "the fork sees the parent's solve" true
    (Option.is_some (Stage_cache.peek child ~model ~config inv));
  Stage_cache.clear child;
  Alcotest.(check int) "parent table emptied" 0
    (Stage_cache.stats parent).Stage_cache.entries;
  Alcotest.(check bool) "parent peek misses" true
    (Option.is_none (Stage_cache.peek parent ~model ~config inv));
  Alcotest.(check int) "parent keeps its own use counts" 1
    (Stage_cache.uses parent ~model ~config inv);
  (* a scenario built anew after the clear still finds the old count *)
  ignore (Stage_cache.run parent ~model ~config (Scenario.inverter_falling tech));
  Alcotest.(check int) "counts survive re-keying" 2
    (Stage_cache.uses parent ~model ~config inv);
  check_counts "re-solved after the clear" ~hits:0 ~misses:2 (Stage_cache.stats parent)

(* Random graphs with random primary-input retiming, propagated on 1-4
   domains through one cache: the cache solves each distinct shaped
   scenario once, and counts every stage's request under its own key —
   distinctness measured by the public digest of the scenarios replay
   recovers. *)
let prop_cache_parity =
  let graph_gen =
    QCheck2.Gen.(
      oneof
        [
          map3
            (fun width depth seed () -> Workloads.random_stacks ~width ~depth ~seed tech)
            (int_range 1 3) (int_range 1 3) (int_range 0 50);
          map2
            (fun fanout depth () -> Workloads.decoder_tree ~fanout ~depth ~levels:1 tech)
            (int_range 1 3) (int_range 0 2);
          map (fun n () -> Workloads.chain ~n tech) (int_range 1 6);
        ])
  in
  let pi_gen =
    QCheck2.Gen.(
      list_size (int_range 0 4)
        (opt
           (map2
              (fun pi_arrival pi_slew -> { Arrival.pi_arrival; pi_slew })
              (float_range 0.0 50e-12)
              (oneofl [ -5e-12; 0.0; 10e-12; 10.2e-12; 30e-12 ]))))
  in
  QCheck2.Test.make ~name:"cache misses and uses match distinct digests" ~count:12
    QCheck2.Gen.(triple graph_gen pi_gen (int_range 1 4))
    (fun (make_graph, pi, domains) ->
      let model = Lazy.force table and config = Tqwm_core.Config.default in
      let graph = make_graph () in
      let pi = Array.of_list pi in
      let cache = Stage_cache.create () in
      let analysis = Parallel.propagate ~model ~config ~cache ~pi ~domains graph in
      let frozen = Timing_graph.freeze graph in
      let timings = Array.map Option.some analysis.Arrival.timings in
      let shaped =
        Array.init (Timing_graph.num_stages graph) (fun id ->
            let _, _, scenario =
              Arrival.replay_stage ~model ~config ~default_slew:20e-12 ~cache ~pi frozen
                timings id
            in
            scenario)
      in
      let digests = Array.map (Stage_cache.fingerprint ~model ~config) shaped in
      let sharing = Hashtbl.create 16 in
      Array.iter
        (fun d ->
          let n = Option.value (Hashtbl.find_opt sharing d) ~default:0 in
          Hashtbl.replace sharing d (n + 1))
        digests;
      Alcotest.(check int) "misses = distinct digests" (Hashtbl.length sharing)
        (Stage_cache.stats cache).Stage_cache.misses;
      Array.iteri
        (fun id scenario ->
          Alcotest.(check int)
            (Printf.sprintf "stage %d uses" id)
            (Hashtbl.find sharing digests.(id))
            (Stage_cache.uses cache ~model ~config scenario))
        shaped;
      true)

(* ---------- work-stealing chunk scheduler ---------- *)

module Metrics = Tqwm_obs.Metrics

let counter name = Option.value (Metrics.find_counter name) ~default:0

(* a synthetic stage timing whose fields are a pure function of the id,
   so any scheduling mistake (dropped, duplicated or misplaced stage)
   corrupts the result array detectably *)
let fabricated_timing id =
  {
    Arrival.id;
    arrival_in = 0.0;
    delay = float_of_int (id + 1) *. 1e-12;
    slew = 1e-12;
    arrival_out = float_of_int ((id * id) + 1) *. 1e-12;
    critical_fanin = (if id = 0 then None else Some (id - 1));
  }

let test_steal_identical_many_domains () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let seq = propagate ~domains:1 graph in
  List.iter
    (fun domains ->
      check_identical (Printf.sprintf "%d domains" domains) seq
        (propagate ~domains graph))
    [ 2; 4; 8 ]

let test_chunk_size_edges () =
  let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
  let width = Timing_graph.max_level_width (Timing_graph.freeze graph) in
  Alcotest.(check bool) "tree has a wide level" true (width > 1);
  let seq = propagate ~domains:1 graph in
  (* chunk 1 maximizes scheduling traffic; chunk = width puts a whole
     level in one deque slot; chunk > width degenerates to one chunk per
     level — all three must still be bit-identical to sequential *)
  List.iter
    (fun chunk ->
      check_identical
        (Printf.sprintf "chunk %d" chunk)
        seq
        (Parallel.propagate ~model:(Lazy.force table) ~domains:4 ~chunk graph))
    [ 1; width; width + 7 ]

let test_chunk_validation () =
  let graph = Workloads.diamond tech in
  Alcotest.check_raises "chunk 0 rejected"
    (Invalid_argument "Parallel.propagate: chunk < 1") (fun () ->
      ignore (Parallel.propagate ~model:(Lazy.force table) ~domains:2 ~chunk:0 graph));
  Alcotest.check_raises "evaluate_stages chunk 0 rejected"
    (Invalid_argument "Parallel.evaluate_stages: chunk < 1") (fun () ->
      ignore
        (Parallel.evaluate_stages ~domains:2 ~chunk:0 ~eval:fabricated_timing
           [| 0; 1 |]))

let test_steals_on_imbalance () =
  (* chunk 1 deals ids round-robin, so deque w owns ids congruent to
     w mod 4; making deque 0's stages slow guarantees workers 1..3 run
     dry while work remains there — the steal counter must move *)
  let n = 32 in
  let eval id =
    if id mod 4 = 0 then Unix.sleepf 0.005;
    fabricated_timing id
  in
  let steals0 = counter "sta.steals" and chunks0 = counter "sta.chunks" in
  let results =
    Parallel.evaluate_stages ~domains:4 ~chunk:1 ~eval (Array.init n Fun.id)
  in
  let steals = counter "sta.steals" - steals0 in
  let chunks = counter "sta.chunks" - chunks0 in
  Array.iteri
    (fun i r ->
      if r <> fabricated_timing i then Alcotest.failf "stage %d result corrupted" i)
    results;
  Alcotest.(check int) "every chunk executed exactly once" n chunks;
  Alcotest.(check bool) "imbalance forced steals" true (steals > 0)

let prop_evaluate_stages_identical =
  QCheck2.Test.make ~name:"evaluate_stages bit-identical under random costs" ~count:20
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 40) (int_range 0 3))
        (int_range 1 8) (int_range 1 6))
    (fun (costs, domains, chunk) ->
      let costs = Array.of_list costs in
      let n = Array.length costs in
      (* random per-stage costs skew the deques so steal interleavings
         vary run to run; the result may not *)
      let eval id =
        if costs.(id) > 0 then Unix.sleepf (float_of_int costs.(id) *. 2e-4);
        fabricated_timing id
      in
      let expected = Array.init n fabricated_timing in
      Parallel.evaluate_stages ~domains ~chunk ~eval (Array.init n Fun.id) = expected)

(* One graph with its sequential analyses, uncached and through a fresh
   cache; the parallel runs below must reproduce them bit for bit. *)
let random_run =
  lazy
    (let graph = Workloads.decoder_tree ~fanout:3 ~depth:2 tech in
     ( graph,
       propagate ~domains:1 graph,
       propagate ~cache:(Stage_cache.create ()) ~domains:1 graph ))

let prop_propagate_identical =
  QCheck2.Test.make
    ~name:"propagate bit-identical over random domains and chunks" ~count:12
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 6) bool)
    (fun (domains, chunk, cached) ->
      let graph, plain, with_cache = Lazy.force random_run in
      let cache = if cached then Some (Stage_cache.create ()) else None in
      check_identical
        (Printf.sprintf "%d domains, chunk %d%s" domains chunk
           (if cached then ", shared cache" else ""))
        (if cached then with_cache else plain)
        (Parallel.propagate ~model:(Lazy.force table) ?cache ~domains ~chunk graph);
      true)

(* ---------- slack over a chain ---------- *)

let test_chain_slack_identity () =
  let graph = Workloads.chain ~n:3 tech in
  let analysis = propagate ~domains:2 graph in
  let clock_period = 1e-9 in
  let report = Arrival.required graph analysis ~clock_period in
  Alcotest.(check (float 1e-15)) "worst slack = clock_period - worst_arrival"
    (clock_period -. analysis.Arrival.worst_arrival)
    report.Arrival.req_worst_slack

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "tqwm_parallel"
    [
      ( "frozen graph",
        [
          quick "level schedule" test_freeze_levels;
          quick "duplicate edge rejected" test_connect_rejects_duplicates;
        ] );
      ( "parallel engine",
        [
          slow "diamond bit-identical" test_parallel_identical_diamond;
          slow "decoder tree bit-identical" test_parallel_identical_decoder_tree;
          slow "cached runs bit-identical" test_parallel_identical_with_cache;
        ] );
      ( "work stealing",
        [
          slow "bit-identical at 2/4/8 domains, default chunk"
            test_steal_identical_many_domains;
          slow "chunk size edge cases" test_chunk_size_edges;
          quick "chunk validation" test_chunk_validation;
          slow "imbalance forces steals" test_steals_on_imbalance;
          QCheck_alcotest.to_alcotest prop_evaluate_stages_identical;
          QCheck_alcotest.to_alcotest prop_propagate_identical;
        ] );
      ( "stage cache",
        [
          quick "bucketing and fingerprints" test_cache_bucketing;
          quick "exact structural keys" test_cache_exact_keys;
          quick "clear empties the shared table" test_cache_clear_shared;
          QCheck_alcotest.to_alcotest prop_cache_parity;
        ] );
      ("slack", [ slow "chain identity" test_chain_slack_identity ]);
    ]

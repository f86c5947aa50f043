(* Seeded layered timing-graph generator, built only on the public
   Timing_graph / Scenario / Random_circuits API.

   Knobs: [levels] x [width] stages, each stage of level d > 0 driven on its
   switching input by one or two distinct stages of level d - 1. With
   [pool = None] every stage is a distinct cell (random Table II stack or a
   catalog gate with random device widths and a random load), so a stage
   cache finds almost nothing to share; with [pool = Some k] stages are
   drawn from the first k standard cells of {!standard_cells} (seeded
   device widths), each at one of [loads], so repeats dominate. The pool's
   cell kinds do not depend on the seed, so neither does its cost. *)

open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Stage_cache = Tqwm_sta.Stage_cache
module Workloads = Tqwm_sta.Workloads
module Edit = Tqwm_incr.Edit

type spec = {
  levels : int;
  width : int;
  pool : int option;
  loads : float array;  (** load set of pooled cells *)
}

type t = {
  graph : Timing_graph.t;
  stages : int;
  levels : int;
  connections : int;
  distinct_cells : int;  (** distinct (cell, load) scenarios placed *)
}

let uniform rng lo hi = lo +. ((hi -. lo) *. Random.State.float rng 1.0)

(* Scale every device of a gate by its own random factor. *)
let jitter_widths rng scenario =
  let edges = Array.length scenario.Scenario.stage.Stage.edges in
  let rec go s e =
    if e = edges then s
    else go (Edit.resize_device ~edge:e ~scale:(uniform rng 0.7 2.2) s) (e + 1)
  in
  go scenario 0

(* One random cell: a Table II stack (lengths 5-10) or a catalog gate. *)
let cell rng tech ~load =
  match Random.State.int rng 7 with
  | 0 | 1 | 2 ->
    let len = 5 + Random.State.int rng 6 in
    let s = Random_circuits.stack_scenario tech ~len ~seed:(Random.State.bits rng) in
    Edit.set_output_load ~load s
  | 3 -> jitter_widths rng (Scenario.nand_falling ~n:(2 + Random.State.int rng 3) ~load tech)
  | 4 -> jitter_widths rng (Scenario.nor_rising ~n:(2 + Random.State.int rng 2) ~load tech)
  | 5 -> jitter_widths rng (Scenario.inverter_falling ~load tech)
  | _ ->
    jitter_widths rng
      (if Random.State.bool rng then Scenario.aoi21_falling ~load tech
       else Scenario.oai21_rising ~load tech)

let standard_cells tech ~load =
  [|
    Scenario.inverter_falling ~load tech;
    Scenario.nand_falling ~n:2 ~load tech;
    Scenario.nor_rising ~n:2 ~load tech;
    Scenario.nand_falling ~n:3 ~load tech;
    Scenario.aoi21_falling ~load tech;
    Scenario.oai21_rising ~load tech;
  |]

let generate ~seed tech (spec : spec) =
  if spec.levels < 1 || spec.width < 1 then
    invalid_arg "Gen.generate: levels and width must be >= 1";
  let rng = Random.State.make [| seed; spec.levels; spec.width |] in
  let distinct = ref 0 in
  let pick_scenario =
    match spec.pool with
    | None ->
      fun () ->
        incr distinct;
        cell rng tech ~load:(uniform rng 4e-15 30e-15)
    | Some k ->
      let kinds = standard_cells tech ~load:spec.loads.(0) in
      if k < 1 || k > Array.length kinds then invalid_arg "Gen.generate: pool size";
      let cells = Array.init k (fun i -> jitter_widths rng kinds.(i)) in
      let table =
        Array.map
          (fun c -> Array.map (fun load -> Edit.set_output_load ~load c) spec.loads)
          cells
      in
      let used = Array.map (Array.map (fun _ -> false)) table in
      fun () ->
        let i = Random.State.int rng k in
        let j = Random.State.int rng (Array.length spec.loads) in
        if not used.(i).(j) then begin
          used.(i).(j) <- true;
          incr distinct
        end;
        table.(i).(j)
  in
  let graph = Timing_graph.create () in
  let layer () = Array.init spec.width (fun _ -> Timing_graph.add_stage graph (pick_scenario ())) in
  let prev = ref (layer ()) in
  for d = 1 to spec.levels - 1 do
    let current = layer () in
    Array.iteri
      (fun i id ->
        let input = Workloads.switching_input (Timing_graph.scenario graph id) in
        (* the rotated fanin keeps every previous stage feeding something;
           a second fanin is random and distinct *)
        let fanins = ref [ (i + d) mod spec.width ] in
        let want = min spec.width (1 + Random.State.int rng 2) in
        while List.length !fanins < want do
          let j = Random.State.int rng spec.width in
          if not (List.mem j !fanins) then fanins := j :: !fanins
        done;
        List.iter
          (fun j -> Timing_graph.connect graph ~from_stage:!prev.(j) ~to_stage:id ~input)
          (List.rev !fanins))
      current;
    prev := current
  done;
  {
    graph;
    stages = Timing_graph.num_stages graph;
    levels = spec.levels;
    connections = Timing_graph.num_connections graph;
    distinct_cells = !distinct;
  }

(* Pooled stages share scenario values; fingerprint each value once. *)
module Phys = Hashtbl.Make (struct
  type t = Scenario.t

  let equal = ( == )
  let hash (s : t) = Hashtbl.hash s.Scenario.name
end)

(* Digest of everything a propagation reads: each stage's canonical
   stage-cache fingerprint and its fanin edges. Two runs with equal digests
   solve the same inputs. *)
let digest ~model ~config (g : t) =
  let frozen = Timing_graph.freeze g.graph in
  let buf = Buffer.create (64 * g.stages) in
  let memo = Phys.create 64 in
  Array.iteri
    (fun id scenario ->
      let fp =
        match Phys.find_opt memo scenario with
        | Some fp -> fp
        | None ->
          let fp = Stage_cache.fingerprint ~model ~config scenario in
          Phys.replace memo scenario fp;
          fp
      in
      Buffer.add_string buf fp;
      Array.iter
        (fun (c : Timing_graph.connection) ->
          Printf.bprintf buf "<%d:%s" c.Timing_graph.from_stage c.Timing_graph.input)
        frozen.Timing_graph.fanin.(id);
      Printf.bprintf buf "|%d;" id)
    frozen.Timing_graph.scenarios;
  Digest.to_hex (Digest.string (Buffer.contents buf))

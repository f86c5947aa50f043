(* eco-daemon: a closed loop of what-if sessions against an in-process
   timing daemon. Two connections, driven from this one domain, each wait
   for every reply before sending their next request. A session loads a
   fork of the daemon's baseline (a generated graph of distinct stages),
   runs rounds of edit / report / query / slack with a k=3 timing document
   every few rounds, then closes and reconnects. Edits are seeded resizes
   and load changes with fresh values, so the edited cone really
   re-solves.

   Each epoch runs one daemon session per connection, then the same kind
   of seeded command stream fed to Script.Interp in-process (no socket):
   the reference path a library user would take. *)

open Util
module Models = Tqwm_device.Models
module Config = Tqwm_core.Config
module Timing_graph = Tqwm_sta.Timing_graph
module Stage_cache = Tqwm_sta.Stage_cache
module Arrival = Tqwm_sta.Arrival
module Server = Tqwm_server.Server
module Protocol = Tqwm_server.Protocol
module Client = Tqwm_server.Client
module Script = Tqwm_incr.Script
module Session = Tqwm_incr.Session

let graph_spec = { Gen.levels = 20; width = 16; pool = None; loads = [||] }

let workers = 2
let connections = 2
let rounds = 8
let timing_every = 4
let verbs = [ "load"; "edit"; "report"; "query"; "slack"; "timing" ]

type request = { verb : string; args : (string * Json.t) list }

type shape = {
  stages : int;
  edges : int array;  (** device count per stage *)
  sources : int array;  (** level-0 stages *)
  sinks : int array;  (** last-level stages *)
}

let shape_of graph =
  let frozen = Timing_graph.freeze graph in
  let levels = frozen.Timing_graph.levels in
  {
    stages = Timing_graph.num_stages graph;
    edges =
      Array.map
        (fun s -> Array.length s.Tqwm_circuit.Scenario.stage.Tqwm_circuit.Stage.edges)
        frozen.Timing_graph.scenarios;
    sources = levels.(0);
    sinks = levels.(Array.length levels - 1);
  }

(* One session's seeded request stream, [close] last. *)
let session_requests rng shape =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let edit () =
    let stage = Random.State.int rng shape.stages in
    let line =
      if Random.State.bool rng then
        Printf.sprintf "resize %d %d %.6f" stage
          (Random.State.int rng shape.edges.(stage))
          (0.6 +. Random.State.float rng 0.9)
      else Printf.sprintf "load %d %.6e" stage (4e-15 +. Random.State.float rng 26e-15)
    in
    { verb = "edit"; args = [ ("line", Json.String line) ] }
  in
  let round r =
    [
      edit ();
      { verb = "report"; args = [] };
      {
        verb = "query";
        args = [ ("from", Json.Int (pick shape.sources)); ("to", Json.Int (pick shape.sinks)) ];
      };
      {
        verb = "slack";
        args = [ ("clock_period_ps", Json.Float (600.0 +. Random.State.float rng 600.0)) ];
      };
    ]
    @ if r mod timing_every = 0 then [ { verb = "timing"; args = [ ("k", Json.Int 3) ] } ] else []
  in
  ({ verb = "load"; args = [] } :: List.concat_map round (List.init rounds (fun r -> r + 1)))
  @ [ { verb = "close"; args = [] } ]

(* ---------- the daemon side: two closed-loop connections on one domain ---------- *)

type conn = {
  rng : Random.State.t;
  mutable fd : Unix.file_descr option;
  mutable reader : Protocol.reader option;
  mutable todo : request list;
  mutable sent_at : float;
}

let dial path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

(* One daemon session per connection, concurrently; returns the request
   count. Every reply is timed client-side; error replies and broken
   transports count as failed. *)
let daemon_phase ~path ~shape ~latency ~attempted ~failed conns =
  let send c =
    match (c.todo, c.fd) with
    | req :: _, Some fd ->
      c.sent_at <- now ();
      ignore (Protocol.write_line fd (Json.Obj (("verb", Json.String req.verb) :: req.args)))
    | _ -> ()
  in
  let hang_up c =
    Option.iter Unix.close c.fd;
    c.fd <- None;
    c.reader <- None;
    c.todo <- []
  in
  List.iter
    (fun c ->
      let fd = dial path in
      c.fd <- Some fd;
      c.reader <- Some (Protocol.reader fd);
      c.todo <- session_requests c.rng shape;
      send c)
    conns;
  let requests = ref 0 in
  let live () = List.filter (fun c -> c.fd <> None) conns in
  while live () <> [] do
    let fds = List.filter_map (fun c -> c.fd) (live ()) in
    let ready, _, _ = Unix.select fds [] [] 30.0 in
    if ready = [] then failwith "eco-daemon: no reply within 30 s";
    List.iter
      (fun c ->
        match (c.fd, c.reader, c.todo) with
        | Some fd, Some reader, req :: rest when List.mem fd ready -> (
          incr attempted;
          incr requests;
          match Protocol.read_frame reader with
          | Protocol.Line line ->
            let dt = now () -. c.sent_at in
            let ok =
              match Json.member "ok" (Json.of_string line) with
              | Some (Json.Bool b) -> b
              | _ -> false
            in
            if not ok then incr failed;
            Keyed.add latency req.verb (dt *. 1e3);
            c.todo <- rest;
            if rest = [] then hang_up c else send c
          | Protocol.Eof | Protocol.Oversized ->
            incr failed;
            hang_up c)
        | _ -> ())
      conns
  done;
  !requests

(* ---------- the in-process reference ---------- *)

let feed_session ~tech ~model ~base ~feed_us ~attempted ~failed rng shape =
  let interp = ref None in
  let the () = Option.get !interp in
  let reqs = List.filter (fun r -> r.verb <> "close") (session_requests rng shape) in
  let int_arg r k = match List.assoc k r.args with Json.Int i -> i | _ -> assert false in
  List.iter
    (fun r ->
      incr attempted;
      match
        time (fun () ->
            Probe.span ("bench.feed." ^ r.verb) (fun () ->
                match r.verb with
                | "load" ->
                  let session = Session.fork base in
                  let out = Format.formatter_of_buffer (Buffer.create 4096) in
                  interp := Some (Script.Interp.create ~tech ~model ~session ~out ())
                | "edit" -> (
                  match List.assoc "line" r.args with
                  | Json.String line -> Script.Interp.feed (the ()) line
                  | _ -> assert false)
                | "report" -> Script.Interp.feed (the ()) "report"
                | "query" ->
                  ignore
                    (Session.query (Script.Interp.session (the ())) ~from_stage:(int_arg r "from")
                       ~to_stage:(int_arg r "to"))
                | "slack" ->
                  let ps =
                    match List.assoc "clock_period_ps" r.args with Json.Float p -> p | _ -> 1e3
                  in
                  ignore
                    (Session.required (Script.Interp.session (the ())) ~clock_period:(ps *. 1e-12))
                | "timing" ->
                  ignore
                    (Script.timing_json ?clock_period:(Script.Interp.clock_period (the ())) ~k:3
                       (Script.Interp.session (the ())))
                | v -> invalid_arg v))
      with
      | (), dt -> Keyed.add feed_us r.verb (dt *. 1e6)
      | exception _ -> incr failed)
    reqs;
  List.length reqs

(* A fixed what-if script replayed through the daemon must give documents
   byte-identical to an offline Script.run of the same text. *)
let replay_identical ~tech ~model ~addr seed =
  let script =
    Printf.sprintf
      "graph stacks 6 4 %d\nclock 800\nresize 3 0 1.35\nload 7 1.5e-14\nreport\nquery 0 20\n\
       timing 2\n"
      (seed mod 1000)
  in
  let c = Client.connect addr in
  let replayed =
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.replay ~k:2 c script)
  in
  let offline =
    Script.run ~tech ~model ~out:(Format.formatter_of_buffer (Buffer.create 256)) script
  in
  Json.to_string replayed.Client.document = Json.to_string offline.Script.json
  &&
  match replayed.Client.timing with
  | Some t ->
    Json.to_string t
    = Json.to_string
        (Script.timing_json ?clock_period:offline.Script.clock_period ~k:2 offline.Script.session)
  | None -> false

(* The daemon and the in-process baseline share their stage cache with
   every session they fork, so it grows with every edit. Both restart after
   a fixed number of epochs, which keeps peak memory a function of the work
   done, not of how fast it was done. *)
let epochs_per_daemon = 40

type daemon = {
  server : Server.t;
  path : string;
  base : Session.t;  (** in-process baseline, analysed *)
}

let start_daemon ctx ~model ~(gen : Gen.t) =
  let path =
    Filename.concat ctx.out_dir (Printf.sprintf "eco-%d-%d.sock" (Unix.getpid ()) (Random.bits ()))
  in
  (try Sys.remove path with Sys_error _ -> ());
  let server =
    Server.start ~tech:ctx.tech ~graph:gen.Gen.graph ~workers ~max_sessions:8
      (Protocol.Unix_sock path)
  in
  let base =
    Session.create ~model ~cache:(Stage_cache.create ()) (Timing_graph.copy gen.Gen.graph)
  in
  ignore (Session.analysis base);
  { server; path; base }

let run ctx =
  let (model, gen, first), setup_times =
    setup ~reps:3
      ~drop:(fun (_, _, d) -> Server.stop d.server)
      (fun () ->
        let model = Models.table ctx.tech in
        let gen = Gen.generate ~seed:ctx.seed ctx.tech graph_spec in
        ignore (Timing_graph.freeze gen.Gen.graph);
        (model, gen, start_daemon ctx ~model ~gen))
  in
  let d = ref first in
  Fun.protect
    ~finally:(fun () -> Server.stop !d.server)
    (fun () ->
      let shape = shape_of gen.Gen.graph in
      let attempted = ref 0 and failed = ref 0 in
      let latency = Keyed.create () and feed_us = Keyed.create () in
      let rpc_rate = Samples.create () and feed_rate = Samples.create () in
      let per_req_untraced = Samples.create () and per_req_traced = Samples.create () in
      let conns =
        List.init connections (fun i ->
            let rng = Random.State.make [| ctx.seed; i |] in
            { rng; fd = None; reader = None; todo = []; sent_at = 0.0 })
      in
      let feed_rng = Random.State.make [| ctx.seed; 99 |] in
      let fold = Probe.new_fold () in
      let traced_ops = ref 0.0 in
      let epoch ~record () =
        let lat = if record then latency else Keyed.create () in
        let fus = if record then feed_us else Keyed.create () in
        let rpcs, dt_rpc =
          time (fun () ->
              Probe.span "bench.daemon_phase" (fun () ->
                  daemon_phase ~path:!d.path ~shape ~latency:lat ~attempted ~failed conns))
        in
        let cmds, dt_feed =
          time (fun () ->
              Probe.span "bench.inprocess_phase" (fun () ->
                  feed_session ~tech:ctx.tech ~model ~base:!d.base ~feed_us:fus ~attempted ~failed
                    feed_rng shape))
        in
        if not record then traced_ops := !traced_ops +. float_of_int (rpcs + cmds);
        if record then begin
          Samples.add rpc_rate (float_of_int rpcs /. dt_rpc);
          Samples.add feed_rate (float_of_int cmds /. dt_feed)
        end;
        (dt_rpc +. dt_feed) /. float_of_int (rpcs + cmds)
      in
      let incr_deltas, deltas =
        Probe.with_counters (fun () ->
            let (), c =
              counter_delta [ "incr.edits"; "incr.stages_reeval"; "incr.cutoff_hits" ] (fun () ->
                  loop ~seconds:ctx.seconds (fun i ->
                      if i > 0 && i mod epochs_per_daemon = 0 then begin
                        Server.stop !d.server;
                        d := start_daemon ctx ~model ~gen;
                        Gc.full_major ()
                      end;
                      if ctx.trace && i mod 2 = 1 then
                        Samples.add per_req_traced
                          (fst
                             (Probe.traced_round fold ~keep:(trace_file ctx) (epoch ~record:false)))
                      else Samples.add per_req_untraced (epoch ~record:true ())))
            in
            c)
      in
      (* correctness: the daemon against an offline replay *)
      incr attempted;
      (match replay_identical ~tech:ctx.tech ~model ~addr:(Server.address !d.server) ctx.seed with
      | true -> ()
      | false | (exception _) -> incr failed);
      let all_latency = Array.concat (List.map (Keyed.get latency) verbs) in
      let e2e =
        e2e_common ~setup_times
          ~throughput:(median (Samples.to_array rpc_rate), Samples.to_array rpc_rate)
          ~reference:(median (Samples.to_array feed_rate), Samples.to_array feed_rate)
          ~latency_ms:(percentile all_latency 0.5, percentile all_latency 0.99, all_latency)
      in
      let layer =
        if not ctx.trace then []
        else begin
          let frozen = Timing_graph.freeze (Session.graph !d.base) in
          let timings = Array.map Option.some (Session.analysis !d.base).Arrival.timings in
          let rng = Random.State.make [| ctx.seed; 17 |] in
          let probes =
            List.init 48 (fun _ ->
                let _, _, s =
                  Arrival.replay_stage ~model:model ~config:Config.default ~default_slew:20e-12
                    ~cache:(Stage_cache.create ()) frozen timings
                    (Random.State.int rng shape.stages)
                in
                s)
          in
          let c name = float_of_int (List.assoc name incr_deltas) in
          let recompute_ms =
            Array.map (fun us -> us /. 1e3) (Keyed.get fold.Probe.durations "session")
          in
          let fork_ms =
            Array.init 20 (fun _ -> 1e3 *. snd (time (fun () -> ignore (Session.fork !d.base))))
          in
          let rpc verb = Keyed.get latency verb and feed verb = Keyed.get feed_us verb in
          Probe.layer_metrics ~tech:ctx.tech ~model:model ~config:Config.default probes
          @ Probe.solver_metrics deltas
          @ [
              metric ~value:(percentile recompute_ms 0.5) "session.recompute_ms_p50" "ms"
                recompute_ms;
              metric ~value:(percentile recompute_ms 0.99) "session.recompute_ms_p99" "ms"
                recompute_ms;
              scalar "session.stages_reeval_per_edit" "count"
                (ratio (c "incr.stages_reeval") (c "incr.edits"));
              scalar "session.cutoff_hits_per_edit" "count"
                (ratio (c "incr.cutoff_hits") (c "incr.edits"));
              metric "session.fork_ms" "ms" fork_ms;
              metric "path_enum.timing_doc_ms_p50" "ms"
                (Array.map (fun us -> us /. 1e3) (feed "timing"));
              scalar "server.transport_us_p50" "us"
                ((1e3 *. median (rpc "query")) -. median (feed "query"));
            ]
          @ List.map
              (fun v -> metric ("script.feed_us_p50." ^ v) "us" (feed v))
              [ "edit"; "report"; "query"; "slack"; "timing" ]
          @ List.concat_map
              (fun v ->
                [
                  metric ~value:(percentile (rpc v) 0.5) ("server.rpc_p50_ms." ^ v) "ms" (rpc v);
                  metric ~value:(percentile (rpc v) 0.99) ("server.rpc_p99_ms." ^ v) "ms" (rpc v);
                ])
              verbs
          @ Probe.gc_metrics ~ops:(float_of_int !attempted) deltas
          @ [
              Probe.overhead_pct ~traced:(Samples.to_array per_req_traced)
                ~untraced:(Samples.to_array per_req_untraced);
            ]
          @ Probe.self_metrics fold ~ops:!traced_ops
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
            ("stages", Json.Int gen.Gen.stages);
            ("levels", Json.Int gen.Gen.levels);
            ("graph_digest", Json.String (Gen.digest ~model:model ~config:Config.default gen));
            ("connections", Json.Int connections);
            ("workers", Json.Int workers);
          ];
      })

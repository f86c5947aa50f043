(* Static timing analysis over a multi-stage path: a decoder driving a
   Manchester carry chain through buffering gates. Each stage is evaluated
   with QWM using the upstream stage's output slew to shape its switching
   input (waveform-based propagation), and the worst path is reported.

   Also demonstrates channel-connected-component extraction: the same
   structure described as a flat transistor netlist partitions into the
   expected logic stages.

   Run with: dune exec examples/sta_flow.exe *)

open Tqwm_device
open Tqwm_circuit
module Timing_graph = Tqwm_sta.Timing_graph
module Arrival = Tqwm_sta.Arrival
module Report = Tqwm_sta.Report

let () =
  let tech = Tech.cmosp35 in
  let table = Models.table tech in

  (* stage-level timing graph *)
  let graph = Timing_graph.create () in
  let dec = Timing_graph.add_stage graph (Scenario.decoder ~levels:2 tech) in
  let buf1 = Timing_graph.add_stage graph (Scenario.inverter_falling ~load:15e-15 tech) in
  let nand = Timing_graph.add_stage graph (Scenario.nand_falling ~n:2 ~load:12e-15 tech) in
  let chain = Timing_graph.add_stage graph (Scenario.manchester ~bits:4 tech) in
  let side = Timing_graph.add_stage graph (Scenario.nor_rising ~n:2 ~load:8e-15 tech) in
  Timing_graph.connect graph ~from_stage:dec ~to_stage:buf1 ~input:"a1";
  Timing_graph.connect graph ~from_stage:buf1 ~to_stage:nand ~input:"a1";
  Timing_graph.connect graph ~from_stage:nand ~to_stage:chain ~input:"g0";
  Timing_graph.connect graph ~from_stage:buf1 ~to_stage:side ~input:"a1";

  let analysis = Arrival.propagate ~model:table graph in
  Report.print Format.std_formatter graph analysis;

  (* required times and slack against a 300 ps cycle *)
  let clock_period = 300e-12 in
  let slack = Arrival.required graph analysis ~clock_period in
  Printf.printf "\nslack at %.0f ps clock:\n" (clock_period *. 1e12);
  Array.iteri
    (fun id t ->
      Printf.printf "  %-14s required %7.2f ps  slack %+7.2f ps%s\n"
        (Timing_graph.scenario graph id).Scenario.name
        (slack.Arrival.req.(id) *. 1e12)
        (slack.Arrival.req_slack.(id) *. 1e12)
        (if slack.Arrival.req_slack.(id) < 0.0 then "  << VIOLATION" else "");
      ignore t)
    analysis.Arrival.timings;
  Printf.printf "worst slack: %+.2f ps\n" (slack.Arrival.req_worst_slack *. 1e12);

  (* channel-connected components of a two-inverter netlist *)
  let b = Netlist.create () in
  let a = Netlist.add_node b "a" in
  let x = Netlist.add_node b "x" in
  let y = Netlist.add_node b "y" in
  let wn = tech.Tech.w_min and wp = 2.0 *. tech.Tech.w_min in
  Netlist.add_transistor b (Device.nmos ~w:wn tech) ~gate:a ~src:x ~snk:(Netlist.ground b);
  Netlist.add_transistor b (Device.pmos ~w:wp tech) ~gate:a ~src:(Netlist.supply b) ~snk:x;
  Netlist.add_transistor b (Device.nmos ~w:wn tech) ~gate:x ~src:y ~snk:(Netlist.ground b);
  Netlist.add_transistor b (Device.pmos ~w:wp tech) ~gate:x ~src:(Netlist.supply b) ~snk:y;
  Netlist.mark_primary_input b a;
  Netlist.mark_primary_output b y;
  let net = Netlist.finish b in
  let extraction = Ccc.extract ~gate_load:(fun d -> Capacitance.gate tech ~w:d.Device.w ~l:d.Device.l) net in
  Printf.printf "\nnetlist partition: %d channel-connected components\n"
    (Array.length extraction.Ccc.instances);
  Array.iter
    (fun inst ->
      Printf.printf "  component %d: %d edges, inputs {%s}\n" inst.Ccc.component
        (Array.length inst.Ccc.stage.Stage.edges)
        (String.concat ", " (List.map fst inst.Ccc.input_nets)))
    extraction.Ccc.instances

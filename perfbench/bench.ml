(* Benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one seeded workload for S seconds, prints a table of every metric
   (unit, sample count, median, highest percentile with >= 10 samples
   beyond it), writes the full record to .bench_out/, and prints as its
   last line the result object: correctness, attempted and failed
   operations, and the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1) named in BENCHMARK.json. *)

open Util

let workloads =
  [
    ("paper-stages", Paper.run);
    ("sta-reuse", Sta.run);
    ("eco-daemon", Eco.run);
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

(* The metric list of BENCHMARK.json: (name, unit) pairs of one section. *)
let spec_metrics spec section =
  match Json.member section spec with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match (Json.member "name" m, Json.member "unit" m) with
        | Some (Json.String n), Some (Json.String u) -> (n, u)
        | _ -> die "BENCHMARK.json: malformed %s entry" section)
      ms
  | _ -> die "BENCHMARK.json: no %s list" section

let spec_workloads spec =
  match Json.member "workloads" spec with
  | Some (Json.List ws) ->
    List.filter_map
      (fun w -> match Json.member "name" w with Some (Json.String n) -> Some n | _ -> None)
      ws
  | _ -> die "BENCHMARK.json: no workloads list"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let fmt_value v =
  let a = Float.abs v in
  if v = 0.0 then "0"
  else if a >= 1e5 || a < 1e-3 then Printf.sprintf "%.4g" v
  else Printf.sprintf "%.4f" v

let print_table title (ms : metric list) =
  Printf.printf "\n%s\n%-40s %-7s %6s %12s %12s %22s\n" title "metric" "unit" "n" "value" "raw p50"
    "raw tail";
  List.iter
    (fun m ->
      let tail =
        match tail_percentile m.samples with
        | Some (p, v) when Array.length m.samples > 1 ->
          Printf.sprintf "p%g=%s" (100.0 *. p) (fmt_value v)
        | _ -> "-"
      in
      let p50 = if Array.length m.samples = 0 then "-" else fmt_value (median m.samples) in
      Printf.printf "%-40s %-7s %6d %12s %12s %22s\n" m.name m.unit_ (Array.length m.samples)
        (fmt_value m.value) p50 tail)
    ms

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
    ]
    (fun a -> die "unexpected argument %S" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    try Json.of_string (read_file "BENCHMARK.json")
    with Sys_error e | Json.Parse_error e -> die "cannot read BENCHMARK.json: %s" e
  in
  if not (List.mem !workload (spec_workloads spec)) then
    die "unknown workload %S (BENCHMARK.json names: %s)" !workload
      (String.concat ", " (spec_workloads spec));
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> die "workload %S is named in BENCHMARK.json but not implemented" !workload
  in
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  let out_dir = ".bench_out" in
  mkdir_p out_dir;
  let ctx =
    {
      tech = Tqwm_device.Tech.cmosp35;
      seed = !seed;
      seconds = float_of_int !seconds;
      trace = traced;
      out_dir;
      workload = !workload;
    }
  in
  let host =
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("dune_profile", Json.String Build_info.profile);
      ( "commit",
        Json.String (if Sys.file_exists ".git" then Tqwm_obs.Vcs.commit () else "unknown") );
      ("workload", Json.String !workload);
      ("seed", Json.Int !seed);
      ("seconds", Json.Int !seconds);
      ("trace", Json.Bool traced);
    ]
  in
  let o = run ctx in
  (* the reported section must match BENCHMARK.json exactly: every named
     metric present with its unit; per-layer metrics a workload does not
     exercise read 0 *)
  let section = if traced then "per_layer" else "end_to_end" in
  let wanted = spec_metrics spec section in
  let produced = if traced then o.layer else o.e2e in
  List.iter
    (fun m ->
      match List.assoc_opt m.name wanted with
      | Some u when u = m.unit_ -> ()
      | Some u -> die "metric %s: unit %s, BENCHMARK.json says %s" m.name m.unit_ u
      | None -> die "metric %s is not named in BENCHMARK.json %s" m.name section)
    produced;
  let reported =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) produced with
        | Some m -> m
        | None when traced -> { name; unit_; value = 0.0; samples = [||] }
        | None -> die "end-to-end metric %s was not measured" name)
      wanted
  in
  List.iter
    (fun m -> if not (Float.is_finite m.value) then die "metric %s is not finite" m.name)
    reported;
  Printf.printf "tqwm benchmark: %s\n" (Json.to_string (Json.Obj host));
  List.iter
    (fun (k, v) ->
      match v with
      | Json.List rows ->
        Printf.printf "  %s:\n" k;
        List.iter (fun r -> Printf.printf "    %s\n" (Json.to_string r)) rows
      | v -> Printf.printf "  %s: %s\n" k (Json.to_string v))
    o.facts;
  if not traced then print_table "end-to-end" o.e2e
  else begin
    print_table "per-layer" reported;
    Printf.printf "\nself time by layer (all lanes; main lane sums to its wall time)\n";
    List.iter
      (fun (l, ms, share) -> Printf.printf "  %-12s %10.1f ms %6.1f%%\n" l ms (100.0 *. share))
      o.self_table;
    Printf.printf "chrome trace: %s\n" (trace_file ctx)
  end;
  let json_metric m =
    Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
  in
  let record =
    Json.Obj
      [
        ("host", Json.Obj host);
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ("facts", Json.Obj o.facts);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.Float m.value);
                       ("unit", Json.String m.unit_);
                       ("samples", Json.Int (Array.length m.samples));
                       ( "sample_values",
                         Json.List (Array.to_list (Array.map (fun v -> Json.Float v) m.samples)) );
                     ] ))
               (o.e2e @ reported)) );
        ( "self_time",
          Json.Obj
            (List.map
               (fun (l, ms, share) ->
                 (l, Json.Obj [ ("ms", Json.Float ms); ("share", Json.Float share) ]))
               o.self_table) );
      ]
  in
  Json.write_file
    (Filename.concat out_dir (Printf.sprintf "result-%s-%d-t%d.json" !workload !seed !trace))
    record;
  Printf.printf "attempted %d, failed %d\n" o.attempted o.failed;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj (List.map (fun m -> (m.name, json_metric m)) reported));
          ]))

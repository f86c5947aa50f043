(* Timing, order statistics, process facts and the result record shared by
   every workload. *)

module Json = Tqwm_obs.Json

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [p] in [0, 1]. *)
let rank n p = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan else (sorted xs).(rank n p)

let median xs = percentile xs 0.5

(* The highest of the usual percentiles that still has at least ten
   samples above it; [None] when even the median has fewer. *)
let tail_percentile xs =
  let s = sorted xs in
  let n = Array.length s in
  List.find_map
    (fun p -> if n - 1 - rank n p >= 10 then Some (p, s.(rank n p)) else None)
    [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

let sum = Array.fold_left ( +. ) 0.0

let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let geomean xs =
  if Array.length xs = 0 then 0.0
  else exp (sum (Array.map log xs) /. float_of_int (Array.length xs))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Per-key sample buffers (per-verb latencies and the like). *)
module Keyed = struct
  type t = (string, Samples.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let add (t : t) key v =
    let s =
      match Hashtbl.find_opt t key with
      | Some s -> s
      | None ->
        let s = Samples.create () in
        Hashtbl.replace t key s;
        s
    in
    Samples.add s v

  let get (t : t) key =
    match Hashtbl.find_opt t key with Some s -> Samples.to_array s | None -> [||]
end

(* Peak resident set size of this process in MiB (VmHWM): Bigarray slabs
   live outside the OCaml heap, so GC statistics alone would miss them. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let counter name = Option.value (Tqwm_obs.Metrics.find_counter name) ~default:0

(* Counter deltas over a stretch of work. *)
let counter_delta names f =
  let before = List.map (fun n -> (n, counter n)) names in
  let r = f () in
  (r, List.map (fun (n, v0) -> (n, counter n - v0)) before)

(* One metric of a run: its raw samples (one per measured unit of work)
   and the value reported. *)
type metric = { name : string; unit_ : string; value : float; samples : float array }

let metric ?value name unit_ samples =
  let value = match value with Some v -> v | None -> median samples in
  { name; unit_; value; samples }

let scalar name unit_ value = { name; unit_; value; samples = [| value |] }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;
  layer : metric list;  (** empty unless the run is traced *)
  facts : (string * Json.t) list;  (** workload records: graph digest, counts, derived figures *)
  self_table : (string * float * float) list;  (** layer, self ms, share *)
}

(* The end-to-end metrics every workload reports. Each [(value, raw)] pair
   is the reported value and the raw per-unit samples behind it. *)
let e2e_common ~setup_times ~throughput:(tv, traw) ~reference:(rv, rraw)
    ~latency_ms:(p50, p99, lraw) =
  [
    metric "setup_s" "s" setup_times;
    scalar "peak_rss_mb" "MiB" (peak_rss_mb ());
    metric ~value:tv "throughput_per_s" "1/s" traw;
    metric ~value:rv "reference_per_s" "1/s" rraw;
    metric ~value:p50 "latency_p50_ms" "ms" lraw;
    metric ~value:p99 "latency_p99_ms" "ms" lraw;
  ]

let minimum xs = Array.fold_left Float.min infinity xs

type ctx = {
  tech : Tqwm_device.Tech.t;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;  (** where result files and Chrome traces go *)
  workload : string;
}

let trace_file ctx =
  Filename.concat ctx.out_dir (Printf.sprintf "trace-%s-%d.json" ctx.workload ctx.seed)

(* Set up at least [reps] times and until half a second has gone (at most
   50 times), keeping the last state; [drop] releases the others. Returns
   the state and the per-repetition set-up times. *)
let setup ?(drop = ignore) ~reps f =
  let times = Samples.create () in
  let t0 = now () in
  let rec go i =
    let state, dt = time f in
    Samples.add times dt;
    if i >= 50 || (i >= reps && now () -. t0 >= 0.5) then state
    else begin
      drop state;
      go (i + 1)
    end
  in
  let state = go 1 in
  (state, Samples.to_array times)

(* Run [round i] for i = 0, 1, ... until [seconds] have elapsed, at least
   twice (a traced run needs one traced and one untraced round). *)
let loop ~seconds round =
  let t0 = now () in
  let i = ref 0 in
  while !i < 2 || now () -. t0 < seconds do
    round !i;
    incr i
  done

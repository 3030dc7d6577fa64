(* Sample statistics and the report: one human-readable line per metric,
   then the JSON result as the last line of standard output. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l = pct (sorted l) 0.5

let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let info = ref []

(* A line for the human-readable part of the report. *)
let note fmt = Printf.ksprintf (fun s -> info := s :: !info) fmt

type metric = { name : string; value : float; unit : string }

let metrics : metric list ref = ref []
let metric name unit value = metrics := { name; value; unit } :: !metrics

(* Latency of the workload's operation, in milliseconds: the median is
   the metric; mean and tail are noted. A tail percentile is not a
   metric: on a shared host it follows the host's stalls more than the
   program (see README.md). *)
let latency samples_s =
  let a = sorted (List.map (fun s -> s *. 1000.0) samples_s) in
  let n = Array.length a in
  metric "op_p50_ms" "ms" (pct a 0.5);
  note "op latency: %d samples, p50 %.4f ms, mean %.4f ms, p90 %.4f ms, p95 %.4f ms, p99 %.4f ms, max %.4f ms"
    n (pct a 0.5)
    (mean (Array.to_list a))
    (pct a 0.90) (pct a 0.95) (pct a 0.99)
    (if n > 0 then a.(n - 1) else nan)

(* A metric that is not a finite number (an empty sample, a failed read)
   fails the run; it is never printed as a value. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else failwith "a metric is not a finite number"

let print ~correct ~attempted ~failed =
  List.iter print_endline (List.rev !info);
  let ms = List.rev !metrics in
  List.iter (fun m -> Printf.printf "metric %s = %s %s\n" m.name (json_num m.value) m.unit) ms;
  Printf.printf "error_rate = %.17g (failed %d of %d attempted)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_num m.value) m.unit) ms))

(* Summaries of latency samples and the result line.

   A percentile is named in basis points (5000 = p50, 9900 = p99). A
   tail is reported only where at least ten samples lie beyond it, so a
   p99 needs at least 1000 samples. *)

let supports ~n ~bp = n * (10_000 - bp) >= 10 * 10_000

(* Nearest rank over an ascending array. *)
let rank_value sorted ~bp =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.rank_value: no samples";
  let rank = ((n * bp) + 9_999) / 10_000 in
  sorted.(max 1 rank - 1)

let median sorted = rank_value sorted ~bp:5_000

let tail sorted ~bp =
  let n = Array.length sorted in
  if not (supports ~n ~bp) then
    invalid_arg
      (Printf.sprintf "Stats.tail: p%g needs %d samples, have %d"
         (float_of_int bp /. 100.)
         (100_000 / (10_000 - bp))
         n);
  rank_value sorted ~bp

(* The highest percentile of the ladder the sample count supports. *)
let ladder = [ 9_999; 9_990; 9_900; 9_000; 5_000 ]

let highest_tail sorted =
  let n = Array.length sorted in
  List.find_opt (fun bp -> supports ~n ~bp) ladder
  |> Option.map (fun bp -> (bp, rank_value sorted ~bp))

let sorted_of (a : float array) =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Metric names and units follow the result-line grammar. *)
let valid_name s =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '-'
  in
  let alnum c = ok c && c <> '_' && c <> '.' && c <> '-' in
  String.length s >= 1
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all ok s

type metric = { name : string; value : float; unit_ : string }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name) then
        invalid_arg ("Stats.result_line: bad metric name " ^ m.name);
      if not (Float.is_finite m.value) then
        invalid_arg ("Stats.result_line: non-finite value for " ^ m.name))
    metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

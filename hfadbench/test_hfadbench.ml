(* The benchmark's own checks: the tail rule, the metric-name grammar,
   and a tiny run of every workload passing its output checks. *)

open Hfadbench

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let test_tail_rule () =
  let sorted n = Array.init n (fun i -> float_of_int (i + 1)) in
  expect "p99 needs 1000 samples" (not (Stats.supports ~n:999 ~bp:9_900));
  expect "p99 with 1000 samples" (Stats.supports ~n:1000 ~bp:9_900);
  expect "p99.9 needs 10000 samples" (not (Stats.supports ~n:9_999 ~bp:9_990));
  (* Ten samples lie beyond the reported p99 of 1000. *)
  expect "p99 of 1..1000 is 990" (Stats.tail (sorted 1000) ~bp:9_900 = 990.0);
  expect "p99 refused below 1000"
    (match Stats.tail (sorted 999) ~bp:9_900 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  expect "highest tail of 999 is p90"
    (Stats.highest_tail (sorted 999) = Some (9_000, 900.0));
  expect "median of 1..5" (Stats.median (sorted 5) = 3.0)

let test_names () =
  List.iter
    (fun (name, _, _, _) -> expect ("per-layer name " ^ name) (Stats.valid_name name))
    Harness.per_layer_table;
  List.iter
    (fun bad -> expect ("rejects " ^ bad) (not (Stats.valid_name bad)))
    [ ""; "_x"; "a b"; "a/b"; String.make 65 'a' ]

(* Tiny sizes cannot support the p99 tails, so the end-to-end metrics
   are left to full runs; the output checks and the traced run's
   per-layer metrics are exercised here. *)
let test_tiny_runs () =
  List.iter
    (fun (w : Harness.workload) ->
      List.iter
        (fun trace ->
          let outs = Harness.run_epochs w ~tiny:true ~seed:7 ~seconds:0.0 ~trace in
          let what = Printf.sprintf "%s trace=%b" w.name trace in
          List.iter
            (fun (o : Harness.epoch_out) ->
              expect (what ^ " ops attempted") (o.r.attempted > 0);
              expect
                (what ^ " no failed op: " ^ String.concat "; " o.r.errors)
                (o.r.failed = 0))
            outs;
          if trace then begin
            let rows = Harness.per_layer w outs in
            List.iter
              (fun (name, v, _) ->
                expect (what ^ " finite " ^ name) (Float.is_finite v))
              rows;
            expect (what ^ " every per-layer metric")
              (List.map (fun (n, _, _) -> n) rows
              = List.map (fun (n, _, _, _) -> n) Harness.per_layer_table)
          end)
        [ false; true ])
    Harness.workloads

let () =
  Remote.child_main ();
  test_tail_rule ();
  test_names ();
  test_tiny_runs ();
  if !failures > 0 then exit 1

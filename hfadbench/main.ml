(* The repository benchmark's entry point:

     main.exe --workload naming|ingest|wire --seed N --seconds S --trace 0|1

   It prints a summary and, as its last line, one JSON object with the
   run's correctness, op counts and metrics: end-to-end metrics when
   --trace is 0, per-layer metrics when it is 1. *)

let () =
  Hfadbench.Remote.child_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " naming | ingest | wire");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 1 = traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match Hfadbench.Harness.find_workload !workload with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w ->
      let trace = !trace = 1 in
      let trace_file =
        if trace then
          Some (Printf.sprintf "hfadbench-%s-seed%d.trace.json" w.name !seed)
        else None
      in
      let correct, attempted, failed, metrics =
        Hfadbench.Harness.run ?trace_file w ~seed:!seed ~seconds:!seconds ~trace
      in
      print_endline
        (Hfadbench.Stats.result_line ~correct ~attempted ~failed metrics)

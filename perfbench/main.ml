(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the workload untraced and prints its end-to-end
   metrics.  --trace 1 runs it untraced (for the overhead baseline), then
   again with the engine tracer on and the benchmark's own spans around
   every layer call, and prints the per-layer ledger.  The last line of
   standard output is one JSON object:
     {"correct": b, "attempted": n, "failed": n,
      "metrics": {"<name>": {"value": v, "unit": u}, ...}}
   The ledger table and a sample of raw spans go to perfbench/out. *)

module J = Imdb_obs.Json

let workloads =
  [
    ("update_stream", Update_stream.run);
    ("history_read", History_read.run);
    ("sql_mixed", Sql_mixed.run);
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_e2e ~workload (o : Common.outcome) =
  Printf.printf "== %s: end-to-end metrics ==\n" workload;
  Printf.printf "%-20s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (m : Common.metric) ->
      Printf.printf "%-20s %16.4f %-8s %s\n" m.name m.value m.unit_
        (if m.samples > 0 then string_of_int m.samples else ""))
    o.e2e

let print_outcome (o : Common.outcome) =
  Printf.printf "attempted %d, failed %d\n" o.tally.attempted o.tally.failed;
  List.iter (fun e -> Printf.printf "  failure: %s\n" e) (List.rev o.tally.errors);
  List.iter (fun (g, ok) -> Printf.printf "guard %-45s %s\n" g (if ok then "ok" else "FAILED")) o.guards

let passed (o : Common.outcome) = o.tally.failed = 0 && List.for_all snd o.guards

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of update_stream, history_read, sql_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S how long a run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> die ("unknown workload '" ^ !workload ^ "'; " ^ usage)
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  let seed = !seed and seconds = !seconds in
  let correct, attempted, failed, metrics =
    if !trace = 0 then begin
      let o = run ~seed ~seconds in
      print_e2e ~workload:!workload o;
      print_outcome o;
      (passed o, o.tally.attempted, o.tally.failed, List.map (fun (m : Common.metric) -> (m.name, m.value, m.unit_)) o.e2e)
    end
    else begin
      let base = run ~seed ~seconds in
      print_outcome base;
      Gc.compact ();
      Ledger.on := true;
      Ledger.reset ();
      let o = run ~seed ~seconds in
      print_outcome o;
      match o.ledger with
      | None -> die "the traced pass produced no ledger"
      | Some l ->
          let l =
            {
              l with
              Ledger.overhead_pct = 100.0 *. ((base.ops_s /. o.ops_s) -. 1.0);
              top_heap_mb = Common.top_heap_mb ();
            }
          in
          let table = Ledger.table ~workload:!workload l in
          print_string table;
          let out = Filename.concat "perfbench" "out" in
          mkdir_p out;
          write_file (Filename.concat out ("ledger_" ^ !workload ^ ".txt")) table;
          Ledger.dump_spans (Filename.concat out ("spans_" ^ !workload ^ ".tsv"));
          ( passed base && passed o,
            base.tally.attempted + o.tally.attempted,
            base.tally.failed + o.tally.failed,
            Ledger.metrics l )
    end
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "some metric is not a finite number";
  let doc =
    J.Obj
      [
        ("correct", J.Bool (correct && finite));
        ("attempted", J.Int (max 1 attempted));
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, v, u) ->
                 (name, J.Obj [ ("value", J.Float (if Float.is_finite v then v else 0.0)); ("unit", J.String u) ]))
               metrics) );
      ]
  in
  print_endline (J.to_string doc)

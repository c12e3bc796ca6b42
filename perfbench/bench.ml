(* The repository's benchmark. One run: one workload, one seed, a timed
   phase of --seconds, every answer checked; the last line of stdout is
   the JSON result. With --trace 1 the run reports per-layer metrics
   instead of end-to-end ones and writes its spans to
   <work-dir>/trace-<workload>-<seed>.jsonl. See README.md here. *)

let usage =
  "bench.exe --workload serve_pipelined|batch_lookup_mem|file_mixed --seed N \
   --seconds S --trace 0|1 [--server PATH] [--work-dir DIR] [--smoke]"

(* pdm-lint: allow R2 — creates the scratch directory the run writes to;
   no simulated result depends on it *)
let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let server = ref "_build/default/bin/pdm_serve.exe" and work_dir = ref ".perfbench" in
  let smoke = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server", Arg.Set_string server, "PATH pdm-serve executable");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch files and trace output");
      ("--smoke", Arg.Set smoke, " small populations, for a quick self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if not (Sys.file_exists !work_dir) then Unix.mkdir !work_dir 0o755;
  let traced = !trace = 1 in
  let inproc spec =
    Inproc.run
      (if !smoke then Inproc.smoke spec else spec)
      ~seed:!seed ~seconds:!seconds ~trace:traced ~work_dir:!work_dir
  in
  let checks, attempted, failed, values, notes =
    match !workload with
    | "serve_pipelined" ->
      let spec = Serve.serve_pipelined in
      Serve.run ~exe:!server
        (if !smoke then Serve.smoke spec else spec)
        ~seed:!seed ~seconds:!seconds ~trace:traced
    | "batch_lookup_mem" -> inproc Inproc.batch_lookup_mem
    | "file_mixed" -> inproc Inproc.file_mixed
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  List.iter print_endline notes;
  List.iter
    (fun (what, ok) -> Printf.printf "check %s: %s\n" (if ok then "ok" else "FAILED") what)
    checks;
  if traced then
    Span.write
      (Filename.concat !work_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed));
  let correct = List.for_all snd checks in
  print_endline
    (Measure.result_line ~correct ~attempted ~failed (Report.metrics ~trace:traced values))

(* The in-process workloads: one daemon shard stack ([Stack]) driven in
   64-request batches from this thread.

   batch_lookup_mem: memory disks, 95% lookups, Zipf 1.1 over 65536
   keys. file_mixed: the file backend on the page cache, 50% lookups,
   uniform over 4096 keys; after its timed phase, an untimed journaled
   segment on files checks the journal (barriers, reopen + recover) and
   gives the per-layer barrier figures. The journal is not timed because
   its fsync barriers make a run's throughput follow the host disk's
   flush time, which swung 2x between runs.

   Each batch is checked against the model under the engine's rule that
   a batch's updates apply, in submission order, before its lookups. *)

module Engine = Pdm_engine.Engine
module Opd = Pdm_dictionary.One_probe_dynamic
module Data_plane = Pdm_server.Data_plane
module Store = Pdm_io.Store

type spec = {
  name : string;
  population : int;
  lookup_pct : int;
  zipf : float option;
  file : bool;        (** disks are files (the [file] backend) *)
  journaled : bool;   (** updates go through the write-ahead journal *)
  prefix_batches : int;
      (** rounds_per_op and blocks_per_op are counted over this many
          leading batches of the timed phase, so they repeat exactly for
          a seed; peak RSS is read at their end, so it does not follow
          throughput *)
}

let batch_lookup_mem =
  { name = "batch_lookup_mem"; population = 65536; lookup_pct = 95;
    zipf = Some 1.1; file = false; journaled = false; prefix_batches = 512 }

let file_mixed =
  { name = "file_mixed"; population = 4096; lookup_pct = 50; zipf = None;
    file = true; journaled = false; prefix_batches = 64 }

(* The journaled segment after file_mixed's timed phase: [prefix_batches]
   batches on a fresh journaled stack. *)
let journal_segment =
  { name = "journal"; population = 512; lookup_pct = 50; zipf = None;
    file = true; journaled = true; prefix_batches = 8 }

let smoke spec =
  { spec with population = spec.population / 16; prefix_batches = spec.prefix_batches / 8 }

let batch = 64

(* Data_plane.default_config geometry, one shard holding the whole
   population. *)
let plane spec =
  { Data_plane.default_config with
    Data_plane.shard_capacity = spec.population; max_batch = batch }

type setup = { stack : Stack.t; work : Workload.t; dir : string option }

let factory_for dir = Store.factory (Store.spec ~dir Store.File)

let open_stack spec dir =
  Stack.create ~journaled:spec.journaled ?factory:(Option.map factory_for dir)
    (plane spec) ~shard:0

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

(* An outcome is right when it answers the request submitted at its
   position with the model's value. Returns the number of wrong ones. *)
let wrong_answers work reqs (outs : Engine.outcome list) =
  if List.length outs <> List.length reqs then List.length reqs
  else
    List.fold_left2
      (fun bad req (o : Engine.outcome) ->
        let want =
          match req with
          | Engine.Lookup k -> Workload.expected_lookup work k
          | r -> Workload.expected_update r
        in
        if o.Engine.request = req && Option.equal Bytes.equal o.Engine.value want then bad
        else bad + 1)
      0 reqs outs

(* pdm-lint: allow R2 — creates a file-backed stack's disk directory; the
   program's results do not depend on it *)
let build spec ~seed ~dir =
  Option.iter
    (fun d ->
      Store.cleanup_dir d;
      Unix.mkdir d 0o700)
    dir;
  let work =
    Workload.create ~seed ~population:spec.population ~lookup_pct:spec.lookup_pct
      ?zipf:spec.zipf ()
  in
  let stack = open_stack spec dir in
  List.iter
    (fun reqs ->
      if wrong_answers work reqs (Stack.run stack reqs) > 0 then
        failwith (spec.name ^ ": preload insert answered wrongly"))
    (chunks batch (Workload.preload work));
  { stack; work; dir }

(* --- timed phase ---------------------------------------------------- *)

type phase = {
  mutable batches : int;
  mutable ops : int;
  mutable updates : int;
  mutable failed : int;
  mutable cpu_s : float;
  slices : Measure.Slices.t;
  batch_us : Measure.Samples.t;
  get_us : Measure.Samples.t;
  update_us : Measure.Samples.t;
}

let new_phase () =
  { batches = 0; ops = 0; updates = 0; failed = 0; cpu_s = 0.;
    slices = Measure.Slices.create (Measure.now_ns ());
    batch_us = Measure.Samples.create (); get_us = Measure.Samples.create ();
    update_us = Measure.Samples.create () }

(* Run whole batches until [until] (and at least [min_batches]);
   [on_batch] sees each batch's requests and outcomes after they are
   checked. *)
let run_phase setup ~until ~min_batches ~on_batch =
  let ph = new_phase () in
  while ph.batches < min_batches || Measure.now_ns () < until do
    let reqs = List.init batch (fun _ -> Workload.next setup.work) in
    let c0 = Measure.self_cpu_s () in
    let t0 = Measure.now_ns () in
    let outs = Stack.run setup.stack reqs in
    let t1 = Measure.now_ns () in
    ph.cpu_s <- ph.cpu_s +. (Measure.self_cpu_s () -. c0);
    let us = float_of_int (t1 - t0) /. 1e3 in
    Measure.Slices.add ph.slices ~now:t1 ~ops:batch ~busy_ns:(t1 - t0);
    Measure.Samples.add ph.batch_us us;
    List.iter
      (fun r ->
        if Workload.is_update r then begin
          ph.updates <- ph.updates + 1;
          Measure.Samples.add ph.update_us us
        end
        else Measure.Samples.add ph.get_us us)
      reqs;
    ph.failed <- ph.failed + wrong_answers setup.work reqs outs;
    ph.batches <- ph.batches + 1;
    ph.ops <- ph.ops + batch;
    on_batch ph reqs outs
  done;
  ph

(* --- checks after the timed phase --------------------------------- *)

(* Reopen the journal's directory in a fresh dictionary, recover, and
   compare every population key with the model. The page cache is
   intact, so this checks what the files hold, not that it was flushed. *)
let reopen_agrees spec setup =
  match setup.dir with
  | None -> true
  | Some dir ->
    let fresh = open_stack spec (Some dir) in
    ignore (Opd.recover fresh.Stack.dict);
    Array.for_all
      (fun k ->
        Option.equal Bytes.equal (Opd.find fresh.Stack.dict k)
          (Workload.expected_lookup setup.work k))
      setup.work.Workload.keys

let rounds_and_blocks (l0 : Stack.ledger) (l1 : Stack.ledger) =
  (l1.Stack.rounds - l0.Stack.rounds,
   l1.Stack.engine.Engine.blocks_fetched - l0.Stack.engine.Engine.blocks_fetched)

(* --- the run --------------------------------------------------------- *)

(* The rounds and blocks [n] batches drawn from [setup]'s stream cost,
   with their answers. *)
let run_prefix setup n =
  let l0 = Stack.ledger setup.stack in
  let answers =
    List.init n (fun _ ->
        let reqs = List.init batch (fun _ -> Workload.next setup.work) in
        List.map (fun (o : Engine.outcome) -> o.Engine.value) (Stack.run setup.stack reqs))
  in
  (rounds_and_blocks l0 (Stack.ledger setup.stack), answers)

(* Run [journal_segment] on files: every update that wrote must have
   seen a backend barrier, and a reopened, recovered dictionary must
   agree with the model on every key. With [trace], its spans give the
   barrier figures (the timed phase has no barriers). *)
let journal_check ~seed ~trace ~work_dir =
  let spec = journal_segment in
  let s = build spec ~seed ~dir:(Some (Filename.concat work_dir "journal")) in
  Span.enabled := trace;
  let ph =
    run_phase s ~until:(Measure.now_ns ()) ~min_batches:spec.prefix_batches
      ~on_batch:(fun _ _ _ -> ())
  in
  Span.enabled := false;
  let io = s.stack.Stack.io in
  let barriers_ok = io.Stack.unbarriered_updates = 0 && io.Stack.written_updates > 0 in
  let reopen_ok = reopen_agrees spec s in
  Option.iter Store.cleanup_dir s.dir;
  let barrier_values =
    [ ("io.barrier_us",
       Stack.ratio (Report.ns_to_us (Span.total_ns "io.barrier"))
         (float_of_int (Span.count "io.barrier")));
      ("io.barriers_per_update",
       Stack.ratio (float_of_int (Span.count "io.barrier")) (float_of_int ph.updates)) ]
  in
  (ph, [ ("every journaled update reached a backend barrier", barriers_ok);
         ("reopened, recovered journal agrees with the model on every key", reopen_ok) ],
   barrier_values)

let run spec ~seed ~seconds ~trace ~work_dir =
  let dir k =
    if spec.file then Some (Filename.concat work_dir (Printf.sprintf "%s-%d" spec.name k))
    else None
  in
  let timed_build k =
    let t0 = Measure.now_ns () in
    let s = build spec ~seed ~dir:(dir k) in
    (s, Measure.seconds_since t0)
  in
  let discard s =
    Option.iter Store.cleanup_dir s.dir;
    Gc.compact ()
  in
  (* Three identical set-ups from the seed, one alive at a time. The
     second runs the counted prefix first, as the twin the measured
     third one must match exactly. *)
  let first, setup1 = timed_build 1 in
  discard first;
  let twin, setup2 = timed_build 2 in
  let twin_prefix = run_prefix twin spec.prefix_batches in
  discard twin;
  let main, setup3 = timed_build 3 in
  let setup_s = Measure.median_of_list [ setup1; setup2; setup3 ] in
  let prefix_answers = ref [] in
  let prefix_counts = ref (0, 0) in
  let rss = ref nan in
  let start = Stack.ledger main.stack in
  let on_batch ph _reqs outs =
    if ph.batches <= spec.prefix_batches then
      prefix_answers := List.map (fun (o : Engine.outcome) -> o.Engine.value) outs :: !prefix_answers;
    if ph.batches = spec.prefix_batches then begin
      prefix_counts := rounds_and_blocks start (Stack.ledger main.stack);
      rss := Measure.vm_hwm_mb None
    end
  in
  let now = Measure.now_ns () in
  let span_s = if trace then seconds /. 2. else seconds in
  let until = now + int_of_float (span_s *. 1e9) in
  let ph1 = run_phase main ~until ~min_batches:spec.prefix_batches ~on_batch in
  let ph2 =
    if not trace then None
    else begin
      Span.reset ();
      Span.enabled := true;
      let before = Stack.ledger main.stack in
      let until = Measure.now_ns () + int_of_float (span_s *. 1e9) in
      let ph = run_phase main ~until ~min_batches:1 ~on_batch:(fun _ _ _ -> ()) in
      Span.enabled := false;
      Some (ph, before, Stack.ledger main.stack)
    end
  in
  let repeatable = twin_prefix = (!prefix_counts, List.rev !prefix_answers) in
  let reopen_ok = reopen_agrees spec main in
  let properties_ok = Stack.properties_hold main.stack in
  Option.iter Store.cleanup_dir main.dir;
  let layer_values =
    Option.map
      (fun (ph, before, after) ->
        Stack.layer_values ~ops:ph.ops ~updates:ph.updates ~before:[ before ] ~after:[ after ])
      ph2
  in
  let journal =
    if spec.file then Some (journal_check ~seed ~trace ~work_dir) else None
  in
  let phases =
    ph1
    :: List.filter_map Fun.id
         [ Option.map (fun (p, _, _) -> p) ph2; Option.map (fun (p, _, _) -> p) journal ]
  in
  let attempted = List.fold_left (fun a p -> a + p.ops) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 phases in
  let checks =
    [ ("answers match the model", failed = 0);
      ("counted prefix repeats exactly on a twin set-up", repeatable);
      ("utilization <= physical disks, fetch rounds >= blocks/disks", properties_ok);
      ("reopened dictionary agrees with the model on every key", reopen_ok) ]
    @ (match journal with Some (_, c, _) -> c | None -> [])
  in
  let rounds, blocks = !prefix_counts in
  let prefix_ops = float_of_int (spec.prefix_batches * batch) in
  let p50 s = Measure.quantile (Measure.Samples.sorted s) 0.5 in
  let tput p = Measure.Slices.median_rate p.slices ~until:(Measure.now_ns ()) in
  let values =
    match ph2 with
    | None ->
      [ ("throughput_ops", tput ph1); ("get_p50_us", p50 ph1.get_us);
        ("update_p50_us", p50 ph1.update_us); ("batch_p50_us", p50 ph1.batch_us);
        ("cpu_us_per_op", ph1.cpu_s *. 1e6 /. float_of_int ph1.ops);
        ("rounds_per_op", float_of_int rounds /. prefix_ops);
        ("blocks_per_op", float_of_int blocks /. prefix_ops);
        ("setup_s", setup_s); ("rss_peak_mb", !rss) ]
    | Some (ph, _, _) ->
      let barrier_values = match journal with Some (_, _, v) -> v | None -> [] in
      let layers =
        List.filter
          (fun (n, _) -> not (List.mem_assoc n barrier_values))
          (Option.value layer_values ~default:[])
      in
      Report.with_layer_defaults
        ((("trace.overhead_frac", (tput ph1 /. tput ph) -. 1.) :: barrier_values) @ layers)
  in
  let notes =
    [ Printf.sprintf "%s: %d batches of %d, batch p99 %.1f us over %d samples"
        spec.name ph1.batches batch
        (Measure.quantile (Measure.Samples.sorted ph1.batch_us) 0.99)
        (Measure.Samples.length ph1.batch_us);
      "ops/s per one-second slice: "
      ^ String.concat " "
          (List.map (Printf.sprintf "%.0f")
             (Measure.Slices.rates ph1.slices ~until:(Measure.now_ns ()))) ]
  in
  (checks, attempted, failed, values, notes)

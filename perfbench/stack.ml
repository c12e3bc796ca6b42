(* One daemon shard, assembled from the program's public modules with a
   span around every call the benchmark hands them.

   The construction is [Data_plane]'s: a one-probe dynamic dictionary
   (structure seed keyed by shard id) behind an [Engine] whose batches
   close by size or explicit drain. Spans wrap the dictionary callbacks
   the engine calls, the engine entry points, and — through [Pdm.create]'s
   [?factory] seam — the backend closures of every disk. Memory disks
   are the machine's own and carry no io spans. *)

module Opd = Pdm_dictionary.One_probe_dynamic
module Engine = Pdm_engine.Engine
module Pdm = Pdm_sim.Pdm
module Backend = Pdm_sim.Backend
module Data_plane = Pdm_server.Data_plane
module Prng = Pdm_util.Prng

let s_submit = Span.register "engine.submit"
let s_drain = Span.register "engine.drain"
let s_probe = Span.register "dictionary.probe_addresses"
let s_find = Span.register "dictionary.find_in"
let s_insert = Span.register "dictionary.insert"
let s_delete = Span.register "dictionary.delete"
let s_read = Span.register "io.read"
let s_write = Span.register "io.write"
let s_barrier = Span.register "io.barrier"

(* Backend writes, and for each update whether a barrier followed its
   first write before it returned. *)
type io_log = {
  mutable writes : int;
  mutable mark : int;          (** [writes] when the current update began *)
  mutable covered : bool;      (** a barrier came after the update's first write *)
  mutable written_updates : int;
  mutable unbarriered_updates : int;
}

type t = { dict : Opd.t; engine : Engine.t; io : io_log }

(* pdm-lint: allow R7 — every call reaches this wrapper through Pdm's own
   charged read/write paths, which is where Pdm.create's ?factory seam
   installs it *)
let wrap_backend io (b : int Backend.t) =
  (* pdm-lint: allow R1 — forwards the closures Pdm itself calls; Pdm still
     charges every round *)
  { b with
    Backend.read =
      (fun ~attempt blk -> Span.wrap s_read (fun () -> b.Backend.read ~attempt blk));
    write =
      (fun blk data ->
        io.writes <- io.writes + 1;
        Span.wrap s_write (fun () -> b.Backend.write blk data));
    barrier =
      (fun () ->
        if io.writes > io.mark then io.covered <- true;
        Span.wrap s_barrier b.Backend.barrier) }

let traced_factory io (factory : int Backend.factory) : int Backend.factory =
 fun ~blocks ~slots ->
  Option.map (fun make disk -> wrap_backend io (make disk)) (factory ~blocks ~slots)

let update io span f =
  io.mark <- io.writes;
  io.covered <- false;
  let r = Span.wrap span f in
  if io.writes > io.mark then begin
    io.written_updates <- io.written_updates + 1;
    if not io.covered then io.unbarriered_updates <- io.unbarriered_updates + 1
  end;
  r

let create ?(journaled = false) ?factory (plane : Data_plane.config) ~shard =
  let io =
    { writes = 0; mark = 0; covered = false; written_updates = 0;
      unbarriered_updates = 0 }
  in
  let dcfg =
    { Opd.universe = plane.universe; capacity = plane.shard_capacity;
      degree = plane.degree; sigma_bits = 8 * plane.value_bytes;
      levels = plane.levels; v_factor = 3;
      seed = Prng.hash2 ~seed:plane.seed 0x5eed shard }
  in
  let dict =
    Opd.create ~journaled ~replicas:plane.replicas ~spares:plane.spares
      ?factory:(Option.map (traced_factory io) factory)
      ~block_words:plane.block_words dcfg
  in
  let engine =
    Engine.create
      ~config:
        { Engine.max_batch = max 1 plane.max_batch;
          deadline_rounds = max_int / 2; cache_blocks = 0 }
      { Engine.name = Printf.sprintf "bench-shard-%d" shard;
        machine = Opd.machine dict;
        lookup =
          (fun key ->
            Engine.Fetch
              ( Span.wrap s_probe (fun () -> Opd.probe_addresses dict key),
                fun blocks ->
                  Engine.Done (Span.wrap s_find (fun () -> Opd.find_in dict key blocks)) ));
        insert = Some (fun k v -> update io s_insert (fun () -> Opd.insert dict k v));
        delete = Some (fun k -> update io s_delete (fun () -> Opd.delete dict k)) }
  in
  { dict; engine; io }

let machine (t : t) = Opd.machine t.dict

let submit t req = Span.wrap s_submit (fun () -> Engine.submit t.engine req)

let drain t = Span.wrap s_drain (fun () -> Engine.drain t.engine)

(* Submit a whole batch, drain, and return the outcomes in submission
   order. *)
let run t reqs =
  List.iter (fun r -> ignore (submit t r)) reqs;
  drain t;
  Engine.take_outcomes t.engine

(* The counters the per-layer metrics difference over a phase. *)
type ledger = { engine : Engine.stats; pdm : Pdm_sim.Stats.snapshot; rounds : int }

let ledger (t : t) =
  { engine = Engine.stats t.engine; pdm = Pdm_sim.Stats.snapshot (Pdm.stats (machine t));
    rounds = Pdm.rounds_total (machine t) }

(* Engine invariants every run checks: no executor round moved more
   blocks than the machine has disks, and the fetch rounds are at least
   the blocks fetched spread perfectly over those disks. *)
let properties_hold (t : t) =
  let d = Pdm.physical_disks (machine t) in
  let s = Engine.stats t.engine in
  Array.for_all (fun u -> u <= d) (Engine.utilization_histogram t.engine)
  && s.Engine.fetch_rounds >= (s.Engine.blocks_fetched + d - 1) / d

let sum_ledgers = function
  | [] -> invalid_arg "Stack.sum_ledgers: no shards"
  | l :: rest ->
    List.fold_left
      (fun acc l ->
        let a = acc.engine and b = l.engine in
        { engine =
            { Engine.rounds = a.Engine.rounds + b.Engine.rounds;
              fetch_rounds = a.fetch_rounds + b.fetch_rounds;
              insert_rounds = a.insert_rounds + b.insert_rounds;
              blocks_fetched = a.blocks_fetched + b.blocks_fetched;
              requests_served = a.requests_served + b.requests_served;
              batches = a.batches + b.batches;
              coalesced = a.coalesced + b.coalesced;
              cache_hits = a.cache_hits + b.cache_hits;
              total_latency = a.total_latency + b.total_latency;
              max_latency = max a.max_latency b.max_latency };
          pdm = Pdm_sim.Stats.add acc.pdm l.pdm;
          rounds = acc.rounds + l.rounds })
      l rest

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer values of one phase: ledgers of every shard the phase
   drove, taken before and after it, and the spans recorded during it.
   Every [*_us_per_op] is self time per op of the phase, so engine,
   dictionary and io shares add up to the time spent in the program's
   calls. *)
let layer_values ~ops ~updates ~before ~after =
  let b = sum_ledgers before and a = sum_ledgers after in
  let e f = float_of_int (f a.engine - f b.engine) in
  let p f = float_of_int (f a.pdm - f b.pdm) in
  let ops = float_of_int ops and updates = float_of_int updates in
  let self names = List.fold_left (fun acc n -> acc +. Report.ns_to_us (Span.self_ns n)) 0. names in
  let mean_us name = ratio (Report.ns_to_us (Span.total_ns name)) (float_of_int (Span.count name)) in
  let fetch_rounds = e (fun s -> s.Engine.fetch_rounds) in
  [ ("engine.self_us_per_op", ratio (self [ "engine.submit"; "engine.drain" ]) ops);
    ("engine.fetch_rounds_per_batch", ratio fetch_rounds (e (fun s -> s.Engine.batches)));
    ("engine.blocks_per_fetch_round", ratio (e (fun s -> s.Engine.blocks_fetched)) fetch_rounds);
    ("engine.coalesced_per_op", ratio (e (fun s -> s.Engine.coalesced)) ops);
    ("engine.insert_rounds_per_update", ratio (e (fun s -> s.Engine.insert_rounds)) updates);
    ("dictionary.lookup_us_per_op",
     ratio (self [ "dictionary.probe_addresses"; "dictionary.find_in" ]) ops);
    ("dictionary.update_us_per_op", ratio (self [ "dictionary.insert"; "dictionary.delete" ]) ops);
    ("pdm.read_rounds_per_op", ratio (p (fun s -> s.Pdm_sim.Stats.parallel_reads)) ops);
    ("pdm.write_rounds_per_op", ratio (p (fun s -> s.Pdm_sim.Stats.parallel_writes)) ops);
    ("pdm.block_writes_per_update", ratio (p (fun s -> s.Pdm_sim.Stats.block_writes)) updates);
    ("io.read_us_per_block", mean_us "io.read");
    ("io.write_us_per_block", mean_us "io.write");
    ("io.barrier_us", mean_us "io.barrier");
    ("io.barriers_per_update", ratio (float_of_int (Span.count "io.barrier")) updates);
    ("io.busy_us_per_op", ratio (self [ "io.read"; "io.write"; "io.barrier" ]) ops) ]

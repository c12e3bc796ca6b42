(* Tests for the batched concurrent query engine: duplicate
   coalescing, round packing (one block per disk per round, with the
   sequential fallback when everything lands on one disk),
   replica-aware scheduling, structured failures carrying request ids,
   batch semantics, the Pdm.read_preferring primitive, and the cache
   coherence hooks the engine relies on. *)

open Pdm_sim
module Engine = Pdm_engine.Engine
module Adapters = Pdm_experiments.Adapters
module Engine_exp = Pdm_experiments.Engine_exp
module Trace = Pdm_workload.Trace
module Prng = Pdm_util.Prng
module Sampling = Pdm_util.Sampling
module Checksum = Pdm_dictionary.Codec.Checksum

let tc = Alcotest.test_case
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let block_of t xs =
  let b = Array.make (Pdm.block_size t) None in
  List.iteri (fun i x -> b.(i) <- Some x) xs;
  b

(* A synthetic dictionary over a raw machine: key [k] probes the
   addresses [plan k]; the answer sums the blocks' first words, so a
   wrong or missing block changes the value. Every block of the
   machine holds [100 * disk + block]. *)
let decode_plan plan k =
  List.fold_left
    (fun acc (a : Pdm.addr) -> acc + (100 * a.Pdm.disk) + a.Pdm.block)
    0 (plan k)

let synthetic ?(replicas = 1) ?(disks = 8) ?(blocks = 8) ~plan () =
  let m = Pdm.create ~replicas ~disks ~block_size:4 ~blocks_per_disk:blocks () in
  for d = 0 to disks - 1 do
    for b = 0 to blocks - 1 do
      Pdm.write_one m { Pdm.disk = d; block = b } (block_of m [ (100 * d) + b ])
    done
  done;
  let decode bs =
    List.fold_left
      (fun acc (_, arr) -> match arr.(0) with Some v -> acc + v | None -> acc)
      0 bs
  in
  let lookup k =
    Engine.Fetch
      (plan k, fun bs -> Engine.Done (Some (Bytes.of_string (string_of_int (decode bs)))))
  in
  ( m,
    { Engine.name = "synthetic"; machine = m; lookup; insert = None;
      delete = None },
    fun k -> Bytes.of_string (string_of_int (decode_plan plan k)) )

let one_batch_config q =
  { Engine.max_batch = q; deadline_rounds = 1_000_000; cache_blocks = 0 }

let run_keys ?config dict keys =
  let config =
    match config with Some c -> c | None -> one_batch_config (List.length keys)
  in
  let eng = Engine.create ~config dict in
  List.iter (fun k -> ignore (Engine.submit eng (Engine.Lookup k))) keys;
  Engine.drain eng;
  (eng, Engine.take_outcomes eng)

(* --- coalescing --- *)

let test_all_same_key_coalesces () =
  (* 32 identical lookups: the 8 probe blocks are fetched once, in one
     round (one per disk), every other instance is coalesced. *)
  let plan _ = List.init 8 (fun d -> { Pdm.disk = d; block = 0 }) in
  let _, dict, expect = synthetic ~plan () in
  let keys = List.init 32 (fun _ -> 5) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "served" 32 s.Engine.requests_served;
  check "blocks fetched once" 8 s.Engine.blocks_fetched;
  check "31 duplicates x 8 blocks coalesced" (31 * 8) s.Engine.coalesced;
  check "one parallel round" 1 s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer" (Some (expect 5)) o.Engine.value)
    outs

let test_one_disk_sequential_fallback () =
  (* Every probe lands on disk 0: the executor degrades to one block
     per round — never more rounds than distinct blocks. *)
  let blocks = 4 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let _, dict, expect = synthetic ~blocks ~plan () in
  let keys = List.init 16 (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "distinct blocks fetched" blocks s.Engine.blocks_fetched;
  check "coalesced the rest" (16 - blocks) s.Engine.coalesced;
  check "sequential fallback: one round per block" blocks s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_zipf_batch_on_real_dictionary () =
  let n = 256 and queries = 256 in
  let universe = 1 lsl 18 in
  let scale = { Adapters.default_scale with universe; capacity = n; seed = 3 } in
  let members, _ =
    Sampling.disjoint_pair (Prng.create 3) ~universe ~count:n
  in
  let data =
    Array.map (fun k -> (k, Pdm_experiments.Common.value_bytes_of 8 k)) members
  in
  let ad = Adapters.engine_one_probe_static ~scale ~degree:8 ~data () in
  let ops =
    Trace.zipf_lookups ~rng:(Prng.create 17) ~keys:members ~count:queries
      ~s:1.2
  in
  let keys =
    Array.to_list ops
    |> List.filter_map (function Trace.Lookup k -> Some k | _ -> None)
  in
  let eng, outs = run_keys ad.Adapters.engine_dict keys in
  let s = Engine.stats eng in
  let disks = Pdm.disks ad.Adapters.engine_dict.Engine.machine in
  checkb "skew coalesces heavily" true (s.Engine.coalesced > queries);
  checkb "rounds well under Q" true
    (s.Engine.rounds <= (queries / disks * 5 / 4) + 1);
  checkb "utilization above half of D" true
    (Engine.mean_utilization eng >= 0.5 *. float_of_int disks);
  List.iter2
    (fun k (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "matches direct path"
        (ad.Adapters.direct_find k) o.Engine.value)
    keys outs

(* --- replica-aware scheduling --- *)

let test_replicas_split_hot_disk () =
  (* All 8 probed blocks live on logical disk 0; with r = 2 their
     second replicas sit on disk 1, so the least-loaded assignment
     halves the rounds. *)
  let blocks = 8 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let _, dict, expect = synthetic ~replicas:2 ~disks:4 ~blocks ~plan () in
  let keys = List.init blocks (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  check "blocks" blocks s.Engine.blocks_fetched;
  check "two replica disks halve the rounds" (blocks / 2) s.Engine.rounds;
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_killed_disk_failover_within_2x () =
  let blocks = 8 in
  let plan k = [ { Pdm.disk = 0; block = k mod blocks } ] in
  let m, dict, expect = synthetic ~replicas:2 ~disks:4 ~blocks ~plan () in
  Pdm.kill_disk m 0;
  let keys = List.init blocks (fun i -> i) in
  let eng, outs = run_keys dict keys in
  let s = Engine.stats eng in
  checkb "completes within 2x the healthy rounds" true
    (s.Engine.rounds <= 2 * (blocks / 2));
  List.iter
    (fun (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "answer survives the kill"
        (Some (expect (Engine.request_key o.Engine.request)))
        o.Engine.value)
    outs

let test_unreplicated_failure_carries_request_id () =
  let plan _ = [ { Pdm.disk = 2; block = 0 } ] in
  let m, dict, _ = synthetic ~disks:4 ~plan () in
  Pdm.kill_disk m 2;
  let eng =
    Engine.create
      ~config:{ Engine.max_batch = 1; deadline_rounds = 0; cache_blocks = 0 }
      dict
  in
  (match Engine.submit eng (Engine.Lookup 7) with
   | _ -> Alcotest.fail "expected Request_failed"
   | exception Engine.Request_failed { id; key; error } ->
     check "request id" 0 id;
     check "key" 7 key;
     checkb "structured payload" true (Backend.describe error <> None))

(* --- batch semantics --- *)

let test_deadline_closes_batch () =
  let plan _ = [ { Pdm.disk = 0; block = 0 } ] in
  let _, dict, _ = synthetic ~plan () in
  let eng =
    Engine.create
      ~config:{ Engine.max_batch = 100; deadline_rounds = 2; cache_blocks = 0 }
      dict
  in
  ignore (Engine.submit eng (Engine.Lookup 1));
  ignore (Engine.submit eng (Engine.Lookup 2));
  check "still queued" 2 (Engine.queue_length eng);
  Engine.idle_round eng;
  check "deadline not reached" 2 (Engine.queue_length eng);
  Engine.idle_round eng;
  check "deadline fired" 0 (Engine.queue_length eng);
  let outs = Engine.take_outcomes eng in
  check "both served" 2 (List.length outs);
  check "one batch" 1 (Engine.stats eng).Engine.batches;
  List.iter
    (fun (o : Engine.outcome) ->
      checkb "latency counts queueing" true (Engine.latency o >= 2))
    outs

let test_insert_visible_to_same_batch_lookup () =
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = 64; seed = 5 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let eng =
    Engine.create ~config:(one_batch_config 4) ad.Adapters.engine_dict
  in
  let v = Pdm_experiments.Common.value_bytes_of 8 1234 in
  (* Lookup submitted before the insert — inserts still run first. *)
  ignore (Engine.submit eng (Engine.Lookup 1234));
  ignore (Engine.submit eng (Engine.Insert (1234, v)));
  Engine.drain eng;
  match Engine.take_outcomes eng with
  | [ lookup; insert ] ->
    checkb "lookup sees the batch's insert" true
      (lookup.Engine.value = Some v);
    checkb "insert acked" true (insert.Engine.value = None);
    checkb "insert rounds charged" true
      ((Engine.stats eng).Engine.insert_rounds > 0)
  | outs -> Alcotest.failf "expected 2 outcomes, got %d" (List.length outs)

let test_cascade_two_phase_through_engine () =
  let n = 64 in
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = n; seed = 7 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let members, absent =
    Sampling.disjoint_pair (Prng.create 7) ~universe:(1 lsl 18) ~count:n
  in
  let ins = Option.get ad.Adapters.engine_dict.Engine.insert in
  Array.iter
    (fun k -> ins k (Pdm_experiments.Common.value_bytes_of 8 k))
    members;
  let keys = Array.to_list members @ Array.to_list (Array.sub absent 0 16) in
  let eng, outs = run_keys ad.Adapters.engine_dict keys in
  ignore eng;
  List.iter2
    (fun k (o : Engine.outcome) ->
      Alcotest.(check (option bytes)) "cascade via engine = direct"
        (ad.Adapters.direct_find k) o.Engine.value)
    keys outs

(* --- Pdm.read_preferring --- *)

let test_read_preferring_uses_requested_replica () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 0; block = 3 } in
  Pdm.write_one m a (block_of m [ 42 ]);
  Alcotest.(check (list int)) "replica disks" [ 0; 1 ] (Pdm.replica_disks m a);
  Stats.reset (Pdm.stats m);
  (match Pdm.read_preferring m [ (a, 1) ] with
   | [ (_, arr) ] -> Alcotest.(check (option int)) "value" (Some 42) arr.(0)
   | _ -> Alcotest.fail "one block expected");
  let snap = Stats.snapshot (Pdm.stats m) in
  check "served by replica disk 1" 1 (Stats.disk_totals snap).(1);
  check "disk 0 untouched" 0 (Stats.disk_totals snap).(0)

let test_read_preferring_fails_over () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 0; block = 1 } in
  Pdm.write_one m a (block_of m [ 9 ]);
  Pdm.kill_disk m 1;
  (match Pdm.read_preferring m [ (a, 1) ] with
   | [ (_, arr) ] ->
     Alcotest.(check (option int)) "failover to replica 0" (Some 9) arr.(0)
   | _ -> Alcotest.fail "one block expected");
  Alcotest.check_raises "replica out of range"
    (Invalid_argument "Pdm.read_preferring: replica out of range") (fun () ->
      ignore (Pdm.read_preferring m [ (a, 2) ]))

let test_read_preferring_dedups () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let a = { Pdm.disk = 2; block = 0 } in
  Pdm.write_one m a (block_of m [ 5 ]);
  check "duplicates collapse" 1
    (List.length (Pdm.read_preferring m [ (a, 0); (a, 1) ]))

(* --- cache coherence with writers that bypass the cache --- *)

let test_cache_sees_direct_writes () =
  let m : int Pdm.t =
    Pdm.create ~disks:4 ~block_size:4 ~blocks_per_disk:8 ()
  in
  let c = Cache.create m ~capacity_blocks:4 in
  let a = { Pdm.disk = 1; block = 2 } in
  Pdm.write_one m a (block_of m [ 1 ]);
  Alcotest.(check (option int)) "first read" (Some 1) (Cache.read_one c a).(0);
  (* A writer that bypasses the cache (second handle, journal replay,
     repair): the listener must drop the stale copy. *)
  Pdm.write_one m a (block_of m [ 2 ]);
  Alcotest.(check (option int)) "write invalidates" (Some 2)
    (Cache.read_one c a).(0);
  Pdm.poke m a (block_of m [ 3 ]);
  Alcotest.(check (option int)) "poke invalidates" (Some 3)
    (Cache.read_one c a).(0);
  check "every re-read was a miss" 3 (Cache.misses c)

let test_cache_coherent_after_journal_replay () =
  let m : int Pdm.t =
    Pdm.create ~disks:4 ~block_size:8 ~blocks_per_disk:8 ()
  in
  let j = Journal.create m ~block_offset:4 ~capacity_blocks:8 in
  let c = Cache.create m ~capacity_blocks:4 in
  let a = { Pdm.disk = 0; block = 0 } in
  Pdm.write_one m a (block_of m [ 10 ]);
  Alcotest.(check (option int)) "cached old value" (Some 10)
    (Cache.read_one c a).(0);
  (* Committed but unapplied batch; recovery replays it through
     Pdm.write, which must invalidate the cached copy. *)
  (try Journal.log_and_apply j ~crash:Journal.After_commit [ (a, block_of m [ 11 ]) ]
   with Journal.Crashed -> ());
  (match Journal.recover m ~block_offset:4 ~capacity_blocks:8 with
   | `Replayed _ -> ()
   | `Clean | `Discarded -> Alcotest.fail "expected a replay");
  Alcotest.(check (option int)) "replayed value visible" (Some 11)
    (Cache.read_one c a).(0)

let test_cache_coherent_after_scrub_repair () =
  let m : int Pdm.t =
    Pdm.create ~replicas:2 ~integrity:Checksum.integrity ~disks:4
      ~block_size:8 ~blocks_per_disk:8 ()
  in
  let c = Cache.create m ~capacity_blocks:8 in
  let a = { Pdm.disk = 0; block = 0 } in
  let b = { Pdm.disk = 1; block = 0 } in
  Pdm.write_one m a (block_of m [ 21 ]);
  Pdm.write_one m b (block_of m [ 22 ]);
  ignore (Cache.read c [ a; b ]);
  check "both resident" 2 (Cache.resident c);
  Pdm.damage_stored m a ~replica:0;
  let r = Pdm.scrub m in
  checkb "scrub repaired the rot" true (r.Pdm.repaired_replicas >= 1);
  checkb "repaired block dropped from cache" true
    (Cache.find_cached c a = None);
  checkb "untouched block still resident" true
    (Cache.find_cached c b <> None);
  Alcotest.(check (option int)) "re-read sees repaired data" (Some 21)
    (Cache.read_one c a).(0)

(* --- the E18 experiment itself, at test scale --- *)

let test_engine_experiment_small () =
  let r =
    Engine_exp.run ~universe:(1 lsl 18) ~n:256 ~queries:512 ~degree:16
      ~seed:11 ()
  in
  checkb "within 1.25 ceil(Q/D) rounds" true r.Engine_exp.within_bound;
  checkb "identical answers" true r.Engine_exp.answers_match;
  checkb "utilization >= 0.8 D" true r.Engine_exp.utilization_ok;
  checkb "degraded within 2x" true r.Engine_exp.degraded_within_2x;
  checkb "degraded answers identical" true r.Engine_exp.degraded_match;
  checkb "beats unbatched" true
    (r.Engine_exp.engine_rounds < r.Engine_exp.unbatched_rounds)

(* Deletes run with the batch's updates, before its lookups, and
   encode their found/not-found bit through [Engine.deleted_value]. *)
let test_delete_through_engine () =
  let scale =
    { Adapters.default_scale with universe = 1 lsl 18; capacity = 64; seed = 11 }
  in
  let ad = Adapters.engine_cascade ~scale () in
  let eng =
    Engine.create ~config:(one_batch_config 8) ad.Adapters.engine_dict
  in
  let v = Pdm_experiments.Common.value_bytes_of 8 42 in
  ignore (Engine.submit eng (Engine.Insert (42, v)));
  Engine.drain eng;
  ignore (Engine.take_outcomes eng);
  ignore (Engine.submit eng (Engine.Lookup 42));
  ignore (Engine.submit eng (Engine.Delete 42));
  ignore (Engine.submit eng (Engine.Delete 43));
  Engine.drain eng;
  (match Engine.take_outcomes eng with
   | [ lookup; del_present; del_absent ] ->
     checkb "same-batch lookup sees the delete" true
       (lookup.Engine.value = None);
     checkb "delete of a present key" true
       (del_present.Engine.value = Engine.deleted_value true);
     checkb "delete of an absent key" true
       (del_absent.Engine.value = Engine.deleted_value false);
     checkb "direct find agrees" true (ad.Adapters.direct_find 42 = None)
   | outs -> Alcotest.failf "expected 3 outcomes, got %d" (List.length outs));
  checkb "deleted_value present" true
    (Engine.deleted_value true = Some Bytes.empty);
  checkb "deleted_value absent" true (Engine.deleted_value false = None)

(* Engine.guard is the one per-request failure-reporting path the CLI
   serve loops (single machine and cluster) share: structured storage
   errors become Request_failed carrying the request's id and key;
   anything unrecognized propagates untouched. *)
let test_guard_unifies_failure_reporting () =
  let storage =
    Backend.Disk_failed { Backend.disk = 3; block = 7; round = 1 }
  in
  (match Engine.guard ~id:9 ~key:1234 (fun () -> raise storage) with
   | _ -> Alcotest.fail "expected Request_failed"
   | exception Engine.Request_failed { id; key; error } ->
     check "request id" 9 id;
     check "request key" 1234 key;
     checkb "carries the storage error" true (error == storage));
  (match Engine.guard ~id:0 ~key:0 (fun () -> raise Exit) with
   | _ -> Alcotest.fail "expected Exit"
   | exception Exit -> ()
   | exception _ -> Alcotest.fail "unrecognized exceptions must propagate");
  check "guard passes values through" 7
    (Engine.guard ~id:1 ~key:2 (fun () -> 7));
  (* a custom describe widens recognition — the cluster path wraps
     Unavailable/Retries_exhausted the same way *)
  match
    Engine.guard ~id:4 ~key:5 ~describe:(fun _ -> Some "recognized")
      (fun () -> raise Exit)
  with
  | _ -> Alcotest.fail "expected Request_failed via custom describe"
  | exception Engine.Request_failed { id = 4; key = 5; error = Exit } -> ()
  | exception e -> raise e

(* --- the round planner against the list-based reference --- *)

(* The engine's round planner before it kept its scratch in arrays: a
   list pass over every waiting block per round, a fresh [used] table
   per round, and the least-loaded free healthy replica chosen by a
   fold (ties to the first replica in home order, or to the last when
   [tie_last] — a deliberately wrong planner the differential check
   must tell apart). With the batch loop around it (lookups only, no
   cache), it is the reference the engine's answers, rounds and
   per-round disk traces must match exactly. *)
module Ref_engine = struct
  type pending = { id : int; key : int; submitted : int }

  type t = {
    m : int Pdm.t;
    lookup : int -> Engine.step;
    tie_last : bool;
    disk_load : int array;
    mutable next_id : int;
    mutable round : int;
    mutable fetch_rounds : int;
    mutable blocks_fetched : int;
    mutable served : int;
    mutable batches : int;
    mutable coalesced : int;
    mutable total_latency : int;
    mutable max_latency : int;
    mutable util : int list;
    mutable outcomes : (int * Bytes.t option * int * int) list;
    mutable queue : pending list;  (* reversed *)
  }

  let create ?(tie_last = false) (dict : Engine.dict) =
    { m = dict.Engine.machine; lookup = dict.Engine.lookup; tie_last;
      disk_load = Array.make (Pdm.physical_disks dict.Engine.machine) 0;
      next_id = 0; round = 0; fetch_rounds = 0; blocks_fetched = 0;
      served = 0; batches = 0; coalesced = 0; total_latency = 0;
      max_latency = 0; util = []; outcomes = []; queue = [] }

  let submit t key =
    t.queue <- { id = t.next_id; key; submitted = t.round } :: t.queue;
    t.next_id <- t.next_id + 1

  let complete t p v =
    let lat = t.round - p.submitted in
    t.served <- t.served + 1;
    t.total_latency <- t.total_latency + lat;
    t.max_latency <- max t.max_latency lat;
    t.outcomes <- (p.id, v, p.submitted, t.round) :: t.outcomes

  let rec settle tbl st =
    match st with
    | Engine.Done _ -> st
    | Engine.Fetch (addrs, k) ->
      if List.for_all (Hashtbl.mem tbl) addrs then
        settle tbl (k (List.map (fun a -> (a, Hashtbl.find tbl a)) addrs))
      else st

  let fetch_all t tbl wanted =
    let m = t.m in
    let remaining = ref wanted in
    while !remaining <> [] do
      let used = Hashtbl.create 16 in
      let this_round = ref [] and defer = ref [] in
      List.iter
        (fun ((a, _) as w) ->
          let disks = Pdm.replica_disks m a in
          let healthy =
            List.filter
              (fun (_, d) -> not (Pdm.disk_down m d))
              (List.mapi (fun j d -> (j, d)) disks)
          in
          match healthy with
          | [] -> this_round := (w, 0, List.hd disks) :: !this_round
          | _ -> (
            let free =
              List.filter (fun (_, d) -> not (Hashtbl.mem used d)) healthy
            in
            match free with
            | [] -> defer := w :: !defer
            | (j0, d0) :: rest ->
              let better d bd =
                if t.tie_last then t.disk_load.(d) <= t.disk_load.(bd)
                else t.disk_load.(d) < t.disk_load.(bd)
              in
              let j, d =
                List.fold_left
                  (fun (bj, bd) (j, d) ->
                    if better d bd then (j, d) else (bj, bd))
                  (j0, d0) rest
              in
              Hashtbl.add used d ();
              this_round := (w, j, d) :: !this_round))
        !remaining;
      let issue = List.rev !this_round in
      let before = Pdm.rounds_total m in
      let fetched =
        try
          Pdm.read_preferring m (List.map (fun ((a, _), j, _) -> (a, j)) issue)
        with e when Backend.describe e <> None ->
          let failing_disk =
            match e with
            | Backend.Disk_failed err | Backend.Corrupt_block err ->
              err.Backend.disk
            | Backend.Retries_exhausted { disk; _ } -> disk
            | _ -> -1
          in
          let (_, p), _, _ =
            match
              List.find_opt
                (fun ((a, _), _, _) ->
                  List.mem failing_disk (Pdm.replica_disks m a))
                issue
            with
            | Some x -> x
            | None -> List.hd issue
          in
          raise (Engine.Request_failed { id = p.id; key = p.key; error = e })
      in
      let delta = max 1 (Pdm.rounds_total m - before) in
      t.round <- t.round + delta;
      t.fetch_rounds <- t.fetch_rounds + delta;
      t.blocks_fetched <- t.blocks_fetched + List.length fetched;
      t.util <- List.length fetched :: t.util;
      List.iter (fun (_, _, d) -> t.disk_load.(d) <- t.disk_load.(d) + 1) issue;
      List.iter (fun (a, data) -> Hashtbl.replace tbl a data) fetched;
      remaining := List.rev !defer
    done

  let run_batch t batch =
    t.batches <- t.batches + 1;
    let tbl = Hashtbl.create 64 in
    let rec pass inflight =
      let still =
        List.filter
          (fun (p, str) ->
            match settle tbl !str with
            | Engine.Done v ->
              complete t p v;
              false
            | st ->
              str := st;
              true)
          inflight
      in
      if still <> [] then begin
        let seen = Hashtbl.create 64 in
        let wanted = ref [] in
        List.iter
          (fun (p, str) ->
            match !str with
            | Engine.Done _ -> ()
            | Engine.Fetch (addrs, _) ->
              List.iter
                (fun a ->
                  if Hashtbl.mem tbl a || Hashtbl.mem seen a then
                    t.coalesced <- t.coalesced + 1
                  else begin
                    Hashtbl.add seen a ();
                    wanted := (a, p) :: !wanted
                  end)
                addrs)
          still;
        if !wanted <> [] then fetch_all t tbl (List.rev !wanted);
        pass still
      end
    in
    pass (List.map (fun p -> (p, ref (t.lookup p.key))) batch)

  let drain t =
    let batch = List.rev t.queue in
    t.queue <- [];
    if batch <> [] then run_batch t batch
end

(* [Fail_reads d] leaves disk d up but makes its next read answer
   [Lost]: the machine finds the disk down in the middle of the next
   batch that reads it, between two rounds of one [fetch_all]. *)
type planner_event = Batch of int list | Kill of int | Fail_reads of int | Scrub

type planner_scenario = {
  sc_seed : int;
  sc_replicas : int;
  sc_spares : int;
  sc_disks : int;
  sc_events : planner_event list;
}

let planner_blocks = 6

(* Twin-able machine: every block of logical disk d holds 100 d + b.
   Key k probes one to three blocks picked by hashing (k, seed), and
   one key in three then probes a second-phase block, as the cascade
   does. Each disk's backend answers [Lost] to reads once its
   [failing] flag is set. *)
let planner_dict sc =
  let failing = Array.make (sc.sc_disks + sc.sc_spares) false in
  let backends disk =
    let b =
      Backend.memory ~disk ~blocks:(sc.sc_replicas * planner_blocks)
    in
    { b with
      Backend.read =
        (fun ~attempt blk ->
          if failing.(disk) then Backend.Lost else b.Backend.read ~attempt blk)
    }
  in
  let m =
    Pdm.create ~backends ~replicas:sc.sc_replicas ~spares:sc.sc_spares
      ~disks:sc.sc_disks ~block_size:4 ~blocks_per_disk:planner_blocks ()
  in
  for d = 0 to sc.sc_disks - 1 do
    for b = 0 to planner_blocks - 1 do
      Pdm.write_one m { Pdm.disk = d; block = b } (block_of m [ (100 * d) + b ])
    done
  done;
  let tr = Pdm_sim.Trace.create ~capacity:100_000 () in
  Pdm.set_trace m (Some tr);
  let h k i = Prng.hash3 ~seed:sc.sc_seed k i 0 land max_int in
  let addr k i =
    { Pdm.disk = h k i mod sc.sc_disks;
      block = h k (i + 100) mod planner_blocks }
  in
  let phase1 k = List.init (1 + (h k 7 mod 3)) (addr k) in
  let phase2 k = if h k 8 mod 3 = 0 then [ addr k 50 ] else [] in
  let decode acc bs =
    List.fold_left
      (fun acc (_, arr) ->
        match arr.(0) with Some v -> (acc * 31) + v | None -> acc)
      acc bs
  in
  let answer acc = Engine.Done (Some (Bytes.of_string (string_of_int acc))) in
  let lookup k =
    Engine.Fetch
      ( phase1 k,
        fun bs ->
          let acc = decode k bs in
          match phase2 k with
          | [] -> answer acc
          | p2 -> Engine.Fetch (p2, fun bs -> answer (decode acc bs)) )
  in
  ( m, tr, failing,
    { Engine.name = "planner"; machine = m; lookup; insert = None;
      delete = None } )

type planner_run = {
  events : Pdm_sim.Trace.event list;
  answers : (int * Bytes.t option * int * int) list;
  counters : int list;
  util : int array;
  failures : (int * int * string option) list;
  down : bool list;  (* per physical disk, after the last event *)
}

let apply_machine_event m failing = function
  | Kill d -> Pdm.kill_disk m d
  | Fail_reads d -> failing.(d) <- true
  | Scrub -> ignore (Pdm.scrub m)
  | Batch _ -> ()

let run_engine_planner sc =
  let m, tr, failing, dict = planner_dict sc in
  let eng = Engine.create ~config:(one_batch_config 64) dict in
  let failures = ref [] and answers = ref [] in
  List.iter
    (fun ev ->
      apply_machine_event m failing ev;
      match ev with
      | Batch keys -> (
        List.iter (fun k -> ignore (Engine.submit eng (Engine.Lookup k))) keys;
        (try Engine.drain eng
         with Engine.Request_failed { id; key; error } ->
           failures := (id, key, Backend.describe error) :: !failures);
        answers :=
          List.rev_map
            (fun (o : Engine.outcome) ->
              (o.Engine.id, o.Engine.value, o.Engine.submitted,
               o.Engine.completed))
            (Engine.take_outcomes eng)
          @ !answers)
      | Kill _ | Fail_reads _ | Scrub -> ())
    sc.sc_events;
  let s = Engine.stats eng in
  { events = Pdm_sim.Trace.events tr;
    answers = List.rev !answers;
    counters =
      [ s.Engine.rounds; s.Engine.fetch_rounds; s.Engine.insert_rounds;
        s.Engine.blocks_fetched; s.Engine.requests_served; s.Engine.batches;
        s.Engine.coalesced; s.Engine.cache_hits; s.Engine.total_latency;
        s.Engine.max_latency ];
    util = Engine.utilization_histogram eng;
    failures = List.rev !failures;
    down = List.init (Pdm.physical_disks m) (Pdm.disk_down m) }

let run_reference_planner ?tie_last sc =
  let m, tr, failing, dict = planner_dict sc in
  let r = Ref_engine.create ?tie_last dict in
  let failures = ref [] and answers = ref [] in
  List.iter
    (fun ev ->
      apply_machine_event m failing ev;
      match ev with
      | Batch keys ->
        List.iter (Ref_engine.submit r) keys;
        (try Ref_engine.drain r
         with Engine.Request_failed { id; key; error } ->
           failures := (id, key, Backend.describe error) :: !failures);
        answers :=
          List.rev (List.sort compare r.Ref_engine.outcomes) @ !answers;
        r.Ref_engine.outcomes <- []
      | Kill _ | Fail_reads _ | Scrub -> ())
    sc.sc_events;
  let open Ref_engine in
  { events = Pdm_sim.Trace.events tr;
    answers = List.rev !answers;
    counters =
      [ r.round; r.fetch_rounds; 0; r.blocks_fetched; r.served; r.batches;
        r.coalesced; 0; r.total_latency; r.max_latency ];
    util = Array.of_list (List.rev r.util);
    failures = List.rev !failures;
    down = List.init (Pdm.physical_disks m) (Pdm.disk_down m) }


(* Zipf batches (s = 1.1 over 40 keys, so keys repeat within a batch)
   of 1 .. 48 lookups. *)
let planner_zipf = Pdm_util.Zipf.create ~n:40 ~s:1.1

let zipf_batch rng =
  Batch
    (List.init (1 + Prng.int rng 48) (fun _ ->
         Pdm_util.Zipf.sample planner_zipf rng))

(* A scenario from a seed: D = r + 1 .. r + 3 logical disks, four to
   seven batches, a disk killed or set to fail its next read before
   the first batch one time in three, and between batches a kill or a
   read failure (any physical disk, spares included) or a scrub (which
   re-replicates onto a spare). *)
let planner_scenario ~seed ~replicas ~spares =
  let rng = Prng.create seed in
  let disks = replicas + 1 + Prng.int rng 3 in
  let phys = disks + spares in
  let between () =
    match Prng.int rng 7 with
    | 0 -> [ Kill (Prng.int rng phys) ]
    | 1 -> [ Fail_reads (Prng.int rng phys) ]
    | 2 -> [ Scrub ]
    | _ -> []
  in
  let before =
    match Prng.int rng 6 with
    | 0 -> [ Kill (Prng.int rng phys) ]
    | 1 -> [ Fail_reads (Prng.int rng phys) ]
    | _ -> []
  in
  let batches =
    List.init (4 + Prng.int rng 4) (fun _ ->
        let ev = between () in
        ev @ [ zipf_batch rng ])
  in
  { sc_seed = seed; sc_replicas = replicas; sc_spares = spares;
    sc_disks = disks; sc_events = before @ List.concat batches }

let same_run a b =
  a.events = b.events && a.answers = b.answers && a.counters = b.counters
  && a.util = b.util && a.failures = b.failures && a.down = b.down

let check_same_run what expect got =
  Alcotest.(check (list int)) (what ^ ": Engine.stats") expect.counters
    got.counters;
  Alcotest.(check (array int)) (what ^ ": utilization") expect.util got.util;
  checkb (what ^ ": answers") true (expect.answers = got.answers);
  checkb (what ^ ": failed request ids") true (expect.failures = got.failures);
  checkb (what ^ ": per-round traces") true (expect.events = got.events);
  Alcotest.(check (list bool)) (what ^ ": disks down") expect.down got.down

let prop_planner_matches_reference =
  QCheck.Test.make ~name:"round planner = list-based reference" ~count:120
    QCheck.(triple (int_bound 99_999) (int_range 1 3) (int_range 0 1))
    (fun (seed, replicas, spares) ->
      let sc = planner_scenario ~seed ~replicas ~spares in
      same_run (run_reference_planner sc) (run_engine_planner sc))

(* Every replica count and spare setting, a disk killed before the
   first batch and another between batches, a disk whose reads start
   failing inside a batch, a scrub in between. *)
let test_planner_fixed_grid () =
  List.iter
    (fun (replicas, spares) ->
      let rng = Prng.create ((10 * replicas) + spares) in
      let b1 = zipf_batch rng in
      let b2 = zipf_batch rng in
      let b3 = zipf_batch rng in
      let b4 = zipf_batch rng in
      let b5 = zipf_batch rng in
      let sc =
        { sc_seed = replicas; sc_replicas = replicas; sc_spares = spares;
          sc_disks = replicas + 2;
          sc_events =
            [ Kill (replicas + 1); b1; b2; Kill 0; b3; Scrub; b4;
              Fail_reads 1; b5 ] }
      in
      check_same_run
        (Printf.sprintf "r=%d spares=%d" replicas spares)
        (run_reference_planner sc) (run_engine_planner sc))
    [ (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1) ]

(* r = 2 with disks 1 and 2 dead: blocks homed on disk 1 have no live
   replica, are issued on replica 0 anyway, and fail with the id of
   the oldest request waiting on them — the same id in both. *)
let test_planner_all_replicas_dead () =
  let rng = Prng.create 5 in
  let b1 = zipf_batch rng in
  let b2 = zipf_batch rng in
  let b3 = zipf_batch rng in
  let sc =
    { sc_seed = 5; sc_replicas = 2; sc_spares = 0; sc_disks = 4;
      sc_events = [ b1; Kill 1; Kill 2; b2; b3 ] }
  in
  let expect = run_reference_planner sc in
  checkb "some request failed" true (expect.failures <> []);
  check_same_run "all replicas dead" expect (run_engine_planner sc)

(* r = 2 over three disks, disk 1 answering [Lost] from the start of
   a 48-lookup batch. The batch's first fetch wants more blocks than
   there are disks, and its first round takes every disk, so its read
   on disk 1 is lost (the first trace record serves disks 0 and 2
   only), disk 1 is found down, and the fetch's later rounds plan
   around it; every block still has a live replica, so no request
   fails. *)
let test_planner_disk_fails_mid_batch () =
  let rng = Prng.create 9 in
  let batch =
    Batch (List.init 48 (fun _ -> Pdm_util.Zipf.sample planner_zipf rng))
  in
  let sc =
    { sc_seed = 9; sc_replicas = 2; sc_spares = 0; sc_disks = 3;
      sc_events = [ Fail_reads 1; batch ] }
  in
  let expect = run_reference_planner sc in
  Alcotest.(check (list bool)) "disk 1 found down" [ false; true; false ]
    expect.down;
  checkb "no request failed" true (expect.failures = []);
  let served e = e.Pdm_sim.Trace.per_disk in
  checkb "first round lost disk 1 only" true
    (match expect.events with
     | e :: _ -> (served e).(0) > 0 && (served e).(1) = 0 && (served e).(2) > 0
     | [] -> false);
  checkb "more rounds after it" true (List.length expect.events > 2);
  check_same_run "disk fails mid-batch" expect (run_engine_planner sc)

(* The comparison is sharp enough to reject a planner that breaks
   load ties toward the last replica instead of the first. *)
let test_planner_check_catches_tie_break () =
  let caught =
    List.filter
      (fun seed ->
        let sc = planner_scenario ~seed ~replicas:2 ~spares:0 in
        not (same_run (run_reference_planner ~tie_last:true sc)
               (run_engine_planner sc)))
      [ 1; 2; 3 ]
  in
  check "every scenario tells the two apart" 3 (List.length caught)

let suite =
  [ ("engine.coalescing",
     [ tc "all-same-key batch" `Quick test_all_same_key_coalesces;
       tc "one-disk sequential fallback" `Quick
         test_one_disk_sequential_fallback;
       tc "zipf batch on real dictionary" `Quick
         test_zipf_batch_on_real_dictionary ]);
    ("engine.replicas",
     [ tc "least-loaded splits a hot disk" `Quick test_replicas_split_hot_disk;
       tc "killed disk: failover within 2x" `Quick
         test_killed_disk_failover_within_2x;
       tc "r=1 failure carries request id" `Quick
         test_unreplicated_failure_carries_request_id ]);
    ("engine.batching",
     [ tc "deadline closes a batch" `Quick test_deadline_closes_batch;
       tc "insert visible to same-batch lookup" `Quick
         test_insert_visible_to_same_batch_lookup;
       tc "cascade two-phase lookups" `Quick
         test_cascade_two_phase_through_engine;
       tc "delete semantics through the engine" `Quick
         test_delete_through_engine;
       tc "guard unifies failure reporting" `Quick
         test_guard_unifies_failure_reporting ]);
    ("pdm.read_preferring",
     [ tc "uses the requested replica" `Quick
         test_read_preferring_uses_requested_replica;
       tc "fails over and validates" `Quick test_read_preferring_fails_over;
       tc "dedups" `Quick test_read_preferring_dedups ]);
    ("cache.coherence",
     [ tc "direct writes and pokes invalidate" `Quick
         test_cache_sees_direct_writes;
       tc "journal replay invalidates" `Quick
         test_cache_coherent_after_journal_replay;
       tc "scrub repair invalidates" `Quick
         test_cache_coherent_after_scrub_repair ]);
    ("engine.planner",
     [ tc "fixed grid: r, spares, kills, scrub" `Quick test_planner_fixed_grid;
       tc "all replicas dead: same failed id" `Quick
         test_planner_all_replicas_dead;
       tc "disk fails inside a batch" `Quick
         test_planner_disk_fails_mid_batch;
       tc "catches a last-replica tie-break" `Quick
         test_planner_check_catches_tie_break;
       QCheck_alcotest.to_alcotest prop_planner_matches_reference ]);
    ("experiments.engine",
     [ tc "E18 at test scale" `Quick test_engine_experiment_small ]) ]

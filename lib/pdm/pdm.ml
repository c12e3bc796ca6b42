module Imath = Pdm_util.Imath

type model = Independent_disks | Parallel_heads

type addr = { disk : int; block : int }

type 'a integrity = {
  tag : string;
  overhead : int;
  seal : 'a option array -> 'a option array;
  check : 'a option array -> 'a option array option;
}

type 'a t = {
  disks : int;  (* logical *)
  block_size : int;  (* payload cells per logical block *)
  blocks_per_disk : int;  (* logical *)
  replicas : int;
  spares : int;
  model : model;
  stats : Stats.t;
  integrity : 'a integrity option;
  backends : 'a Backend.t array;  (* length disks + spares *)
  down : bool array;  (* health cache, learned from Lost answers *)
  remap : (addr * int, addr) Hashtbl.t;  (* (logical, replica) moved *)
  spare_next : int array;  (* next free block on each spare disk *)
  fault_spec : Fault.spec option;
  custom_backends : bool;
  mutable killed : bool;  (* some disk was killed at run time *)
  mutable trace : Trace.t option;
  mutable rounds_done : int;
  mutable allocated : int;
  mutable write_listeners : (addr -> unit) list;
}

let physical_disks_of ~disks ~spares = disks + spares
let physical_blocks_of ~replicas ~blocks_per_disk = replicas * blocks_per_disk

let create ?(model = Independent_disks) ?stats ?trace ?faults ?backends
    ?factory ?(replicas = 1) ?(spares = 0) ?integrity ~disks ~block_size
    ~blocks_per_disk () =
  if disks < 1 then invalid_arg "Pdm.create: disks must be >= 1";
  if block_size < 1 then invalid_arg "Pdm.create: block_size must be >= 1";
  if blocks_per_disk < 1 then invalid_arg "Pdm.create: blocks_per_disk >= 1";
  if replicas < 1 then invalid_arg "Pdm.create: replicas must be >= 1";
  if replicas > disks then
    invalid_arg "Pdm.create: replicas must be <= disks (distinct disks)";
  if spares < 0 then invalid_arg "Pdm.create: spares must be >= 0";
  (match integrity with
   | Some i when i.overhead < 0 ->
     invalid_arg "Pdm.create: integrity overhead must be >= 0"
   | _ -> ());
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let phys_blocks = physical_blocks_of ~replicas ~blocks_per_disk in
  let phys_disks = physical_disks_of ~disks ~spares in
  (* A factory is the geometry-blind form of [?backends]: we hand it
     the physical blocks-per-disk and the sealed slot width (payload
     plus integrity envelope) and it answers with per-disk constructors
     — or [None], meaning "use the default memory disks". An explicit
     [?backends] wins when both are given. *)
  let backends =
    match backends, factory with
    | Some _, _ | None, None -> backends
    | None, Some f ->
      let slots =
        block_size
        + (match integrity with Some i -> i.overhead | None -> 0)
      in
      f ~blocks:phys_blocks ~slots
  in
  let base d =
    match backends with
    | None -> Backend.memory ~disk:d ~blocks:phys_blocks
    | Some f ->
      let b = f d in
      if b.Backend.blocks <> phys_blocks then
        invalid_arg "Pdm.create: backend capacity <> physical blocks per disk";
      if b.Backend.disk <> d then
        invalid_arg "Pdm.create: backend disk index mismatch";
      b
  in
  let wrap b = match faults with None -> b | Some s -> Fault.wrap s b in
  { disks; block_size; blocks_per_disk; replicas; spares; model; stats;
    integrity;
    backends = Array.init phys_disks (fun d -> wrap (base d));
    down = Array.make phys_disks false;
    remap = Hashtbl.create 16;
    spare_next = Array.make spares 0;
    fault_spec = faults;
    custom_backends = backends <> None;
    killed = false;
    trace;
    rounds_done = 0;
    allocated = 0;
    write_listeners = [] }

let disks t = t.disks
let block_size t = t.block_size
let blocks_per_disk t = t.blocks_per_disk
let replicas t = t.replicas
let spares t = t.spares
let physical_disks t = t.disks + t.spares
let model t = t.model
let stats t = t.stats
let trace t = t.trace
let set_trace t tr = t.trace <- tr
let faults t = t.fault_spec
let integrity t = t.integrity
let rounds_total t = t.rounds_done
let backend t d = t.backends.(d)
let disk_down t d = t.down.(d)
let remapped_replicas t = Hashtbl.length t.remap

let add_write_listener t f = t.write_listeners <- t.write_listeners @ [ f ]

let set_sanitize = Sanitize.set
let sanitize_enabled = Sanitize.active

(* Tell every listener the logical block's stored bits are about to
   change (or just changed): caches drop their copy. Listeners must
   not touch the machine. *)
let notify_write t a =
  match t.write_listeners with
  | [] -> ()
  | fs -> List.iter (fun f -> f a) fs

(* Replica j of logical block {d, b} lives on disk (d + j) mod D in
   that disk's j-th block region — r distinct disks per block, and the
   identity map for j = 0, so an unreplicated machine has the exact
   physical layout of the seed simulator. Repair may move a replica
   elsewhere (a spare disk); the remap table records those moves. *)
let phys t a j =
  match Hashtbl.find_opt t.remap (a, j) with
  | Some p -> p
  | None ->
    if j = 0 then a
    else
      { disk = (a.disk + j) mod t.disks;
        block = (j * t.blocks_per_disk) + a.block }

let check_addr t { disk; block } =
  if disk < 0 || disk >= t.disks then invalid_arg "Pdm: disk out of range";
  if block < 0 || block >= t.blocks_per_disk then
    invalid_arg "Pdm: block out of range"

let replica_disk t a j =
  check_addr t a;
  if j < 0 || j >= t.replicas then
    invalid_arg "Pdm.replica_disk: replica out of range";
  (phys t a j).disk

let replica_disks t a =
  check_addr t a;
  List.init t.replicas (fun j -> (phys t a j).disk)

let dedup addrs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun a ->
      if Hashtbl.mem seen a then false
      else begin
        Hashtbl.add seen a ();
        true
      end)
    addrs

(* Minimal number of rounds to transfer the given distinct blocks on
   healthy disks. *)
let rounds_of_distinct t addrs =
  match addrs with
  | [] -> 0
  | _ ->
    (match t.model with
     | Parallel_heads -> Imath.cdiv (List.length addrs) t.disks
     | Independent_disks ->
       let per_disk = Array.make t.disks 0 in
       List.iter (fun a -> per_disk.(a.disk) <- per_disk.(a.disk) + 1) addrs;
       Array.fold_left max 0 per_disk)

let rounds_for t addrs =
  List.iter (check_addr t) addrs;
  rounds_of_distinct t (dedup addrs)

let block_copy t = function
  | None -> Array.make t.block_size None
  | Some slots -> Array.copy slots

(* A request runs on the slow, round-by-round scheduler whenever its
   rounds cannot be predicted by the closed form: fault injection may
   re-issue blocks, stragglers stretch transfers, custom backends may
   do either, tracing needs to see the actual rounds, and replication,
   spares, integrity checking or a killed disk all need per-block
   failure handling. *)
let scheduled t =
  t.trace <> None || t.fault_spec <> None || t.custom_backends || t.killed
  || t.replicas > 1 || t.spares > 0
  || Option.is_some t.integrity

let add_disk_blocks t ~op per_disk =
  Array.iteri
    (fun d n ->
      if n > 0 then
        match op with
        | Trace.Read -> Stats.add_disk_read t.stats ~disk:d ~blocks:n
        | Trace.Write -> Stats.add_disk_write t.stats ~disk:d ~blocks:n)
    per_disk

(* Why a block transfer finally failed. *)
type fail_reason = R_lost | R_corrupt | R_flaky

let raise_failure t p reason attempts =
  let round = t.rounds_done in
  match reason with
  | R_lost ->
    raise (Backend.Disk_failed { disk = p.disk; block = p.block; round })
  | R_corrupt ->
    raise (Backend.Corrupt_block { disk = p.disk; block = p.block; round })
  | R_flaky ->
    raise
      (Backend.Retries_exhausted
         { disk = p.disk; block = p.block; attempts; round })

(* Round-by-round execution over the physical disks. [perform a
   ~attempt] completes one block transfer, answering [`Done], [`Retry
   reason] (re-queue for a later round, up to the budget) or [`Fail
   reason] (the block cannot be served here; the caller's [on_fail]
   decides whether a replica takes over or the failure is terminal).
   Each disk is a channel draining its own queue in the
   independent-disks model; the head model has interchangeable
   channels over one queue. A transfer occupies [cost] rounds of its
   channel, so a straggling or retried block honestly delays
   everything queued behind it. Returns the number of rounds used. *)
(* Sanitizer verdict on one finished round: every perform call must
   have been accounted as delivered, retried or failed; no disk may
   have been touched twice (independent-disks model); the round cannot
   move more blocks than it has channels; and no disk may be charged
   for more blocks than were actually transferred from it. *)
let sanitize_round t ~round_id ~channels ~touched ~performs ~accounted
    ~per_disk =
  (match t.model with
   | Independent_disks ->
     Array.iteri
       (fun d n ->
         if n > 1 then
           Sanitize.fail ~check:"one-block-per-disk-per-round" ~round:round_id
             (Printf.sprintf "disk %d touched %d blocks in one round" d n))
       touched
   | Parallel_heads -> ());
  let total = Array.fold_left ( + ) 0 touched in
  if total > channels then
    Sanitize.fail ~check:"round-width" ~round:round_id
      (Printf.sprintf "%d blocks moved in one round on %d channels" total
         channels);
  if performs <> accounted then
    Sanitize.fail ~check:"charge-accounting" ~round:round_id
      (Printf.sprintf "%d transfers performed but %d accounted" performs
         accounted);
  Array.iteri
    (fun d n ->
      if n > touched.(d) then
        Sanitize.fail ~check:"phantom-charge" ~round:round_id
          (Printf.sprintf "disk %d charged %d blocks but touched %d" d n
             touched.(d)))
    per_disk

(* pdm-lint: domain local — scheduler round ledger and per-disk queues; one scheduler per simulation, never shared *)
let schedule t ~op ~addrs ~perform ~on_fail =
  let channels = physical_disks t in
  let queues =
    match t.model with
    | Independent_disks ->
      let qs = Array.init channels (fun _ -> Queue.create ()) in
      List.iter (fun a -> Queue.add a qs.(a.disk)) addrs;
      qs
    | Parallel_heads ->
      let q = Queue.create () in
      List.iter (fun a -> Queue.add a q) addrs;
      [| q |]
  in
  let queue_of c =
    match t.model with
    | Independent_disks -> queues.(c)
    | Parallel_heads -> queues.(0)
  in
  let attempts = Hashtbl.create 16 in
  let attempt_of a = Option.value (Hashtbl.find_opt attempts a) ~default:0 in
  let current = Array.make channels None in
  let busy () = Array.exists Option.is_some current in
  let queued () = Array.exists (fun q -> not (Queue.is_empty q)) queues in
  let rounds_used = ref 0 in
  let sanitizing = Sanitize.active () in
  while busy () || queued () do
    let round_id = t.rounds_done + 1 in
    let per_disk = Array.make channels 0 in
    let retries = ref 0 in
    let degraded = ref false in
    let touched = if sanitizing then Array.make channels 0 else [||] in
    let performs = ref 0 and accounted = ref 0 in
    for c = 0 to channels - 1 do
      (match current.(c) with
       | Some _ -> ()
       | None ->
         let q = queue_of c in
         if not (Queue.is_empty q) then begin
           let a = Queue.pop q in
           let cost = t.backends.(a.disk).Backend.cost in
           if sanitizing && cost < 1 then
             Sanitize.fail ~check:"backend-cost" ~round:round_id
               (Printf.sprintf
                  "disk %d advertises cost %d; a transfer takes >= 1 round"
                  a.disk cost);
           current.(c) <- Some (a, cost)
         end);
      match current.(c) with
      | None -> ()
      | Some (a, remaining) ->
        let bk = t.backends.(a.disk) in
        if bk.Backend.cost > 1 then degraded := true;
        let remaining = remaining - 1 in
        if remaining > 0 then current.(c) <- Some (a, remaining)
        else begin
          current.(c) <- None;
          if sanitizing then begin
            incr performs;
            touched.(a.disk) <- touched.(a.disk) + 1
          end;
          match perform a ~attempt:(attempt_of a) with
          | `Done ->
            incr accounted;
            per_disk.(a.disk) <- per_disk.(a.disk) + 1
          | `Fail reason ->
            incr accounted;
            degraded := true;
            on_fail a reason ~attempts:(attempt_of a)
          | `Retry reason ->
            incr accounted;
            incr retries;
            degraded := true;
            let next = attempt_of a + 1 in
            if next > bk.Backend.max_retries then
              on_fail a reason ~attempts:next
            else begin
              Hashtbl.replace attempts a next;
              Queue.add a (queue_of c)
            end
        end
    done;
    if sanitizing then
      sanitize_round t ~round_id ~channels ~touched ~performs:!performs
        ~accounted:!accounted ~per_disk;
    t.rounds_done <- t.rounds_done + 1;
    incr rounds_used;
    (match t.trace with
     | None -> ()
     | Some tr ->
       Trace.record tr
         { Trace.round = round_id; op; per_disk; retries = !retries;
           degraded = !degraded; shard = Trace.shard tr; attempt = 0 });
    add_disk_blocks t ~op per_disk
  done;
  !rounds_used

(* Strip and verify a raw stored block down to its payload. [Ok None]
   = never written (reads as all-empty); [Error ()] = the stored bits
   fail their checksum. Without an integrity envelope everything
   passes. *)
let verify t (d : 'a option array option) =
  match t.integrity, d with
  | None, _ -> Ok d
  | Some _, None -> Ok None
  | Some itg, Some stored ->
    (match itg.check stored with
     | Some payload -> Ok (Some payload)
     | None -> Error ())

(* Counted read of physical addresses with no replica failover: each
   address resolves to [Ok payload] or [Error reason]. Used by scrub,
   which wants per-replica verdicts rather than one healthy answer. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let read_phys_batch t paddrs =
  let results = Hashtbl.create 16 in
  let delivered = ref 0 in
  let perform p ~attempt =
    match t.backends.(p.disk).Backend.read ~attempt p.block with
    | Backend.Data d ->
      (match verify t d with
       | Ok payload ->
         Hashtbl.replace results p (Ok payload);
         incr delivered;
         `Done
       | Error () -> `Retry R_corrupt)
    | Backend.Transient -> `Retry R_flaky
    | Backend.Lost ->
      t.down.(p.disk) <- true;
      `Fail R_lost
  in
  let on_fail p reason ~attempts:_ =
    Hashtbl.replace results p (Error reason)
  in
  let rounds = schedule t ~op:Trace.Read ~addrs:paddrs ~perform ~on_fail in
  Stats.add_read_round t.stats ~blocks:!delivered ~rounds;
  results

(* Replicated, verifying read. Each pass schedules one physical
   candidate per still-unserved logical block — the first candidate
   replica whose disk is not known down — and blocks that fail move to
   their next replica for the following pass. A healthy request is one
   pass (the seed's cost); discovering a dead disk costs one extra
   pass for the affected blocks, after which the health cache routes
   straight to the survivors. Only when a block runs out of replicas
   does the terminal failure escape as a structured exception. The
   candidate list per address is normally [0; 1; ...; r-1]; a caller
   that planned its own replica placement (the query engine) passes a
   rotated list so its chosen replica is tried first. *)
(* pdm-lint: domain local — down-disk mask on t, owned by the scheduler *)
let scheduled_read_candidates t with_candidates =
  let results = ref [] in
  let delivered = ref 0 in
  let pending = ref with_candidates in
  while !pending <> [] do
    let info = Hashtbl.create 16 in
    let paddrs =
      List.map
        (fun (a, cands) ->
          let j =
            match cands with
            | [] ->
              (* pdm-lint: allow R3 — unreachable: every pending entry
                 keeps >= 1 candidate (callers seed [0 .. r-1] with
                 r >= 1, and [on_fail] only re-queues the non-empty
                 remainder of the candidate list). *)
              assert false
            | first :: _ ->
              (match
                 List.find_opt (fun j -> not t.down.((phys t a j).disk)) cands
               with
               | Some j -> j
               | None -> first)
          in
          let p = phys t a j in
          Hashtbl.replace info p (a, List.filter (fun x -> x <> j) cands);
          p)
        !pending
    in
    pending := [];
    let before = !delivered in
    let perform p ~attempt =
      match t.backends.(p.disk).Backend.read ~attempt p.block with
      | Backend.Data d ->
        (match verify t d with
         | Ok payload ->
           let a, _ = Hashtbl.find info p in
           results := (a, block_copy t payload) :: !results;
           incr delivered;
           `Done
         | Error () -> `Retry R_corrupt)
      | Backend.Transient -> `Retry R_flaky
      | Backend.Lost ->
        t.down.(p.disk) <- true;
        `Fail R_lost
    in
    let on_fail p reason ~attempts =
      let a, rest = Hashtbl.find info p in
      match rest with
      | _ :: _ -> pending := (a, rest) :: !pending
      | [] -> raise_failure t p reason attempts
    in
    let rounds = schedule t ~op:Trace.Read ~addrs:paddrs ~perform ~on_fail in
    Stats.add_read_round t.stats ~blocks:(!delivered - before) ~rounds
  done;
  !results

let scheduled_read t addrs =
  scheduled_read_candidates t
    (List.map (fun a -> (a, List.init t.replicas Fun.id)) addrs)

(* Independent recomputation of the closed-form fast-path cost: sort
   the disks and count the longest same-disk run, rather than the
   bucket-array walk of [rounds_of_distinct]. Two different code paths
   must agree on every charge. *)
let sanitize_fast_rounds t ~addrs ~rounds =
  let expect =
    match t.model with
    | Parallel_heads -> Imath.cdiv (List.length addrs) t.disks
    | Independent_disks ->
      let sorted = List.sort compare (List.map (fun a -> a.disk) addrs) in
      let worst, _, _ =
        List.fold_left
          (fun (worst, prev, run) d ->
            let run = if prev = Some d then run + 1 else 1 in
            (max worst run, Some d, run))
          (0, None, 0) sorted
      in
      worst
  in
  if rounds <> expect then
    Sanitize.fail ~check:"closed-form-rounds" ~round:t.rounds_done
      (Printf.sprintf "fast path charged %d rounds; recomputed %d" rounds
         expect)

(* The fast path must charge exactly one block transfer per requested
   address and exactly the closed-form number of rounds — no more
   (padding would hide imbalance) and no less (undercharging would
   fake the bounds). *)
let sanitize_fast_charges ~what ~blocks ~rounds_delta ~blocks_delta ~rounds =
  if blocks_delta <> blocks || rounds_delta <> rounds then
    Sanitize.fail ~check:"fast-path-charges"
      (Printf.sprintf
         "%s of %d blocks / %d rounds charged %d blocks / %d rounds" what
         blocks rounds blocks_delta rounds_delta)

(* pdm-lint: domain local — fast-path round charge on t, owned by the scheduler *)
let read t addrs =
  List.iter (check_addr t) addrs;
  let addrs = dedup addrs in
  if scheduled t then scheduled_read t addrs
  else begin
    let rounds = rounds_of_distinct t addrs in
    let before =
      if Sanitize.active () then begin
        sanitize_fast_rounds t ~addrs ~rounds;
        Some (Stats.snapshot t.stats)
      end
      else None
    in
    Stats.add_read_round t.stats ~blocks:(List.length addrs) ~rounds;
    t.rounds_done <- t.rounds_done + rounds;
    let result =
      List.map
        (fun a ->
          Stats.add_disk_read t.stats ~disk:a.disk ~blocks:1;
          match t.backends.(a.disk).Backend.read ~attempt:0 a.block with
          | Backend.Data d -> (a, block_copy t d)
          | Backend.Transient | Backend.Lost ->
            (* pdm-lint: allow R3 — unreachable: the fast path runs only
               when [scheduled t] is false, i.e. the machine has plain
               in-memory backends, which always answer [Data]. *)
            assert false)
        addrs
    in
    (match before with
     | None -> ()
     | Some before ->
       let d = Stats.diff ~after:(Stats.snapshot t.stats) ~before in
       sanitize_fast_charges ~what:"read" ~blocks:(List.length addrs)
         ~rounds_delta:d.Stats.parallel_reads ~blocks_delta:d.Stats.block_reads
         ~rounds);
    result
  end

let read_one t a =
  match read t [ a ] with
  | [ (_, slots) ] -> slots
  | _ ->
    (* pdm-lint: allow R3 — unreachable: {!read} answers each distinct
       requested address exactly once, so a one-address request always
       yields a one-element list. *)
    assert false

(* Replica-directed read: the caller chose which replica should serve
   each block (e.g. two-choice assignment onto the least-loaded disk);
   the chosen replica is tried first and the remaining ones stay as
   failover candidates in home order. On an unreplicated machine every
   preference is 0 and this is exactly {!read}. *)
let read_preferring t prefs =
  List.iter (fun (a, _) -> check_addr t a) prefs;
  let seen = Hashtbl.create 16 in
  let prefs =
    List.filter
      (fun (a, _) ->
        if Hashtbl.mem seen a then false
        else begin
          Hashtbl.add seen a ();
          true
        end)
      prefs
  in
  if not (scheduled t) then read t (List.map fst prefs)
  else
    scheduled_read_candidates t
      (List.map
         (fun (a, j) ->
           if j < 0 || j >= t.replicas then
             invalid_arg "Pdm.read_preferring: replica out of range";
           (a, j :: List.filter (fun x -> x <> j) (List.init t.replicas Fun.id)))
         prefs)

(* Run a user-supplied integrity envelope, cross-checking (under the
   sanitizer) that it really produces stored images of the size it
   declared — a lying envelope would silently shift every block's
   payload boundary. *)
let apply_envelope t itg slots =
  let sealed = itg.seal slots in
  if
    Sanitize.active ()
    && Array.length sealed <> t.block_size + itg.overhead
  then
    Sanitize.fail ~check:"integrity-envelope" ~round:t.rounds_done
      (Printf.sprintf
         "envelope %S declared overhead %d but sealed %d cells to %d"
         itg.tag itg.overhead t.block_size (Array.length sealed));
  sealed

(* Seal a payload for storage (checksum appended when the machine
   carries an integrity envelope). Always returns a fresh array. *)
let seal t slots =
  if Array.length slots <> t.block_size then
    invalid_arg "Pdm.write: block has wrong length";
  match t.integrity with
  | None -> Array.copy slots
  | Some itg -> apply_envelope t itg slots

(* Store already-sealed data at one physical address. Raises
   [Backend.Disk_failed] on a dead disk before touching the
   allocation counter. *)
(* pdm-lint: domain local — allocation high-water mark on t, owned by the scheduler *)
let store_phys t p data =
  let bk = t.backends.(p.disk) in
  let fresh = not (bk.Backend.exists p.block) in
  bk.Backend.write p.block (Array.copy data);
  if fresh then t.allocated <- t.allocated + 1

(* Single-block counted write used by repair; false when the target
   disk turns out to be dead. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let write_phys_one t p data =
  let ok = ref false in
  let perform p ~attempt:_ =
    match store_phys t p data with
    | () ->
      ok := true;
      `Done
    | exception Backend.Disk_failed _ ->
      t.down.(p.disk) <- true;
      `Fail R_lost
  in
  let on_fail _ _ ~attempts:_ = () in
  let rounds = schedule t ~op:Trace.Write ~addrs:[ p ] ~perform ~on_fail in
  Stats.add_write_round t.stats ~blocks:(if !ok then 1 else 0) ~rounds;
  !ok

(* Replicated write: every logical block is sealed once and stored on
   all r of its replica disks in one scheduled request. A replica
   landing on a disk that is (or turns out to be) dead is skipped —
   the block survives as long as one replica is stored; only when all
   r replicas fail does the write raise. *)
(* pdm-lint: domain local — down-disk mask on t, owned by the scheduler *)
let scheduled_write t blocks =
  let sealed = Hashtbl.create 16 in
  let owner = Hashtbl.create 16 in
  let failed = Hashtbl.create 4 in
  let stored = ref 0 in
  let fail_one p reason attempts =
    let a = Hashtbl.find owner p in
    let n = 1 + Option.value (Hashtbl.find_opt failed a) ~default:0 in
    Hashtbl.replace failed a n;
    if n >= t.replicas then raise_failure t p reason attempts
  in
  let paddrs =
    List.concat_map
      (fun (a, slots) ->
        let data = seal t slots in
        List.init t.replicas (fun j ->
            let p = phys t a j in
            Hashtbl.replace sealed p data;
            Hashtbl.replace owner p a;
            p))
      blocks
  in
  (* replicas on disks already known down fail without costing a
     round — there is nothing to schedule there *)
  let paddrs =
    List.filter
      (fun p ->
        if t.down.(p.disk) then begin
          fail_one p R_lost 0;
          false
        end
        else true)
      paddrs
  in
  let perform p ~attempt:_ =
    match store_phys t p (Hashtbl.find sealed p) with
    | () ->
      incr stored;
      `Done
    | exception Backend.Disk_failed _ ->
      t.down.(p.disk) <- true;
      `Fail R_lost
  in
  let on_fail p reason ~attempts = fail_one p reason attempts in
  let rounds = schedule t ~op:Trace.Write ~addrs:paddrs ~perform ~on_fail in
  Stats.add_write_round t.stats ~blocks:!stored ~rounds

(* Fast-path store (identical to the seed simulator). *)
(* pdm-lint: domain local — allocation high-water mark on t, owned by the scheduler *)
let store_block t a slots =
  if Array.length slots <> t.block_size then
    invalid_arg "Pdm.write: block has wrong length";
  let bk = t.backends.(a.disk) in
  if not (bk.Backend.exists a.block) then t.allocated <- t.allocated + 1;
  bk.Backend.write a.block (Array.copy slots)

(* pdm-lint: domain local — fast-path round charge on t, owned by the scheduler *)
let write t blocks =
  List.iter (fun (a, _) -> check_addr t a) blocks;
  let addrs = List.map fst blocks in
  if List.length (dedup addrs) <> List.length addrs then
    invalid_arg "Pdm.write: duplicate address in one request";
  List.iter (notify_write t) addrs;
  if scheduled t then scheduled_write t blocks
  else begin
    let rounds = rounds_of_distinct t addrs in
    let before =
      if Sanitize.active () then begin
        sanitize_fast_rounds t ~addrs ~rounds;
        Some (Stats.snapshot t.stats)
      end
      else None
    in
    Stats.add_write_round t.stats ~blocks:(List.length blocks) ~rounds;
    t.rounds_done <- t.rounds_done + rounds;
    List.iter
      (fun (a, slots) ->
        Stats.add_disk_write t.stats ~disk:a.disk ~blocks:1;
        store_block t a slots)
      blocks;
    match before with
    | None -> ()
    | Some before ->
      let d = Stats.diff ~after:(Stats.snapshot t.stats) ~before in
      sanitize_fast_charges ~what:"write" ~blocks:(List.length blocks)
        ~rounds_delta:d.Stats.parallel_writes
        ~blocks_delta:d.Stats.block_writes ~rounds
  end

let write_one t a slots = write t [ (a, slots) ]

(* Uncounted view of one logical block: the first replica whose
   stored bits exist and pass the integrity check, as a payload. *)
let stored_payload t a =
  let rec go j =
    if j >= t.replicas then None
    else
      let p = phys t a j in
      match t.backends.(p.disk).Backend.peek p.block with
      | None -> go (j + 1)
      | Some stored ->
        (match t.integrity with
         | None -> Some stored
         | Some itg ->
           (match itg.check stored with
            | Some payload -> Some payload
            | None -> go (j + 1)))
  in
  go 0

let peek t a =
  check_addr t a;
  block_copy t (stored_payload t a)

let poke t a slots =
  check_addr t a;
  if Array.length slots <> t.block_size then
    invalid_arg "Pdm.poke: block has wrong length";
  notify_write t a;
  let data =
    match t.integrity with
    | None -> slots
    | Some itg -> apply_envelope t itg slots
  in
  for j = 0 to t.replicas - 1 do
    let p = phys t a j in
    let bk = t.backends.(p.disk) in
    if not (bk.Backend.exists p.block) then t.allocated <- t.allocated + 1;
    bk.Backend.poke p.block (Some (Array.copy data))
  done

(* Durability barrier across every live disk (uncounted: PDM rounds
   model block transfers, not flushes). The journal calls this at its
   commit points so real-I/O backends are crash-consistent. *)
let barrier t = Array.iter (fun bk -> bk.Backend.barrier ()) t.backends

let allocated_blocks t = t.allocated

let capacity_items t = t.disks * t.blocks_per_disk * t.block_size

let iter_allocated t f =
  for d = 0 to t.disks - 1 do
    for b = 0 to t.blocks_per_disk - 1 do
      let a = { disk = d; block = b } in
      match stored_payload t a with
      | None -> ()
      | Some payload -> f a payload
    done
  done

(* ------------------------------------------------------------------ *)
(* Failure, damage and repair                                          *)

(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let kill_disk t d =
  if d < 0 || d >= physical_disks t then
    invalid_arg "Pdm.kill_disk: disk out of range";
  let blocks = physical_blocks_of ~replicas:t.replicas
      ~blocks_per_disk:t.blocks_per_disk in
  t.backends.(d) <- Backend.dead ~disk:d ~blocks;
  t.down.(d) <- true;
  t.killed <- true

let damage_stored t a ~replica =
  check_addr t a;
  if replica < 0 || replica >= t.replicas then
    invalid_arg "Pdm.damage_stored: replica out of range";
  let p = phys t a replica in
  let bk = t.backends.(p.disk) in
  match bk.Backend.peek p.block with
  | None -> ()
  | Some slots ->
    let n = Array.length slots in
    if n >= 2 then
      bk.Backend.poke p.block
        (Some (Array.init n (fun i -> slots.((i + n - 1) mod n))))

type scrub_report = {
  scanned_blocks : int;
  intact_replicas : int;
  corrupt_replicas : int;
  missing_replicas : int;
  repaired_replicas : int;
  remapped_replicas : int;
  unrepairable_replicas : int;
  lost_blocks : int;
  scan_rounds : int;
  repair_rounds : int;
}

(* Next free block on a healthy spare disk, or None when the spare
   budget is exhausted. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let alloc_spare t =
  let rec go s =
    if s >= t.spares then None
    else
      let d = t.disks + s in
      let cap =
        physical_blocks_of ~replicas:t.replicas
          ~blocks_per_disk:t.blocks_per_disk
      in
      if t.down.(d) || t.spare_next.(s) >= cap then go (s + 1)
      else begin
        let b = t.spare_next.(s) in
        t.spare_next.(s) <- b + 1;
        Some { disk = d; block = b }
      end
  in
  go 0

(* Does any replica of [a] hold raw bits? Decides whether the logical
   block was ever written — an uncounted metadata question (a real
   system reads its allocation map, not the platters). *)
let raw_allocated t a =
  let rec go j =
    j < t.replicas
    &&
    let p = phys t a j in
    t.backends.(p.disk).Backend.exists p.block || go (j + 1)
  in
  go 0

(* Scrub: sweep every allocated logical block, read all its replicas
   (one scheduled batch per block — r distinct disks, so one round
   when healthy), verify checksums, and rewrite every bad replica
   from an intact one: in place when its disk still answers, onto a
   spare disk (recording the move in the remap table) when it does
   not. Every verification read and repair write is charged through
   the normal scheduler, so the report's round counts are the honest
   repair I/O budget. *)
(* pdm-lint: domain local — machine state; every machine belongs to
   one shard, driven by that shard's single owning domain *)
let scrub t =
  let scanned = ref 0 and intact = ref 0 and corrupt = ref 0 in
  let missing = ref 0 and repaired = ref 0 and remapped = ref 0 in
  let unrepairable = ref 0 and lost = ref 0 in
  let scan_rounds = ref 0 and repair_rounds = ref 0 in
  let counting counter f =
    let before = t.rounds_done in
    let r = f () in
    counter := !counter + (t.rounds_done - before);
    r
  in
  (* Re-store [payload] for replica [j] of [a]: in place if that disk
     answers, else onto a spare; verify the write by reading it back. *)
  let repair_replica a j payload =
    (* The stored bits of this logical block are about to be
       rewritten; any cache must drop its copy (conservatively, even
       if the repair then fails). *)
    notify_write t a;
    let data = seal t payload in
    let home = phys t a j in
    let try_target target =
      counting repair_rounds (fun () ->
          write_phys_one t target data
          &&
          match Hashtbl.find_opt (read_phys_batch t [ target ]) target with
          | Some (Ok (Some _)) -> true
          | _ -> false)
    in
    let record target =
      incr repaired;
      if target <> home then begin
        Hashtbl.replace t.remap (a, j) target;
        incr remapped
      end
    in
    let to_spare () =
      match alloc_spare t with
      | None -> incr unrepairable
      | Some target ->
        if try_target target then record target else incr unrepairable
    in
    if t.down.(home.disk) then to_spare ()
    else if try_target home then record home
    else to_spare ()
  in
  for d = 0 to t.disks - 1 do
    for b = 0 to t.blocks_per_disk - 1 do
      let a = { disk = d; block = b } in
      if raw_allocated t a then begin
        incr scanned;
        let homes = List.init t.replicas (fun j -> (j, phys t a j)) in
        let live, dead =
          List.partition (fun (_, p) -> not t.down.(p.disk)) homes
        in
        let verdicts =
          counting scan_rounds (fun () ->
              read_phys_batch t (List.map snd live))
        in
        let status (j, p) =
          if t.down.(p.disk) then (j, `Missing)
          else
            match Hashtbl.find_opt verdicts p with
            | Some (Ok (Some payload)) -> (j, `Intact payload)
            | Some (Ok None) -> (j, `Missing)
            | Some (Error R_corrupt) -> (j, `Corrupt)
            | Some (Error (R_lost | R_flaky)) | None -> (j, `Missing)
        in
        let statuses = List.map status (live @ dead) in
        let good =
          List.find_map
            (function _, `Intact payload -> Some payload | _ -> None)
            (List.sort (fun (j, _) (k, _) -> compare j k) statuses)
        in
        List.iter
          (fun (_, st) ->
            match st with
            | `Intact _ -> incr intact
            | `Corrupt -> incr corrupt
            | `Missing -> incr missing)
          statuses;
        match good with
        | None -> incr lost
        | Some payload ->
          List.iter
            (fun (j, st) ->
              match st with
              | `Intact _ -> ()
              | `Corrupt | `Missing -> repair_replica a j payload)
            statuses
      end
    done
  done;
  { scanned_blocks = !scanned;
    intact_replicas = !intact;
    corrupt_replicas = !corrupt;
    missing_replicas = !missing;
    repaired_replicas = !repaired;
    remapped_replicas = !remapped;
    unrepairable_replicas = !unrepairable;
    lost_blocks = !lost;
    scan_rounds = !scan_rounds;
    repair_rounds = !repair_rounds }

(* Persistence: geometry and store only; counters restart at zero and
   the reloaded machine always has plain in-memory backends (fault
   schedules, traces and disk health are run-time configuration, not
   state). Integrity envelopes are closures, which Marshal cannot
   carry — the loader takes the envelope again as an argument. *)
type 'a snapshot_on_disk = {
  s_disks : int;
  s_block_size : int;
  s_blocks_per_disk : int;
  s_replicas : int;
  s_spares : int;
  s_model : model;
  s_store : 'a option array option array array;
  s_remap : ((addr * int) * addr) list;
  s_spare_next : int array;
  s_allocated : int;
}

let save_to_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Marshal.to_channel oc
        { s_disks = t.disks; s_block_size = t.block_size;
          s_blocks_per_disk = t.blocks_per_disk; s_replicas = t.replicas;
          s_spares = t.spares; s_model = t.model;
          s_store = Array.map (fun b -> b.Backend.dump ()) t.backends;
          s_remap = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.remap [];
          s_spare_next = Array.copy t.spare_next;
          s_allocated = t.allocated }
        [])

let load_from_file ?integrity path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let s : 'a snapshot_on_disk = Marshal.from_channel ic in
      (match integrity with
       | Some i when i.overhead < 0 ->
         invalid_arg "Pdm.load_from_file: integrity overhead must be >= 0"
       | _ -> ());
      let phys_disks =
        physical_disks_of ~disks:s.s_disks ~spares:s.s_spares
      in
      let remap = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace remap k v) s.s_remap;
      { disks = s.s_disks; block_size = s.s_block_size;
        blocks_per_disk = s.s_blocks_per_disk; replicas = s.s_replicas;
        spares = s.s_spares; model = s.s_model;
        stats = Stats.create ();
        integrity;
        backends =
          Array.init phys_disks (fun d ->
              Backend.of_store ~disk:d s.s_store.(d));
        down = Array.make phys_disks false;
        remap;
        spare_next = Array.copy s.s_spare_next;
        fault_spec = None;
        custom_backends = false;
        killed = false;
        trace = None;
        rounds_done = 0;
        allocated = s.s_allocated;
        write_listeners = [] })

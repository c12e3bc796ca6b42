module Pdm = Pdm_sim.Pdm
module Cache = Pdm_sim.Cache
module Backend = Pdm_sim.Backend

type addr = Pdm.addr

type blocks = (addr * int option array) list

type step =
  | Done of Bytes.t option
  | Fetch of addr list * (blocks -> step)

type dict = {
  name : string;
  machine : int Pdm.t;
  lookup : int -> step;
  insert : (int -> Bytes.t -> unit) option;
  delete : (int -> bool) option;
}

type request = Lookup of int | Insert of int * Bytes.t | Delete of int

let request_key = function Lookup k -> k | Insert (k, _) -> k | Delete k -> k

type config = {
  max_batch : int;
  deadline_rounds : int;
  cache_blocks : int;
}

let default_config = { max_batch = 64; deadline_rounds = 4; cache_blocks = 0 }

type outcome = {
  id : int;
  request : request;
  value : Bytes.t option;
  submitted : int;
  completed : int;
}

let latency o = o.completed - o.submitted

exception Request_failed of { id : int; key : int; error : exn }

type pending = { id : int; request : request; submitted : int }

type stats = {
  rounds : int;
  fetch_rounds : int;
  insert_rounds : int;
  blocks_fetched : int;
  requests_served : int;
  batches : int;
  coalesced : int;
  cache_hits : int;
  total_latency : int;
  max_latency : int;
}

type t = {
  dict : dict;
  cfg : config;
  cache : int Cache.t option;
  queue : pending Queue.t;
  mutable next_id : int;
  mutable round : int;
  mutable outcomes : outcome list; (* completion order, reversed *)
  disk_load : int array;           (* cumulative fetches per physical disk *)
  mutable util : int list;         (* blocks per fetch round, reversed *)
  (* counters *)
  mutable served : int;
  mutable batches : int;
  mutable fetch_rounds : int;
  mutable insert_rounds : int;
  mutable blocks_fetched : int;
  mutable coalesced : int;
  mutable cache_hits : int;
  mutable total_latency : int;
  mutable max_latency : int;
  (* Round planner scratch, reused across batches (see [fetch_all]):
     per waiting block its address, owner, replica disks (r per block,
     flat) and list link; per physical disk the stamp of the round that
     took it and how many waiting blocks list it; the blocks issued
     this round and their chosen replicas. *)
  mutable w_addr : addr array;
  mutable w_owner : pending array;
  mutable w_disks : int array;
  mutable w_next : int array;
  mutable issued : int array;
  mutable issued_rep : int array;
  taken : int array;
  waiting_on : int array;
  mutable stamp : int;
}

let create ?(config = default_config) dict =
  if config.max_batch < 1 then invalid_arg "Engine.create: max_batch >= 1";
  if config.deadline_rounds < 0 then
    invalid_arg "Engine.create: deadline_rounds >= 0";
  let cache =
    if config.cache_blocks > 0 then
      Some (Cache.create dict.machine ~capacity_blocks:config.cache_blocks)
    else None
  in
  let phys = Pdm.physical_disks dict.machine in
  {
    dict; cfg = config; cache; queue = Queue.create ();
    next_id = 0; round = 0; outcomes = [];
    disk_load = Array.make phys 0;
    util = []; served = 0; batches = 0; fetch_rounds = 0; insert_rounds = 0;
    blocks_fetched = 0; coalesced = 0; cache_hits = 0; total_latency = 0;
    max_latency = 0;
    w_addr = [||]; w_owner = [||]; w_disks = [||]; w_next = [||];
    issued = [||]; issued_rep = [||];
    taken = Array.make phys 0;
    waiting_on = Array.make phys 0; stamp = 0;
  }

let dict t = t.dict
let config t = t.cfg
let round t = t.round
let queue_length t = Queue.length t.queue

let stats t =
  {
    rounds = t.round;
    fetch_rounds = t.fetch_rounds;
    insert_rounds = t.insert_rounds;
    blocks_fetched = t.blocks_fetched;
    requests_served = t.served;
    batches = t.batches;
    coalesced = t.coalesced;
    cache_hits = t.cache_hits;
    total_latency = t.total_latency;
    max_latency = t.max_latency;
  }

let utilization_histogram t = Array.of_list (List.rev t.util)

let mean_utilization t =
  match t.util with
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

(* pdm-lint: domain local — outcome list swap on the engine's own state; one serving domain owns t *)
let take_outcomes t =
  let r = List.rev t.outcomes in
  t.outcomes <- [];
  List.sort (fun (a : outcome) b -> compare a.id b.id) r

(* pdm-lint: domain local — latency/served counters on t, mutated only from the owning round loop *)
let complete t p value =
  let lat = t.round - p.submitted in
  t.served <- t.served + 1;
  t.total_latency <- t.total_latency + lat;
  if lat > t.max_latency then t.max_latency <- lat;
  t.outcomes <-
    { id = p.id; request = p.request; value; submitted = p.submitted;
      completed = t.round }
    :: t.outcomes

(* Wrap the structured storage errors with the id of the request being
   served when they surfaced; anything else propagates untouched. *)
let wrap_failure ~id ~key error =
  match Backend.describe error with
  | Some _ -> Request_failed { id; key; error }
  | None -> error

let guard ~id ~key ?(describe = Backend.describe) f =
  try f ()
  with e -> (
    match describe e with
    | Some _ -> raise (Request_failed { id; key; error = e })
    | None -> raise e)

(* A removed key answers the empty value, an absent one answers
   [None] — so delete outcomes carry their found/not-found bit through
   the same [value] channel lookups use. *)
let deleted_value removed = if removed then Some Bytes.empty else None

(* pdm-lint: domain local — round counters on t, advanced only by the owning round loop *)
let exec_update t p =
  let key = request_key p.request in
  let before = Pdm.rounds_total t.dict.machine in
  let value =
    match p.request with
    | Insert (k, v) -> (
      match t.dict.insert with
      | None -> invalid_arg "Engine: dictionary does not support insert"
      | Some ins ->
        (try ins k v with e -> raise (wrap_failure ~id:p.id ~key e));
        None)
    | Delete k -> (
      match t.dict.delete with
      | None -> invalid_arg "Engine: dictionary does not support delete"
      | Some del ->
        let removed =
          try del k with e -> raise (wrap_failure ~id:p.id ~key e)
        in
        deleted_value removed)
    | Lookup _ -> invalid_arg "Engine: exec_update on a lookup"
  in
  let delta = Pdm.rounds_total t.dict.machine - before in
  t.round <- t.round + delta;
  t.insert_rounds <- t.insert_rounds + delta;
  complete t p value

(* Advance a step as far as the fetched blocks allow. *)
let rec settle tbl st =
  match st with
  | Done _ -> st
  | Fetch (addrs, k) ->
    if List.for_all (Hashtbl.mem tbl) addrs then
      settle tbl (k (List.map (fun a -> (a, Hashtbl.find tbl a)) addrs))
    else st

(* Grow the planner scratch to hold [n] waiting blocks of [r]
   replicas; never shrinks, so a steady batch size allocates nothing. *)
(* pdm-lint: domain local — planner scratch on t, owned by the engine's single domain *)
let reserve t n r =
  if Array.length t.w_next < n then begin
    let cap = max n (2 * Array.length t.w_next) in
    let blank = { Pdm.disk = 0; block = 0 } in
    t.w_addr <- Array.make cap blank;
    t.w_owner <-
      Array.make cap { id = -1; request = Lookup 0; submitted = 0 };
    t.w_next <- Array.make cap (-1);
    t.issued <- Array.make cap 0;
    t.issued_rep <- Array.make cap 0
  end;
  if Array.length t.w_disks < n * r then
    t.w_disks <- Array.make (max (n * r) (2 * Array.length t.w_disks)) 0

(* Engine rounds: each assigns every wanted block to a free, healthy
   replica disk (least cumulative load wins, the first replica in home
   order on ties); blocks whose healthy replicas are all busy wait for
   the next round, in their original order. A block with no healthy
   replica left is issued anyway on replica 0 so the machine's
   structured error surfaces — attributed to the oldest waiting
   request.

   Replica disks are resolved once per call; waiting blocks form an
   index-linked list in [w_next], so an issued block leaves in O(1); a
   disk is taken for the round when [taken.(d)] holds the round's
   stamp. [waiting_on.(d)] counts the waiting blocks that list disk d,
   so [open_disks] — the disks with waiting blocks not yet taken this
   round — says when no later block can be placed: the scan stops
   there. A down disk is never taken, so while a waiting block lists
   one the scan runs to the end of the list, and blocks without a
   healthy replica are still issued. *)
(* pdm-lint: domain local — round/util counters and planner scratch owned by the engine's single domain *)
let fetch_all t tbl wanted =
  let m = t.dict.machine in
  let r = Pdm.replicas m in
  let phys = Array.length t.taken in
  let n = List.length wanted in
  reserve t n r;
  Array.fill t.waiting_on 0 phys 0;
  List.iteri
    (fun i (a, p) ->
      t.w_addr.(i) <- a;
      t.w_owner.(i) <- p;
      t.w_next.(i) <- (if i + 1 < n then i + 1 else -1);
      for j = 0 to r - 1 do
        let d = Pdm.replica_disk m a j in
        t.w_disks.((i * r) + j) <- d;
        t.waiting_on.(d) <- t.waiting_on.(d) + 1
      done)
    wanted;
  let head = ref (if n > 0 then 0 else -1) in
  while !head >= 0 do
    t.stamp <- t.stamp + 1;
    let stamp = t.stamp in
    let open_disks = ref 0 in
    for d = 0 to phys - 1 do
      if t.waiting_on.(d) > 0 then incr open_disks
    done;
    let n_issued = ref 0 in
    let prev = ref (-1) and i = ref !head in
    while !i >= 0 && !open_disks > 0 do
      let b = !i in
      let next = t.w_next.(b) in
      let base = b * r in
      let healthy = ref false and best = ref (-1) in
      for j = 0 to r - 1 do
        let d = t.w_disks.(base + j) in
        if not (Pdm.disk_down m d) then begin
          healthy := true;
          if
            t.taken.(d) <> stamp
            && (!best < 0
               || t.disk_load.(d) < t.disk_load.(t.w_disks.(base + !best)))
          then best := j
        end
      done;
      let rep =
        if not !healthy then 0
        else if !best < 0 then -1
        else begin
          let d = t.w_disks.(base + !best) in
          t.taken.(d) <- stamp;
          decr open_disks;
          !best
        end
      in
      if rep < 0 then prev := b
      else begin
        t.issued.(!n_issued) <- b;
        t.issued_rep.(!n_issued) <- rep;
        incr n_issued;
        if !prev < 0 then head := next else t.w_next.(!prev) <- next;
        for j = 0 to r - 1 do
          let d = t.w_disks.(base + j) in
          t.waiting_on.(d) <- t.waiting_on.(d) - 1;
          if t.waiting_on.(d) = 0 && t.taken.(d) <> stamp then
            decr open_disks
        done
      end;
      i := next
    done;
    let assignment = ref [] in
    for k = !n_issued - 1 downto 0 do
      assignment :=
        (t.w_addr.(t.issued.(k)), t.issued_rep.(k)) :: !assignment
    done;
    let before = Pdm.rounds_total m in
    let fetched =
      try Pdm.read_preferring m !assignment
      with e -> (
        match Backend.describe e with
        | None -> raise e
        | Some _ ->
          (* Attribute to the oldest request waiting on a block of the
             failing disk (falling back to the round's first). *)
          let failing_disk =
            match e with
            | Backend.Disk_failed err | Backend.Corrupt_block err ->
              err.Backend.disk
            | Backend.Retries_exhausted { disk; _ } -> disk
            | _ -> -1
          in
          let lists_failing b =
            let rec go j =
              j < r && (t.w_disks.((b * r) + j) = failing_disk || go (j + 1))
            in
            go 0
          in
          let rec find k =
            if k >= !n_issued then 0
            else if lists_failing t.issued.(k) then k
            else find (k + 1)
          in
          (* an empty round cannot have raised; re-surface as-is *)
          if !n_issued = 0 then raise e;
          let culprit = t.w_owner.(t.issued.(find 0)) in
          raise
            (Request_failed
               { id = culprit.id; key = request_key culprit.request;
                 error = e }))
    in
    let delta = max 1 (Pdm.rounds_total m - before) in
    t.round <- t.round + delta;
    t.fetch_rounds <- t.fetch_rounds + delta;
    t.blocks_fetched <- t.blocks_fetched + List.length fetched;
    t.util <- List.length fetched :: t.util;
    for k = 0 to !n_issued - 1 do
      let d = t.w_disks.((t.issued.(k) * r) + t.issued_rep.(k)) in
      t.disk_load.(d) <- t.disk_load.(d) + 1
    done;
    List.iter
      (fun (a, data) ->
        Hashtbl.replace tbl a data;
        match t.cache with
        | Some c -> Cache.note_fetched c a data
        | None -> ())
      fetched
  done

(* pdm-lint: domain local — batch bookkeeping on t; batches are formed and executed on one domain *)
let run_batch t batch =
  t.batches <- t.batches + 1;
  (* Updates first, serialized in submission order, so every lookup in
     the batch observes all of the batch's writes and removals. *)
  let updates, lookups =
    List.partition
      (fun p ->
        match p.request with Insert _ | Delete _ -> true | Lookup _ -> false)
      batch
  in
  List.iter (fun p -> exec_update t p) updates;
  let tbl : (addr, int option array) Hashtbl.t = Hashtbl.create 64 in
  let inflight =
    List.map (fun p -> (p, ref (t.dict.lookup (request_key p.request)))) lookups
  in
  let rec pass inflight =
    let still =
      List.filter
        (fun (p, str) ->
          match settle tbl !str with
          | Done v ->
            complete t p v;
            false
          | st ->
            str := st;
            true)
        inflight
    in
    if still <> [] then begin
      (* Plan: union of missing blocks across all in-flight steps, in
         first-seen (= oldest request first) order. Every repeat of an
         already-planned or already-fetched block is one coalesced
         fetch. *)
      let seen = Hashtbl.create 64 in
      let wanted = ref [] in
      List.iter
        (fun (p, str) ->
          match !str with
          | Done _ ->
            (* pdm-lint: allow R3 — unreachable: [still] keeps only
               requests whose step did not settle to [Done] in the
               filter above. *)
            assert false
          | Fetch (addrs, _) ->
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
      let wanted = List.rev !wanted in
      let misses =
        List.filter
          (fun (a, _) ->
            match t.cache with
            | None -> true
            | Some c -> (
              match Cache.find_cached c a with
              | Some data ->
                Hashtbl.replace tbl a data;
                t.cache_hits <- t.cache_hits + 1;
                false
              | None -> true))
          wanted
      in
      if misses <> [] then fetch_all t tbl misses;
      pass still
    end
  in
  pass inflight

(* pdm-lint: domain local — queue pop from t.queue; submit/take run on the same serving domain today *)
let take_batch t =
  let rec go n acc =
    if n = 0 || Queue.is_empty t.queue then List.rev acc
    else go (n - 1) (Queue.pop t.queue :: acc)
  in
  go t.cfg.max_batch []

let due t =
  Queue.length t.queue >= t.cfg.max_batch
  || (not (Queue.is_empty t.queue))
     && t.round - (Queue.peek t.queue).submitted >= t.cfg.deadline_rounds

let pump t =
  while due t do
    run_batch t (take_batch t)
  done

let drain t =
  while not (Queue.is_empty t.queue) do
    run_batch t (take_batch t)
  done

(* pdm-lint: domain local — round counter on t, owned by the round loop *)
let idle_round t =
  t.round <- t.round + 1;
  pump t

(* pdm-lint: domain local — request id counter and queue push; single producer domain today *)
let submit t request =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  Queue.add { id; request; submitted = t.round } t.queue;
  pump t;
  id

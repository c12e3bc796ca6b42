(* serve_pipelined: pdm-serve as a child process (4 shards, 1 worker
   domain), driven from this thread over 2 connections that each keep
   32 single-op frames in flight, in a closed loop.

   Keys are uniform over a 16384-key population, half of it preloaded.
   Connection c owns the population positions i with i mod 2 = c, so
   every key has one send order, and the daemon applies a key's ops in
   that order (one shard, one FIFO mailbox). Each reply is therefore
   checked exactly against the model as it stood when its frame was
   sent.

   The traced run adds, after the timed phases: the server-side codec
   replayed on the workload's own frames, the op stream replayed through
   [Data_plane.execute] in per-shard order, and the same stream replayed
   through an instrumented copy of each shard ([Stack]). *)

module Engine = Pdm_engine.Engine
module Wire = Pdm_server.Wire
module Client = Pdm_server.Client
module Data_plane = Pdm_server.Data_plane

type spec = {
  population : int;
  shards : int;
  conns : int;
  window : int;
  counted_ops : int;
      (** the daemon's peak RSS is read when this many replies of the
          timed phase are in, so it does not follow throughput *)
}

let serve_pipelined =
  { population = 16384; shards = 4; conns = 2; window = 32; counted_ops = 32768 }

let smoke spec =
  { spec with population = spec.population / 16; counted_ops = spec.counted_ops / 16 }

(* The daemon's data plane as pdm-serve builds it from these flags. *)
let flags spec =
  [ "--port"; "0"; "--shards"; string_of_int spec.shards; "--domains"; "1";
    "--capacity"; string_of_int spec.population ]

let plane spec =
  { Data_plane.default_config with
    Data_plane.shards = spec.shards;
    shard_capacity = max 8 (spec.population / spec.shards) }

(* --- the child process ---------------------------------------------- *)

type daemon = { pid : int; out : Unix.file_descr; mutable port : int; mutable live : bool }

let live : daemon list ref = ref []

(* pdm-lint: allow R2 — load-generator process and socket control; the
   daemon's answers are checked against the model, never derived from it *)
let kill_all () =
  List.iter
    (fun d ->
      if d.live then begin
        d.live <- false;
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end)
    !live

let () = at_exit kill_all

(* Read the child's stdout until EOF, giving up after [timeout] s of
   silence. *)
(* pdm-lint: allow R2 — load-generator process and socket control; the
   daemon's answers are checked against the model, never derived from it *)
let read_all fd ~timeout =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> None
    | _ ->
      let n = Unix.read fd chunk 0 4096 in
      if n = 0 then Some (Buffer.contents buf)
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      end
  in
  go ()

(* pdm-lint: allow R2 — load-generator process and socket control; the
   daemon's answers are checked against the model, never derived from it *)
let read_line fd ~timeout =
  let buf = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.select [ fd ] [] [] timeout with
    | [], _, _ -> None
    | _ ->
      if Unix.read fd c 0 1 = 0 then None
      else if Bytes.get c 0 = '\n' then Some (Buffer.contents buf)
      else begin
        Buffer.add_bytes buf c;
        go ()
      end
  in
  go ()

(* pdm-lint: allow R2 — load-generator process and socket control; the
   daemon's answers are checked against the model, never derived from it *)
let spawn ~exe spec =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: flags spec) in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let d = { pid; out = r; port = 0; live = true } in
  live := d :: !live;
  match read_line r ~timeout:30. with
  | Some line -> (
    match Scanf.sscanf_opt line "pdm-serve listening on %d" Fun.id with
    | Some port ->
      d.port <- port;
      d
    | None -> failwith ("pdm-serve: unexpected first line: " ^ line))
  | None -> failwith "pdm-serve did not start"

(* SIGTERM, then the daemon must drain, print its stop line and exit 0. *)
(* pdm-lint: allow R2 — load-generator process and socket control; the
   daemon's answers are checked against the model, never derived from it *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let rest = read_all d.out ~timeout:30. in
  Unix.close d.out;
  if rest = None then Unix.kill d.pid Sys.sigkill;
  let _, status = Unix.waitpid [] d.pid in
  d.live <- false;
  let said_stopped =
    match rest with
    | Some s ->
      List.exists
        (fun l -> String.length l >= 17 && String.sub l 0 17 = "pdm-serve stopped")
        (String.split_on_char '\n' s)
    | None -> false
  in
  status = Unix.WEXITED 0 && said_stopped

(* --- the closed loop ------------------------------------------------- *)

type pending = { op : Wire.op; want : Wire.result_; sent_ns : int }

type conn = {
  client : Client.t;
  inflight : (int, pending) Hashtbl.t;
  out : Buffer.t;  (** the frames of one refill, written together *)
  mutable next_rid : int;
  mutable empty_drains : int;  (** consecutive drains that completed no frame *)
}

let s_send = Span.register "client.send"
let s_drain = Span.register "client.drain"

let wire_op = function
  | Engine.Lookup k -> Wire.Get k
  | Engine.Insert (k, v) -> Wire.Insert (k, v)
  | Engine.Delete k -> Wire.Delete k

let key_of = function Wire.Get k | Wire.Insert (k, _) | Wire.Delete k -> k

(* What the model says the daemon must answer, fixed at send time. *)
let want_of work = function
  | Engine.Lookup k -> (
    match Workload.expected_lookup work k with
    | Some v -> Wire.Found v
    | None -> Wire.Absent)
  | Engine.Insert _ -> Wire.Inserted
  | Engine.Delete _ -> Wire.Deleted true

type loop = {
  mutable sent : int;
  mutable done_ : int;
  mutable failed : int;
  mutable drains : int;
  mutable last_ns : int;
  mutable mark_ns : int;     (** when [done_] last crossed a multiple of 64 *)
  slices : Measure.Slices.t;
  get_us : Measure.Samples.t;
  update_us : Measure.Samples.t;
  batch_us : Measure.Samples.t;
  log : (Wire.op * Wire.result_) Queue.t;  (** sent ops, in send order *)
}

let new_loop () =
  let now = Measure.now_ns () in
  { sent = 0; done_ = 0; failed = 0; drains = 0; last_ns = now; mark_ns = now;
    slices = Measure.Slices.create now; get_us = Measure.Samples.create ();
    update_us = Measure.Samples.create (); batch_us = Measure.Samples.create ();
    log = Queue.create () }

(* Keep [window] frames in flight on every connection while [next c]
   has ops for it, until every frame sent has its reply. A connection's
   refill after each drain goes out in one write: with one write per
   frame, how many frames the listener found per read changed from run
   to run, and the daemon's CPU per op with it. *)
(* pdm-lint: allow R2 — load-generator socket wait; the daemon's answers
   are checked against the model, never derived from it *)
let pump ~window conns ~next lp =
  let send c req want =
    let op = wire_op req in
    let rid = c.next_rid in
    c.next_rid <- rid + 1;
    Buffer.add_bytes c.out (Wire.encode_request { Wire.rid; req = Wire.Op op });
    Hashtbl.replace c.inflight rid { op; want; sent_ns = Measure.now_ns () };
    Queue.add (op, want) lp.log;
    lp.sent <- lp.sent + 1
  in
  let feed i c =
    let rec go () =
      if Hashtbl.length c.inflight < window then
        match next i with
        | Some (req, want) ->
          send c req want;
          go ()
        | None -> ()
    in
    go ();
    if Buffer.length c.out > 0 then begin
      Span.wrap s_send (fun () -> Client.send_raw c.client (Buffer.to_bytes c.out));
      Buffer.clear c.out
    end
  in
  Array.iteri feed conns;
  let busy () = Array.exists (fun c -> Hashtbl.length c.inflight > 0) conns in
  while busy () do
    let fds = Array.to_list (Array.map (fun c -> Client.fd c.client) conns) in
    let ready, _, _ = Unix.select fds [] [] 30. in
    if ready = [] then failwith "pdm-serve: no reply within 30 s";
    Array.iteri
      (fun i c ->
        if List.mem (Client.fd c.client) ready then begin
          let replies = Span.wrap s_drain (fun () -> Client.drain c.client) in
          (* a drain that read only part of a frame returns no reply;
             at end of stream every drain returns none *)
          c.empty_drains <- (if replies = [] then c.empty_drains + 1 else 0);
          if c.empty_drains > 1000 then failwith "pdm-serve closed a connection";
          lp.drains <- lp.drains + 1;
          let now = Measure.now_ns () in
          List.iter
            (fun (rid, rep) ->
              match Hashtbl.find_opt c.inflight rid with
              | None -> lp.failed <- lp.failed + 1
              | Some p ->
                Hashtbl.remove c.inflight rid;
                if rep <> Wire.Result p.want then lp.failed <- lp.failed + 1;
                let us = float_of_int (now - p.sent_ns) /. 1e3 in
                (match p.op with
                 | Wire.Get _ -> Measure.Samples.add lp.get_us us
                 | Wire.Insert _ | Wire.Delete _ -> Measure.Samples.add lp.update_us us);
                lp.done_ <- lp.done_ + 1;
                if lp.done_ mod 64 = 0 then begin
                  Measure.Samples.add lp.batch_us (float_of_int (now - lp.mark_ns) /. 1e3);
                  lp.mark_ns <- now
                end)
            replies;
          Measure.Slices.add lp.slices ~now ~ops:(List.length replies)
            ~busy_ns:(now - lp.last_ns);
          lp.last_ns <- now;
          feed i c
        end)
      conns
  done

let shard_totals conn =
  match Client.call conn.client Wire.Stats with
  | Wire.Stats_reply l -> l
  | _ -> failwith "pdm-serve: Stats answered with something else"

(* --- set-up ----------------------------------------------------------- *)

type setup = {
  daemon : daemon;
  conns : conn array;
  work : Workload.t;
  preload_log : (Wire.op * Wire.result_) Queue.t;
}

(* Op frames carry the benchmark's own rids, from far above the ones
   [Client.call] numbers the Stats requests with. *)
let first_rid = 1 lsl 24

let connect (spec : spec) port =
  Array.init spec.conns (fun _ ->
      { client = Client.connect ~port; inflight = Hashtbl.create 64;
        out = Buffer.create 4096; next_rid = first_rid; empty_drains = 0 })

let build ~exe (spec : spec) ~seed =
  let work = Workload.create ~seed ~population:spec.population ~lookup_pct:90 () in
  let owner = Hashtbl.create spec.population in
  Array.iteri (fun i k -> Hashtbl.replace owner k (i mod spec.conns)) work.Workload.keys;
  let daemon = spawn ~exe spec in
  let conns = connect spec daemon.port in
  let queues = Array.init spec.conns (fun _ -> Queue.create ()) in
  List.iter
    (fun req ->
      let c = Hashtbl.find owner (Engine.request_key req) in
      Queue.add (req, want_of work req) queues.(c))
    (Workload.preload work);
  let lp = new_loop () in
  pump ~window:spec.window conns ~next:(fun c -> Queue.take_opt queues.(c)) lp;
  if lp.failed > 0 then failwith "pdm-serve: preload insert answered wrongly";
  { daemon; conns; work; preload_log = lp.log }

let close s = Array.iter (fun c -> Client.close c.client) s.conns

(* --- replays for the traced run -------------------------------------- *)

let median3 f = Measure.median_of_list [ f (); f (); f () ]

(* Server-side codec on the workload's own frames: mean ns per
   decode_request and per encode_reply, and wire bytes per op. *)
let replay_wire log =
  let ops = Array.of_seq (Queue.to_seq log) in
  let reqs =
    Array.mapi (fun i (op, _) -> Wire.encode_request { Wire.rid = i + 1; req = Wire.Op op }) ops
  in
  let payloads = Array.map (fun f -> Bytes.sub f 4 (Bytes.length f - 4)) reqs in
  let replies = Array.mapi (fun i (_, want) -> { Wire.rid = i + 1; rep = Wire.Result want }) ops in
  let n = float_of_int (max 1 (Array.length ops)) in
  let per_call f =
    median3 (fun () ->
        let t0 = Measure.now_ns () in
        f ();
        float_of_int (Measure.now_ns () - t0) /. n)
  in
  let decode_ok = ref true in
  let decode_ns =
    per_call (fun () ->
        Array.iter
          (fun p -> if Result.is_error (Wire.decode_request p) then decode_ok := false)
          payloads)
  in
  let encode_ns = per_call (fun () -> Array.iter (fun r -> ignore (Wire.encode_reply r)) replies) in
  let bytes =
    Array.fold_left (fun a f -> a + Bytes.length f) 0 reqs
    + Array.fold_left (fun a r -> a + Bytes.length (Wire.encode_reply r)) 0 replies
  in
  (!decode_ok, decode_ns, encode_ns, float_of_int bytes /. n)

let request_of_op = function
  | Wire.Get k -> Engine.Lookup k
  | Wire.Insert (k, v) -> Engine.Insert (k, v)
  | Wire.Delete k -> Engine.Delete k

(* Replays [warm] untimed, then [timed] one op per call as the daemon
   runs Op frames, through a fresh Data_plane and through one
   instrumented [Stack] per shard. Both must give the answers the
   daemon gave, and each [Stack] must end with its Data_plane shard's
   rounds, served and fetched ledgers, so a [Stack] that drifted from
   [Data_plane]'s shard construction shows. *)
let replay_planes (spec : spec) ~warm ~timed =
  let dp = Data_plane.create (plane spec) in
  let stacks = Array.init spec.shards (fun i -> Stack.create (plane spec) ~shard:i) in
  let agree = ref true in
  let exec_ns = ref 0 in
  let run ~time (op, want) =
    let shard = Data_plane.shard_of_key dp (key_of op) in
    let t0 = Measure.now_ns () in
    let r = Data_plane.execute dp ~shard [ op ] in
    if time then exec_ns := !exec_ns + (Measure.now_ns () - t0);
    if r <> [ Ok want ] then agree := false;
    let outs = Stack.run stacks.(shard) [ request_of_op op ] in
    let got =
      match outs with
      | [ o ] -> (
        match o.Engine.request, o.Engine.value with
        | Engine.Lookup _, Some v -> Some (Wire.Found v)
        | Engine.Lookup _, None -> Some Wire.Absent
        | Engine.Insert _, _ -> Some Wire.Inserted
        | Engine.Delete _, v -> Some (Wire.Deleted (v <> None)))
      | _ -> None
    in
    if got <> Some want then agree := false
  in
  Queue.iter (run ~time:false) warm;
  let before = Array.to_list (Array.map Stack.ledger stacks) in
  Span.enabled := true;
  Queue.iter (run ~time:true) timed;
  Span.enabled := false;
  let after = Array.to_list (Array.map Stack.ledger stacks) in
  let props = Array.for_all Stack.properties_hold stacks in
  let same_ledgers =
    List.for_all2
      (fun (st : Wire.shard_stat) (l : Stack.ledger) ->
        st.Wire.rounds = l.Stack.rounds
        && st.Wire.served = l.Stack.engine.Engine.requests_served
        && st.Wire.fetched = l.Stack.engine.Engine.blocks_fetched)
      (Data_plane.shard_stats dp) after
  in
  (!agree, props, same_ledgers, !exec_ns, before, after)

(* --- the run ----------------------------------------------------------- *)

let run ~exe (spec : spec) ~seed ~seconds ~trace =
  let timed_build () =
    let t0 = Measure.now_ns () in
    let s = build ~exe spec ~seed in
    (s, Measure.seconds_since t0)
  in
  let stops_ok = ref true in
  let discard s =
    close s;
    if not (stop s.daemon) then stops_ok := false
  in
  let s1, setup1 = timed_build () in
  discard s1;
  let s2, setup2 = timed_build () in
  discard s2;
  let s, setup3 = timed_build () in
  let setup_s = Measure.median_of_list [ setup1; setup2; setup3 ] in
  (* A phase sends for [span_s] seconds and at least [counted_ops] ops;
     the daemon's VmHWM is read once [counted_ops] replies are in. *)
  let phase span_s =
    let until = Measure.now_ns () + int_of_float (span_s *. 1e9) in
    let stats0 = shard_totals s.conns.(0) in
    let cpu0 = Measure.proc_cpu_s s.daemon.pid in
    let lp = new_loop () in
    let rss = ref nan in
    let next c =
      if Float.is_nan !rss && lp.done_ >= spec.counted_ops then
        rss := Measure.vm_hwm_mb (Some s.daemon.pid);
      if lp.sent >= spec.counted_ops && Measure.now_ns () >= until then None
      else begin
        let req = Workload.next ~part:c ~parts:spec.conns s.work in
        Some (req, want_of s.work req)
      end
    in
    pump ~window:spec.window s.conns ~next lp;
    let cpu = Measure.proc_cpu_s s.daemon.pid -. cpu0 in
    let stats1 = shard_totals s.conns.(0) in
    (lp, cpu, stats0, stats1, Measure.now_ns (), !rss)
  in
  let span_s = if trace then seconds /. 2. else seconds in
  let lp1, cpu1, st0, st1, end1, rss = phase span_s in
  let traced =
    if not trace then None
    else begin
      Span.reset ();
      Span.enabled := true;
      let r = phase span_s in
      Span.enabled := false;
      Some r
    end
  in
  let final_stats = shard_totals s.conns.(0) in
  close s;
  if not (stop s.daemon) then stops_ok := false;
  let phases = lp1 :: (match traced with Some (lp, _, _, _, _, _) -> [ lp ] | None -> []) in
  let attempted = List.fold_left (fun a lp -> a + lp.sent) 0 phases in
  let failed = List.fold_left (fun a lp -> a + lp.failed) 0 phases in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let delta f st0 st1 = sum f st1 - sum f st0 in
  let physical = Pdm_sim.Pdm.physical_disks (Stack.machine (Stack.create (plane spec) ~shard:0)) in
  let served_ok =
    sum (fun x -> x.Wire.served) final_stats = Queue.length s.preload_log + attempted
  in
  let rounds_ok =
    List.for_all
      (fun x -> x.Wire.rounds >= (x.Wire.fetched + physical - 1) / physical)
      final_stats
  in
  let ops1 = float_of_int lp1.done_ in
  let p50 smp = Measure.quantile (Measure.Samples.sorted smp) 0.5 in
  let tput lp until = Measure.Slices.median_rate lp.slices ~until in
  let checks, values =
    match traced with
    | None ->
      ( [],
        [ ("throughput_ops", tput lp1 end1); ("get_p50_us", p50 lp1.get_us);
          ("update_p50_us", p50 lp1.update_us); ("batch_p50_us", p50 lp1.batch_us);
          ("cpu_us_per_op", cpu1 *. 1e6 /. ops1);
          ("rounds_per_op", float_of_int (delta (fun x -> x.Wire.rounds) st0 st1) /. ops1);
          ("blocks_per_op", float_of_int (delta (fun x -> x.Wire.fetched) st0 st1) /. ops1);
          ("setup_s", setup_s); ("rss_peak_mb", rss) ] )
    | Some (lp2, cpu2, _, _, end2, _) ->
      let ops2 = lp2.done_ in
      let drains = lp2.drains in
      let decode_ok, decode_ns, encode_ns, bytes_per_op = replay_wire lp2.log in
      let warm = Queue.create () in
      Queue.transfer (Queue.copy s.preload_log) warm;
      Queue.transfer (Queue.copy lp1.log) warm;
      let agree, props, same_ledgers, exec_ns, before, after =
        replay_planes spec ~warm ~timed:lp2.log
      in
      let execute_us = Stack.ratio (Report.ns_to_us exec_ns) (float_of_int ops2) in
      let daemon_us = cpu2 *. 1e6 /. float_of_int ops2 in
      let updates = Measure.Samples.length lp2.update_us in
      ( [ ("server-side decode accepts every frame sent", decode_ok);
          ("Data_plane and shard replays give the daemon's answers", agree);
          ("replay: utilization <= physical disks, fetch rounds >= blocks/disks", props);
          ("replay: each shard stack's ledgers equal its Data_plane shard's", same_ledgers) ],
        Report.with_layer_defaults
          (* The residual takes the replay's one op per
             [Data_plane.execute] as the daemon's execute cost. pdm-serve
             runs an Op frame as a one-op execute today; the Stats reply
             gives no engine batch count, so a daemon that shares
             executes between frames would need one to keep this
             right. *)
          ([ ("server.residual_cpu_us_per_op",
              daemon_us -. ((decode_ns +. encode_ns) /. 1e3) -. execute_us);
             ("client.replies_per_drain", float_of_int ops2 /. float_of_int (max 1 drains));
             ("wire.decode_request_ns", decode_ns); ("wire.encode_reply_ns", encode_ns);
             ("wire.bytes_per_op", bytes_per_op);
             ("data_plane.execute_us_per_op", execute_us);
             ("trace.overhead_frac", (tput lp1 end1 /. tput lp2 end2) -. 1.) ]
           @ Stack.layer_values ~ops:ops2 ~updates ~before ~after) )
  in
  let checks =
    [ ("answers match the model, reply by reply", failed = 0);
      ("pdm-serve exits 0 on SIGTERM and prints its stop line", !stops_ok);
      ("Stats served ledger counts every op sent", served_ok);
      ("per shard: rounds >= blocks fetched / physical disks", rounds_ok) ]
    @ checks
  in
  let notes =
    [ Printf.sprintf "serve_pipelined: %d ops, get p99 %.1f us over %d samples, \
                      update p99 %.1f us over %d samples"
        lp1.done_
        (Measure.quantile (Measure.Samples.sorted lp1.get_us) 0.99)
        (Measure.Samples.length lp1.get_us)
        (Measure.quantile (Measure.Samples.sorted lp1.update_us) 0.99)
        (Measure.Samples.length lp1.update_us);
      "ops/s per one-second slice: "
      ^ String.concat " "
          (List.map (Printf.sprintf "%.0f") (Measure.Slices.rates lp1.slices ~until:end1)) ]
  in
  (checks, attempted, failed, values, notes)

(* Spans around the benchmark's own calls into the program's modules.

   A span is named "<module>.<call>" (engine.submit, dictionary.find_in,
   io.barrier, ...). Spans nest: a backend read issued while the engine
   is inside [submit] is a child of that [engine.submit] span, and a
   span's self time is its duration minus the durations of its
   children. Per-name totals cover every span; the first [retain] spans
   are also kept whole (id, parent, start, duration, self) and written
   out by [write] when the run ends. With [enabled] false every entry
   point returns at once. *)

let enabled = ref false

type agg = { mutable count : int; mutable total_ns : int; mutable self_ns : int }

let names : (string, int) Hashtbl.t = Hashtbl.create 32
let by_id : (string * agg) array ref = ref [||]

let register name =
  match Hashtbl.find_opt names name with
  | Some id -> id
  | None ->
    let id = Array.length !by_id in
    Hashtbl.add names name id;
    by_id := Array.append !by_id [| (name, { count = 0; total_ns = 0; self_ns = 0 }) |];
    id

(* open spans *)
let max_depth = 64
let st_name = Array.make max_depth 0
let st_id = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0
let next_id = ref 1

(* retained spans, in closing order *)
let retain = 65536
let r_name = Array.make retain 0
let r_id = Array.make retain 0
let r_parent = Array.make retain 0
let r_start = Array.make retain 0
let r_dur = Array.make retain 0
let r_self = Array.make retain 0
let r_len = ref 0
let t_origin = ref 0

let reset () =
  Array.iter
    (fun (_, a) ->
      a.count <- 0;
      a.total_ns <- 0;
      a.self_ns <- 0)
    !by_id;
  depth := 0;
  r_len := 0;
  next_id := 1;
  t_origin := Measure.now_ns ()

let enter id =
  let d = !depth in
  st_name.(d) <- id;
  st_id.(d) <- !next_id;
  incr next_id;
  st_child.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- Measure.now_ns ()

let leave () =
  let stop = Measure.now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = stop - st_start.(d) in
  let self = dur - st_child.(d) in
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  let _, a = !by_id.(st_name.(d)) in
  a.count <- a.count + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + self;
  let i = !r_len in
  if i < retain then begin
    r_name.(i) <- st_name.(d);
    r_id.(i) <- st_id.(d);
    r_parent.(i) <- (if d > 0 then st_id.(d - 1) else 0);
    r_start.(i) <- st_start.(d) - !t_origin;
    r_dur.(i) <- dur;
    r_self.(i) <- self;
    r_len := i + 1
  end

let wrap id f =
  if not !enabled then f ()
  else begin
    enter id;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let agg name =
  match Hashtbl.find_opt names name with
  | Some id -> snd !by_id.(id)
  | None -> { count = 0; total_ns = 0; self_ns = 0 }

let count name = (agg name).count
let total_ns name = (agg name).total_ns
let self_ns name = (agg name).self_ns

(* One JSON object per line: the per-name totals, then the retained
   spans. *)
let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Array.iter
        (fun (name, a) ->
          if a.count > 0 then
            Printf.fprintf oc
              "{\"name\": %S, \"count\": %d, \"total_ns\": %d, \"self_ns\": %d}\n"
              name a.count a.total_ns a.self_ns)
        !by_id;
      for i = 0 to !r_len - 1 do
        Printf.fprintf oc
          "{\"span\": %S, \"id\": %d, \"parent\": %d, \"start_ns\": %d, \
           \"dur_ns\": %d, \"self_ns\": %d}\n"
          (fst !by_id.(r_name.(i))) r_id.(i) r_parent.(i) r_start.(i)
          r_dur.(i) r_self.(i)
      done)

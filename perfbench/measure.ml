(* Clocks, order statistics, /proc readers and the result line.

   Every wall time in the benchmark comes from [now_ns], a
   CLOCK_MONOTONIC read through bechamel's stub; nothing here is fed
   back into the program under test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* pdm-lint: allow R2 — reporting only: the benchmark's own CPU time
   (user + system), in seconds *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- growable sample buffers ------------------------------------- *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort compare a;
    a
end

(* Quantile [q] of a sorted array by linear interpolation; nan when
   empty. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile a 0.5

(* --- /proc ---------------------------------------------------------- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vm_hwm_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let kb =
    List.find_map
      (fun l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
        else None)
      (read_lines path)
  in
  match kb with Some kb -> float_of_int kb /. 1024. | None -> nan

(* utime + stime of another process from /proc/<pid>/stat, in
   seconds. Fields 14 and 15 count clock ticks of 1/100 s (USER_HZ). *)
let proc_cpu_s pid =
  let s = String.concat "\n" (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  let close = String.rindex s ')' in
  let rest = String.sub s (close + 2) (String.length s - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* [rest] starts at field 3 (state) *)
  let utime = int_of_string fields.(11) and stime = int_of_string fields.(12) in
  float_of_int (utime + stime) /. 100.

(* --- throughput over fixed wall slices ---------------------------- *)

(* Ops completed and time the program was busy, per one-second slice
   of the timed phase. The reported rate is the median slice rate, so
   one slice lost to a neighbour's burst on the shared host moves the
   figure little. *)
module Slices = struct
  type t = { t0 : int; mutable ops : int array; mutable busy : int array }

  let width_ns = 1_000_000_000

  let create t0 = { t0; ops = Array.make 64 0; busy = Array.make 64 0 }

  let slot t now =
    let i = (now - t.t0) / width_ns in
    if i >= Array.length t.ops then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.ops <- grow t.ops;
      t.busy <- grow t.busy
    end;
    i

  let add t ~now ~ops ~busy_ns =
    let i = slot t now in
    t.ops.(i) <- t.ops.(i) + ops;
    t.busy.(i) <- t.busy.(i) + busy_ns

  (* ops/busy of each slice that closed before [until] and saw work. *)
  let rates t ~until =
    let closed = min ((until - t.t0) / width_ns) (Array.length t.ops) in
    List.filter_map
      (fun i ->
        if t.busy.(i) > 0 then
          Some (float_of_int t.ops.(i) /. (float_of_int t.busy.(i) /. 1e9))
        else None)
      (List.init closed Fun.id)

  (* Median slice rate; the whole phase's rate when fewer than three
     slices closed. *)
  let median_rate t ~until =
    let rates = rates t ~until in
    if List.length rates >= 3 then median_of_list rates
    else begin
      let ops = Array.fold_left ( + ) 0 t.ops
      and busy = Array.fold_left ( + ) 0 t.busy in
      float_of_int ops /. (float_of_int (max 1 busy) /. 1e9)
    end
end

(* --- result line --------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* A non-finite value (a ratio over an empty phase) prints as 0 so the
   line stays JSON. *)
let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
             (json_float m.value) m.unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

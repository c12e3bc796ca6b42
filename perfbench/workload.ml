(* Seeded op streams and the plain-Hashtbl model that checks them.

   A stream draws keys from a fixed population of distinct keys, either
   uniformly or by Zipf rank, and decides each op from the model's state
   when it is drawn: a lookup with probability [lookup_pct]%, otherwise
   a delete when the model holds the key and an insert of a fresh value
   when it does not. Updates are applied to the model as they are drawn,
   so a reply to an update is known at once; a lookup's answer is read
   from the model at the point the program is documented to serve it
   (see [Inproc] and [Serve]). *)

module Prng = Pdm_util.Prng
module Zipf = Pdm_util.Zipf
module Engine = Pdm_engine.Engine

(* Key universe of the daemon's default data plane. *)
let universe = 1 lsl 20
let value_bytes = 8

type t = {
  keys : int array;  (** the population, in rank order *)
  rng : Prng.t;
  zipf : Zipf.t option;
  lookup_pct : int;
  model : (int, Bytes.t) Hashtbl.t;
  mutable next_value : int;
}

let create ~seed ~population ~lookup_pct ?zipf () =
  let rng = Prng.create seed in
  let seen = Hashtbl.create population in
  let keys = Array.make population 0 in
  let n = ref 0 in
  while !n < population do
    let k = Prng.int rng universe in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      keys.(!n) <- k;
      incr n
    end
  done;
  { keys; rng; zipf = Option.map (fun s -> Zipf.create ~n:population ~s) zipf;
    lookup_pct; model = Hashtbl.create population; next_value = 1 }

let fresh_value t =
  let v = Bytes.create value_bytes in
  Bytes.set_int64_le v 0 (Int64.of_int t.next_value);
  t.next_value <- t.next_value + 1;
  v

(* Half of the population, chosen by the seed, inserted before timing;
   the model records each insert. *)
let preload t =
  let order = Array.copy t.keys in
  Prng.shuffle t.rng order;
  List.init (Array.length order / 2) (fun i ->
      let k = order.(i) in
      let v = fresh_value t in
      Hashtbl.replace t.model k v;
      Engine.Insert (k, v))

(* A key by the stream's distribution; with [~part]/[~parts], only
   from the population positions [i] with [i mod parts = part], so
   [parts] clients can each own a disjoint slice of the keys. *)
let draw_key ?(part = 0) ?(parts = 1) t =
  match t.zipf with
  | Some z -> t.keys.(Zipf.sample z t.rng)
  | None ->
    let slice = Array.length t.keys / parts in
    t.keys.(part + (parts * Prng.int t.rng slice))

let next ?part ?parts t =
  let key = draw_key ?part ?parts t in
  if Prng.int t.rng 100 < t.lookup_pct then Engine.Lookup key
  else if Hashtbl.mem t.model key then begin
    Hashtbl.remove t.model key;
    Engine.Delete key
  end
  else begin
    let v = fresh_value t in
    Hashtbl.replace t.model key v;
    Engine.Insert (key, v)
  end

let expected_lookup t key = Hashtbl.find_opt t.model key

let is_update = function
  | Engine.Lookup _ -> false
  | Engine.Insert _ | Engine.Delete _ -> true

(* The answer an outcome must carry for an update (lookups are checked
   against [expected_lookup] at the right moment instead). *)
let expected_update = function
  | Engine.Insert _ -> None
  | Engine.Delete _ -> Engine.deleted_value true
  | Engine.Lookup _ -> invalid_arg "Workload.expected_update: lookup"

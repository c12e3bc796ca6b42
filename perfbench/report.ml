(* The metric names every run prints, in order, with their units. A
   workload that has no such layer reports 0 for it. *)

let end_to_end =
  [ ("throughput_ops", "ops/s"); ("get_p50_us", "us"); ("update_p50_us", "us");
    ("batch_p50_us", "us"); ("cpu_us_per_op", "us"); ("rounds_per_op", "rounds");
    ("blocks_per_op", "blocks"); ("setup_s", "s"); ("rss_peak_mb", "MiB") ]

let per_layer =
  [ ("server.residual_cpu_us_per_op", "us"); ("client.replies_per_drain", "count");
    ("wire.decode_request_ns", "ns"); ("wire.encode_reply_ns", "ns");
    ("wire.bytes_per_op", "bytes"); ("data_plane.execute_us_per_op", "us");
("engine.self_us_per_op", "us");
    ("engine.fetch_rounds_per_batch", "rounds");
    ("engine.blocks_per_fetch_round", "blocks");
    ("engine.coalesced_per_op", "blocks");
    ("engine.insert_rounds_per_update", "rounds");
    ("dictionary.lookup_us_per_op", "us"); ("dictionary.update_us_per_op", "us");
    ("pdm.read_rounds_per_op", "rounds"); ("pdm.write_rounds_per_op", "rounds");
    ("pdm.block_writes_per_update", "blocks"); ("io.read_us_per_block", "us");
    ("io.write_us_per_block", "us"); ("io.barrier_us", "us");
    ("io.barriers_per_update", "count"); ("io.busy_us_per_op", "us");
    ("trace.overhead_frac", "frac") ]

(* The result line's metrics for the mode; every name must have a value. *)
let metrics ~trace values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> Measure.metric name unit_ v
      | None -> invalid_arg ("Report.metrics: no value for " ^ name))
    (if trace then per_layer else end_to_end)

(* [values], plus 0 for every per-layer name they leave out: the layers
   a workload does not reach. *)
let with_layer_defaults values =
  values
  @ List.filter_map
      (fun (n, _) -> if List.mem_assoc n values then None else Some (n, 0.))
      per_layer

let ns_to_us ns = float_of_int ns /. 1000.

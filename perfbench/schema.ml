(* The metric names and units the benchmark prints.  BENCHMARK.json at
   the repository root declares the same lists; test_harness checks
   that the two agree. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("msgs_per_s", "req/s");
    ("heap_peak_mb", "MB");
    ("work_per_msg", "cost/req");
    ("rotations_per_msg", "rot/req");
    ("makespan_rounds", "rounds");
    ("latency_p50_rounds", "rounds");
    ("latency_p999_rounds", "rounds");
    ("served_ratio", "share");
  ]

let per_layer =
  [
    ("workloads.generate_s", "s");
    ("bstnet.build_s", "s");
    ("core.concurrent.run_s", "s");
    ("core.concurrent.rounds_per_s", "1/s");
    ("core.concurrent.ns_per_turn", "ns");
    ("core.concurrent.rounds", "count");
    ("core.concurrent.steps", "count");
    ("core.concurrent.pauses", "count");
    ("core.concurrent.bypasses", "count");
    ("core.concurrent.update_messages", "count");
    ("core.concurrent.useful_turn_ratio", "share");
    ("core.phase.inject_share", "share");
    ("core.phase.commit_share", "share");
    ("core.phase.delivery_share", "share");
    ("core.phase.other_share", "share");
    ("core.round_us_p50", "us");
    ("core.round_us_p999", "us");
    ("core.shape_cache_hit_ratio", "share");
    ("trace_overhead_pct", "%");
    ("bstnet.rotate_up_ns", "ns");
    ("bstnet.lca_ns", "ns");
    ("core.potential.delta_promote_ns", "ns");
    ("core.step.plan_ns", "ns");
    ("servekit.bqueue.offer_take_ns", "ns");
    ("forest.overlay.run_s", "s");
    ("forest.router.build_ns_per_req", "ns");
    ("forest.cross_ratio", "share");
    ("forest.shard_rounds_max_over_mean", "ratio");
    ("simkit.pool.fanout_speedup", "ratio");
    ("servekit.replay_s", "s");
    ("servekit.ns_per_batch", "ns");
    ("servekit.batches", "count");
    ("servekit.admitted", "count");
    ("servekit.shed", "count");
    ("servekit.decays", "count");
    ("servekit.busy_rounds", "rounds");
    ("servekit.idle_rounds", "rounds");
    ("servekit.batch_size_p50", "req");
    ("servekit.queue_depth_p99", "req");
  ]

(* Pair every name of [schema] with its value from [values], in schema
   order.  A missing or unknown name is a bug in the benchmark. *)
let collect schema values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name schema) then
        invalid_arg ("Schema.collect: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, v, unit)
      | None -> invalid_arg ("Schema.collect: missing metric " ^ name))
    schema

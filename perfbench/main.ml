(* The CBNet benchmark: one command, three workloads.

     main.exe --workload (exec-pfabric|forest-hpc|serve-rampup)
              --seed N --seconds S --trace (0|1)

   With --trace 0 it prints the end-to-end metrics (Schema.end_to_end),
   with --trace 1 the per-layer ones (Schema.per_layer), measured in a
   separate traced run.  Human-readable lines go first; the last line
   of standard output is the JSON result.  Every workload's inputs are
   generated here from --seed; the CBNet libraries only ever see the
   generated arrays.  Output checks run outside the timed regions and
   feed the failure count.  The host times of the end-to-end metrics
   are given at the reference speed (Calib): each timed call is
   followed by a fixed kernel that tells how fast the host ran just
   then.

   Each layer is timed from outside, around calls into its public
   entry points; nothing inside lib/ is instrumented.  A layer a
   workload never calls reports 0 for its per-layer metrics. *)

module C = Cbnet.Concurrent
module RS = Cbnet.Run_stats
module T = Bstnet.Topology
module Tr = Workloads.Trace
module H = Harness
module F = Harness.Failures

(* --- command line ---------------------------------------------------- *)

let workload_names = [ "exec-pfabric"; "forest-hpc"; "serve-rampup" ]

type opts = { workload : string; seed : int; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: main.exe --workload (exec-pfabric|forest-hpc|serve-rampup) --seed \
     N --seconds S --trace (0|1)";
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := if List.mem v workload_names then Some v else None;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds :=
          (match int_of_string_opt v with Some s when s >= 1 -> Some s | _ -> None);
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
      { workload; seed; seconds = float_of_int seconds; trace }
  | _ -> usage ()

(* --- timing ---------------------------------------------------------- *)

let now = Unix.gettimeofday
let say fmt = Printf.printf (fmt ^^ "\n%!")

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Call [run (prepare ())] until the calls have been timed for [budget]
   seconds, at least [min_reps] times.  [prepare] is untimed (it repeats
   set-up and copies the initial trees), and the heap is compacted
   before each call so that every call starts from the same heap state.
   Returns the call times at the reference speed (Calib), the last
   input and result, and whether every call returned a result [same]
   as the first. *)
let measure ~budget ~min_reps ~same prepare run =
  let times = ref [] and total = ref 0. in
  let first = ref None and last = ref None and agree = ref true in
  while List.length !times < min_reps || !total < budget do
    let input = prepare () in
    Gc.compact ();
    let r, dt, cal = Calib.timed (fun () -> run input) in
    times := cal :: !times;
    total := !total +. dt;
    (match !first with
    | None -> first := Some r
    | Some f -> if not (same f r) then agree := false);
    last := Some (input, r)
  done;
  (Array.of_list (List.rev !times), Option.get !last, !agree)

(* Set-up — trace generation with arrival stamping, then the initial
   tree build — runs once for the inputs and again before every timed
   call, outside the call's timing, so that its median samples the same
   host conditions as the calls.  Every repeat must rebuild equal
   inputs.  [total] holds each repeat's time at the reference speed. *)
type setup = {
  mutable gen : float list;
  mutable build : float list;
  mutable total : float list;
  mutable repeats_equal : bool;
}

let sampled_setup ~spans ~gen ~build =
  let t = { gen = []; build = []; total = []; repeats_equal = true } in
  let run () =
    let (g, b), _, cal =
      Calib.timed (fun () ->
          let g, dg = timed (fun () -> H.Spans.with_span spans "workloads.generate" gen) in
          let b, db = timed (fun () -> H.Spans.with_span spans "bstnet.build" build) in
          t.gen <- dg :: t.gen;
          t.build <- db :: t.build;
          (g, b))
    in
    t.total <- cal :: t.total;
    (g, b)
  in
  let inputs = run () in
  let again () = if run () <> inputs then t.repeats_equal <- false in
  (inputs, again, t)

let median_of l = H.median (Array.of_list l)

(* A pass's time from each instance's call times: [f] (median or
   fastest) per instance, summed over the instances. *)
let pass_time f calls = Array.fold_left (fun acc l -> acc +. f (Array.of_list l)) 0. calls
let setup_s t = median_of t.total

let check_setup fails t =
  say "set-up sampled %d times" (List.length t.gen);
  F.check fails "repeated set-up rebuilds equal inputs" t.repeats_equal

(* Primitive cells: passes of [op] over [count] inputs until [cell_s]
   has elapsed, median ns per operation over [cell_reps] cells. *)
let cell_s = 0.1
let cell_reps = 5

let cell ~count op =
  if count = 0 then 0.
  else
    H.median
      (Array.init cell_reps (fun _ ->
           let ops = ref 0 and t0 = now () in
           while now () -. t0 < cell_s do
             for i = 0 to count - 1 do
               op i
             done;
             ops := !ops + count
           done;
           (now () -. t0) *. 1e9 /. float_of_int !ops))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- reporting ------------------------------------------------------- *)

let print_ratio name r = say "  %-36s %s" name (H.pp_ratio r)

let finish ~fails ~schema values =
  List.iter (fun c -> say "CHECK FAILED: %s" c) (F.failed_checks fails);
  say "checks: %d run, %d failed; requests: %d attempted, %d failed"
    (F.checks fails)
    (List.length (F.failed_checks fails))
    (F.attempted fails) (F.failed fails);
  let metrics = Schema.collect schema values in
  List.iter (fun (n, v, u) -> say "  %-36s %.6g %s" n v u) metrics;
  print_endline
    (H.result_json ~correct:(F.correct fails) ~attempted:(F.attempted fails)
       ~failed:(F.failed fails) metrics)

let write_spans o spans =
  let dir = Filename.concat "perfbench" "_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path =
    Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" o.workload o.seed)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (H.Spans.to_json spans));
  say "spans written to %s" path;
  List.iter
    (fun (layer, s) -> say "  self time %-12s %.4f s" layer s)
    (H.Spans.self_times (H.Spans.spans spans))

let served_ratio fails =
  H.ratio
    (float_of_int (F.attempted fails - F.failed fails))
    (float_of_int (F.attempted fails))

(* Latency percentiles under the ten-beyond rule, taken per trace and
   reported as their median over the run's traces; a trace too small
   to support p99.9 fails the run rather than printing a guess. *)
let latency_metrics fails (lats : float array array) =
  say "latency samples: %s per trace"
    (String.concat ", " (Array.to_list (Array.map (fun l -> string_of_int (Array.length l)) lats)));
  let p q =
    let fewest = ref max_int in
    let v =
      H.median
        (Array.map
           (fun lat ->
             match H.tail_percentile lat q with
             | Some (v, beyond) ->
                 fewest := min !fewest beyond;
                 v
             | None ->
                 F.check fails
                   (Printf.sprintf "latency p%g has >=10 samples beyond" (q *. 100.))
                   false;
                 0.)
           lats)
    in
    say "  p%g = %g rounds (at least %d samples beyond in each trace)" (q *. 100.) v !fewest;
    v
  in
  let p50 = p 0.5 in
  let p999 = p 0.999 in
  [ ("latency_p50_rounds", p50); ("latency_p999_rounds", p999) ]

let cost_metrics (s : RS.t) ~delivered =
  let per x = if delivered = 0 then 0. else x /. float_of_int delivered in
  [
    ("work_per_msg", per s.RS.work);
    ("rotations_per_msg", per (float_of_int s.RS.rotations));
    ("makespan_rounds", float_of_int s.RS.makespan);
  ]

(* Executor counts and from-outside executor timing. *)
let core_metrics (s : RS.t) ~rounds ~run_s =
  let turns = s.RS.steps + s.RS.pauses + s.RS.bypasses in
  let useful = H.ratio (float_of_int s.RS.steps) (float_of_int turns) in
  print_ratio "core.concurrent.useful_turn_ratio" useful;
  [
    ("core.concurrent.run_s", run_s);
    ("core.concurrent.rounds_per_s", if run_s > 0. then float_of_int rounds /. run_s else 0.);
    ( "core.concurrent.ns_per_turn",
      if turns > 0 then run_s *. 1e9 /. float_of_int turns else 0. );
    ("core.concurrent.rounds", float_of_int rounds);
    ("core.concurrent.steps", float_of_int s.RS.steps);
    ("core.concurrent.pauses", float_of_int s.RS.pauses);
    ("core.concurrent.bypasses", float_of_int s.RS.bypasses);
    ("core.concurrent.update_messages", float_of_int s.RS.update_messages);
    ("core.concurrent.useful_turn_ratio", H.ratio_value useful);
  ]

let zeros names = List.map (fun n -> (n, 0.)) names

(* Metrics of layers only one workload enters: the round phases
   (exec-pfabric), the forest (forest-hpc) and the serve loop
   (serve-rampup).  The other workloads report 0 for them. *)
let phase_names =
  [
    "core.phase.inject_share";
    "core.phase.commit_share";
    "core.phase.delivery_share";
    "core.phase.other_share";
    "core.round_us_p50";
    "core.round_us_p999";
    "core.shape_cache_hit_ratio";
    "trace_overhead_pct";
  ]

let forest_names =
  [
    "forest.overlay.run_s";
    "forest.cross_ratio";
    "forest.shard_rounds_max_over_mean";
    "simkit.pool.fanout_speedup";
  ]

let serve_names =
  [
    "servekit.replay_s";
    "servekit.ns_per_batch";
    "servekit.batches";
    "servekit.admitted";
    "servekit.shed";
    "servekit.decays";
    "servekit.busy_rounds";
    "servekit.idle_rounds";
    "servekit.batch_size_p50";
    "servekit.queue_depth_p99";
  ]

(* --- primitive cells on a workload's own tree and pairs --------------- *)

let primitive_metrics ~spans ~tree ~pairs ~n =
  let pairs = Array.of_list (List.filter (fun (s, d) -> s <> d) (Array.to_list pairs)) in
  let count = Array.length pairs in
  let t = T.copy tree in
  let not_root =
    Array.of_list
      (List.filter_map
         (fun (s, _) -> if T.is_root t s then None else Some s)
         (Array.to_list pairs))
  in
  let span name f = H.Spans.with_span spans name f in
  let rotate_ns =
    span "bstnet.rotate_up" (fun () ->
        cell ~count:(Array.length not_root) (fun i ->
            let x = not_root.(i) in
            let p = T.parent t x in
            T.rotate_up t x;
            T.rotate_up t p))
    /. 2.
  in
  let lca_ns =
    span "bstnet.lca" (fun () ->
        cell ~count (fun i ->
            let s, d = pairs.(i) in
            ignore (Sys.opaque_identity (T.lca t s d))))
  in
  let dphi_ns =
    span "core.potential.delta_promote" (fun () ->
        cell ~count:(Array.length not_root) (fun i ->
            ignore (Sys.opaque_identity (Cbnet.Potential.delta_promote t not_root.(i)))))
  in
  let buf = Cbnet.Step.buffer () in
  let plan_ns =
    span "core.step.plan" (fun () ->
        cell ~count (fun i ->
            let s, d = pairs.(i) in
            ignore (Cbnet.Step.plan_into buf Cbnet.Config.default t ~current:s ~dst:d)))
  in
  let q = Servekit.Bqueue.create ~capacity:1024 in
  let bqueue_ns =
    span "servekit.bqueue.offer_take" (fun () ->
        cell ~count (fun i ->
            let s, d = pairs.(i) in
            if not (Servekit.Bqueue.offer q ~birth:i ~src:s ~dst:d) then begin
              ignore (Servekit.Bqueue.take q ~max:256);
              ignore (Servekit.Bqueue.offer q ~birth:i ~src:s ~dst:d)
            end))
  in
  say "primitives on the final tree (n=%d), %d pairs" n count;
  [
    ("bstnet.rotate_up_ns", rotate_ns);
    ("bstnet.lca_ns", lca_ns);
    ("core.potential.delta_promote_ns", dphi_ns);
    ("core.step.plan_ns", plan_ns);
    ("servekit.bqueue.offer_take_ns", bqueue_ns);
  ]

(* Router.build over the workload's own trace, 16 shards. *)
let router_metric ~spans ~n runs =
  let dir = Forest.Directory.create ~n ~shards:16 in
  let build_ns =
    H.Spans.with_span spans "forest.router.build" (fun () ->
        cell ~count:1 (fun _ -> ignore (Sys.opaque_identity (Forest.Router.build dir runs))))
  in
  [ ("forest.router.build_ns_per_req", build_ns /. float_of_int (Array.length runs)) ]

let pairs_of runs = Array.map (fun (_, s, d) -> (s, d)) runs

(* --- exec-pfabric ------------------------------------------------------ *)

(* Single-tree executor, saturated: Poisson stamping at the paper's
   lambda = 0.05 gives about one arrival per round against the ~0.6
   msgs/round the 144-node tree sustains, so a source backlog builds
   and most turns are paused re-checks.  One trace's rotation count and
   backlog hinge on a few heavy-tailed flows, so a run serves 16
   independent traces (each on its own fresh tree) to keep the figures
   steady from seed to seed. *)
let exec_n = 144
let exec_instances = 16
let exec_m = 12_500
let lambda = 0.05

(* The seed of instance [i] of a run seeded [seed]. *)
let instance_seed seed i = (seed lsl 6) lor i

let stamped_trace ~family ~n ~m ~seed =
  let trace = Workloads.Catalog.scaled family ~n ~m ~seed in
  let rng = Simkit.Rng.create (seed lxor 0x5bd1e995) in
  Tr.with_poisson_births rng ~lambda trace

(* Sums of the instances' statistics; makespan and rounds sum too. *)
let combine_stats stats =
  Array.fold_left
    (fun acc s -> Cbnet.Counter_reset.combine acc s 0)
    stats.(0)
    (Array.sub stats 1 (Array.length stats - 1))

let exec_pfabric o spans =
  let span name f = H.Spans.with_span spans name f in
  let (traces, tree0), setup_again, setup =
    sampled_setup ~spans
      ~gen:(fun () ->
        Array.init exec_instances (fun i ->
            Tr.to_runs
              (stamped_trace ~family:"pfabric" ~n:exec_n ~m:exec_m
                 ~seed:(instance_seed o.seed i))))
      ~build:(fun () -> Bstnet.Build.balanced exec_n)
  in
  let m = Array.fold_left (fun k r -> k + Array.length r) 0 traces in
  let fails = F.create ~attempted:m in
  let copies () =
    setup_again ();
    Array.map (fun _ -> T.copy tree0) traces
  in
  (* Each trace's calls are timed on their own, each with the kernel
     run right after it: the median call per trace at the reference
     speed, summed over the traces, is a pass's time.  [pass_raw] sums
     the raw times of the calls of the pass under way. *)
  let call_times = Array.make exec_instances [] in
  let pass_raw = ref 0. in
  let run_all ?profile trees =
    Array.mapi
      (fun i t ->
        let stats, dt, cal =
          Calib.timed (fun () ->
              span "core.concurrent.run" (fun () -> C.run ~domains:1 ?profile t traces.(i)))
        in
        call_times.(i) <- (dt, cal) :: call_times.(i);
        pass_raw := !pass_raw +. dt;
        stats)
      trees
  in
  say "exec-pfabric: n=%d, %d traces of m=%d" exec_n exec_instances exec_m;
  if not o.trace then begin
    let times, (trees, stats), same = measure ~budget:o.seconds ~min_reps:4 ~same:( = ) copies run_all in
    let heap = heap_peak_mb () in
    F.check fails "repeated runs give identical stats" same;
    check_setup fails setup;
    let lats =
      Array.mapi
        (fun i runs ->
          let lstats, lat = C.run_with_latencies ~domains:1 (T.copy tree0) runs in
          F.check fails "run_with_latencies stats = run stats" (lstats = stats.(i));
          F.check fails "final tree structural" (Bstnet.Check.structural trees.(i) = Ok ());
          F.check fails "stats = Concurrent.Reference"
            (C.Reference.run (T.copy tree0) runs = stats.(i));
          lat)
        traces
    in
    let delivered = Array.fold_left (fun k l -> k + Array.length l) 0 lats in
    F.refused fails (m - delivered);
    let pass = pass_time H.median (Array.map (List.map snd) call_times) in
    let raw = Array.map (List.map fst) call_times in
    say "  %d timed passes, %.4f s summing per-trace median calls at the reference speed; raw: %.4f s (medians), %.4f s (fastest)"
      (Array.length times) pass (pass_time H.median raw) (pass_time H.fastest raw);
    let total = combine_stats stats in
    let lat_metrics = latency_metrics fails lats in
    let served = served_ratio fails in
    print_ratio "served_ratio" served;
    finish ~fails ~schema:Schema.end_to_end
      ([
         ("setup_s", setup_s setup);
         ("msgs_per_s", float_of_int delivered /. pass);
         ("heap_peak_mb", heap);
       ]
      @ cost_metrics { total with RS.makespan = total.RS.makespan / exec_instances } ~delivered
      @ lat_metrics
      @ [ ("served_ratio", H.ratio_value served) ])
  end
  else begin
    (* Alternate plain and profiled passes so both see the same host
       conditions; the profiled one gives the round phases. *)
    let plain = ref [] and profiled = ref [] and elapsed = ref 0. in
    let last = ref None in
    let timed_pass ?profile trees =
      pass_raw := 0.;
      let stats = run_all ?profile trees in
      (stats, !pass_raw)
    in
    while List.length !plain < 2 || !elapsed < o.seconds do
      let trees = copies () in
      let stats, dt = timed_pass trees in
      let prof = Profkit.Profile.create () in
      let ptrees = copies () in
      let pstats, pdt = timed_pass ~profile:prof ptrees in
      F.check fails "profiled stats = plain stats" (pstats = stats);
      plain := dt :: !plain;
      profiled := pdt :: !profiled;
      elapsed := !elapsed +. dt +. pdt;
      last := Some (trees, stats, prof)
    done;
    let trees, stats, prof = Option.get !last in
    check_setup fails setup;
    let stats = combine_stats stats in
    let run_s = H.median (Array.of_list !plain) in
    let prof_s = H.median (Array.of_list !profiled) in
    let wall = Profkit.Profile.wall_us prof in
    let share ph =
      let r = H.ratio (Profkit.Profile.total_us prof ph) wall in
      print_ratio ("core.phase." ^ Profkit.Profile.phase_name ph ^ "_share (us)") r;
      H.ratio_value r
    in
    let turns = stats.RS.steps + stats.RS.pauses + stats.RS.bypasses in
    let hit =
      H.ratio (float_of_int (Profkit.Profile.shape_hits prof)) (float_of_int turns)
    in
    print_ratio "core.shape_cache_hit_ratio" hit;
    let rh = Profkit.Profile.wall_hist prof in
    let round_p q =
      if H.beyond ~count:(Profkit.Histogram.count rh) q >= H.min_beyond then
        Profkit.Histogram.quantile rh q
      else begin
        F.check fails (Printf.sprintf "round wall p%g has >=10 samples beyond" (q *. 100.)) false;
        0.
      end
    in
    say "round wall samples: %d" (Profkit.Histogram.count rh);
    let rate s = float_of_int m /. s in
    say "  trace_overhead_pct base: msgs/s plain %.1f (median of %d), profiled %.1f (median of %d)"
      (rate run_s) (List.length !plain) (rate prof_s) (List.length !profiled);
    let values =
      [
        ("workloads.generate_s", median_of setup.gen);
        ("bstnet.build_s", median_of setup.build);
        ("core.phase.inject_share", share Profkit.Profile.Inject);
        ("core.phase.commit_share", share Profkit.Profile.Commit);
        ("core.phase.delivery_share", share Profkit.Profile.Delivery);
        ("core.phase.other_share", share Profkit.Profile.Other);
        ("core.round_us_p50", round_p 0.5);
        ("core.round_us_p999", round_p 0.999);
        ("core.shape_cache_hit_ratio", H.ratio_value hit);
        ("trace_overhead_pct", ((prof_s /. run_s) -. 1.) *. 100.);
      ]
      @ core_metrics stats ~rounds:stats.RS.rounds ~run_s
      @ primitive_metrics ~spans ~tree:trees.(0) ~pairs:(pairs_of traces.(0)) ~n:exec_n
      @ router_metric ~spans ~n:exec_n traces.(0)
      @ zeros forest_names @ zeros serve_names
    in
    write_spans o spans;
    finish ~fails ~schema:Schema.per_layer values
  end

(* --- forest-hpc -------------------------------------------------------- *)

(* The hpc family on a 16-shard forest: each shard sees 1/16 of the
   Poisson arrivals, so turns are mostly real steps with ΔΦ tests and
   rotations, and the two pool domains fan the shards out. *)
let forest_n = 65_536
let forest_m = 200_000
let forest_shards = 16
let forest_domains = 2

(* Per request, the latency of its slower leg: the router appends legs
   to each shard's sub-trace in global trace order, intra-shard
   requests as one leg, cross-shard ones as a source and a
   destination leg. *)
let forest_request_latencies dir runs (lats : float array array) =
  let cursor = Array.make (Array.length lats) 0 in
  let leg s =
    let i = cursor.(s) in
    cursor.(s) <- i + 1;
    if i < Array.length lats.(s) then lats.(s).(i) else Float.infinity
  in
  let per_request =
    Array.map
      (fun (_, src, dst) ->
        let a = Forest.Directory.shard_of dir src in
        let b = Forest.Directory.shard_of dir dst in
        if a = b then leg a
        else
          let la = leg a in
          Float.max la (leg b))
      runs
  in
  let complete = Array.for_all2 (fun c l -> c = Array.length l) cursor lats in
  (per_request, complete)

let forest_hpc o spans =
  let span name f = H.Spans.with_span spans name f in
  (* The shard trees are built inside Overlay.run, so set-up is trace
     generation alone. *)
  let (runs, ()), setup_again, setup =
    sampled_setup ~spans
      ~gen:(fun () ->
        Tr.to_runs (stamped_trace ~family:"hpc" ~n:forest_n ~m:forest_m ~seed:o.seed))
      ~build:ignore
  in
  let m = Array.length runs in
  let fails = F.create ~attempted:m in
  let overlay domains =
    Forest.Overlay.run ~domains ~shards:forest_shards ~n:forest_n runs
  in
  let same (a : Forest.Overlay.result) (b : Forest.Overlay.result) =
    a.stats = b.stats && a.per_shard = b.per_shard
  in
  if not o.trace then begin
    let times, ((), r), agree =
      measure ~budget:o.seconds ~min_reps:4 ~same setup_again (fun () ->
          overlay forest_domains)
    in
    let heap = heap_peak_mb () in
    F.check fails "repeated runs give identical stats" agree;
    check_setup fails setup;
    F.check fails "requests = intra + cross" (r.requests = r.intra + r.cross);
    F.check fails "legs delivered = intra + 2 cross"
      (r.stats.RS.messages = r.intra + (2 * r.cross));
    F.check fails "every shard tree structural"
      (Array.for_all (fun t -> Bstnet.Check.structural t = Ok ()) r.topologies);
    let r1, lats =
      Forest.Overlay.run_with_latencies ~domains:1 ~shards:forest_shards ~n:forest_n runs
    in
    F.check fails "stats identical at domains 1 and 2" (same r r1);
    let lat, complete = forest_request_latencies r.directory runs lats in
    F.check fails "every leg has a latency" complete;
    let delivered = Array.fold_left (fun k l -> if Float.is_finite l then k + 1 else k) 0 lat in
    F.refused fails (m - delivered);
    let call = H.median times in
    say "forest-hpc: n=%d m=%d shards=%d domains=%d, %d timed calls, median %.4f s at the reference speed"
      forest_n m forest_shards forest_domains (Array.length times) call;
    print_ratio "cross-shard requests" (H.ratio (float_of_int r.cross) (float_of_int m));
    let lat_metrics = latency_metrics fails [| lat |] in
    let served = served_ratio fails in
    print_ratio "served_ratio" served;
    finish ~fails ~schema:Schema.end_to_end
      ([
         ("setup_s", setup_s setup);
         ("msgs_per_s", float_of_int delivered /. call);
         ("heap_peak_mb", heap);
       ]
      @ cost_metrics r.stats ~delivered
      @ lat_metrics
      @ [ ("served_ratio", H.ratio_value served) ])
  end
  else begin
    let walls2 = ref [] and walls1 = ref [] and elapsed = ref 0. in
    let core = ref [] and builds = ref [] in
    let last = ref None in
    while List.length !walls2 < 2 || !elapsed < o.seconds do
      setup_again ();
      let r2, d2 =
        timed (fun () -> span "forest.overlay.run" (fun () -> overlay forest_domains))
      in
      let r1, d1 = timed (fun () -> span "forest.overlay.run" (fun () -> overlay 1)) in
      F.check fails "stats identical at domains 1 and 2" (same r1 r2);
      (* The shards' executor calls made one by one, as Overlay.run
         makes them at domains=1, to split core time from forest time. *)
      let router = Forest.Router.build r2.directory runs in
      let db = ref 0. and dc = ref 0. in
      let per_shard =
        Array.mapi
          (fun s sub ->
            let t, b =
              timed (fun () ->
                  span "bstnet.build" (fun () ->
                      Bstnet.Build.balanced (Forest.Directory.size r2.directory s)))
            in
            let st, c = timed (fun () -> span "core.concurrent.run" (fun () -> C.run ~domains:1 t sub)) in
            db := !db +. b;
            dc := !dc +. c;
            st)
          router.Forest.Router.runs
      in
      let db = !db and dc = !dc in
      F.check fails "shard-by-shard stats = Overlay per-shard stats" (per_shard = r2.per_shard);
      walls2 := d2 :: !walls2;
      walls1 := d1 :: !walls1;
      core := dc :: !core;
      builds := db :: !builds;
      elapsed := !elapsed +. d2 +. d1 +. dc;
      last := Some (r2, router)
    done;
    let r, router = Option.get !last in
    check_setup fails setup;
    let w2 = H.median (Array.of_list !walls2) and w1 = H.median (Array.of_list !walls1) in
    let speedup = H.ratio w1 w2 in
    print_ratio "simkit.pool.fanout_speedup (s)" speedup;
    let shard_rounds = Array.map (fun (s : RS.t) -> float_of_int s.RS.rounds) r.per_shard in
    let total_rounds = Array.fold_left ( +. ) 0. shard_rounds in
    let mean = total_rounds /. float_of_int (Array.length shard_rounds) in
    let skew = H.ratio (Array.fold_left Float.max 0. shard_rounds) mean in
    print_ratio "forest.shard_rounds_max_over_mean" skew;
    let cross = H.ratio (float_of_int r.cross) (float_of_int r.requests) in
    print_ratio "forest.cross_ratio" cross;
    (* Primitives run on the busiest shard's final tree and legs. *)
    let busiest = ref 0 in
    Array.iteri
      (fun s sub ->
        if Array.length sub > Array.length router.Forest.Router.runs.(!busiest) then busiest := s)
      router.Forest.Router.runs;
    let sub = router.Forest.Router.runs.(!busiest) in
    let values =
      [
        ("workloads.generate_s", median_of setup.gen);
        ("bstnet.build_s", median_of !builds);
        ("forest.overlay.run_s", w2);
        ("forest.cross_ratio", H.ratio_value cross);
        ("forest.shard_rounds_max_over_mean", H.ratio_value skew);
        ("simkit.pool.fanout_speedup", H.ratio_value speedup);
      ]
      @ core_metrics r.stats ~rounds:(int_of_float total_rounds)
          ~run_s:(H.median (Array.of_list !core))
      @ primitive_metrics ~spans ~tree:r.topologies.(!busiest) ~pairs:(pairs_of sub)
          ~n:(Forest.Directory.size r.directory !busiest)
      @ router_metric ~spans ~n:forest_n runs
      @ zeros phase_names @ zeros serve_names
    in
    write_spans o spans;
    finish ~fails ~schema:Schema.per_layer values
  end

(* --- serve-rampup -------------------------------------------------------- *)

(* An open-loop arrival ramp in virtual rounds through the
   batch-synchronous serve loop: many small executor batches instead of
   one long run, with shedding and counter decay.  The requests come
   from the bursty family: the skewed one (Zipf alpha = 2, one pair
   carrying ~61% of requests) makes every figure hinge on where that
   pair sits in the tree, and spreads too far from seed to seed.  A run
   replays 4 independent ramps, each on its own fresh tree, so that
   each replay is a short call with the kernel run right after it. *)
let serve_n = 1024
let serve_instances = 4
let serve_m = 30_000
let serve_cap = 1024
let decay_every = 2000
let decay_factor = 0.5

let serve_config =
  Servekit.Server.config ~queue_capacity:serve_cap ~policy:Servekit.Server.Shed
    ~batch_max:256 ~n:serve_n ()

let new_epoch () = Servekit.Epoch.create ~every_rounds:decay_every ~factor:decay_factor ()

type serve_observed = {
  report : Servekit.Server.report;
  latencies : float array;  (* birth -> delivery per admitted request *)
  exec_s : float;  (* host time of the re-run executor calls *)
  exact : bool;  (* every re-run batch reproduced the served tree *)
}

(* Shape and weights, the state Bstnet.Serialize persists. *)
let same_tree a b =
  let n = T.n a in
  let rec go v = v >= n || (T.parent a v = T.parent b v && T.weight a v = T.weight b v && go (v + 1)) in
  n = T.n b && T.root a = T.root b && go 0

(* Per-request latency of a replay, from outside: the status line the
   server emits after every batch gives the clock, the queue length
   and the admitted/shed totals.  Within one batch interval the server
   admits arrivals until its queue is full and sheds the rest, so the
   totals say which schedule entries each batch served.  Each batch is
   then re-run with Concurrent.run_with_latencies on a copy of the tree
   it started from — which must reproduce the served tree exactly —
   and a request's latency is the batch's start on the server clock
   plus its in-batch delivery round, minus its birth. *)
let observe_serve ~spans tree0 schedule =
  let tree = T.copy tree0 in
  let before = ref (T.copy tree0) in
  let admitted = Array.make (Array.length schedule) (0, 0, 0) in
  let lat = Array.make (Array.length schedule) 0. in
  let n_adm = ref 0 and idx = ref 0 and taken = ref 0 in
  let prev_a = ref 0 and prev_s = ref 0 and prev_decays = ref 0 in
  let exec_s = ref 0. and exact = ref true in
  let on_status line =
    Scanf.sscanf line
      "serve: round=%d batches=%d q=%d/%d admitted=%d shed=%d parse_errors=%d decays=%d"
      (fun round _ q _ a s _ decays ->
        for _ = !prev_decays + 1 to decays do
          Cbnet.Counter_reset.decay !before ~factor:decay_factor
        done;
        prev_decays := decays;
        let da = a - !prev_a in
        Array.blit schedule !idx admitted !n_adm da;
        n_adm := !n_adm + da;
        idx := !idx + da + (s - !prev_s);
        prev_a := a;
        prev_s := s;
        let batch = Array.sub admitted !taken (a - q - !taken) in
        taken := a - q;
        let base = match batch.(0) with b, _, _ -> b in
        let rebased = Array.map (fun (b, s, d) -> (b - base, s, d)) batch in
        let (stats, blat), dt =
          timed (fun () ->
              H.Spans.with_span spans "core.concurrent.run" (fun () ->
                  C.run_with_latencies ~domains:1 !before rebased))
        in
        exec_s := !exec_s +. dt;
        let start = round - stats.RS.rounds in
        Array.iteri
          (fun i (b, _, _) ->
            if b > start then exact := false;
            lat.(!taken - Array.length batch + i) <- float_of_int (start - base) +. blat.(i))
          batch;
        if not (same_tree !before tree) then begin
          exact := false;
          before := T.copy tree
        end)
  in
  let report =
    Servekit.Server.replay ~epoch:(new_epoch ()) ~status:on_status ~report_every:1
      serve_config tree schedule
  in
  let exact =
    !exact && !idx = report.seen && !n_adm = report.admitted && !taken = report.admitted
  in
  { report; latencies = Array.sub lat 0 !taken; exec_s = !exec_s; exact }

(* One histogram holding the samples of all the instances' ones. *)
let merged_hist hs =
  let dst = Profkit.Histogram.create ~scale:(Profkit.Histogram.scale hs.(0)) () in
  Array.iter (Profkit.Histogram.merge_into ~dst) hs;
  dst

let serve_rampup o spans =
  let span name f = H.Spans.with_span spans name f in
  let shape =
    Workloads.Shape.make
      ~kind:(Workloads.Shape.Rampup { peak = 1.5 })
      ~family:"bursty" ~n:serve_n ~m:serve_m
  in
  let (schedules, tree0), setup_again, setup =
    sampled_setup ~spans
      ~gen:(fun () ->
        Array.init serve_instances (fun i ->
            Tr.to_runs (Workloads.Shape.schedule shape ~seed:(instance_seed o.seed i))))
      ~build:(fun () -> Bstnet.Build.balanced serve_n)
  in
  let m = Array.fold_left (fun k s -> k + Array.length s) 0 schedules in
  let fails = F.create ~attempted:m in
  let show r = Format.asprintf "%a" Servekit.Server.pp_report r in
  (* As in exec-pfabric, each ramp's replays are timed on their own. *)
  let call_times = Array.make serve_instances [] in
  let replay_all trees =
    Array.mapi
      (fun i t ->
        let r, dt, cal =
          Calib.timed (fun () ->
              span "servekit.replay" (fun () ->
                  Servekit.Server.replay ~epoch:(new_epoch ()) serve_config t schedules.(i)))
        in
        call_times.(i) <- (dt, cal) :: call_times.(i);
        r)
      trees
  in
  let times, (trees, reports), agree =
    measure ~budget:(if o.trace then o.seconds /. 2. else o.seconds) ~min_reps:4
      ~same:(fun a b -> Array.for_all2 (fun x y -> show x = show y) a b)
      (fun () ->
        setup_again ();
        Array.map (fun _ -> T.copy tree0) schedules)
      replay_all
  in
  let heap = heap_peak_mb () in
  F.check fails "repeated replays give identical reports" agree;
  check_setup fails setup;
  Array.iteri
    (fun i (r : Servekit.Server.report) ->
      F.check fails "seen = admitted + shed" (r.seen = r.admitted + r.shed);
      F.check fails "seen = schedule length" (r.seen = Array.length schedules.(i));
      F.check fails "q_max <= cap" (r.max_queue_depth <= serve_cap);
      F.check fails "delivered = admitted" (r.stats.RS.messages = r.admitted);
      F.check fails "final tree structural" (Bstnet.Check.structural trees.(i) = Ok ());
      F.refused fails r.shed)
    reports;
  let observed =
    Array.mapi
      (fun i schedule ->
        match observe_serve ~spans tree0 schedule with
        | obs ->
            F.check fails "status-driven replay = plain replay" (show obs.report = show reports.(i));
            F.check fails "re-run batches reproduce the served tree" obs.exact;
            Some obs
        | exception e ->
            F.check fails ("batch re-runs: " ^ Printexc.to_string e) false;
            None)
      schedules
  in
  let sum f = Array.fold_left (fun k r -> k + f r) 0 reports in
  let raw = Array.map (List.map fst) call_times in
  let pass = pass_time H.median raw in
  let pass_cal = pass_time H.median (Array.map (List.map snd) call_times) in
  say "serve-rampup: n=%d, %d ramps of m=%d, %d timed passes, %.4f s summing per-ramp median calls at the reference speed; raw: %.4f s (medians), %.4f s (fastest)"
    serve_n serve_instances serve_m (Array.length times) pass_cal pass (pass_time H.fastest raw);
  let seen = sum (fun r -> r.seen) and admitted = sum (fun r -> r.admitted) in
  let shed = sum (fun r -> r.shed) and batches = sum (fun r -> r.batches) in
  let decays = sum (fun r -> r.decays) in
  say "  seen=%d admitted=%d shed=%d batches=%d decays=%d q_max=%d" seen admitted shed batches
    decays (Array.fold_left (fun k (r : Servekit.Server.report) -> max k r.max_queue_depth) 0 reports);
  let stats = combine_stats (Array.map (fun (r : Servekit.Server.report) -> r.stats) reports) in
  let delivered = stats.RS.messages in
  if not o.trace then begin
    let lats =
      Array.map (function Some (obs : serve_observed) -> obs.latencies | None -> [||]) observed
    in
    let lat_metrics = latency_metrics fails lats in
    let served = served_ratio fails in
    print_ratio "served_ratio" served;
    finish ~fails ~schema:Schema.end_to_end
      ([
         ("setup_s", setup_s setup);
         ("msgs_per_s", float_of_int delivered /. pass_cal);
         ("heap_peak_mb", heap);
       ]
      @ cost_metrics { stats with RS.makespan = stats.RS.makespan / serve_instances } ~delivered
      @ lat_metrics
      @ [ ("served_ratio", H.ratio_value served) ])
  end
  else begin
    let hist_p name h q =
      say "  %s: %d samples" name (Profkit.Histogram.count h);
      Profkit.Histogram.quantile h q
    in
    let hists f = merged_hist (Array.map f reports) in
    let exec_s =
      Array.fold_left
        (fun acc -> function Some (obs : serve_observed) -> acc +. obs.exec_s | None -> acc)
        0. observed
    in
    let values =
      [
        ("workloads.generate_s", median_of setup.gen);
        ("bstnet.build_s", median_of setup.build);
        ("servekit.replay_s", pass);
        ("servekit.ns_per_batch", pass *. 1e9 /. float_of_int (max 1 batches));
        ("servekit.batches", float_of_int batches);
        ("servekit.admitted", float_of_int admitted);
        ("servekit.shed", float_of_int shed);
        ("servekit.decays", float_of_int decays);
        ("servekit.busy_rounds", float_of_int (sum (fun r -> r.busy_rounds)));
        ("servekit.idle_rounds", float_of_int (sum (fun r -> r.idle_rounds)));
        ( "servekit.batch_size_p50",
          hist_p "batch size" (hists (fun r -> r.batch_size)) 0.5 );
        ( "servekit.queue_depth_p99",
          hist_p "queue depth" (hists (fun r -> r.queue_depth)) 0.99 );
      ]
      @ core_metrics stats ~rounds:(sum (fun r -> r.busy_rounds)) ~run_s:exec_s
      @ primitive_metrics ~spans ~tree:trees.(0) ~pairs:(pairs_of schedules.(0)) ~n:serve_n
      @ router_metric ~spans ~n:serve_n schedules.(0)
      @ zeros phase_names @ zeros forest_names
    in
    write_spans o spans;
    finish ~fails ~schema:Schema.per_layer values
  end

let () =
  let o = parse_args Sys.argv in
  let spans =
    H.Spans.create ~enabled:o.trace
      ~run_id:(Printf.sprintf "%s-seed%d-%.0f" o.workload o.seed (now ()))
  in
  say "perfbench: workload=%s seed=%d seconds=%g trace=%b" o.workload o.seed o.seconds
    o.trace;
  match o.workload with
  | "exec-pfabric" -> exec_pfabric o spans
  | "forest-hpc" -> forest_hpc o spans
  | _ -> serve_rampup o spans

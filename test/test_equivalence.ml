(* The arena/pqueue concurrent executor against its list-based
   executable specification (Cbnet.Concurrent.Reference): statistics,
   latencies, telemetry payload streams and final trees must be
   bit-identical across seeds and workload families. *)

module T = Bstnet.Topology
module Build = Bstnet.Build
module Conc = Cbnet.Concurrent
module Ref = Cbnet.Concurrent.Reference
module Stats = Cbnet.Run_stats

let workloads = [ "projector"; "skewed"; "datastructure"; "uniform" ]
let seeds = [ 1; 2; 3; 4; 5 ]

let trace_of ~workload ~seed =
  let entry = Workloads.Catalog.find workload in
  ( entry.Workloads.Catalog.n,
    Workloads.Trace.to_runs
      (entry.Workloads.Catalog.generate Workloads.Catalog.Smoke ~seed) )

let check_stats ctx (a : Stats.t) (b : Stats.t) =
  let s x = Format.asprintf "%a" Stats.pp x in
  Alcotest.(check string) (ctx ^ ": run stats") (s b) (s a);
  (* pp rounds floats; the float fields must also match exactly. *)
  Alcotest.(check bool)
    (ctx ^ ": stats bit-identical") true
    (a.Stats.work = b.Stats.work
    && a.Stats.throughput = b.Stats.throughput
    && { a with Stats.work = 0.0; throughput = 0.0 }
       = { b with Stats.work = 0.0; throughput = 0.0 })

let check_trees ctx ta tb =
  let n = T.n ta in
  Alcotest.(check int) (ctx ^ ": same n") n (T.n tb);
  Alcotest.(check int) (ctx ^ ": same root") (T.root ta) (T.root tb);
  for v = 0 to n - 1 do
    if
      T.parent ta v <> T.parent tb v
      || T.left ta v <> T.left tb v
      || T.right ta v <> T.right tb v
      || T.weight ta v <> T.weight tb v
    then Alcotest.failf "%s: tree differs at node %d" ctx v
  done

let capture_payloads run =
  let acc = ref [] in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        acc := e.Obskit.Event.payload :: !acc)
  in
  let result = run sink in
  (result, List.rev !acc)

let test_pair ~workload ~seed () =
  let ctx = Printf.sprintf "%s/seed %d" workload seed in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink -> Conc.run_with_latencies ~sink ta trace)
  in
  let (sb, lb), eb =
    capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb)

(* The untraced hot path takes a different route through the executor
   (shape probe + conflict pre-check, ΔΦ evaluated lazily), so it gets
   its own pairwise check: stats, trees and latencies must match the
   reference executor with the null sink too. *)
let test_pair_untraced ~workload ~seed () =
  let ctx = Printf.sprintf "untraced %s/seed %d" workload seed in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sa, la = Conc.run_with_latencies ta trace in
  let sb, lb = Ref.run_with_latencies tb trace in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la

(* An *empty* fault plan still routes every message through the
   fault-aware turn (full plan resolution, draw checks), so this pair
   proves that path equivalent to the reference executor: stats,
   trees, latencies and the telemetry payload stream. *)
let test_pair_empty_plan ~workload ~seed () =
  let ctx = Printf.sprintf "empty plan %s/seed %d" workload seed in
  let empty = Faultkit.Plan.make ~seed:0 [] in
  let n, trace = trace_of ~workload ~seed in
  let ta = Build.balanced n and tb = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink ~faults:empty ta trace)
  in
  let (sb, lb), eb =
    capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb);
  (* Untraced too: the null-sink fault path has its own branches. *)
  let tc = Build.balanced n and td = Build.balanced n in
  let sc = Conc.run ~faults:empty tc trace in
  let sd = Ref.run td trace in
  check_stats (ctx ^ " untraced") sc sd;
  check_trees (ctx ^ " untraced") tc td

(* ------------------------------------------------------------------
   Intra-round parallelism: at every domain count the parallel
   executor must be bit-identical to the sequential oracle — stats,
   latencies, run-sink payload streams and final trees — traced and
   untraced, with and without an (empty) fault plan.  The reference
   run for each (workload, seed) is computed once and shared across
   domain counts. *)

let parallel_workloads = [ "projector"; "skewed"; "uniform" ]
let domain_counts = [ 1; 2; 4 ]
let oracle_cache = Hashtbl.create 16

(* Reference oracle for (workload, seed): trace, stats, sorted
   latencies, traced payload stream and final tree. *)
let oracle ~workload ~seed =
  let key = Printf.sprintf "%s/%d" workload seed in
  match Hashtbl.find_opt oracle_cache key with
  | Some o -> o
  | None ->
      let n, trace = trace_of ~workload ~seed in
      let tb = Build.balanced n in
      let (sb, lb), eb =
        capture_payloads (fun sink -> Ref.run_with_latencies ~sink tb trace)
      in
      Array.sort compare lb;
      let o = (n, trace, sb, lb, eb, tb) in
      Hashtbl.add oracle_cache key o;
      o

let check_events ctx ea eb =
  Alcotest.(check int)
    (ctx ^ ": event count")
    (List.length eb) (List.length ea);
  List.iteri
    (fun i (pa, pb) ->
      if pa <> pb then
        Alcotest.failf "%s: event %d differs: %s vs %s" ctx i
          (Obskit.Event.name pa) (Obskit.Event.name pb))
    (List.combine ea eb)

let test_parallel ~workload ~seed ~domains () =
  let ctx = Printf.sprintf "parallel d=%d %s/seed %d" domains workload seed in
  let n, trace, sb, lb, eb, tb = oracle ~workload ~seed in
  (* Traced. *)
  let ta = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink ~domains ta trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  check_events ctx ea eb;
  (* Untraced (the shape-cache fast path interleaves with the wave). *)
  let tc = Build.balanced n in
  let sc = Conc.run ~domains tc trace in
  check_stats (ctx ^ " untraced") sc sb;
  check_trees (ctx ^ " untraced") tc tb;
  (* Empty fault plan: every turn takes the fault-aware commit. *)
  let td = Build.balanced n in
  let empty = Faultkit.Plan.make ~seed:0 [] in
  let (sd, ld), ed =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink ~faults:empty ~domains td trace)
  in
  check_stats (ctx ^ " empty plan") sd sb;
  check_trees (ctx ^ " empty plan") td tb;
  Array.sort compare ld;
  Alcotest.(check (array (float 0.0)))
    (ctx ^ " empty plan: sorted latencies")
    lb ld;
  check_events (ctx ^ " empty plan") ed eb

(* Profiling is purely observational: a profiled traced run must stay
   bit-identical to the oracle at every domain count (stats, trees,
   latencies and the *run-sink* payload stream — Phase_time events go
   to the separate prof sink only), and the profile's own counters must
   obey the executor's accounting identities. *)
let test_parallel_profiled ~workload ~seed ~domains () =
  let module P = Profkit.Profile in
  let ctx = Printf.sprintf "profiled d=%d %s/seed %d" domains workload seed in
  let n, trace, sb, lb, eb, tb = oracle ~workload ~seed in
  let profile = P.create () in
  let ta = Build.balanced n in
  let (sa, la), ea =
    capture_payloads (fun sink ->
        Conc.run_with_latencies ~sink ~profile ~domains ta trace)
  in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  check_events ctx ea eb;
  (* Accounting identities against the run's own statistics. *)
  Alcotest.(check int) (ctx ^ ": profiled rounds") sa.Stats.rounds
    (P.rounds profile);
  Alcotest.(check int)
    (ctx ^ ": conflicts = pauses + bypasses")
    (sa.Stats.pauses + sa.Stats.bypasses)
    (P.conflicts profile);
  (* Every validated slot either replayed its plan or was a delivery;
     every invalidated one fell back to a serial re-probe. *)
  Alcotest.(check int)
    (ctx ^ ": stamp hits split into replayed + delivered")
    (P.stamp_hits profile)
    (P.replayed profile + P.deliver_slots profile);
  Alcotest.(check int)
    (ctx ^ ": stamp misses all fell back")
    (P.stamp_misses profile) (P.fallback_slots profile);
  if domains = 1 then
    Alcotest.(check int) (ctx ^ ": no waves at domains=1") 0 (P.waves profile)
  else
    Alcotest.(check int)
      (ctx ^ ": every wave spans the whole team")
      (P.waves profile * domains)
      (P.wave_members profile);
  (* Exclusive attribution: phase totals telescope to the wall. *)
  let covered =
    List.fold_left (fun acc ph -> acc +. P.total_us profile ph) 0.0 P.phases
  in
  let wall = P.wall_us profile in
  Alcotest.(check bool) (ctx ^ ": phases cover the wall") true
    (Float.abs (covered -. wall) <= 1e-6 *. Float.max 1.0 wall)

(* Phase_time telemetry goes to the dedicated prof sink: well-formed
   events whose per-round times sum back to the profile's wall. *)
let test_profile_sink_events () =
  let module P = Profkit.Profile in
  let n, trace = trace_of ~workload:"projector" ~seed:1 in
  let profile = P.create () in
  let events = ref [] in
  let prof_sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        events := e.Obskit.Event.payload :: !events)
  in
  let _ = Conc.run ~domains:2 ~profile ~prof_sink (Build.balanced n) trace in
  let evs = List.rev !events in
  Alcotest.(check bool) "phase_time events emitted" true
    (List.length evs > 0);
  let names = List.map P.phase_name P.phases in
  let total =
    List.fold_left
      (fun acc p ->
        match p with
        | Obskit.Event.Phase_time { round; phase; elapsed_us } ->
            Alcotest.(check bool) "round non-negative" true (round >= 0);
            Alcotest.(check bool) "elapsed positive" true (elapsed_us > 0.0);
            Alcotest.(check bool) "phase name known" true
              (List.mem phase names);
            acc +. elapsed_us
        | p -> Alcotest.failf "unexpected prof event %s" (Obskit.Event.name p))
      0.0 evs
  in
  let wall = P.wall_us profile in
  Alcotest.(check bool) "phase events sum to the wall" true
    (Float.abs (total -. wall) <= 1e-3 *. Float.max 1.0 wall)

(* The wave must actually engage (the ready set crosses the parallel
   threshold) and report itself: every team-sink event is a Plan_wave
   with a member id below the domain count, covering member 0. *)
let test_parallel_wave_telemetry () =
  let domains = 2 in
  let n, trace = trace_of ~workload:"projector" ~seed:1 in
  let events = ref [] in
  let team_sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        events := e.Obskit.Event.payload :: !events)
  in
  let _ = Conc.run ~domains ~team_sink (Build.balanced n) trace in
  let waves = List.rev !events in
  Alcotest.(check bool)
    "parallel rounds happened (threshold crossed)" true
    (List.length waves > 0);
  let seen0 = ref false in
  List.iter
    (fun p ->
      match p with
      | Obskit.Event.Plan_wave { member; planned; _ } ->
          if member = 0 then seen0 := true;
          Alcotest.(check bool) "member in range" true (member < domains);
          Alcotest.(check bool) "planned non-negative" true (planned >= 0)
      | p -> Alcotest.failf "unexpected team event %s" (Obskit.Event.name p))
    waves;
  Alcotest.(check bool) "member 0 reported" true !seen0

(* Truncating a parallel run mid-flight must produce the oracle's
   statistics too, and the finalizer must shut the team down. *)
let test_parallel_truncated_finalize () =
  let n, trace = trace_of ~workload:"projector" ~seed:3 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ~domains:4 ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 20 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r
  done;
  check_stats "parallel truncated" (fin_a rounds) (fin_b rounds);
  check_trees "parallel truncated" ta tb

(* The scheduler finalizer must account for in-flight messages too:
   truncating both executors mid-run (before quiescence) must still
   produce identical statistics. *)
let test_truncated_finalize () =
  let n, trace = trace_of ~workload:"projector" ~seed:3 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 20 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r
  done;
  Alcotest.(check bool)
    "neither executor finished (test needs in-flight messages)" false
    (sched_a.Simkit.Engine.is_done () || sched_b.Simkit.Engine.is_done ());
  check_stats "truncated" (fin_a rounds) (fin_b rounds);
  check_trees "truncated" ta tb

(* run and run_with_latencies must agree with each other: the stats
   path is shared, latencies are derived, not re-simulated. *)
let test_run_vs_run_with_latencies () =
  let n, trace = trace_of ~workload:"skewed" ~seed:2 in
  let s1 = Conc.run (Build.balanced n) trace in
  let s2, lats = Conc.run_with_latencies (Build.balanced n) trace in
  check_stats "run vs run_with_latencies" s1 s2;
  Alcotest.(check int)
    "one latency per data message" s1.Stats.messages (Array.length lats)

(* ------------------------------------------------------------------
   Wait groups.  The untraced fault-free walk at domains = 1 visits
   only each wait group's head and charges the other members in bulk
   (docs/PERFORMANCE.md, "Wait groups").  These cases run it in the
   benchmark's regime — Poisson lambda = 0.05 births, which saturate
   the tree so most messages wait — against the reference executor:
   stats, latencies and final trees, with [check_invariants] auditing
   Def. 6, the never-blocked top-priority message and the groups
   themselves every round. *)

let stamped ~family ~n ~m ~seed =
  let trace = Workloads.Catalog.scaled family ~n ~m ~seed in
  let rng = Simkit.Rng.create (seed + 0x5bd1) in
  let trace = Workloads.Trace.with_poisson_births rng ~lambda:0.05 trace in
  (trace.Workloads.Trace.n, Workloads.Trace.to_runs trace)

let regime_traces =
  [
    ("pfabric", 144, 2500);
    ("bursty", 256, 2500);
    ("hpc", 1024, 2500);
  ]

let test_grouped_regime ~family ~n ~m ~window () =
  let n, trace = stamped ~family ~n ~m ~seed:7 in
  let window = match window with `One -> Some 1 | `Default -> None | `Four_n -> Some (4 * n) in
  let ctx =
    Printf.sprintf "grouped %s n=%d window=%s" family n
      (match window with None -> "default" | Some w -> string_of_int w)
  in
  let ta = Build.balanced n and tb = Build.balanced n in
  let profile = Profkit.Profile.create () in
  let sa, la =
    Conc.run_with_latencies ?window ~profile ~check_invariants:true ta trace
  in
  let sb, lb = Ref.run_with_latencies ?window tb trace in
  check_stats ctx sa sb;
  check_trees ctx ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) (ctx ^ ": sorted latencies") lb la;
  Alcotest.(check int)
    (ctx ^ ": conflicts = pauses + bypasses")
    (sa.Stats.pauses + sa.Stats.bypasses)
    (Profkit.Profile.conflicts profile);
  (* With more than one message in flight the regime piles messages up
     behind the same clusters: the groups must actually engage. *)
  if window <> Some 1 then
    Alcotest.(check bool) (ctx ^ ": waits skipped") true
      (Profkit.Profile.waits_skipped profile > 0)

(* Cut the grouped run off while groups still hold lazily charged
   members: the finalizer must settle them. *)
let test_grouped_truncated () =
  let n, trace = stamped ~family:"pfabric" ~n:144 ~m:2500 ~seed:3 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let profile = Profkit.Profile.create () in
  let sched_a, fin_a =
    Conc.scheduler ~profile ~check_invariants:true ta trace
  in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 1500 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r
  done;
  Alcotest.(check bool) "messages still in flight" false
    (sched_a.Simkit.Engine.is_done ());
  Alcotest.(check bool) "groups engaged before the cut" true
    (Profkit.Profile.waits_skipped profile > 0);
  let sa = fin_a rounds in
  check_stats "grouped truncated" sa (fin_b rounds);
  check_trees "grouped truncated" ta tb;
  Alcotest.(check int) "conflicts = pauses + bypasses after the cut"
    (sa.Stats.pauses + sa.Stats.bypasses)
    (Profkit.Profile.conflicts profile)

(* Hand-built release (found by random search): on a 15-node tree,
   sixteen requests born in rounds 0 and 1 keep the queue at the
   length where groups form.  In round 11 a rotation claims a node of
   the key of a group decided earlier in that round, and hands one of
   the key's core nodes over as the transferred subtree root — bumping
   its version without claiming it.  The claim must release the
   members below the rotator for real turns off their stale caches;
   charging them with the group diverges from the reference (a copy
   with the release taken out does, and fails the group audit of
   [check_invariants]). *)
let test_grouped_release_on_rotation () =
  let n = 15 in
  let trace =
    [|
      (0, 10, 4); (0, 4, 10); (0, 2, 6); (0, 8, 4); (0, 14, 9); (0, 9, 4);
      (0, 9, 5); (1, 7, 12); (1, 6, 8); (1, 9, 2); (1, 3, 6); (1, 14, 6);
      (1, 4, 0); (1, 9, 4); (1, 1, 14); (1, 5, 7);
    |]
  in
  let window = Array.length trace in
  let ta = Build.balanced n and tb = Build.balanced n in
  let profile = Profkit.Profile.create () in
  let sa, la =
    Conc.run_with_latencies ~window ~profile ~check_invariants:true ta trace
  in
  let sb, lb = Ref.run_with_latencies ~window tb trace in
  check_stats "release on rotation" sa sb;
  check_trees "release on rotation" ta tb;
  Array.sort compare la;
  Array.sort compare lb;
  Alcotest.(check (array (float 0.0))) "release on rotation: latencies" lb la;
  Alcotest.(check bool) "release on rotation: groups engaged" true
    (Profkit.Profile.waits_skipped profile > 0)

(* Counter decay between rounds changes weights under waiting groups;
   the traced walk (no groups) is the oracle. *)
let test_grouped_counter_reset () =
  let n, trace = stamped ~family:"bursty" ~n:256 ~m:2500 ~seed:5 in
  let run ?sink t =
    Cbnet.Counter_reset.run_concurrent ?sink ~check_invariants:true
      ~every_rounds:200 ~factor:0.5 t trace
  in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sa = run ta in
  let sb = run ~sink:(Obskit.Sink.stream (fun _ -> ())) tb in
  check_stats "counter reset grouped" sa sb;
  check_trees "counter reset grouped" ta tb

(* The serve path's batches run the grouped walk too: one unbounded
   batch (every request already queued at round 0, as deep a backlog as
   the regime's) must reproduce the reference executor. *)
let test_grouped_serve_oracle () =
  let n, trace = stamped ~family:"pfabric" ~n:144 ~m:2000 ~seed:11 in
  let trace = Array.map (fun (_, src, dst) -> (0, src, dst)) trace in
  let cfg =
    Servekit.Server.config ~queue_capacity:4096 ~batch_max:0
      ~check_invariants:true ~n ()
  in
  let ta = Build.balanced n and tb = Build.balanced n in
  let r = Servekit.Server.replay cfg ta trace in
  let sb = Ref.run tb trace in
  Alcotest.(check int) "one batch" 1 r.Servekit.Server.batches;
  check_stats "serve batch oracle" r.Servekit.Server.stats sb;
  check_trees "serve batch oracle" ta tb

(* ------------------------------------------------------------------
   Latency order and the recycling arena.  A delivered message's
   record is reused once its round ends, so latencies are recorded as
   messages retire and the statistics are folded from retired totals
   plus the messages still live at finalize.  These cases pin the
   latency order against the traced delivery stream and run the
   executor's cut-off paths against the reference executor. *)

(* The data messages' latencies rebuilt from a traced run's
   Msg_delivered events, in message-id order, with their births. *)
let traced_deliveries run =
  let acc = ref [] in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        match e.Obskit.Event.payload with
        | Obskit.Event.Msg_delivered { round; msg; data = true; birth; _ } ->
            acc := (msg, birth, round - birth) :: !acc
        | _ -> ())
  in
  let result = run sink in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !acc in
  (result, Array.of_list sorted)

let latencies_of deliveries =
  Array.map (fun (_, _, l) -> float_of_int l) deliveries

let check_latency_order ?faults ?window ~family ~n ~m () =
  let n, trace = stamped ~family ~n ~m ~seed:9 in
  let ctx =
    Printf.sprintf "latency order %s window %s%s" family
      (match window with None -> "default" | Some w -> string_of_int w)
      (match faults with None -> "" | Some _ -> " faults")
  in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sa, la = Conc.run_with_latencies ?faults ?window ta trace in
  let sb, delivered =
    traced_deliveries (fun sink -> Conc.run ?faults ?window ~sink tb trace)
  in
  check_stats ctx sa sb;
  Alcotest.(check (array (float 0.0)))
    (ctx ^ ": latencies in id order") (latencies_of delivered) la;
  (match faults with
  | Some _ -> ()
  | None ->
      (* Fault-free, data ids follow the trace: entry i is request i. *)
      Alcotest.(check (array int))
        (ctx ^ ": births in trace order")
        (Array.map (fun (b, _, _) -> b) trace)
        (Array.map (fun (_, b, _) -> b) delivered));
  sa

let test_latency_order_faults () =
  let faults =
    Faultkit.Plan.make ~seed:17
      [ Faultkit.Plan.duplicate ~rate:0.05; Faultkit.Plan.lose ~rate:0.05 ]
  in
  let sa = check_latency_order ~faults ~family:"pfabric" ~n:144 ~m:1500 () in
  Alcotest.(check bool) "duplications and losses fired" true
    (sa.Stats.chaos.Stats.duplicated > 0 && sa.Stats.chaos.Stats.lost > 0)

(* Shard s's leg i belongs to entry i of its sub-trace: the latencies
   the overlay returns match each shard's traced delivery stream, whose
   data messages carry the sub-trace's births in order. *)
let test_forest_latency_order () =
  let n, trace = stamped ~family:"hpc" ~n:1024 ~m:4000 ~seed:9 in
  let shards = 16 in
  let r, lats =
    Forest.Overlay.run_with_latencies ~domains:2 ~shards ~n trace
  in
  let router = Forest.Router.build r.Forest.Overlay.directory trace in
  Array.iteri
    (fun s sub ->
      let ctx = Printf.sprintf "forest shard %d" s in
      let t = Build.balanced (Forest.Directory.size r.Forest.Overlay.directory s) in
      let stats, delivered = traced_deliveries (fun sink -> Conc.run ~sink t sub) in
      check_stats ctx stats r.Forest.Overlay.per_shard.(s);
      Alcotest.(check (array int))
        (ctx ^ ": leg i is sub-trace entry i")
        (Array.map (fun (b, _, _) -> b) sub)
        (Array.map (fun (_, b, _) -> b) delivered);
      Alcotest.(check (array (float 0.0)))
        (ctx ^ ": latencies") (latencies_of delivered) lats.(s))
    router.Forest.Router.runs

(* A long run holds only its messages in flight.  The records a round
   needs are the messages live at its end plus those delivered during
   it (a retired slot is reused only once its round ends); the traced
   stream gives both, and the arena's high-water mark must be exactly
   their peak, with the slab at most twice that. *)
let test_slab_bound () =
  let n, trace = stamped ~family:"pfabric" ~n:144 ~m:50_000 ~seed:13 in
  let window = 64 in
  let profile = Profkit.Profile.create () in
  let sa = Conc.run ~window ~profile (Build.balanced n) trace in
  let delivered = Hashtbl.create 1024 and active = Hashtbl.create 1024 in
  let last_round = ref 0 in
  let sink =
    Obskit.Sink.stream (fun (e : Obskit.Event.t) ->
        match e.Obskit.Event.payload with
        | Obskit.Event.Round_begin { round; active = a; _ } ->
            Hashtbl.replace active round a;
            last_round := round
        | Obskit.Event.Msg_delivered { round; _ } ->
            Hashtbl.replace delivered round
              (1 + Option.value ~default:0 (Hashtbl.find_opt delivered round))
        | _ -> ())
  in
  let sb = Conc.run ~window ~sink (Build.balanced n) trace in
  check_stats "slab bound" sa sb;
  let held = ref 0 in
  for r = 0 to !last_round do
    let live_after = Option.value ~default:0 (Hashtbl.find_opt active (r + 1)) in
    let d = Option.value ~default:0 (Hashtbl.find_opt delivered r) in
    held := max !held (live_after + d)
  done;
  let peak = Profkit.Profile.slab_peak profile in
  let cap = Profkit.Profile.slab_capacity profile in
  Alcotest.(check int) "slab high-water = peak records held in a round" !held peak;
  Alcotest.(check bool)
    (Printf.sprintf "slab %d within twice its peak %d" cap peak)
    true
    (cap < 2 * peak);
  Alcotest.(check bool)
    (Printf.sprintf "slab %d far below the trace's %d messages" cap
       (Array.length trace))
    true
    (cap * 50 < Array.length trace)

(* Cut-off runs finalize with live messages still in the slab: their
   counters join the retired totals, as the reference counts them. *)
let test_truncated_max_rounds () =
  let n, trace = stamped ~family:"hpc" ~n:1024 ~m:2500 ~seed:3 in
  let max_rounds = 2000 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ~check_invariants:true ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let oa = Simkit.Engine.run ~max_rounds sched_a in
  let ob = Simkit.Engine.run ~max_rounds sched_b in
  Alcotest.(check bool) "cut off with messages in flight" false
    (oa.Simkit.Engine.completed || ob.Simkit.Engine.completed);
  check_stats "max_rounds cut-off" (fin_a oa.Simkit.Engine.rounds)
    (fin_b ob.Simkit.Engine.rounds);
  check_trees "max_rounds cut-off" ta tb

(* Counter_reset's loop (a decay every 200 rounds) over the grouped
   executor and the reference, cut off before the run drains. *)
let test_counter_reset_cut_off () =
  let n, trace = stamped ~family:"bursty" ~n:256 ~m:2500 ~seed:5 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ~check_invariants:true ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 3000 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r;
    if (r + 1) mod 200 = 0 then begin
      Cbnet.Counter_reset.decay ta ~factor:0.5;
      Cbnet.Counter_reset.decay tb ~factor:0.5
    end
  done;
  Alcotest.(check bool) "messages still in flight" false
    (sched_a.Simkit.Engine.is_done ());
  check_stats "counter reset cut-off" (fin_a rounds) (fin_b rounds);
  check_trees "counter reset cut-off" ta tb

let test_wave_truncated () =
  let n, trace = stamped ~family:"pfabric" ~n:144 ~m:2500 ~seed:3 in
  let ta = Build.balanced n and tb = Build.balanced n in
  let sched_a, fin_a = Conc.scheduler ~domains:2 ta trace in
  let sched_b, fin_b = Ref.scheduler tb trace in
  let rounds = 1500 in
  for r = 0 to rounds - 1 do
    sched_a.Simkit.Engine.tick r;
    sched_b.Simkit.Engine.tick r
  done;
  Alcotest.(check bool) "messages still in flight" false
    (sched_a.Simkit.Engine.is_done ());
  check_stats "wave cut-off" (fin_a rounds) (fin_b rounds);
  check_trees "wave cut-off" ta tb

let arena_cases =
  List.concat_map
    (fun (family, n, m) ->
      List.map
        (fun (label, window) ->
          Alcotest.test_case
            (Printf.sprintf "latency order %s window %s" family label)
            `Quick
            (fun () -> ignore (check_latency_order ?window ~family ~n ~m ())))
        [ ("1", Some 1); ("default", None) ])
    [ ("pfabric", 144, 2500); ("hpc", 1024, 2500) ]
  @ [
      Alcotest.test_case "latency order under faults" `Quick
        test_latency_order_faults;
      Alcotest.test_case "forest legs in sub-trace order" `Quick
        test_forest_latency_order;
      Alcotest.test_case "slab bounded by messages in flight" `Quick
        test_slab_bound;
      Alcotest.test_case "max_rounds cut-off" `Quick test_truncated_max_rounds;
      Alcotest.test_case "counter reset cut-off" `Quick
        test_counter_reset_cut_off;
      Alcotest.test_case "wave cut-off at domains 2" `Quick test_wave_truncated;
    ]

let grouped_cases =
  List.concat_map
    (fun (family, n, m) ->
      List.map
        (fun (label, window) ->
          Alcotest.test_case
            (Printf.sprintf "%s window %s" family label)
            `Quick
            (test_grouped_regime ~family ~n ~m ~window))
        [ ("1", `One); ("default", `Default); ("4n", `Four_n) ])
    regime_traces
  @ [
      Alcotest.test_case "truncated finalize settles" `Quick
        test_grouped_truncated;
      Alcotest.test_case "release on a rotation mid-round" `Quick
        test_grouped_release_on_rotation;
      Alcotest.test_case "counter reset with decay" `Quick
        test_grouped_counter_reset;
      Alcotest.test_case "serve batch oracle" `Quick test_grouped_serve_oracle;
    ]

let pair_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair ~workload ~seed))
        seeds)
    workloads

let untraced_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair_untraced ~workload ~seed))
        seeds)
    workloads

let empty_plan_cases =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "%s seed %d" workload seed)
            `Quick
            (test_pair_empty_plan ~workload ~seed))
        seeds)
    workloads

let parallel_cases =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun seed ->
          List.map
            (fun domains ->
              Alcotest.test_case
                (Printf.sprintf "%s seed %d domains %d" workload seed domains)
                `Quick
                (test_parallel ~workload ~seed ~domains))
            domain_counts)
        seeds)
    parallel_workloads

let profiled_cases =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun seed ->
          List.map
            (fun domains ->
              Alcotest.test_case
                (Printf.sprintf "%s seed %d domains %d" workload seed domains)
                `Quick
                (test_parallel_profiled ~workload ~seed ~domains))
            domain_counts)
        [ 1; 2 ])
    [ "projector"; "skewed" ]

let () =
  Alcotest.run "equivalence"
    [
      ("executor pairs", pair_cases);
      ("executor pairs untraced", untraced_cases);
      ("executor pairs empty fault plan", empty_plan_cases);
      ("wait groups", grouped_cases);
      ("recycling arena", arena_cases);
      ("parallel executor", parallel_cases);
      ( "profiled executor",
        profiled_cases
        @ [
            Alcotest.test_case "prof sink phase events" `Quick
              test_profile_sink_events;
          ] );
      ( "parallel machinery",
        [
          Alcotest.test_case "wave telemetry" `Quick
            test_parallel_wave_telemetry;
          Alcotest.test_case "parallel truncated finalize" `Quick
            test_parallel_truncated_finalize;
        ] );
      ( "finalization",
        [
          Alcotest.test_case "truncated finalize" `Quick
            test_truncated_finalize;
          Alcotest.test_case "run vs run_with_latencies" `Quick
            test_run_vs_run_with_latencies;
        ] );
    ]

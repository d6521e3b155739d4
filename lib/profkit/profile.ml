(* Phase-attribution timer + speculation analytics for the concurrent
   executor.  The design constraint is observability without effect:
   the profile only ever *reads* the clock and increments preallocated
   counters/histograms, so a profiled run must stay bit-identical to an
   unprofiled one (enforced by test_equivalence and bench
   overhead-check).

   Time attribution is exclusive and contiguous: [round_begin] marks
   the round start, every [enter] charges the interval since the last
   mark to the phase being *left*, and [round_close] charges the tail —
   so the per-round phase times sum to the round wall time exactly, by
   construction (the >= 90% coverage acceptance bound is met with
   equality).

   Mutable floats live in the flat [fs] float array: float fields of a
   mixed record would re-box on every store, and [enter] runs several
   times per round inside the executor loop. *)

type phase =
  | Fault_injection
  | Inject
  | Plan_wave
  | Commit
  | Delivery
  | Invariant_check
  | Other

let phases =
  [ Fault_injection; Inject; Plan_wave; Commit; Delivery; Invariant_check; Other ]

let n_phases = 7

let phase_index = function
  | Fault_injection -> 0
  | Inject -> 1
  | Plan_wave -> 2
  | Commit -> 3
  | Delivery -> 4
  | Invariant_check -> 5
  | Other -> 6

let phase_name = function
  | Fault_injection -> "fault_injection"
  | Inject -> "inject"
  | Plan_wave -> "plan_wave"
  | Commit -> "commit"
  | Delivery -> "delivery"
  | Invariant_check -> "invariant_check"
  | Other -> "other"

(* fs layout *)
let f_mark = 0
let f_round_start = 1
let f_round_wall = 2 (* frozen by round_close, read until round_commit *)
let f_wall = 3 (* sum of committed round walls *)
let f_imb_sum = 4
let f_imb_max = 5
let f_round0 = 6 (* n_phases per-round accumulators *)
let f_total0 = f_round0 + n_phases (* n_phases whole-run totals *)
let fs_len = f_total0 + n_phases

type t = {
  fs : float array;
  hist : Histogram.t array; (* per-phase per-round µs distributions *)
  wall_hist : Histogram.t; (* per-round wall µs distribution *)
  mutable cur : int;
  mutable rounds : int;
  mutable stamp_hits : int;
  mutable stamp_misses : int;
  mutable replayed : int;
  mutable fallback : int;
  mutable seq_slots : int;
  mutable deliver_slots : int;
  mutable shape_hits : int;
  mutable conflicts : int;
  mutable waits_skipped : int;
  mutable waves : int;
  mutable wave_slots : int;
  mutable wave_members : int;
  mutable slab_peak : int;
  mutable slab_capacity : int;
}

let create () =
  {
    fs = Array.make fs_len 0.;
    hist = Array.init n_phases (fun _ -> Histogram.create ());
    wall_hist = Histogram.create ();
    cur = phase_index Other;
    rounds = 0;
    stamp_hits = 0;
    stamp_misses = 0;
    replayed = 0;
    fallback = 0;
    seq_slots = 0;
    deliver_slots = 0;
    shape_hits = 0;
    conflicts = 0;
    waits_skipped = 0;
    waves = 0;
    wave_slots = 0;
    wave_members = 0;
    slab_peak = 0;
    slab_capacity = 0;
  }

(* lint: allow no-alloc -- Clock.now_us returns a C-stub float whose box
   is the only allocation on this path; profiling is opt-in. *)
let now () = Obskit.Clock.now_us ()

let round_begin t =
  let n = now () in
  t.fs.(f_round_start) <- n;
  t.fs.(f_mark) <- n;
  t.cur <- phase_index Other

let enter t phase =
  let n = now () in
  let i = t.cur in
  t.fs.(f_round0 + i) <- t.fs.(f_round0 + i) +. (n -. t.fs.(f_mark));
  t.fs.(f_mark) <- n;
  t.cur <- phase_index phase

let round_close t =
  let n = now () in
  let i = t.cur in
  t.fs.(f_round0 + i) <- t.fs.(f_round0 + i) +. (n -. t.fs.(f_mark));
  t.fs.(f_mark) <- n;
  t.fs.(f_round_wall) <- n -. t.fs.(f_round_start)

let round_us t = t.fs.(f_round_wall)
let phase_round_us t phase = t.fs.(f_round0 + phase_index phase)

let round_commit t =
  for i = 0 to n_phases - 1 do
    let v = t.fs.(f_round0 + i) in
    t.fs.(f_total0 + i) <- t.fs.(f_total0 + i) +. v;
    Histogram.record t.hist.(i) v;
    t.fs.(f_round0 + i) <- 0.
  done;
  t.fs.(f_wall) <- t.fs.(f_wall) +. t.fs.(f_round_wall);
  Histogram.record t.wall_hist t.fs.(f_round_wall);
  t.fs.(f_round_wall) <- 0.;
  t.rounds <- t.rounds + 1

(* Speculation / work counters — plain field bumps, allocation-free. *)
let stamp_hit t = t.stamp_hits <- t.stamp_hits + 1
let stamp_miss t = t.stamp_misses <- t.stamp_misses + 1
let replay t = t.replayed <- t.replayed + 1
let fallback t = t.fallback <- t.fallback + 1
let seq_slot t = t.seq_slots <- t.seq_slots + 1
let deliver_slot t = t.deliver_slots <- t.deliver_slots + 1
let shape_hit t = t.shape_hits <- t.shape_hits + 1
let conflict t = t.conflicts <- t.conflicts + 1
let conflicts_add t k = t.conflicts <- t.conflicts + k
let waits_skipped_add t k = t.waits_skipped <- t.waits_skipped + k

let wave t ~members ~busiest ~slots =
  t.waves <- t.waves + 1;
  t.wave_slots <- t.wave_slots + slots;
  t.wave_members <- t.wave_members + members;
  if slots > 0 && members > 0 then begin
    (* busiest-member share relative to a perfect split: 1.0 means the
       wave was perfectly balanced, [members] means one member planned
       every slot. *)
    let imb = float_of_int (busiest * members) /. float_of_int slots in
    t.fs.(f_imb_sum) <- t.fs.(f_imb_sum) +. imb;
    if imb > t.fs.(f_imb_max) then t.fs.(f_imb_max) <- imb
  end

let slab t ~peak ~capacity =
  t.slab_peak <- max t.slab_peak peak;
  t.slab_capacity <- max t.slab_capacity capacity

(* Accessors *)
let rounds t = t.rounds
let wall_us t = t.fs.(f_wall)
let total_us t phase = t.fs.(f_total0 + phase_index phase)
let hist t phase = t.hist.(phase_index phase)
let wall_hist t = t.wall_hist
let stamp_hits t = t.stamp_hits
let stamp_misses t = t.stamp_misses
let replayed t = t.replayed
let fallback_slots t = t.fallback
let seq_slots t = t.seq_slots
let deliver_slots t = t.deliver_slots
let shape_hits t = t.shape_hits
let conflicts t = t.conflicts
let waits_skipped t = t.waits_skipped
let waves t = t.waves
let wave_slots t = t.wave_slots
let wave_members t = t.wave_members
let slab_peak t = t.slab_peak
let slab_capacity t = t.slab_capacity

let stamp_hit_rate t =
  let total = t.stamp_hits + t.stamp_misses in
  if total = 0 then 0. else float_of_int t.stamp_hits /. float_of_int total

let avg_imbalance t =
  if t.waves = 0 then 0. else t.fs.(f_imb_sum) /. float_of_int t.waves

let max_imbalance t = t.fs.(f_imb_max)

let counters t =
  [
    ("stamp_hits", t.stamp_hits);
    ("stamp_misses", t.stamp_misses);
    ("replayed_slots", t.replayed);
    ("fallback_slots", t.fallback);
    ("seq_slots", t.seq_slots);
    ("deliver_slots", t.deliver_slots);
    ("shape_hits", t.shape_hits);
    ("claim_conflicts", t.conflicts);
    ("waits_skipped", t.waits_skipped);
    ("waves", t.waves);
    ("wave_slots", t.wave_slots);
    ("wave_members", t.wave_members);
  ]

let pp fmt t =
  Format.fprintf fmt "rounds=%d wall=%.0fus" t.rounds (wall_us t);
  List.iter
    (fun p ->
      let us = total_us t p in
      if us > 0. then Format.fprintf fmt " %s=%.0fus" (phase_name p) us)
    phases;
  List.iter (fun (k, v) -> if v <> 0 then Format.fprintf fmt " %s=%d" k v) (counters t)

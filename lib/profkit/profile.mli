(** Phase-level self-profiling for the executors: exclusive wall-time
    attribution per round phase plus speculation-efficiency counters.

    Purely observational — a profile only reads {!Obskit.Clock.now_us}
    and bumps preallocated counters and {!Histogram}s, so enabling it
    cannot change results: profiled runs stay bit-identical to
    unprofiled ones at every domain count (enforced by
    [test_equivalence] and [bench overhead-check]).

    Time attribution is exclusive and contiguous.  {!round_begin}
    marks the round start; each {!enter} charges the interval since
    the previous mark to the phase being {e left}; {!round_close}
    charges the tail.  Per-round phase times therefore sum to the
    round wall time exactly.

    The per-round lifecycle the executor drives:
    {[
      round_begin p;
      enter p Fault_injection; ...; enter p Commit; ...;
      round_close p;
      (* read phase_round_us / round_us, e.g. to emit events *)
      round_commit p
    ]} *)

type phase =
  | Fault_injection  (** Faultkit round-boundary crash windows. *)
  | Inject  (** Trace injection and priority-queue commit. *)
  | Plan_wave  (** Parallel speculative plan wave over the team. *)
  | Commit
      (** Serial in-order commit walk: stamp validation, replay or
          fallback probing, claims, rotations.  The sequential visit
          (small rounds, or [domains = 1]) fuses planning into this
          phase. *)
  | Delivery  (** Delivered-message drop/latency bookkeeping. *)
  | Invariant_check  (** Structural audits ([check_invariants]). *)
  | Other  (** Remaining round time (loop bookkeeping, telemetry). *)

val phases : phase list
(** All phases, in a stable export order. *)

val phase_name : phase -> string
val phase_index : phase -> int
(** Dense index in [0; 6] — stable, matches {!phases} order. *)

type t

val create : unit -> t

(** {2 Round lifecycle (executor side)} *)

val round_begin : t -> unit
val enter : t -> phase -> unit
val round_close : t -> unit

val round_us : t -> float
(** Wall µs of the last closed round; valid between {!round_close} and
    {!round_commit}. *)

val phase_round_us : t -> phase -> float
(** Per-round phase µs accumulated so far; valid until
    {!round_commit} resets it. *)

val round_commit : t -> unit
(** Fold the closed round into the whole-run totals and per-phase
    histograms, then reset the per-round state. *)

(** {2 Speculation / work counters} *)

val stamp_hit : t -> unit
(** A speculated slot whose recorded read set validated against the
    live per-node stamps — its plan replays without re-probing. *)

val stamp_miss : t -> unit
(** A speculated slot invalidated by an earlier commit — falls back to
    a serial re-probe. *)

val replay : t -> unit
(** A slot committed from its speculated plan. *)

val fallback : t -> unit
(** A slot committed via serial re-probe after invalidation. *)

val seq_slot : t -> unit
(** A slot planned serially (not covered by the wave). *)

val deliver_slot : t -> unit
val shape_hit : t -> unit
(** A turn served from the per-message step-shape cache. *)

val conflict : t -> unit
(** A pause or bypass caused by a cluster-claim conflict. *)

val conflicts_add : t -> int -> unit
(** [conflicts_add p k] — [k] conflicts at once: the waits a wait group
    charges its members in bulk ([k < 0] retracts charges whose turns
    were given back to the members, see {!waits_skipped_add}). *)

val waits_skipped_add : t -> int -> unit
(** [waits_skipped_add p k] — [k] paused turns decided for a whole wait
    group from its head's turn instead of being visited one by one
    ([k < 0] when a group releases members it had already counted, so
    that they take real turns after all). *)

val wave : t -> members:int -> busiest:int -> slots:int -> unit
(** One completed plan wave: [members] team members planned [slots]
    slots in total, the busiest single member planning [busiest].
    Feeds the imbalance statistics ([busiest * members / slots]; 1.0 =
    perfectly balanced, [members] = fully serialized). *)

val slab : t -> peak:int -> capacity:int -> unit
(** A finished run's message arena: [peak] records held at once and
    [capacity] records allocated ([Cbnet.Arena.peak]/[capacity]).
    Gauges, not counters: each keeps the largest value noted. *)

(** {2 Accessors (export side)} *)

val rounds : t -> int
val wall_us : t -> float
(** Sum of committed round wall times — phase totals sum to exactly
    this value. *)

val total_us : t -> phase -> float
val hist : t -> phase -> Histogram.t
(** Per-round µs distribution of one phase. *)

val wall_hist : t -> Histogram.t
(** Per-round wall-µs distribution. *)

val stamp_hits : t -> int
val stamp_misses : t -> int
val stamp_hit_rate : t -> float
(** [hits / (hits + misses)]; 0 when no slot was ever validated. *)

val replayed : t -> int
val fallback_slots : t -> int
val seq_slots : t -> int
val deliver_slots : t -> int
val shape_hits : t -> int
val conflicts : t -> int
val waits_skipped : t -> int
val waves : t -> int
val wave_slots : t -> int
val wave_members : t -> int
val slab_peak : t -> int
val slab_capacity : t -> int

val avg_imbalance : t -> float
(** Mean per-wave busiest-member imbalance; 0 when no wave ran. *)

val max_imbalance : t -> float

val counters : t -> (string * int) list
(** All work counters as [(name, value)] in a stable export order. *)

val pp : Format.formatter -> t -> unit

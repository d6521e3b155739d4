(** In-flight message state.

    CBNet is message-oriented: a data message travels from its source
    bottom-up to the LCA with its destination, then top-down; at the
    LCA it spawns a small root-bound weight-update control message
    (Algorithm 1, lines 2-3) that carries no data but is still subject
    to rotation steps and is included in the work cost. *)

type kind = Data | Weight_update

type phase =
  | Climbing  (** Heading for the LCA (or the root, for an update). *)
  | Descending  (** Past the LCA, heading for the destination. *)

type t = {
  slot : int;
      (** The record's index in its {!Arena}, fixed for the record's
          lifetime; [-1] for a record built by {!data} or
          {!weight_update}.  An arena hands a retired record out again,
          so a slot names different messages over a run — only within
          one round does it name one message. *)
  mutable id : int;
      (** Unique over a run, assigned at allocation from a monotonic
          counter; breaks priority ties deterministically.  Mutable
          only so that {!reinit} can give a reused record its new
          message's id; once a message is in flight it never
          changes. *)
  mutable kind : kind;
  mutable src : int;
  mutable dst : int;
      (** [Bstnet.Topology.nil] for weight updates (root-bound). *)
  mutable birth : int;
      (** Time slot of generation; the priority of Sec. VII. *)
  mutable current : int;
  mutable phase : phase;
  mutable up_credit : int;
      (** Last node that received this message's climb increment, or
          [nil]; decides whether an LCA discovered in place still needs
          +1 or the full +2. *)
  mutable update_spawned : bool;
      (** A message spawns at most one weight update, even if a bypass
          forces it to re-climb to a fresh LCA. *)
  mutable delivered : bool;
  mutable wg_next : int;
      (** Wait-group link owned by [Concurrent]'s grouped round walk
          (docs/PERFORMANCE.md, "Wait groups"): the arena slot of the
          next member in the priority-ordered list of the group this message
          waits in, [-1] at the list's tail, {!no_group} when the
          message is in no group.  While a message waits behind its
          group's head, [pauses] and [bypasses] hold its own counts
          {e minus} the group's tick counters; the executor adds the
          ticks back when the message leaves the group and when the run
          is finalized. *)
  mutable end_time : int;
  mutable hops : int;  (** Forwarding operations performed (routing cost). *)
  mutable rotations : int;  (** Elementary rotations performed. *)
  mutable steps : int;
  mutable pauses : int;  (** Conflicts suffered where the winner routed. *)
  mutable bypasses : int;  (** Conflicts suffered where the winner rotated. *)
  mutable asleep_until : int;
      (** First round the message may act again after a fault-injected
          delay ([Faultkit]); 0 = not sleeping.  Untouched on
          fault-free runs. *)
  mutable shape_c0 : int;
  mutable shape_c1 : int;
  mutable shape_c2 : int;
  mutable shape_anchor : int;
  mutable shape_v0 : int;
  mutable shape_v1 : int;
  mutable shape_v2 : int;
      (** Step-shape cache owned by [Concurrent]'s untraced fast path:
          the last probed core cluster nodes + rotation anchor
          ([nil]-padded) and the {!Bstnet.Topology.version} stamps of
          the core nodes at probe time.  While every stamped version
          is unchanged and the message has not acted, re-probing would
          reproduce exactly this shape, so the turn's conflict
          pre-check can run straight off the cache.
          [shape_c0 = {!shape_none}] marks an empty cache. *)
}

val shape_none : int
(** Sentinel for [shape_c0]: no cached shape (distinct from [nil],
    which is legitimate tail padding in [shape_c1]/[shape_c2]). *)

val no_group : int
(** Sentinel for [wg_next]: the message waits in no group (distinct
    from [-1], the tail of a group's list). *)

val data : id:int -> src:int -> dst:int -> birth:int -> t
val weight_update : id:int -> origin:int -> birth:int -> t

val blank : slot:int -> t
(** A free arena record for [slot]: [delivered] is set, so a scan for
    live messages skips it until {!reinit} hands it out. *)

val reinit :
  t -> id:int -> kind:kind -> src:int -> dst:int -> birth:int -> unit
(** Reset a record to the state [data]/[weight_update] would build,
    with the given [id] and its own [slot], for slot reuse in
    {!Arena}.  The identity fields are mutable only to support this;
    once a message is in flight they must not change. *)

val is_data : t -> bool
val is_update : t -> bool
val is_climbing : t -> bool

val is_descending : t -> bool
(** Monomorphic [kind]/[phase] tests; callers use these instead of
    structural [=] on the variants (see the [no-poly-compare] lint
    rule). *)

val priority_compare : t -> t -> int
(** Earlier birth first, then smaller id — the total order used for
    the prioritization rule of Sec. VII-A. *)

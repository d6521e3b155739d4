(** Recycling message slab for the concurrent executor.

    The messages in flight — data and weight-update alike — live in one
    growable array of {!Message.t} records, reinitialized in place on
    allocation, so the executor's hot path creates no records while
    injecting or spawning.  A message exists only between its birth and
    its delivery (Sec. VII), and so does its record: {!retire} folds a
    delivered message's costs into running totals and sets its slot
    aside, and {!recycle}, called when the round ends, hands the round's
    retired slots out again.  The slab's size is therefore the peak
    number of messages held within one round, not the number a run
    creates.  It starts at the given capacity and doubles when full.

    A record's [slot] is its index here and never changes; its [id]
    comes from a monotonic counter at allocation, which reproduces the
    id sequence an executor minting fresh records would produce.  A slot
    names one message only until the round its message is retired ends:
    references held across rounds must be to live messages. *)

type t

val create : capacity:int -> t
(** An empty slab of [capacity] (at least 1) free records. *)

val capacity : t -> int
(** Records in the slab, free ones included. *)

val peak : t -> int
(** Slots ever handed out: the most records held at once, live and
    retired-this-round together.  Never above {!capacity}, and above
    half of it once the slab has grown. *)

val alloc_data : t -> src:int -> dst:int -> birth:int -> Message.t
(** A free record, reinitialized as a data message with the next id. *)

val alloc_update : t -> origin:int -> birth:int -> Message.t
(** A free record, reinitialized as a root-bound weight update with the
    next id. *)

val retire : t -> Message.t -> unit
(** Fold a delivered message ([delivered] and [end_time] already set)
    into the slab's running totals ({!Run_stats.add}) and set its slot
    aside until {!recycle}.  Each message must be retired once. *)

val recycle : t -> unit
(** End of round: the slots retired since the last call become free.
    No record handed out before the call may be used after it unless
    its message is still live. *)

val get : t -> int -> Message.t
(** [get a slot] — the record in that slot.
    @raise Invalid_argument when [slot] was never handed out. *)

val iter_live : t -> (Message.t -> unit) -> unit
(** The messages allocated and not yet delivered, in slot order. *)

val stats :
  ?chaos:Run_stats.chaos ->
  config:Config.t ->
  rounds:int ->
  t ->
  Run_stats.t
(** The run's statistics so far: the retired totals plus every live
    message as it stands.  Leaves the totals untouched, so it can be
    called again. *)

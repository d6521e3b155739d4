(** Synchronous round-driven simulation engine.

    The model of the paper (Sec. II) divides time into rounds; in one
    round every independent node may take one local step.  Algorithms
    plug into the engine as a {!scheduler}: the engine repeatedly calls
    [tick] with the current round number until [is_done] holds, and
    guards against livelock with a round budget. *)

type scheduler = {
  label : string;  (** Short algorithm name, e.g. ["cbn"], for logs. *)
  tick : int -> unit;  (** Execute one synchronous round; the argument is the round number. *)
  is_done : unit -> bool;  (** All work delivered. *)
}

type outcome = {
  rounds : int;  (** Number of rounds executed (the makespan). *)
  completed : bool;  (** False when the round budget was exhausted first. *)
}

exception Budget_exhausted of string
(** Raised by {!run_exn} when the round budget runs out — this always
    indicates a liveness bug in a scheduler, never a legitimate result. *)

val run : ?max_rounds:int -> ?busy_from:(int -> int) -> scheduler -> outcome
(** Drive [scheduler] to completion.  [max_rounds] defaults to
    100 million, far above any legitimate experiment in this repo.

    [busy_from r], when given, is the first round from [r] on whose
    [tick] can do anything: the engine jumps over the rounds before it
    (never past the budget) instead of ticking them.  The scheduler
    promises that those ticks would change nothing, so the outcome is
    the same as without [busy_from]. *)

val run_exn : ?max_rounds:int -> ?busy_from:(int -> int) -> scheduler -> int
(** Like {!run} but returns the round count and raises
    {!Budget_exhausted} when the scheduler fails to terminate. *)

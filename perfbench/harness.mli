(** Measurement helpers of the CBNet benchmark: order statistics, the
    tail-percentile rule, ratios that carry their base, the failure
    counter, benchmark-side spans and the result line.

    Everything here is pure bookkeeping over values the benchmark has
    already measured; none of it calls into the CBNet libraries. *)

(** {1 Order statistics} *)

val median : float array -> float
(** Median (mean of the two middle values for an even count).
    @raise Invalid_argument on an empty array. *)

val fastest : float array -> float
(** Smallest of a set of call times.
    @raise Invalid_argument on an empty array. *)

val min_beyond : int
(** Samples that must lie beyond a reported percentile: 10. *)

val beyond : count:int -> float -> int
(** [beyond ~count q]: how many of [count] samples rank beyond the
    nearest-rank [q]-quantile ([q] in [(0, 1)]).
    @raise Invalid_argument for [q] outside [(0, 1)]. *)

val tail_percentile : float array -> float -> (float * int) option
(** [tail_percentile samples q] is the nearest-rank [q]-quantile
    ([q] in [(0, 1)]) together with the number of samples ranked
    beyond it, or [None] when fewer than {!min_beyond} samples would
    lie beyond it — a percentile the data cannot support. *)

(** {1 Ratios with their base} *)

type ratio = { num : float; den : float }

val ratio : float -> float -> ratio

val ratio_value : ratio -> float
(** [num /. den], or 0 when the base [den] is 0. *)

val pp_ratio : ratio -> string
(** ["<value> (<num>/<den>)"], the value to 4 significant digits and
    the base in full, e.g. ["0.5 (1/2)"]. *)

(** {1 Failure counter} *)

(** Counts the requests of one run that were not served correctly:
    requests the system refused (shed) or never delivered, plus every
    request of a run whose output check failed — a failed check
    discredits the whole run's output. *)
module Failures : sig
  type t

  val create : attempted:int -> t
  val refused : t -> int -> unit
  (** [refused t k]: [k] more requests were shed or undelivered. *)

  val check : t -> string -> bool -> unit
  (** [check t name ok] records one output check. *)

  val attempted : t -> int
  val failed : t -> int
  (** Refused requests, or all attempted ones once any check failed. *)

  val correct : t -> bool
  (** No check failed. *)

  val failed_checks : t -> string list
  (** Names of the failed checks, in the order they were recorded. *)

  val checks : t -> int
  (** Checks recorded so far. *)
end

(** {1 Spans} *)

(** Benchmark-side spans around calls into the measured layers: name,
    start, end, parent and run id, kept in memory and written once the
    run ends.  A disabled recorder only runs the wrapped call. *)
module Spans : sig
  type span = {
    id : int;
    name : string;  (** [<layer>.<call>], e.g. ["core.concurrent.run"]. *)
    parent : int;  (** Enclosing span's id, -1 at the top. *)
    start_s : float;
    end_s : float;
  }

  type t

  val create : enabled:bool -> run_id:string -> t
  val with_span : t -> string -> (unit -> 'a) -> 'a
  val spans : t -> span list
  (** Closed spans, in the order they were opened. *)

  val layer : string -> string
  (** The layer of a span name: its first dotted component. *)

  val self_times : span list -> (string * float) list
  (** Per layer, the seconds its spans cover minus the part covered by
      their child spans; layers sorted by name. *)

  val to_json : t -> string
  (** One JSON object: run id plus the span list. *)
end

(** {1 Result line} *)

val result_json :
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * float * string) list ->
  string
(** The benchmark's final line: [{"correct", "attempted", "failed",
    "metrics"}] with each [(name, value, unit)] as
    [{"value": v, "unit": u}].  Values keep all their digits; a
    non-finite value is written as 0. *)

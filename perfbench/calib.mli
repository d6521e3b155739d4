(** Host-speed calibration.

    The shared hosts the benchmark runs on change speed by up to 2x
    for minutes at a time, as neighbouring machines load the cores and
    caches they share.  A fixed kernel — written here, independent of
    the CBNet libraries — is run right after every timed call, and the
    call's time is expressed at the reference speed: scaled by how
    much slower than {!nominal_s} the kernel ran just then.  A change
    to the CBNet code moves the call and not the kernel; a change of
    host speed moves both. *)

val nominal_s : float
(** The kernel's fastest time on a quiet core of the reference host
    (a 2-vCPU Intel Xeon virtual machine). *)

val kernel : unit -> unit
(** A dependent walk over an 8 MiB table held outside the OCaml heap,
    then search-and-rotate steps on a 512-key binary search tree. *)

val at_reference : raw:float -> kernel:float -> float
(** [at_reference ~raw ~kernel]: [raw] seconds measured while the
    kernel took [kernel] seconds, expressed at the reference speed,
    [raw *. nominal_s /. kernel].
    @raise Invalid_argument when [kernel] is not positive. *)

val timed : (unit -> 'a) -> 'a * float * float
(** [timed f] runs [f], then the kernel, and returns [f]'s result,
    its raw seconds and its seconds at the reference speed. *)

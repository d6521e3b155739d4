module T = Bstnet.Topology
module M = Message

(* Node ids, rounds and version stamps are ints; kind tests go through
   M.is_* (see the no-poly-compare lint rule). *)
let ( = ) : int -> int -> bool = Int.equal
let ( <> ) a b = not (Int.equal a b)

let validate t trace =
  let n = T.n t in
  let last_birth = ref min_int in
  Array.iter
    (fun (birth, src, dst) ->
      if birth < !last_birth then invalid_arg "Concurrent.run: trace not sorted";
      last_birth := birth;
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg "Concurrent.run: endpoint out of range")
    trace

let default_window t = function Some w -> w | None -> max 64 (T.n t)

(* Steady-state allocation-free executor: the messages in flight live
   in a recycling arena (ids handed out in the same order the
   list-based executor minted them; a delivered message's record is
   reused once its round ends), the undelivered set is an array-backed
   priority buffer, and every turn fills one reusable plan buffer.
   The rhythm of a round is unchanged — newcomers admitted, the whole
   set visited in (birth, id) order, finished messages dropped — so
   statistics, telemetry and the final tree are bit-identical to
   {!Reference}. *)

(* --------------------------------------------------------------
   Intra-round parallelism: the speculative plan wave.

   Bit-identity rules out racing CAS claims — which message wins a
   contended cluster would depend on domain scheduling, and every
   pause/bypass counter, event and rotation downstream of it.  The
   parallel executor therefore splits each round's visit into

     1. a *wave*: the ready set is partitioned across a fixed team of
        domains ({!Simkit.Team}); each member speculatively probes and
        resolves its messages' turns against the frozen start-of-round
        tree — strictly read-only (no weight deposits, no rank-memo
        writes, no phase flips) — recording each turn's plan, its exact
        node read set and the nodes' mutation stamps
        ({!Bstnet.Topology.stamp});

     2. a *serial commit*: the caller walks the slots in the exact
        sequential (birth, id) order.  A slot whose read-set stamps
        still hold commits its speculated plan verbatim (the sequential
        executor, reaching this message now, would recompute exactly
        it); a stale or unspeculatable slot falls back to the plain
        sequential turn.  All tree mutations, claim writes, fault draws
        and telemetry happen here, on one domain, in sequential order.

   The claim words double-pack (round, rotate) into one int per node —
   [round lsl 1 lor rotate], initialized to -2 so [asr 1] never equals
   a real round — replacing the two parallel arrays; the commit phase
   stays their only writer.

   Turns the wave cannot speculate exactly are tagged [tag_seq]:
   *flip hazards* — a turn crossing its LCA spawns the weight-update
   message and deposits its first increment *before* probing, so any
   speculated ΔΦ would be stale — and, on untraced fault-free runs,
   turns whose step-shape cache is still valid, which the sequential
   fast path re-checks in a handful of loads anyway (speculating those
   would cost more than it saves: pause-dominated rounds are exactly
   the cache-friendly ones). *)

let tag_seq = 0 (* run the plain sequential turn at commit *)
let tag_deliver = 1 (* speculated delivery; validate the current node *)
let tag_plan = 2 (* speculated resolved plan; validate the read set *)

type slot = {
  mutable tag : int;
  mutable flags : int; (* Protocol.spec_* bits of the speculation *)
  splan : Step.t; (* this slot's private plan buffer *)
  (* Probe-time cluster layout (resolve folds the anchor into the
     cluster fields when the step rotates, and the untraced commit
     path must refresh the message's shape cache with the *probe*
     layout, exactly as the sequential path does). *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  mutable canchor : int;
  (* The turn's exact read set: cluster core + the ΔΦ weight reads
     (transferred children), with each node's stamp at wave time.  A
     slot is committable iff every stamp still holds. *)
  reads : int array;
  stamps : int array;
  mutable nreads : int;
}

let max_reads = 6 (* 3 cluster nodes + at most 2 ΔΦ extras *)

let new_slot () =
  {
    tag = tag_seq;
    flags = 0;
    splan = Step.buffer ();
    c0 = T.nil;
    c1 = T.nil;
    c2 = T.nil;
    canchor = T.nil;
    reads = Array.make max_reads T.nil;
    stamps = Array.make max_reads 0;
    nreads = 0;
  }

(* Below this ready-set size the wave's handoff dwarfs the work. *)
let par_threshold = 32

(* Below this queue length a round forms no wait group and adds no
   member to one: a group can only save the turns of other queued
   messages, and on short queues its upkeep costs more than it saves
   (docs/PERFORMANCE.md, "Wait groups"). *)
let group_threshold = 16

module Prof = Profkit.Profile

(* A wait group (see "Wait groups" below): the messages waiting behind
   one cached core cluster, as a priority-ordered list threaded through
   the arena by [Message.wg_next], which holds arena slots.  Members
   are live (only heads and ungrouped messages take turns, so only
   they are ever delivered), so their slots stay theirs across rounds.
   Records live in a pool and are recycled through a free list, so
   forming and dissolving groups allocates nothing. *)
type group = {
  mutable head : int;  (* slot of the highest-priority member, or -1 when free *)
  mutable tail : int;  (* slot of the lowest-priority member *)
  mutable size : int;  (* members, head included *)
  mutable pauses : int;  (* pause ticks charged to every non-head member *)
  mutable bypasses : int;  (* bypass ticks, likewise *)
  mutable round : int;  (* last round the group has had its turn *)
  mutable bit : int;  (* that round's verdict: 1 = bypass, 0 = pause *)
  mutable watch : int;  (* round whose verdict still rests on the key, or -1 *)
  mutable promoted : bool;  (* the head took over this round, not yet queued *)
  mutable slot : int;  (* the key's slot in [state.owner] *)
  mutable next : int;  (* next free group *)
  (* The key: the members' common shape cache. *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
  mutable anchor : int;
  mutable v0 : int;
  mutable v1 : int;
  mutable v2 : int;
}

let new_group () =
  {
    head = -1;
    tail = -1;
    size = 0;
    pauses = 0;
    bypasses = 0;
    round = -1;
    bit = 0;
    watch = -1;
    promoted = false;
    slot = 0;
    next = -1;
    c0 = T.nil;
    c1 = T.nil;
    c2 = T.nil;
    anchor = T.nil;
    v0 = 0;
    v1 = 0;
    v2 = 0;
  }

type state = {
  config : Config.t;
  t : T.t;
  trace : (int * int * int) array;
  window : int;  (* admission control: max data messages in flight *)
  sink : Obskit.Sink.t;  (* telemetry; Sink.null compiles to no-ops *)
  profile : Prof.t option;
      (* phase timers + speculation counters; [None] keeps every
         profiling site a single branch.  Strictly observational: a
         profiled run is bit-identical to an unprofiled one. *)
  prof_sink : Obskit.Sink.t;
      (* Phase_time events of profiled rounds.  A separate sink, like
         [team_sink]: the run sink's stream must stay bit-identical
         whether or not profiling is on. *)
  faults : Faultkit.Injector.t option;
      (* fault injection (Faultkit); [None] keeps the executor on the
         plain hot path, bit-identical to pre-faultkit behaviour *)
  check : bool;  (* verify Bstnet.Check.structural after every repair *)
  arena : Arena.t;  (* the messages in flight, by slot *)
  queue : M.t Simkit.Pqueue.t;  (* undelivered, in priority order *)
  plan : Step.t;  (* the reusable plan buffer *)
  mutable next_inject : int;  (* index into trace *)
  (* The spawn callback is allocated once; it reads the round and the
     parent's birth from these fields instead of capturing them. *)
  mutable spawn : Protocol.spawn;
  mutable cur_round : int;
  mutable cur_birth : int;
  (* Per-node claim words: claims.(v) = (r lsl 1) lor rotate when v is
     locked in round r by a step that rotates (1) or routes (0).
     Initialized to -2: (-2) asr 1 = -1, never a real round. *)
  claims : int array;
  mutable live : int;  (* undelivered messages, data + update *)
  mutable live_data : int;  (* undelivered data messages in flight *)
  lat_on : bool;  (* record data messages' latencies as they retire *)
  mutable lats : int array;
      (* by id: a delivered data message's latency in rounds, or -1 *)
  mutable first_turn : bool;
      (* [check] on a fault-free run: the round's first turn is still to
         come (it belongs to the top-priority message, never blocked) *)
  (* Wait groups (untraced, fault-free, domains = 1); see below. *)
  grouping : bool;
  mutable groups : group array;  (* the pool *)
  mutable free_group : int;  (* free list through [next], or -1 *)
  mutable owner : int array;
      (* per hash slot of a key: the group holding it, or {!lone} of
         the message last seen waiting on it alone, or -1; a power of
         two, at least 2n, allocated on the run's first long queue *)
  mutable lone_round : int array;
      (* per slot: the round its lone waiter was seen; the lone entry
         is trusted only in that round, since arena slots are reused
         between rounds *)
  mutable decided : int array;  (* groups that watch their key this round *)
  mutable ndecided : int;
  mutable promotions : int array;  (* groups whose head took over this round *)
  mutable npromotions : int;
  mutable release : M.t array;  (* released members, in priority order *)
  mutable rel_pos : int;  (* next release entry to walk *)
  mutable rel_len : int;
  mutable walker : int;
      (* id of the message taking the current turn; with [cur_birth],
         its priority *)
  dummy : M.t;
  (* Parallel plan wave (domains > 1); see the design note above. *)
  team_sink : Obskit.Sink.t;  (* per-member wave telemetry *)
  mutable team : Simkit.Team.t option;
  mutable slots : slot array;  (* one per committed queue position *)
  mutable wave_planned : int array;  (* per-member tally of tag_plan slots *)
  mutable wave_count : int;  (* wave job inputs: ready-set size... *)
  mutable wave_chunk : int;  (* ...and slice width per member *)
  mutable wave_cache : bool;  (* honour the shape cache (untraced, fault-free) *)
  mutable wave_job : int -> unit;  (* preallocated member job *)
}

(* Profiling shims: a single branch (and no allocation) when profiling
   is off, a counter bump or clock read when on. *)
let prof st phase =
  match st.profile with None -> () | Some p -> Prof.enter p phase

let prof_shape_hit st =
  match st.profile with None -> () | Some p -> Prof.shape_hit p

(* An invariant audited under [check_invariants] failed (cold path). *)
let violated fmt = Printf.ksprintf (fun s -> failwith ("Concurrent: " ^ s)) fmt

(* lint: hot *)
(* Charge [k] lost conflicts of one kind to a message: [bit] is the
   winner's rotate bit (1 = it rotated, a bypass; 0 = it routed, a
   pause).  [k = -1] gives back a charge a wait group made in bulk. *)
let charge st (msg : M.t) ~bit k =
  if bit = 1 then msg.M.bypasses <- msg.M.bypasses + k
  else msg.M.pauses <- msg.M.pauses + k;
  match st.profile with None -> () | Some p -> Prof.conflicts_add p k

(* Keep a delivered data message's latency, by id (requested runs only). *)
let[@inline never] record_latency st (msg : M.t) =
  let id = msg.M.id in
  if id >= Array.length st.lats then begin
    let old = st.lats in
    (* lint: allow no-alloc -- amortized growth, latency runs only *)
    st.lats <- Array.make (max 64 (2 * id)) (-1);
    Array.blit old 0 st.lats 0 (Array.length old)
  end;
  st.lats.(id) <- msg.M.end_time - msg.M.birth

(* Deliver a message: it leaves the run, and its record goes back to
   the arena (reused once the round ends). *)
let finish st (msg : M.t) =
  msg.M.delivered <- true;
  msg.M.end_time <- st.cur_round;
  st.live <- st.live - 1;
  if M.is_data msg then begin
    st.live_data <- st.live_data - 1;
    if st.lat_on then record_latency st msg
  end;
  if Obskit.Sink.enabled st.sink then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Msg_delivered
          {
            round = st.cur_round;
            msg = msg.M.id;
            data = M.is_data msg;
            birth = msg.M.birth;
            hops = msg.M.hops;
            rotations = msg.M.rotations;
          });
  Arena.retire st.arena msg

(* The spawn callback shared by all protocol entry points: the update
   message becomes active in the next round.  It inherits its parent's
   birth time (priority): the update is part of serving that request,
   and a freshly-stamped update would be starved forever behind the
   steady stream of older data messages. *)
let spawner st ~origin ~first_increment =
  T.add_weight st.t origin first_increment;
  let u = Arena.alloc_update st.arena ~origin ~birth:st.cur_birth in
  st.live <- st.live + 1;
  if T.is_root st.t origin then finish st u
  else Simkit.Pqueue.stage st.queue u
(* lint: hot-end *)

(* Key slots for a grouped run: a power of two, at least 2n. *)
let key_slots t =
  let slots = ref 1 in
  while !slots < 2 * T.n t do
    slots := 2 * !slots
  done;
  !slots

(* The arena's starting size; it doubles up to the run's peak number
   of messages held in one round. *)
let arena_start = 16

let create config ~window ~sink ~profile ~prof_sink ~team_sink ~faults ~check
    ~grouping ~latencies t trace =
  validate t trace;
  if window < 1 then invalid_arg "Concurrent.run: window must be >= 1";
  let capacity = max 16 (2 * Array.length trace) in
  let dummy = M.data ~id:(-1) ~src:0 ~dst:0 ~birth:0 in
  let st =
    {
      config;
      t;
      trace;
      window;
      sink;
      profile;
      prof_sink;
      faults;
      check;
      arena = Arena.create ~capacity:arena_start;
      queue =
        Simkit.Pqueue.create
          ~capacity:(min capacity (4 * window))
          ~dummy M.priority_compare;
      plan = Step.buffer ();
      next_inject = 0;
      spawn = (fun ~origin:_ ~first_increment:_ -> ());
      cur_round = 0;
      cur_birth = 0;
      claims = Array.make (T.n t) (-2);
      live = 0;
      live_data = 0;
      lat_on = latencies;
      lats = [||];
      first_turn = false;
      grouping;
      groups = [||];
      free_group = -1;
      owner = [||];
      lone_round = [||];
      decided = Array.make 16 0;
      ndecided = 0;
      promotions = Array.make 16 0;
      npromotions = 0;
      release = Array.make 16 dummy;
      rel_pos = 0;
      rel_len = 0;
      walker = -1;
      dummy;
      team_sink;
      team = None;
      slots = [||];
      wave_planned = [||];
      wave_count = 0;
      wave_chunk = 0;
      wave_cache = false;
      wave_job = (fun _ -> ());
    }
  in
  st.spawn <-
    (fun ~origin ~first_increment -> spawner st ~origin ~first_increment);
  st

(* lint: hot *)
let inject st ~round =
  let continue_ = ref true in
  while
    !continue_
    && st.next_inject < Array.length st.trace
    && st.live_data < st.window
  do
    let birth, src, dst = st.trace.(st.next_inject) in
    if birth > round then continue_ := false
    else begin
      st.next_inject <- st.next_inject + 1;
      let msg = Arena.alloc_data st.arena ~src ~dst ~birth in
      st.live <- st.live + 1;
      st.live_data <- st.live_data + 1;
      st.cur_birth <- birth;
      Protocol.born st.t ~spawn:st.spawn msg;
      if msg.M.delivered then finish st msg
      else Simkit.Pqueue.stage st.queue msg
    end
  done
(* lint: hot-end *)

(* ------------------------------------------------------------------
   Wait groups (untraced, fault-free, [domains = 1]).

   Under contention almost every turn is a paused message re-checking
   its cached shape against this round's claims (docs/PERFORMANCE.md).
   Messages whose shape caches are valid and equal — same core
   [(c0, c1, c2)], anchor and core versions — form a wait group, and
   the round walk visits only each group's head (its highest-priority
   member) plus the messages in no group.  A group forms when a second
   message blocks on a key behind a first, and later ones join it
   below the head ({!attach}), in rounds whose queue holds at least
   {!group_threshold} messages.  Groups and lone waiters are found
   through a table of key slots, one key per slot.

   Why that is exact.  Within a round claims only accumulate.  When the
   head's turn ends with a core node claimed and the key's versions
   unchanged, every other member, visited at its own position later in
   the round, would hit a claimed core node off its still-valid cache
   and lose with the verdict {!shape_hit} gives — which can only change
   if a node of the key (core or anchor) is claimed, or a core version
   moves, in between.  So the group is *decided*: each member is
   charged one tick of that verdict through the group's counters — a
   member's own [pauses]/[bypasses] lag the ticks from its joining on
   and catch up when it leaves or at finalize — and the key's nodes
   are watched for the rest of the round.  A routing claim on a
   pause-decided key cannot change the verdict (the first claimed core
   node stays first, and the anchor can only join it as a pause);
   any other claim on a watched node *releases* the members below the
   claimer: they get this round's tick back and take real turns at
   their own positions, through a small sorted release buffer merged
   into the walk.  Version bumps need no watch of their own: a
   rotation bumps only nodes it claims plus the transferred subtree
   roots, and the key of a group holding a transferred root [b] also
   holds [b]'s parent (the rotated node — a core path runs through it,
   or it is the anchor above [b]), so the rotating claim is seen
   first.  [check_invariants] audits all of this at the end of every
   round ({!check_groups}).  A head whose turn leaves no core node
   claimed, or the key stale, releases all its members for real
   turns. *)

(* lint: hot *)
let member st slot = Arena.get st.arena slot
let prio_lt (a : M.t) (b : M.t) = M.priority_compare a b < 0

(* Priority [(birth, id)] strictly above message [m]'s. *)
let outranks ~birth ~id (m : M.t) =
  birth < m.M.birth || (birth = m.M.birth && id < m.M.id)

let key_matches (g : group) (m : M.t) =
  g.c0 = m.M.shape_c0 && g.c1 = m.M.shape_c1 && g.c2 = m.M.shape_c2
  && g.anchor = m.M.shape_anchor && g.v0 = m.M.shape_v0
  && g.v1 = m.M.shape_v1
  && (g.c2 = T.nil || g.v2 = m.M.shape_v2)

let key_valid st (g : group) =
  T.version st.t g.c0 = g.v0
  && T.version st.t g.c1 = g.v1
  && (g.c2 = T.nil || T.version st.t g.c2 = g.v2)

(* The slot of a message's cached key.  Versions stay out of the hash:
   a group whose key went stale gives its slot up at its head's next
   turn. *)
let key_slot st (m : M.t) =
  let h =
    (((m.M.shape_c0 * 31) + m.M.shape_c1) * 31 + m.M.shape_c2) * 31
    + m.M.shape_anchor
  in
  h land (Array.length st.owner - 1)

(* A lone waiter's slot, encoded in [owner] below -1. *)
let lone (m : M.t) = -2 - m.M.slot
let lone_slot o = -2 - o

(* A member's own counters lag the group's ticks while it waits: it
   joins with the ticks subtracted and leaves with them added back. *)
let lag (g : group) (m : M.t) =
  m.M.pauses <- m.M.pauses - g.pauses;
  m.M.bypasses <- m.M.bypasses - g.bypasses

let catch_up (g : group) (m : M.t) =
  m.M.pauses <- m.M.pauses + g.pauses;
  m.M.bypasses <- m.M.bypasses + g.bypasses

(* Double the pool (only ever called with every pooled group in use). *)
let grow_groups st =
  let old = st.groups in
  let n = Array.length old in
  let cap = max 16 (2 * n) in
  (* lint: allow no-alloc -- amortized pool growth, not per turn *)
  st.groups <- Array.init cap (fun i -> if i < n then old.(i) else new_group ());
  for gi = cap - 1 downto n do
    st.groups.(gi).next <- st.free_group;
    st.free_group <- gi
  done

let free_group st gi =
  let g = st.groups.(gi) in
  st.owner.(g.slot) <- -1;
  g.head <- -1;
  g.size <- 0;
  g.watch <- -1;
  g.promoted <- false;
  g.next <- st.free_group;
  st.free_group <- gi

let push_release st (m : M.t) =
  if st.rel_len = Array.length st.release then begin
    let old = st.release in
    (* lint: allow no-alloc -- amortized buffer growth, not per turn *)
    st.release <- Array.make (2 * Array.length old) st.dummy;
    Array.blit old 0 st.release 0 st.rel_len
  end;
  let i = ref st.rel_len in
  while !i > st.rel_pos && prio_lt m st.release.(!i - 1) do
    st.release.(!i) <- st.release.(!i - 1);
    decr i
  done;
  st.release.(!i) <- m;
  st.rel_len <- st.rel_len + 1

(* Release every member of priority below [(birth, id)] (the head too,
   when it took over this round and has not had its turn): they take
   real turns later this round, from the release buffer.  If the group
   was decided this round, their tick is given back first (only
   members present at the decision are ever released: later joiners
   have had their turns, above [(birth, id)]). *)
let release_below st gi ~round ~birth ~id =
  let g = st.groups.(gi) in
  let prev = ref (-1) and cur = ref g.head in
  while !cur >= 0 && not (outranks ~birth ~id (member st !cur)) do
    prev := !cur;
    cur := (member st !cur).M.wg_next
  done;
  if !cur >= 0 then begin
    if !prev >= 0 then begin
      (member st !prev).M.wg_next <- -1;
      g.tail <- !prev
    end;
    while !cur >= 0 do
      let m = member st !cur in
      cur := m.M.wg_next;
      if m.M.slot <> g.head then catch_up g m;
      if g.round = round then begin
        charge st m ~bit:g.bit (-1);
        match st.profile with
        | None -> ()
        | Some p -> Prof.waits_skipped_add p (-1)
      end;
      m.M.wg_next <- M.no_group;
      g.size <- g.size - 1;
      push_release st m
    done;
    if g.size = 0 then free_group st gi
  end

let watches (g : group) v =
  v <> T.nil && (g.c0 = v || g.c1 = v || g.c2 = v || g.anchor = v)

(* The walker is about to claim plan [p]'s cluster while some groups
   decided this round watch their keys.  A routing claim on a
   pause-decided key leaves every later member's verdict a pause; any
   other claim on a key may change it (or, rotating, bump a core
   version), so it releases that group's members below the walker. *)
let on_claim st ~round (p : Step.t) ~bit =
  for i = 0 to st.ndecided - 1 do
    let gi = st.decided.(i) in
    let g = st.groups.(gi) in
    if
      g.watch = round
      && bit lor g.bit = 1
      && (watches g p.Step.cluster0 || watches g p.Step.cluster1
         || watches g p.Step.cluster2 || watches g p.Step.cluster3)
    then begin
      g.watch <- -1;
      release_below st gi ~round ~birth:st.cur_birth ~id:st.walker
    end
  done
(* lint: hot-end *)

(* Conflict probe, walking the plan's nil-padded cluster fields (nil
   is tail padding only).  Encoded as an int so the per-turn hot path
   allocates no option: -1 = free, 0 = loser of a routing step
   (pause), 1 = loser of a rotation (bypass).  Written without inner
   closures — the non-flambda compiler would allocate them per call.
   A node is claimed in this round iff its claim word shifts down to
   [round]; the low bit is the claimer's rotate verdict. *)
let conflict_free = -1

(* lint: hot *)
let cluster_conflict st ~round (p : Step.t) =
  let v0 = p.Step.cluster0 in
  if v0 <> T.nil && st.claims.(v0) asr 1 = round then st.claims.(v0) land 1
  else
    let v1 = p.Step.cluster1 in
    if v1 <> T.nil && st.claims.(v1) asr 1 = round then st.claims.(v1) land 1
    else
      let v2 = p.Step.cluster2 in
      if v2 <> T.nil && st.claims.(v2) asr 1 = round then
        st.claims.(v2) land 1
      else
        let v3 = p.Step.cluster3 in
        if v3 <> T.nil && st.claims.(v3) asr 1 = round then
          st.claims.(v3) land 1
        else conflict_free

(* Def. 6 under [check_invariants]: the clusters claimed in one round
   are disjoint, so a claim never lands on a node claimed this round. *)
let check_unclaimed st ~round v =
  if v <> T.nil && st.claims.(v) asr 1 = round then
    violated "Def. 6 violated: node %d claimed twice in round %d" v round

let claim st ~round (p : Step.t) =
  let bit = Bool.to_int p.Step.rotate in
  if st.check then begin
    check_unclaimed st ~round p.Step.cluster0;
    check_unclaimed st ~round p.Step.cluster1;
    check_unclaimed st ~round p.Step.cluster2;
    check_unclaimed st ~round p.Step.cluster3
  end;
  if st.ndecided > 0 then on_claim st ~round p ~bit;
  let word = (round lsl 1) lor bit in
  let v0 = p.Step.cluster0 in
  if v0 <> T.nil then st.claims.(v0) <- word;
  let v1 = p.Step.cluster1 in
  if v1 <> T.nil then st.claims.(v1) <- word;
  let v2 = p.Step.cluster2 in
  if v2 <> T.nil then st.claims.(v2) <- word;
  let v3 = p.Step.cluster3 in
  if v3 <> T.nil then st.claims.(v3) <- word

(* Record a lost conflict on the message (+ optional event). *)
let record_conflict st ~round ~traced (msg : M.t) ~was_rotation =
  charge st msg ~bit:(Bool.to_int was_rotation) 1;
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Conflict
          {
            round;
            msg = msg.M.id;
            kind =
              (if was_rotation then Obskit.Event.Bypass
               else Obskit.Event.Pause);
          })

(* Commit the turn's plan: claim the cluster, apply the step, finish
   the message if it arrived.  Shared by the conflict-free branch of
   {!resolved_turn} and by the fault-injected path. *)
let commit_plan st ~round ~traced (msg : M.t) (plan : Step.t) =
  claim st ~round plan;
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Cluster_claimed
          {
            round;
            msg = msg.M.id;
            cluster = Step.cluster plan;
            rotate = plan.Step.rotate;
          });
  msg.M.shape_c0 <- M.shape_none;
  Protocol.apply_step st.t ~spawn:st.spawn msg plan;
  if traced && plan.Step.rotate then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Rotation
          {
            round;
            msg = msg.M.id;
            node = plan.Step.current;
            count = plan.Step.rotations;
            delta_phi = Step.delta_phi plan;
          });
  if msg.M.delivered then finish st msg

(* Finish a turn whose buffer holds a complete (resolved) plan:
   conflict test on the final cluster, then claim + apply or record
   the pause/bypass. *)
let resolved_turn st ~round ~traced (msg : M.t) (plan : Step.t) =
  let conflict = cluster_conflict st ~round plan in
  if conflict <> conflict_free then
    record_conflict st ~round ~traced msg ~was_rotation:(conflict = 1)
  else commit_plan st ~round ~traced msg plan
(* lint: hot-end *)

(* Traced turn: full plan up front (Step_planned must carry ΔΦ). *)
let traced_turn st ~round (msg : M.t) =
  if Protocol.begin_turn_into st.plan st.config st.t ~spawn:st.spawn msg
  then begin
    let plan = st.plan in
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Step_planned
          {
            round;
            msg = msg.M.id;
            kind = Step.kind_to_string plan.Step.kind;
            rotate = plan.Step.rotate;
            delta_phi = Step.delta_phi plan;
          });
    resolved_turn st ~round ~traced:true msg plan
  end
  else finish st msg

(* Untraced turn: probe the step's shape first and only evaluate ΔΦ
   when it can matter.  Under contention most turns pause, and a pause
   is decidable from the shape alone: the rotation anchor is the only
   cluster node whose membership depends on ΔΦ, and it sits in {e
   front} of the cluster when present — so if some core node is
   already claimed while the anchor is not, the first colliding node
   (hence the pause/bypass verdict) is the same whether or not the
   step would rotate, and the plan can be discarded unresolved.  This
   is outcome-identical to the traced path; the equivalence suite
   checks it against {!Reference}. *)
(* lint: hot *)

(* The ΔΦ-free conflict pre-check on a probed core shape, shared by
   the shape-cache fast path, the probe path and the wave commit: the
   first claimed core node when the pause/bypass verdict is decidable
   without resolving (anchor unclaimed, or claimed by the same kind of
   winner), else nil. *)
let shape_hit st ~round ~c0 ~c1 ~c2 ~anchor =
  let hit =
    if st.claims.(c0) asr 1 = round then c0
    else if st.claims.(c1) asr 1 = round then c1
    else if c2 <> T.nil && st.claims.(c2) asr 1 = round then c2
    else T.nil
  in
  if
    hit <> T.nil
    && (anchor = T.nil
       || st.claims.(anchor) asr 1 <> round
       || st.claims.(anchor) land 1 = st.claims.(hit) land 1)
  then hit
  else T.nil

let untraced_probe_turn st ~round (msg : M.t) =
  if Protocol.begin_turn_probe st.plan st.t ~spawn:st.spawn msg then begin
    let p = st.plan in
    (* Refresh the message's shape cache: while the core nodes'
       structure versions hold and the message does not act, the next
       turn can skip the probe entirely. *)
    let c0 = p.Step.cluster0
    and c1 = p.Step.cluster1
    and c2 = p.Step.cluster2 in
    msg.M.shape_c0 <- c0;
    msg.M.shape_c1 <- c1;
    msg.M.shape_c2 <- c2;
    msg.M.shape_anchor <- p.Step.anchor;
    msg.M.shape_v0 <- T.version st.t c0;
    msg.M.shape_v1 <- T.version st.t c1;
    if c2 <> T.nil then msg.M.shape_v2 <- T.version st.t c2;
    let hit = shape_hit st ~round ~c0 ~c1 ~c2 ~anchor:p.Step.anchor in
    if hit <> T.nil then
      (* The anchor joins the cluster (in front) only if the step
         rotates; with the anchor unclaimed — or claimed by the same
         kind of winner as the first core hit — the verdict is the
         same either way, so ΔΦ is irrelevant. *)
      charge st msg ~bit:(st.claims.(hit) land 1) 1
    else begin
      Step.resolve_into st.plan st.config st.t;
      resolved_turn st ~round ~traced:false msg st.plan
    end
  end
  else finish st msg

let untraced_turn st ~round (msg : M.t) =
  (* Cached-shape fast path: with the core nodes structurally
     unchanged since the last probe (and the message not having acted
     since — acting clears the cache), a re-probe would reproduce the
     cached shape verbatim and perform no protocol side effects, so
     the conflict pre-check can run straight off the cache. *)
  let c0 = msg.M.shape_c0 in
  if
    c0 <> M.shape_none
    && T.version st.t c0 = msg.M.shape_v0
    && T.version st.t msg.M.shape_c1 = msg.M.shape_v1
    && (msg.M.shape_c2 = T.nil || T.version st.t msg.M.shape_c2 = msg.M.shape_v2)
  then begin
    prof_shape_hit st;
    let hit =
      shape_hit st ~round ~c0 ~c1:msg.M.shape_c1 ~c2:msg.M.shape_c2
        ~anchor:msg.M.shape_anchor
    in
    if hit <> T.nil then charge st msg ~bit:(st.claims.(hit) land 1) 1
    else begin
      (* Cluster free (or only the anchor contended): the turn may
         act, so take the full probe + resolve path. *)
      Protocol.begin_turn_probe st.plan st.t ~spawn:st.spawn msg |> ignore;
      Step.resolve_into st.plan st.config st.t;
      resolved_turn st ~round ~traced:false msg st.plan
    end
  end
  else untraced_probe_turn st ~round msg

(* The grouped round walk.  Decide group [gi] for this round from the
   claims as they stand: every member but the head is charged one tick
   of [bit], and the key is watched until the round ends. *)
let decide st gi ~round ~bit =
  let g = st.groups.(gi) in
  g.round <- round;
  g.bit <- bit;
  let waiting = g.size - 1 in
  if waiting > 0 then begin
    if bit = 1 then g.bypasses <- g.bypasses + 1
    else g.pauses <- g.pauses + 1;
    (match st.profile with
    | None -> ()
    | Some p ->
        Prof.conflicts_add p waiting;
        Prof.waits_skipped_add p waiting);
    g.watch <- round;
    if st.ndecided = Array.length st.decided then begin
      let old = st.decided in
      (* lint: allow no-alloc -- amortized list growth, not per turn *)
      st.decided <- Array.make (2 * Array.length old) 0;
      Array.blit old 0 st.decided 0 st.ndecided
    end;
    st.decided.(st.ndecided) <- gi;
    st.ndecided <- st.ndecided + 1
  end

(* The verdict bit a member would get off the group's cached key now,
   or -1 when the cache is stale or no core node is claimed yet. *)
let group_verdict st ~round (g : group) =
  if key_valid st g then
    let hit =
      shape_hit st ~round ~c0:g.c0 ~c1:g.c1 ~c2:g.c2 ~anchor:g.anchor
    in
    if hit <> T.nil then st.claims.(hit) land 1 else -1
  else -1

(* [m], blocked with a valid shape cache, founds a group of its key in
   the free slot [slot], as its head. *)
let create_group st ~round ~slot (m : M.t) =
  if st.free_group < 0 then grow_groups st;
  let gi = st.free_group in
  let g = st.groups.(gi) in
  st.free_group <- g.next;
  st.owner.(slot) <- gi;
  g.slot <- slot;
  g.c0 <- m.M.shape_c0;
  g.c1 <- m.M.shape_c1;
  g.c2 <- m.M.shape_c2;
  g.anchor <- m.M.shape_anchor;
  g.v0 <- m.M.shape_v0;
  g.v1 <- m.M.shape_v1;
  g.v2 <- m.M.shape_v2;
  g.head <- m.M.slot;
  g.tail <- m.M.slot;
  g.size <- 1;
  g.pauses <- 0;
  g.bypasses <- 0;
  g.round <- round;
  g.watch <- -1;
  g.promoted <- false;
  m.M.wg_next <- -1

(* [m] joins below the head, at its priority position. *)
let insert_member st gi (m : M.t) =
  let g = st.groups.(gi) in
  lag g m;
  g.size <- g.size + 1;
  let last = member st g.tail in
  if prio_lt last m then begin
    last.M.wg_next <- m.M.slot;
    m.M.wg_next <- -1;
    g.tail <- m.M.slot
  end
  else begin
    let p = ref (member st g.head) in
    while
      !p.M.wg_next >= 0 && prio_lt (member st !p.M.wg_next) m
    do
      p := member st !p.M.wg_next
    done;
    m.M.wg_next <- !p.M.wg_next;
    !p.M.wg_next <- m.M.slot
  end

(* The head [x] leaves; the next member, blocked this round with the
   group, becomes head and joins the queue when the round ends. *)
let head_leaves st gi (x : M.t) =
  let g = st.groups.(gi) in
  let next = x.M.wg_next in
  x.M.wg_next <- M.no_group;
  g.size <- g.size - 1;
  if next < 0 then free_group st gi
  else begin
    catch_up g (member st next);
    g.head <- next;
    if not g.promoted then begin
      g.promoted <- true;
      if st.npromotions = Array.length st.promotions then begin
        let old = st.promotions in
        (* lint: allow no-alloc -- amortized list growth, not per turn *)
        st.promotions <- Array.make (2 * Array.length old) 0;
        Array.blit old 0 st.promotions 0 st.npromotions
      end;
      st.promotions.(st.npromotions) <- gi;
      st.npromotions <- st.npromotions + 1
    end
  end

(* The group [x] heads: the one owning its key's slot (a head's shape
   cache is its group's key until its next turn). *)
let group_of_head st (x : M.t) = st.owner.(key_slot st x)

(* Two messages' shape caches hold the same key. *)
let same_key (a : M.t) (b : M.t) =
  a.M.shape_c0 = b.M.shape_c0 && a.M.shape_c1 = b.M.shape_c1
  && a.M.shape_c2 = b.M.shape_c2 && a.M.shape_anchor = b.M.shape_anchor
  && a.M.shape_v0 = b.M.shape_v0 && a.M.shape_v1 = b.M.shape_v1
  && (a.M.shape_c2 = T.nil || a.M.shape_v2 = b.M.shape_v2)

(* The lone waiter in slot [w], seen blocked earlier in this round,
   still waits on [x]'s key and outranks it. *)
let pairs st w (x : M.t) =
  let h = member st w in
  w <> x.M.slot && (not h.M.delivered) && h.M.wg_next = M.no_group
  && same_key h x && prio_lt h x

(* After a real turn of an ungrouped message [x]: if it is blocked
   with a valid shape cache, look at its key's slot.  A group of the
   key whose head outranks [x] takes [x] in below the head.  A lone
   waiter there that outranks [x] and still waits on the same key — it
   was blocked on it earlier in this round — founds the key's group
   with [x].  Otherwise [x] takes the slot as its lone waiter, unless a
   group holds it.  A message waiting alone costs no group.  True when
   [x] stays in the queue (as a head or ungrouped). *)
let[@inline never] attach st ~round (x : M.t) =
  if x.M.delivered then false
  else if
    x.M.shape_c0 = M.shape_none
    || Simkit.Pqueue.length st.queue < group_threshold
  then true
  else begin
    if Array.length st.owner = 0 then begin
      (* lint: allow no-alloc -- once per run, on its first long queue *)
      st.owner <- Array.make (key_slots st.t) (-1);
      (* lint: allow no-alloc -- once per run, on its first long queue *)
      st.lone_round <- Array.make (key_slots st.t) (-1)
    end;
    let slot = key_slot st x in
    let o = st.owner.(slot) in
    if o >= 0 then begin
      let g = st.groups.(o) in
      if key_matches g x && prio_lt (member st g.head) x then begin
        insert_member st o x;
        false
      end
      else true
    end
    else if o < -1 && st.lone_round.(slot) = round && pairs st (lone_slot o) x
    then begin
      create_group st ~round ~slot (member st (lone_slot o));
      insert_member st st.owner.(slot) x;
      false
    end
    else begin
      st.owner.(slot) <- lone x;
      st.lone_round.(slot) <- round;
      true
    end
  end

(* After the head's real turn: decide or release the other members,
   then keep the head or hand the group on.  True when [x] stays in
   the queue. *)
let[@inline never] after_head st ~round gi (x : M.t) =
  let g = st.groups.(gi) in
  if g.size > 1 then begin
    let bit = group_verdict st ~round g in
    if bit >= 0 then decide st gi ~round ~bit
    else release_below st gi ~round ~birth:x.M.birth ~id:x.M.id
  end;
  g.round <- round;
  if x.M.delivered || not (key_matches g x) then begin
    head_leaves st gi x;
    attach st ~round x
  end
  else true

(* Def. 7 under [check_invariants]: the round's first turn belongs to
   the top-priority message, which no claim can block. *)
let check_first_turn st (x : M.t) ~before =
  if st.first_turn then begin
    st.first_turn <- false;
    if x.M.pauses + x.M.bypasses <> before then
      violated "top-priority message %d blocked in round %d" x.M.id
        st.cur_round
  end

(* A real turn of a head or an ungrouped message; true when it stays
   in the queue (the queue holds heads and ungrouped messages).  The
   group work after the turn stays out of line, so the walk keeps one
   inlined copy of the turn. *)
let grouped_turn st ~round (x : M.t) =
  let gi = if x.M.wg_next = M.no_group then -1 else group_of_head st x in
  st.walker <- x.M.id;
  st.cur_birth <- x.M.birth;
  let before = if st.check then x.M.pauses + x.M.bypasses else 0 in
  untraced_turn st ~round x;
  if st.check then check_first_turn st x ~before;
  if gi >= 0 then after_head st ~round gi x
  else (not x.M.delivered) && (x.M.shape_c0 = M.shape_none || attach st ~round x)

let visit_queued st ~round (x : M.t) =
  (not x.M.delivered) && grouped_turn st ~round x

let walk_released st ~round (m : M.t) =
  if grouped_turn st ~round m then Simkit.Pqueue.stage st.queue m

(* Walk the release buffer up to (excluding) priority [x], or to its
   end with [~all]. *)
let drain_released st ~round ~all (x : M.t) =
  while st.rel_pos < st.rel_len && (all || prio_lt st.release.(st.rel_pos) x) do
    let m = st.release.(st.rel_pos) in
    st.release.(st.rel_pos) <- st.dummy;
    st.rel_pos <- st.rel_pos + 1;
    walk_released st ~round m
  done

(* lint: hot-end *)

(* [check_invariants] audit of the wait groups at the end of a round:
   well-formed priority-ordered lists whose members share the key, a
   queued head, and — for every group still watching its key — the
   key's versions unchanged and the recorded verdict still the one the
   end-of-round claims give (the exactness argument above). *)
let check_groups st ~round =
  let fail gi what = violated "wait group %d: %s (round %d)" gi what round in
  Array.iteri
    (fun gi (g : group) ->
      if g.head >= 0 then begin
        if g.promoted then fail gi "head left out of the queue";
        if st.owner.(g.slot) <> gi then fail gi "slot not owned";
        if g.slot <> key_slot st (member st g.head) then fail gi "wrong slot";
        let count = ref 0 and prev = ref st.dummy and cur = ref g.head in
        while !cur >= 0 do
          let m = member st !cur in
          if not (key_matches g m) then fail gi "member cache differs from key";
          if !count > 0 && not (prio_lt !prev m) then fail gi "list out of order";
          if m.M.delivered then fail gi "delivered member";
          if m.M.wg_next < 0 && m.M.slot <> g.tail then fail gi "wrong tail";
          incr count;
          prev := m;
          cur := m.M.wg_next
        done;
        if !count <> g.size then fail gi "wrong size";
        if g.watch = round then begin
          if not (key_valid st g) then fail gi "key went stale unseen";
          if group_verdict st ~round g <> g.bit then fail gi "verdict moved unseen"
        end
      end)
    st.groups

(* ------------------------------------------------------------------
   Fault-injected path (Faultkit).  Every turn of a run with a fault
   plan goes through {!faulty_turn} — traced or not — so the fault
   draws never depend on whether telemetry is on and a traced chaos
   run computes the exact same statistics as an untraced one.  The
   plan is always fully resolved (no probe shortcut, no shape cache):
   chaos runs pay for clarity, the fault-free hot path above stays
   untouched. *)

(* The run-time gate audits the structural suite only: weight sums are
   a flow property, exact only once every weight-update message has
   deposited, so a mid-run (or end-of-run) tree legitimately fails
   Check.weights while being perfectly well-formed. *)
let check_now st =
  (* Only ever called mid-commit (abort-repair path), so the phase
     switch returns to Commit. *)
  prof st Prof.Invariant_check;
  (match Bstnet.Check.structural st.t with
  | Ok () -> ()
  | Error e -> failwith ("Concurrent: invariant violated after repair: " ^ e));
  prof st Prof.Commit

(* True when some node of the plan's cluster is crashed: the step
   cannot execute and the message parks, charging makespan only —
   a crash is not a cluster conflict, so no pause/bypass is counted. *)
let cluster_down inj (p : Step.t) =
  let down v = v <> T.nil && Faultkit.Injector.is_down inj v in
  down p.Step.cluster0 || down p.Step.cluster1 || down p.Step.cluster2
  || down p.Step.cluster3

(* A message dropped in transit re-arms at its source with its birth
   (priority and makespan anchor, Sec. VII-A) and its [update_spawned]
   flag preserved: the retransmission is part of serving the original
   request, and the single weight update per request stays single. *)
let rearm (msg : M.t) =
  msg.M.current <- msg.M.src;
  msg.M.phase <- M.Climbing;
  msg.M.up_credit <- T.nil;
  msg.M.shape_c0 <- M.shape_none

(* A duplicated data message: fresh identity, same endpoints and birth,
   forked at the original's current position.  It must never spawn a
   second weight update.  Staged, so it joins the queue next round. *)
let spawn_duplicate st (msg : M.t) =
  let twin =
    Arena.alloc_data st.arena ~src:msg.M.src ~dst:msg.M.dst ~birth:msg.M.birth
  in
  twin.M.current <- msg.M.current;
  twin.M.phase <- msg.M.phase;
  twin.M.update_spawned <- true;
  st.live <- st.live + 1;
  st.live_data <- st.live_data + 1;
  Simkit.Pqueue.stage st.queue twin;
  twin

(* Tear the first elementary rotation of the plan mid-flight — pair
   link surgery only, leaving the node above with a stale child
   pointer and the pair's labels and weight sums unrecomputed — then
   run the local repair protocol and (in check mode) verify the full
   invariant suite.  The cluster is claimed first: the torn nodes were
   about to mutate and no other step may see the intermediate state
   this round. *)
let abort_rotation st inj ~round (msg : M.t) (plan : Step.t) =
  claim st ~round plan;
  let x = Step.first_rotation_node st.t plan in
  if Obskit.Sink.enabled st.sink then begin
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Fault_injected
          { round; kind = Obskit.Event.Abort; node = x; msg = msg.M.id });
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Repair_begin { round; node = x })
  end;
  let damage = Faultkit.Repair.tear st.t x in
  Faultkit.Repair.heal st.t damage;
  Faultkit.Injector.note_repair inj;
  if Obskit.Sink.enabled st.sink then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Repair_done { round; node = x });
  if st.check then check_now st;
  msg.M.shape_c0 <- M.shape_none

(* The tail of a fault-injected turn, once its plan is resolved (the
   buffer may be the shared sequential one or a wave slot's): the
   Step_planned event, crash parking, conflicts, and the commit draws.
   Factored out so the parallel commit can enter here with a validated
   speculated plan. *)
let faulty_resolved st inj ~round (msg : M.t) (plan : Step.t) =
  let traced = Obskit.Sink.enabled st.sink in
  if traced then
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Step_planned
          {
            round;
            msg = msg.M.id;
            kind = Step.kind_to_string plan.Step.kind;
            rotate = plan.Step.rotate;
            delta_phi = Step.delta_phi plan;
          });
  if Faultkit.Injector.any_down inj && cluster_down inj plan then
    Faultkit.Injector.note_park inj
  else begin
    let conflict = cluster_conflict st ~round plan in
    if conflict <> conflict_free then
      record_conflict st ~round ~traced msg ~was_rotation:(conflict = 1)
    else if plan.Step.rotate && Faultkit.Injector.draw_abort inj then
      abort_rotation st inj ~round msg plan
    else begin
        (* Commit draws, in fixed order: loss, duplication, delay.
           Each zero-rate family consumes no randomness (see
           Faultkit.Injector), so replays stay aligned. *)
        let crossings =
          (if plan.Step.passed0 <> T.nil then 1 else 0)
          + if plan.Step.passed1 <> T.nil then 1 else 0
        in
        if crossings > 0 && Faultkit.Injector.draw_loss inj ~crossings
        then begin
          Faultkit.Injector.note_lost inj;
          if traced then
            Obskit.Sink.record st.sink (fun () ->
                Obskit.Event.Msg_lost
                  { round; msg = msg.M.id; node = msg.M.current });
          rearm msg
        end
        else if
          crossings > 0 && M.is_data msg
          && Faultkit.Injector.draw_duplicate inj
        then begin
          let twin = spawn_duplicate st msg in
          Faultkit.Injector.note_duplicated inj;
          if traced then
            Obskit.Sink.record st.sink (fun () ->
                Obskit.Event.Fault_injected
                  {
                    round;
                    kind = Obskit.Event.Duplicate;
                    node = msg.M.current;
                    msg = twin.M.id;
                  });
          commit_plan st ~round ~traced msg plan
        end
        else begin
          let k = Faultkit.Injector.draw_delay inj in
          if k > 0 then begin
            msg.M.asleep_until <- round + k;
            Faultkit.Injector.note_delayed inj;
            if traced then
              Obskit.Sink.record st.sink (fun () ->
                  Obskit.Event.Fault_injected
                    {
                      round;
                      kind = Obskit.Event.Delay;
                      node = msg.M.current;
                      msg = msg.M.id;
                    })
          end
          else commit_plan st ~round ~traced msg plan
        end
      end
  end

let faulty_turn st inj ~round (msg : M.t) =
  if msg.M.asleep_until > round then () (* delayed in transit: skip *)
  else if Faultkit.Injector.is_down inj msg.M.current then
    (* Parked at a crashed node — checked before planning, so a dead
       node performs no protocol side effects (LCA update spawns). *)
    Faultkit.Injector.note_park inj
  else if Protocol.begin_turn_into st.plan st.config st.t ~spawn:st.spawn msg
  then faulty_resolved st inj ~round msg st.plan
  else finish st msg

(* Per-round Phase_time emission to the profiling sink — deliberately
   outside the hot region: it runs only when a profile and an enabled
   prof sink are both present, and the event closures are the point. *)
let emit_phase_times st p ~round =
  List.iter
    (fun phase ->
      let elapsed_us = Prof.phase_round_us p phase in
      if elapsed_us > 0. then
        Obskit.Sink.record st.prof_sink (fun () ->
            Obskit.Event.Phase_time
              { round; phase = Prof.phase_name phase; elapsed_us }))
    Prof.phases

(* ------------------------------------------------------------------
   The speculative plan wave (domains > 1).  Everything in this
   section up to the commit walk runs concurrently on team members and
   is strictly read-only on the tree, the messages and all shared
   state: each member writes only the slots of its own slice. *)

(* lint: hot *)
(* effect: wave -- writes this member's own slot only *)
let slot_add (slot : slot) t n v =
  if v <> T.nil then begin
    slot.reads.(n) <- v;
    slot.stamps.(n) <- T.stamp t v;
    n + 1
  end
  else n

(* The exact read set of a speculated plan: the probed cluster core
   plus the ΔΦ weight reads of its kind (the transferred child of the
   promoted node, or both children of a double-promoted one).  Anchor
   and parent links need no entries of their own: a parent pointer is
   the child's own field, and every mutation that re-routes one —
   including replacing a node as its parent's child — also bumps the
   stamp of the node it dethrones. *)
(* effect: wave -- writes this member's own slot only *)
let fill_reads st (slot : slot) =
  let t = st.t in
  let p = slot.splan in
  let n = slot_add slot t 0 p.Step.cluster0 in
  let n = slot_add slot t n p.Step.cluster1 in
  let n = slot_add slot t n p.Step.cluster2 in
  let n =
    match p.Step.kind with
    | Step.Bu_zig ->
        slot_add slot t n (Potential.transferred_child t p.Step.cluster0)
    | Step.Bu_semi_zig_zig | Step.Td_zig | Step.Td_semi_zig_zig ->
        slot_add slot t n (Potential.transferred_child t p.Step.cluster1)
    | Step.Bu_semi_zig_zag ->
        let n = slot_add slot t n (T.left t p.Step.cluster0) in
        slot_add slot t n (T.right t p.Step.cluster0)
    | Step.Td_semi_zig_zag ->
        let n = slot_add slot t n (T.left t p.Step.cluster2) in
        slot_add slot t n (T.right t p.Step.cluster2)
  in
  slot.nreads <- n

(* Speculate one message's turn into its slot.  Returns true iff the
   slot holds a fully resolved plan ([tag_plan]). *)
(* effect: wave -- writes this member's own slot and plan buffer only *)
let wave_speculate st (slot : slot) (msg : M.t) =
  if
    st.wave_cache
    && (let c0 = msg.M.shape_c0 in
        c0 <> M.shape_none
        && T.version st.t c0 = msg.M.shape_v0
        && T.version st.t msg.M.shape_c1 = msg.M.shape_v1
        && (msg.M.shape_c2 = T.nil
           || T.version st.t msg.M.shape_c2 = msg.M.shape_v2))
  then begin
    (* Valid shape cache (untraced, fault-free): the sequential fast
       path decides this turn in a handful of loads at commit time;
       speculating it would cost more than it saves.  Structure
       versions only grow, so a cache invalid now stays invalid. *)
    slot.tag <- tag_seq;
    false
  end
  else begin
    let flags = Protocol.speculate_turn_probe slot.splan st.t msg in
    if flags land Protocol.spec_flip <> 0 then begin
      (* Crossing the LCA deposits weight before probing: replan
         sequentially at commit. *)
      slot.tag <- tag_seq;
      false
    end
    else if flags land Protocol.spec_planned = 0 then begin
      (* Plain delivery.  Its only tree dependency is the current
         node (is-the-update-at-the-root), so validate just that. *)
      slot.tag <- tag_deliver;
      slot.flags <- flags;
      slot.reads.(0) <- msg.M.current;
      slot.stamps.(0) <- T.stamp st.t msg.M.current;
      slot.nreads <- 1;
      false
    end
    else begin
      let p = slot.splan in
      (* Save the probe-time cluster layout before resolve folds the
         anchor in: the untraced commit refreshes the message's shape
         cache from the probe layout, exactly as the sequential path
         does. *)
      slot.c0 <- p.Step.cluster0;
      slot.c1 <- p.Step.cluster1;
      slot.c2 <- p.Step.cluster2;
      slot.canchor <- p.Step.anchor;
      fill_reads st slot;
      Step.resolve_ro_into p st.config st.t;
      slot.tag <- tag_plan;
      slot.flags <- flags;
      true
    end
  end

(* One team member's share of the wave: a contiguous slice of the
   committed queue.  This is the concurrent entry point: everything it
   reaches is checked by the wave-race lint rule against the wave-local
   write allowlist (docs/LINTING.md, "Effect analysis"). *)
(* effect: wave -- concurrent wave root; slice-disjoint slot writes *)
let wave_member st m =
  let lo = m * st.wave_chunk in
  let hi = min st.wave_count (lo + st.wave_chunk) in
  (* lint: allow no-alloc -- one tally ref per member per round *)
  let planned = ref 0 in
  for k = lo to hi - 1 do
    let msg = Simkit.Pqueue.get st.queue k in
    if msg.M.delivered then st.slots.(k).tag <- tag_seq
    else if wave_speculate st st.slots.(k) msg then incr planned
  done;
  st.wave_planned.(m) <- !planned

let slot_valid st (slot : slot) =
  let ok = ref true in
  for i = 0 to slot.nreads - 1 do
    if T.stamp st.t slot.reads.(i) <> slot.stamps.(i) then ok := false
  done;
  !ok

(* The plain sequential turn, also the per-slot fallback of the
   parallel commit. *)
let seq_turn st ~round ~traced (msg : M.t) =
  match st.faults with
  | Some inj -> faulty_turn st inj ~round msg
  | None ->
      if traced then traced_turn st ~round msg else untraced_turn st ~round msg

(* Commit one message's turn from its wave slot, on the caller, in
   sequential order.  A stale or unspeculated slot falls back to the
   plain sequential turn; a valid one commits the speculated plan the
   sequential executor would have recomputed verbatim. *)
let commit_slot st ~round ~traced (slot : slot) (msg : M.t) =
  if slot.tag = tag_seq then begin
    (match st.profile with None -> () | Some p -> Prof.seq_slot p);
    seq_turn st ~round ~traced msg
  end
  else if not (slot_valid st slot) then begin
    (match st.profile with
    | None -> ()
    | Some p ->
        Prof.stamp_miss p;
        Prof.fallback p);
    seq_turn st ~round ~traced msg
  end
  else begin
    (match st.profile with
    | None -> ()
    | Some p ->
        Prof.stamp_hit p;
        if slot.tag = tag_deliver then Prof.deliver_slot p else Prof.replay p);
    (* The wave never flips phases; apply the climb resumption the
       sequential probe would have performed before using the plan. *)
    if slot.flags land Protocol.spec_climb <> 0 then
      msg.M.phase <- M.Climbing;
    match st.faults with
    | Some inj ->
        (* Mirror faulty_turn's gate order: sleep and crash checks
           precede any protocol action. *)
        if msg.M.asleep_until > round then ()
        else if Faultkit.Injector.is_down inj msg.M.current then
          Faultkit.Injector.note_park inj
        else if slot.tag = tag_deliver then finish st msg
        else faulty_resolved st inj ~round msg slot.splan
    | None ->
        if slot.tag = tag_deliver then finish st msg
        else if traced then begin
          let plan = slot.splan in
          (* lint: allow no-alloc -- closure built only when tracing is on *)
          Obskit.Sink.record st.sink (fun () ->
              Obskit.Event.Step_planned
                {
                  round;
                  msg = msg.M.id;
                  kind = Step.kind_to_string plan.Step.kind;
                  rotate = plan.Step.rotate;
                  delta_phi = Step.delta_phi plan;
                });
          resolved_turn st ~round ~traced:true msg plan
        end
        else begin
          (* Untraced: refresh the shape cache from the probe layout
             and run the ΔΦ-free pre-check, exactly as
             {!untraced_probe_turn} does. *)
          let c0 = slot.c0 and c1 = slot.c1 and c2 = slot.c2 in
          msg.M.shape_c0 <- c0;
          msg.M.shape_c1 <- c1;
          msg.M.shape_c2 <- c2;
          msg.M.shape_anchor <- slot.canchor;
          msg.M.shape_v0 <- T.version st.t c0;
          msg.M.shape_v1 <- T.version st.t c1;
          if c2 <> T.nil then msg.M.shape_v2 <- T.version st.t c2;
          let hit = shape_hit st ~round ~c0 ~c1 ~c2 ~anchor:slot.canchor in
          if hit <> T.nil then charge st msg ~bit:(st.claims.(hit) land 1) 1
          else resolved_turn st ~round ~traced:false msg slot.splan
        end
  end

(* The sequential round visit, also the per-turn fallback above. *)
let seq_visit st ~round ~traced =
  (* lint: allow no-alloc -- one visitor closure per round, not per turn *)
  Simkit.Pqueue.iter_filter st.queue (fun (msg : M.t) ->
      if msg.M.delivered then false
      else begin
        st.cur_birth <- msg.M.birth;
        let before = if st.check then msg.M.pauses + msg.M.bypasses else 0 in
        (match st.faults with
        | Some inj -> faulty_turn st inj ~round msg
        | None ->
            if traced then traced_turn st ~round msg
            else untraced_turn st ~round msg);
        if st.check then check_first_turn st msg ~before;
        not msg.M.delivered
      end)

(* The grouped round visit: the queue (group heads and ungrouped
   messages) merged in priority order with the members released this
   round. *)
let grouped_visit st ~round =
  st.ndecided <- 0;
  st.npromotions <- 0;
  (* lint: allow no-alloc -- one visitor closure per round, not per turn *)
  Simkit.Pqueue.iter_filter st.queue (fun (x : M.t) ->
      if st.rel_pos < st.rel_len then drain_released st ~round ~all:false x;
      visit_queued st ~round x);
  if st.rel_len > 0 then begin
    drain_released st ~round ~all:true st.dummy;
    st.rel_pos <- 0;
    st.rel_len <- 0
  end;
  for i = 0 to st.npromotions - 1 do
    let g = st.groups.(st.promotions.(i)) in
    if g.promoted then begin
      g.promoted <- false;
      Simkit.Pqueue.stage st.queue (member st g.head)
    end
  done;
  if st.check then check_groups st ~round

let ensure_wave_capacity st count =
  if Array.length st.slots < count then begin
    let cap = max count (2 * Array.length st.slots) in
    (* lint: allow no-alloc -- amortized arena growth, not per-turn *)
    st.slots <- Array.init cap (fun _ -> new_slot ())
  end

(* Per-member wave telemetry, merged in fixed member order after the
   join so the stream is deterministic for a given domain count.  It
   goes to the dedicated team sink: the run sink's streams must stay
   bit-identical across domain counts. *)
let wave_merge st ~round =
  if Obskit.Sink.enabled st.team_sink then
    for m = 0 to Array.length st.wave_planned - 1 do
      let member = m in
      let planned = st.wave_planned.(m) in
      (* lint: allow no-alloc -- closure built only when tracing is on *)
      Obskit.Sink.record st.team_sink (fun () ->
          Obskit.Event.Plan_wave { round; member; planned })
    done

let parallel_visit st team ~round ~traced =
  prof st Prof.Plan_wave;
  let count = Simkit.Pqueue.length st.queue in
  ensure_wave_capacity st count;
  let members = Simkit.Team.members team in
  st.wave_count <- count;
  st.wave_chunk <- (count + members - 1) / members;
  st.wave_cache <-
    (not traced) && (match st.faults with None -> true | Some _ -> false);
  Simkit.Team.run team st.wave_job;
  wave_merge st ~round;
  (match st.profile with
  | None -> ()
  | Some p ->
      (* Per-member load balance of the wave, over the slots it
         actually speculated (tag_plan). *)
      (* lint: allow no-alloc -- two tally refs per wave, profiling on *)
      let slots = ref 0 and busiest = ref 0 in
      for m = 0 to Array.length st.wave_planned - 1 do
        let k = st.wave_planned.(m) in
        slots := !slots + k;
        if k > !busiest then busiest := k
      done;
      Prof.wave p ~members ~busiest:!busiest ~slots:!slots);
  prof st Prof.Commit;
  (* Serial in-order commit: the same mutation order as the
     sequential walk. *)
  for k = 0 to count - 1 do
    let msg = Simkit.Pqueue.get st.queue k in
    if not msg.M.delivered then begin
      st.cur_birth <- msg.M.birth;
      commit_slot st ~round ~traced st.slots.(k) msg
    end
  done;
  prof st Prof.Delivery;
  (* Drop the delivered in place, preserving order — the same final
     queue the sequential iter_filter leaves. *)
  (* lint: allow no-alloc -- one filter closure per round, not per turn *)
  Simkit.Pqueue.iter_filter st.queue (fun (msg : M.t) -> not msg.M.delivered)

let tick st round =
  st.cur_round <- round;
  (match st.profile with None -> () | Some p -> Prof.round_begin p);
  (* Fault-window maintenance and scheduled crashes happen at the
     round boundary, before admission.  Without a plan the match is a
     single branch — the hot path allocates nothing. *)
  (match st.faults with
  | None -> ()
  | Some inj ->
      prof st Prof.Fault_injection;
      Faultkit.Injector.begin_round inj st.t st.sink ~round;
      prof st Prof.Other);
  let traced = Obskit.Sink.enabled st.sink in
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Round_begin
          { round; active = st.live; live_data = st.live_data });
  (* Newly admitted data messages join the staged batch alongside the
     updates spawned last round; one stable merge brings both into the
     priority buffer for this round. *)
  prof st Prof.Inject;
  inject st ~round;
  Simkit.Pqueue.commit st.queue;
  (match st.team with
  | Some team when Simkit.Pqueue.length st.queue >= par_threshold ->
      parallel_visit st team ~round ~traced
  | Some _ | None ->
      (* The sequential visit plans, commits and delivers in one fused
         walk: it all lands in the Commit phase (see Profkit.Profile). *)
      prof st Prof.Commit;
      st.first_turn <- Option.is_none st.faults;
      if not st.grouping then seq_visit st ~round ~traced
      else if Simkit.Pqueue.length st.queue > 0 then grouped_visit st ~round);
  prof st Prof.Other;
  (* The visit has dropped this round's delivered messages from the
     queue, the release buffer and the wait groups: their slots are
     free for the next round. *)
  Arena.recycle st.arena;
  (* Φ is O(n) to compute, so it is sampled only on traced runs. *)
  if traced then
    (* lint: allow no-alloc -- closure built only when tracing is on *)
    Obskit.Sink.record st.sink (fun () ->
        Obskit.Event.Phi_sample { round; phi = Potential.phi st.t });
  match st.profile with
  | None -> ()
  | Some p ->
      Prof.round_close p;
      if Obskit.Sink.enabled st.prof_sink then emit_phase_times st p ~round;
      Prof.round_commit p
(* lint: hot-end *)

(* Hand every waiting member its ticks and put it back in the queue
   (heads are there already): the counters are exact again, and the
   executor is left as if it had never grouped. *)
let dissolve_groups st =
  Array.iteri
    (fun gi (g : group) ->
      if g.head >= 0 then begin
        let cur = ref g.head in
        while !cur >= 0 do
          let m = member st !cur in
          cur := m.M.wg_next;
          if m.M.slot <> g.head then begin
            catch_up g m;
            Simkit.Pqueue.stage st.queue m
          end;
          m.M.wg_next <- M.no_group
        done;
        free_group st gi
      end)
    st.groups

let shutdown st =
  match st.team with
  | None -> ()
  | Some team ->
      st.team <- None;
      Simkit.Team.shutdown team

let make ?(config = Config.default) ?window ?(sink = Obskit.Sink.null)
    ?profile ?(prof_sink = Obskit.Sink.null) ?(team_sink = Obskit.Sink.null)
    ?faults ?(check_invariants = false) ?(domains = 1) ?(latencies = false) t
    trace =
  if domains < 1 then invalid_arg "Concurrent.run: domains must be >= 1";
  let window = default_window t window in
  let injector =
    match faults with
    | None -> None
    | Some plan -> Some (Faultkit.Injector.create plan ~n:(T.n t))
  in
  let grouping =
    domains = 1 && Option.is_none faults && not (Obskit.Sink.enabled sink)
  in
  let st =
    create config ~window ~sink ~profile ~prof_sink ~team_sink ~faults:injector
      ~check:check_invariants ~grouping ~latencies t trace
  in
  if domains > 1 then begin
    st.team <- Some (Simkit.Team.create ~members:domains ());
    st.wave_planned <- Array.make domains 0;
    st.wave_job <- (fun m -> wave_member st m)
  end;
  let sched =
    {
      Simkit.Engine.label = "cbn";
      tick = (fun round -> tick st round);
      is_done =
        (fun () -> st.next_inject >= Array.length st.trace && st.live = 0);
    }
  in
  let finalize rounds =
    shutdown st;
    let chaos =
      match st.faults with
      | None -> Run_stats.no_chaos
      | Some inj ->
          let s = Faultkit.Injector.snapshot inj in
          {
            Run_stats.crashes = s.Faultkit.Injector.crashes;
            parks = s.Faultkit.Injector.parks;
            lost = s.Faultkit.Injector.lost;
            duplicated = s.Faultkit.Injector.duplicated;
            delayed = s.Faultkit.Injector.delayed;
            aborted_rotations = s.Faultkit.Injector.aborted_rotations;
            repairs = s.Faultkit.Injector.repairs;
          }
    in
    if check_invariants then Bstnet.Check.assert_ok (Bstnet.Check.structural st.t);
    (* Waiting members' counters lag their groups' ticks. *)
    dissolve_groups st;
    (match st.profile with
    | None -> ()
    | Some p ->
        Prof.slab p ~peak:(Arena.peak st.arena)
          ~capacity:(Arena.capacity st.arena));
    Arena.stats ~chaos ~config ~rounds st.arena
  in
  (st, sched, finalize)

(* The first round from [round] on whose tick can do anything: with no
   message live, the next arrival's.  Only a run that records nothing
   per round (no profile, telemetry or fault plan) jumps there. *)
let next_busy st round =
  if st.live = 0 && st.next_inject < Array.length st.trace then
    let birth, _, _ = st.trace.(st.next_inject) in
    max round birth
  else round

let drive ?max_rounds st sched =
  let busy_from =
    if
      Option.is_none st.profile && Option.is_none st.faults
      && not (Obskit.Sink.enabled st.sink)
    then Some (next_busy st)
    else None
  in
  Fun.protect
    ~finally:(fun () -> shutdown st)
    (fun () -> Simkit.Engine.run_exn ?max_rounds ?busy_from sched)

let scheduler ?config ?window ?sink ?profile ?prof_sink ?team_sink ?faults
    ?check_invariants ?domains t trace =
  let _, sched, finalize =
    make ?config ?window ?sink ?profile ?prof_sink ?team_sink ?faults
      ?check_invariants ?domains t trace
  in
  (sched, finalize)

let run ?config ?window ?max_rounds ?sink ?profile ?prof_sink ?team_sink
    ?faults ?check_invariants ?domains t trace =
  let st, sched, finalize =
    make ?config ?window ?sink ?profile ?prof_sink ?team_sink ?faults
      ?check_invariants ?domains t trace
  in
  finalize (drive ?max_rounds st sched)

let run_with_latencies ?config ?window ?max_rounds ?sink ?profile ?prof_sink
    ?team_sink ?faults ?check_invariants ?domains t trace =
  let st, sched, finalize =
    make ?config ?window ?sink ?profile ?prof_sink ?team_sink ?faults
      ?check_invariants ?domains ~latencies:true t trace
  in
  let stats = finalize (drive ?max_rounds st sched) in
  (* Recorded by id as data messages retired; every other entry is -1. *)
  let latencies =
    Array.to_seq st.lats
    |> Seq.filter_map (fun l -> if l >= 0 then Some (float_of_int l) else None)
    |> Array.of_seq
  in
  (stats, latencies)

(* The original list-based executor, kept verbatim as an executable
   specification: the equivalence test suite checks the arena/pqueue
   executor against it event for event, and [bench perf] times the two
   side by side.  Deliberately not refactored to share the round loop
   above — its value is being the independent implementation. *)
module Reference = struct
  type rstate = {
    config : Config.t;
    t : T.t;
    trace : (int * int * int) array;
    window : int;
    sink : Obskit.Sink.t;
    mutable next_inject : int;
    mutable next_id : int;
    mutable active : M.t list;  (* undelivered, kept priority-sorted *)
    mutable finished : M.t list;
    mutable spawned : M.t list;  (* updates born this round, join next round *)
    claimed_round : int array;
    claimed_rot : bool array;
    mutable live : int;
    mutable live_data : int;
  }

  let create config ~window ~sink t trace =
    validate t trace;
    if window < 1 then invalid_arg "Concurrent.run: window must be >= 1";
    {
      config;
      t;
      trace;
      window;
      sink;
      next_inject = 0;
      next_id = 0;
      active = [];
      finished = [];
      spawned = [];
      claimed_round = Array.make (T.n t) (-1);
      claimed_rot = Array.make (T.n t) false;
      live = 0;
      live_data = 0;
    }

  let fresh_id st =
    let id = st.next_id in
    st.next_id <- st.next_id + 1;
    id

  let finish st (msg : M.t) ~round =
    msg.M.delivered <- true;
    msg.M.end_time <- round;
    st.finished <- msg :: st.finished;
    st.live <- st.live - 1;
    if M.is_data msg then st.live_data <- st.live_data - 1;
    if Obskit.Sink.enabled st.sink then
      Obskit.Sink.record st.sink (fun () ->
          Obskit.Event.Msg_delivered
            {
              round;
              msg = msg.M.id;
              data = M.is_data msg;
              birth = msg.M.birth;
              hops = msg.M.hops;
              rotations = msg.M.rotations;
            })

  let spawner st ~round ~birth ~origin ~first_increment =
    T.add_weight st.t origin first_increment;
    let u = M.weight_update ~id:(fresh_id st) ~origin ~birth in
    st.live <- st.live + 1;
    if T.is_root st.t origin then finish st u ~round
    else st.spawned <- u :: st.spawned

  let inject st ~round =
    let injected = ref [] in
    let continue_ = ref true in
    while
      !continue_
      && st.next_inject < Array.length st.trace
      && st.live_data < st.window
    do
      let birth, src, dst = st.trace.(st.next_inject) in
      if birth > round then continue_ := false
      else begin
        st.next_inject <- st.next_inject + 1;
        let msg = M.data ~id:(fresh_id st) ~src ~dst ~birth in
        st.live <- st.live + 1;
        st.live_data <- st.live_data + 1;
        Protocol.born st.t ~spawn:(spawner st ~round ~birth) msg;
        if msg.M.delivered then finish st msg ~round
        else injected := msg :: !injected
      end
    done;
    List.rev !injected

  let cluster_conflict st ~round plan =
    let rec go = function
      | [] -> None
      | v :: rest ->
          if st.claimed_round.(v) = round then Some st.claimed_rot.(v)
          else go rest
    in
    go (Step.cluster plan)

  let claim st ~round plan =
    List.iter
      (fun v ->
        st.claimed_round.(v) <- round;
        st.claimed_rot.(v) <- plan.Step.rotate)
      (Step.cluster plan)

  let tick st round =
    let traced = Obskit.Sink.enabled st.sink in
    if traced then
      Obskit.Sink.record st.sink (fun () ->
          Obskit.Event.Round_begin
            { round; active = st.live; live_data = st.live_data });
    let injected = inject st ~round in
    let newcomers = List.sort M.priority_compare (st.spawned @ injected) in
    st.spawned <- [];
    let by_priority = List.merge M.priority_compare st.active newcomers in
    let still_active = ref [] in
    List.iter
      (fun (msg : M.t) ->
        if not msg.M.delivered then begin
          let spawn = spawner st ~round ~birth:msg.M.birth in
          (match Protocol.begin_turn st.config st.t ~spawn msg with
          | Protocol.Delivered -> finish st msg ~round
          | Protocol.Plan plan -> (
              if traced then
                Obskit.Sink.record st.sink (fun () ->
                    Obskit.Event.Step_planned
                      {
                        round;
                        msg = msg.M.id;
                        kind = Step.kind_to_string plan.Step.kind;
                        rotate = plan.Step.rotate;
                        delta_phi = Step.delta_phi plan;
                      });
              match cluster_conflict st ~round plan with
              | Some was_rotation ->
                  if was_rotation then msg.M.bypasses <- msg.M.bypasses + 1
                  else msg.M.pauses <- msg.M.pauses + 1;
                  if traced then
                    Obskit.Sink.record st.sink (fun () ->
                        Obskit.Event.Conflict
                          {
                            round;
                            msg = msg.M.id;
                            kind =
                              (if was_rotation then Obskit.Event.Bypass
                               else Obskit.Event.Pause);
                          })
              | None ->
                  claim st ~round plan;
                  if traced then
                    Obskit.Sink.record st.sink (fun () ->
                        Obskit.Event.Cluster_claimed
                          {
                            round;
                            msg = msg.M.id;
                            cluster = Step.cluster plan;
                            rotate = plan.Step.rotate;
                          });
                  Protocol.apply_step st.t ~spawn msg plan;
                  if traced && plan.Step.rotate then
                    Obskit.Sink.record st.sink (fun () ->
                        Obskit.Event.Rotation
                          {
                            round;
                            msg = msg.M.id;
                            node = plan.Step.current;
                            count = plan.Step.rotations;
                            delta_phi = Step.delta_phi plan;
                          });
                  if msg.M.delivered then finish st msg ~round));
          if not msg.M.delivered then still_active := msg :: !still_active
        end)
      by_priority;
    st.active <- List.rev !still_active;
    if traced then
      Obskit.Sink.record st.sink (fun () ->
          Obskit.Event.Phi_sample { round; phi = Potential.phi st.t })

  let make ?(config = Config.default) ?window ?(sink = Obskit.Sink.null) t
      trace =
    let window = default_window t window in
    let st = create config ~window ~sink t trace in
    let sched =
      {
        Simkit.Engine.label = "cbn-ref";
        tick = (fun round -> tick st round);
        is_done =
          (fun () -> st.next_inject >= Array.length st.trace && st.live = 0);
      }
    in
    let finalize rounds =
      (* Updates spawned in the last round executed have not joined
         [active] yet, but they exist (their first increment is in the
         tree) and count like every other message created. *)
      Run_stats.of_messages ~config ~rounds
        (st.finished @ st.active @ st.spawned)
    in
    (st, sched, finalize)

  let scheduler ?config ?window ?sink t trace =
    let _, sched, finalize = make ?config ?window ?sink t trace in
    (sched, finalize)

  let run ?config ?window ?max_rounds ?sink t trace =
    let sched, finalize = scheduler ?config ?window ?sink t trace in
    let rounds = Simkit.Engine.run_exn ?max_rounds sched in
    finalize rounds

  let run_with_latencies ?config ?window ?max_rounds ?sink t trace =
    let st, sched, finalize = make ?config ?window ?sink t trace in
    let rounds = Simkit.Engine.run_exn ?max_rounds sched in
    let stats = finalize rounds in
    let latencies =
      List.filter_map
        (fun (msg : M.t) ->
          match msg.M.kind with
          | M.Data when msg.M.delivered ->
              Some (float_of_int (msg.M.end_time - msg.M.birth))
          | _ -> None)
        (st.finished @ st.active)
      |> Array.of_list
    in
    (stats, latencies)
end

type chaos = {
  crashes : int;
  parks : int;
  lost : int;
  duplicated : int;
  delayed : int;
  aborted_rotations : int;
  repairs : int;
}

let no_chaos =
  {
    crashes = 0;
    parks = 0;
    lost = 0;
    duplicated = 0;
    delayed = 0;
    aborted_rotations = 0;
    repairs = 0;
  }

let chaos_is_zero c =
  c.crashes = 0 && c.parks = 0 && c.lost = 0 && c.duplicated = 0
  && c.delayed = 0 && c.aborted_rotations = 0 && c.repairs = 0

type t = {
  messages : int;
  routing_hops : int;
  routing_cost : int;
  rotations : int;
  work : float;
  makespan : int;
  throughput : float;
  steps : int;
  pauses : int;
  bypasses : int;
  update_messages : int;
  rounds : int;
  chaos : chaos;
}

type acc = {
  mutable a_messages : int;
  mutable a_hops : int;
  mutable a_rotations : int;
  mutable a_steps : int;
  mutable a_pauses : int;
  mutable a_bypasses : int;
  mutable a_updates : int;
  mutable a_first_birth : int;
  mutable a_last_end : int;
}

let acc () =
  {
    a_messages = 0;
    a_hops = 0;
    a_rotations = 0;
    a_steps = 0;
    a_pauses = 0;
    a_bypasses = 0;
    a_updates = 0;
    a_first_birth = max_int;
    a_last_end = 0;
  }

let copy a = { a with a_messages = a.a_messages }

(* lint: hot *)
let add a (m : Message.t) =
  a.a_hops <- a.a_hops + m.hops;
  a.a_rotations <- a.a_rotations + m.rotations;
  a.a_steps <- a.a_steps + m.steps;
  a.a_pauses <- a.a_pauses + m.pauses;
  a.a_bypasses <- a.a_bypasses + m.bypasses;
  match m.kind with
  | Message.Data ->
      a.a_messages <- a.a_messages + 1;
      if m.birth < a.a_first_birth then a.a_first_birth <- m.birth;
      if m.end_time > a.a_last_end then a.a_last_end <- m.end_time
  | Message.Weight_update -> a.a_updates <- a.a_updates + 1
(* lint: hot-end *)

let build ?(chaos = no_chaos) ~config ~rounds a =
  let messages = a.a_messages in
  let routing_cost = a.a_hops + messages in
  let makespan =
    if messages = 0 then 0 else max 1 (a.a_last_end - a.a_first_birth)
  in
  {
    messages;
    routing_hops = a.a_hops;
    routing_cost;
    rotations = a.a_rotations;
    work =
      float_of_int routing_cost
      +. (config.Config.rotation_cost *. float_of_int a.a_rotations);
    makespan;
    throughput =
      (if messages = 0 then 0.0 else float_of_int messages /. float_of_int makespan);
    steps = a.a_steps;
    pauses = a.a_pauses;
    bypasses = a.a_bypasses;
    update_messages = a.a_updates;
    rounds;
    chaos;
  }

let of_iter ?chaos ~config ~rounds iter =
  let a = acc () in
  iter (add a);
  build ?chaos ~config ~rounds a

let of_messages ?chaos ~config ~rounds msgs =
  of_iter ?chaos ~config ~rounds (fun f -> List.iter f msgs)

let pp fmt t =
  Format.fprintf fmt
    "m=%d routing=%d (hops=%d) rotations=%d work=%.0f makespan=%d \
     throughput=%.4f steps=%d pauses=%d bypasses=%d updates=%d rounds=%d"
    t.messages t.routing_cost t.routing_hops t.rotations t.work t.makespan
    t.throughput t.steps t.pauses t.bypasses t.update_messages t.rounds;
  (* Chaos columns appear only when faults actually fired, keeping
     fault-free log lines byte-identical with pre-faultkit output. *)
  if not (chaos_is_zero t.chaos) then
    Format.fprintf fmt
      " crashes=%d parks=%d lost=%d dup=%d delayed=%d aborts=%d repairs=%d"
      t.chaos.crashes t.chaos.parks t.chaos.lost t.chaos.duplicated
      t.chaos.delayed t.chaos.aborted_rotations t.chaos.repairs

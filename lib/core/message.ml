type kind = Data | Weight_update
type phase = Climbing | Descending

type t = {
  slot : int;
  mutable id : int;
  mutable kind : kind;
  mutable src : int;
  mutable dst : int;
  mutable birth : int;
  mutable current : int;
  mutable phase : phase;
  mutable up_credit : int;
  mutable update_spawned : bool;
  mutable delivered : bool;
  (* Wait-group link for the concurrent executor's grouped visit:
     next member's arena slot, -1 at the tail, no_group outside groups.  Next
     to [delivered], which every turn reads too. *)
  mutable wg_next : int;
  mutable end_time : int;
  mutable hops : int;
  mutable rotations : int;
  mutable steps : int;
  mutable pauses : int;
  mutable bypasses : int;
  (* First round the message may act again after a fault-injected
     delay (Faultkit); 0 = not sleeping.  Untouched on fault-free
     runs. *)
  mutable asleep_until : int;
  (* Step-shape cache for the concurrent executor's untraced fast
     path: the last probed core cluster + anchor and the structure
     versions of the core nodes at probe time (see
     Bstnet.Topology.version).  shape_c0 = -2 means empty. *)
  mutable shape_c0 : int;
  mutable shape_c1 : int;
  mutable shape_c2 : int;
  mutable shape_anchor : int;
  mutable shape_v0 : int;
  mutable shape_v1 : int;
  mutable shape_v2 : int;
}

let shape_none = -2
let no_group = -2

let make ~slot ~id ~kind ~src ~dst ~birth =
  {
    slot;
    id;
    kind;
    src;
    dst;
    birth;
    current = src;
    phase = Climbing;
    up_credit = Bstnet.Topology.nil;
    update_spawned = false;
    delivered = false;
    end_time = -1;
    hops = 0;
    rotations = 0;
    steps = 0;
    pauses = 0;
    bypasses = 0;
    asleep_until = 0;
    shape_c0 = shape_none;
    shape_c1 = Bstnet.Topology.nil;
    shape_c2 = Bstnet.Topology.nil;
    shape_anchor = Bstnet.Topology.nil;
    shape_v0 = 0;
    shape_v1 = 0;
    shape_v2 = 0;
    wg_next = no_group;
  }

let reinit m ~id ~kind ~src ~dst ~birth =
  m.id <- id;
  m.kind <- kind;
  m.src <- src;
  m.dst <- dst;
  m.birth <- birth;
  m.current <- src;
  m.phase <- Climbing;
  m.up_credit <- Bstnet.Topology.nil;
  m.update_spawned <- false;
  m.delivered <- false;
  m.end_time <- -1;
  m.hops <- 0;
  m.rotations <- 0;
  m.steps <- 0;
  m.pauses <- 0;
  m.bypasses <- 0;
  m.asleep_until <- 0;
  m.shape_c0 <- shape_none;
  m.wg_next <- no_group

(* Records outside an arena have slot -1. *)
let data ~id ~src ~dst ~birth = make ~slot:(-1) ~id ~kind:Data ~src ~dst ~birth

let weight_update ~id ~origin ~birth =
  make ~slot:(-1) ~id ~kind:Weight_update ~src:origin ~dst:Bstnet.Topology.nil
    ~birth

(* A free arena slot: delivered, so no live-message scan counts it. *)
let blank ~slot =
  let m = make ~slot ~id:(-1) ~kind:Data ~src:0 ~dst:0 ~birth:0 in
  m.delivered <- true;
  m

let is_data m = match m.kind with Data -> true | Weight_update -> false
let is_update m = match m.kind with Weight_update -> true | Data -> false
let is_climbing m = match m.phase with Climbing -> true | Descending -> false

let is_descending m =
  match m.phase with Descending -> true | Climbing -> false

let priority_compare a b =
  let c = Int.compare a.birth b.birth in
  if c <> 0 then c else Int.compare a.id b.id

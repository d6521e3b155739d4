module M = Message

type t = {
  mutable slots : M.t array;
  mutable used : int;  (* slots ever handed out: the high-water mark *)
  mutable free : int array;  (* recycled slots, a stack *)
  mutable nfree : int;
  mutable retired : int array;  (* slots retired since the last recycle *)
  mutable nretired : int;
  mutable next_id : int;
  totals : Run_stats.acc;  (* every retired message, folded *)
}

let create ~capacity =
  let capacity = max 1 capacity in
  {
    slots = Array.init capacity (fun slot -> M.blank ~slot);
    used = 0;
    free = Array.make capacity 0;
    nfree = 0;
    retired = Array.make capacity 0;
    nretired = 0;
    next_id = 0;
    totals = Run_stats.acc ();
  }

let capacity a = Array.length a.slots
let peak a = a.used

(* lint: hot *)
let grow a =
  let old = a.slots in
  let n = Array.length old in
  (* lint: allow no-alloc -- amortized growth path, not the per-alloc case *)
  a.slots <- Array.init (2 * n) (fun i -> if i < n then old.(i) else M.blank ~slot:i);
  let free = a.free and retired = a.retired in
  (* lint: allow no-alloc -- amortized growth path, not the per-alloc case *)
  a.free <- Array.make (2 * n) 0;
  Array.blit free 0 a.free 0 a.nfree;
  (* lint: allow no-alloc -- amortized growth path, not the per-alloc case *)
  a.retired <- Array.make (2 * n) 0;
  Array.blit retired 0 a.retired 0 a.nretired

(* A recycled slot if there is one, else a fresh one, reinitialized
   with the next id. *)
let alloc a ~kind ~src ~dst ~birth =
  let slot =
    if a.nfree > 0 then begin
      a.nfree <- a.nfree - 1;
      a.free.(a.nfree)
    end
    else begin
      if Int.equal a.used (Array.length a.slots) then grow a;
      a.used <- a.used + 1;
      a.used - 1
    end
  in
  let m = a.slots.(slot) in
  M.reinit m ~id:a.next_id ~kind ~src ~dst ~birth;
  a.next_id <- a.next_id + 1;
  m

let alloc_data a ~src ~dst ~birth = alloc a ~kind:M.Data ~src ~dst ~birth

let alloc_update a ~origin ~birth =
  alloc a ~kind:M.Weight_update ~src:origin ~dst:Bstnet.Topology.nil ~birth

let retire a (m : M.t) =
  Run_stats.add a.totals m;
  a.retired.(a.nretired) <- m.M.slot;
  a.nretired <- a.nretired + 1

let recycle a =
  if a.nretired > 0 then begin
    Array.blit a.retired 0 a.free a.nfree a.nretired;
    a.nfree <- a.nfree + a.nretired;
    a.nretired <- 0
  end

let get a slot =
  if slot < 0 || slot >= a.used then invalid_arg "Arena.get: slot never handed out";
  a.slots.(slot)
(* lint: hot-end *)

let iter_live a f =
  for i = 0 to a.used - 1 do
    let m = a.slots.(i) in
    if not m.M.delivered then f m
  done

let stats ?chaos ~config ~rounds a =
  let acc = Run_stats.copy a.totals in
  iter_live a (Run_stats.add acc);
  Run_stats.build ?chaos ~config ~rounds acc

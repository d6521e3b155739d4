let nominal_s = 0.015

let bits = 20
let mask = (1 lsl bits) - 1

let table =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl bits) in
  for i = 0 to mask do
    a.{i} <- i * 7919 land mask
  done;
  a

let walk steps =
  let x = ref 0 and acc = ref 0 in
  for i = 1 to steps do
    x := table.{(!x + i) land mask};
    acc := !acc + ((!x * 31) lxor i)
  done;
  !acc

let keys = 512
let left = Array.make keys (-1)
let right = Array.make keys (-1)
let parent = Array.make keys (-1)

let root =
  let rec build lo hi p =
    if lo > hi then -1
    else begin
      let m = (lo + hi) / 2 in
      parent.(m) <- p;
      left.(m) <- build lo (m - 1) m;
      right.(m) <- build (m + 1) hi m;
      m
    end
  in
  ref (build 0 (keys - 1) (-1))

let rotate_up x =
  let p = parent.(x) in
  let g = parent.(p) in
  if left.(p) = x then begin
    let b = right.(x) in
    left.(p) <- b;
    if b >= 0 then parent.(b) <- p;
    right.(x) <- p
  end
  else begin
    let b = left.(x) in
    right.(p) <- b;
    if b >= 0 then parent.(b) <- p;
    left.(x) <- p
  end;
  parent.(p) <- x;
  parent.(x) <- g;
  if g < 0 then root := x else if left.(g) = p then left.(g) <- x else right.(g) <- x

(* Skewed keys: a quarter spread over the whole tree, the rest over 64
   hot keys, so paths stay short and rotations frequent. *)
let tree steps =
  let st = ref 12345 and acc = ref 0 in
  for _ = 1 to steps do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    let k = (!st lsr 8) mod keys in
    let k = if k land 3 = 0 then k else k land 63 in
    let v = ref !root in
    while !v <> k do
      v := if k < !v then left.(!v) else right.(!v);
      incr acc
    done;
    if parent.(k) >= 0 then rotate_up k
  done;
  !acc

let kernel () = ignore (Sys.opaque_identity (walk 200_000 + tree 40_000))

let at_reference ~raw ~kernel =
  if not (kernel > 0.) then invalid_arg "Calib.at_reference: kernel time not positive";
  raw *. nominal_s /. kernel

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  kernel ();
  let t2 = Unix.gettimeofday () in
  (r, t1 -. t0, at_reference ~raw:(t1 -. t0) ~kernel:(t2 -. t1))

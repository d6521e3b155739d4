let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Harness.median: no samples";
  let s = Array.copy a in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let fastest a =
  if Array.length a = 0 then invalid_arg "Harness.fastest: no samples";
  Array.fold_left Float.min Float.infinity a

let min_beyond = 10

(* Nearest rank: the smallest k >= 1 with k >= q * count (1-based). *)
let rank ~count q = max 1 (int_of_float (Float.ceil (q *. float_of_int count)))

let beyond ~count q =
  if q <= 0. || q >= 1. then invalid_arg "Harness.beyond: q outside (0, 1)";
  max 0 (count - rank ~count q)

let tail_percentile samples q =
  let n = Array.length samples in
  let beyond = beyond ~count:n q in
  if beyond < min_beyond then None
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    Some (s.(rank ~count:n q - 1), beyond)
  end

type ratio = { num : float; den : float }

let ratio num den = { num; den }
let ratio_value r = if r.den = 0. then 0. else r.num /. r.den

let pp_ratio r =
  let full x =
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.6g" x
  in
  Printf.sprintf "%.4g (%s/%s)" (ratio_value r) (full r.num) (full r.den)

module Failures = struct
  type t = {
    attempted : int;
    mutable refused : int;
    mutable checks : int;
    mutable failed_checks : string list;  (* newest first *)
  }

  let create ~attempted = { attempted; refused = 0; checks = 0; failed_checks = [] }
  let refused t k = t.refused <- t.refused + k

  let check t name ok =
    t.checks <- t.checks + 1;
    if not ok then t.failed_checks <- name :: t.failed_checks

  let attempted t = t.attempted
  let correct t = t.failed_checks = []
  let failed t = if correct t then min t.refused t.attempted else t.attempted
  let failed_checks t = List.rev t.failed_checks
  let checks t = t.checks
end

module Spans = struct
  type span = {
    id : int;
    name : string;
    parent : int;
    start_s : float;
    end_s : float;
  }

  type t = {
    enabled : bool;
    run_id : string;
    mutable next : int;
    mutable stack : int list;
    mutable closed : span list;  (* newest first *)
  }

  let create ~enabled ~run_id =
    { enabled; run_id; next = 0; stack = []; closed = [] }

  let with_span t name f =
    if not t.enabled then f ()
    else begin
      let id = t.next in
      t.next <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let start_s = Unix.gettimeofday () in
      let close () =
        let end_s = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.closed <- { id; name; parent; start_s; end_s } :: t.closed
      in
      Fun.protect ~finally:close f
    end

  let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name

  let self_times spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let d = s.end_s -. s.start_s in
        let prev = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent (prev +. d))
      spans;
    let per_layer = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let covered = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
        let self = s.end_s -. s.start_s -. covered in
        let l = layer s.name in
        let prev = Option.value ~default:0. (Hashtbl.find_opt per_layer l) in
        Hashtbl.replace per_layer l (prev +. self))
      spans;
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.of_seq (Hashtbl.to_seq per_layer))

  let to_json t =
    let b = Buffer.create 4096 in
    Printf.bprintf b "{\"run_id\": %S, \"spans\": [" t.run_id;
    List.iteri
      (fun i s ->
        Printf.bprintf b
          "%s\n {\"id\": %d, \"name\": %S, \"parent\": %d, \"start_s\": %.6f, \
           \"end_s\": %.6f}"
          (if i = 0 then "" else ",")
          s.id s.name s.parent s.start_s s.end_s)
      (spans t);
    Buffer.add_string b "\n]}\n";
    Buffer.contents b
end

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

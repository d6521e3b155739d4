(* Cbnet.Arena, the executor's recycling message slab: ids keep
   increasing while slots are reused, a retired slot waits for the
   round's end, and the retired totals plus the live messages give the
   statistics a fold over every message gives. *)

module A = Cbnet.Arena
module M = Cbnet.Message
module Stats = Cbnet.Run_stats

let config = Cbnet.Config.default

(* Deliver a message the way the executor does before retiring it. *)
let deliver a (m : M.t) ~round =
  m.M.delivered <- true;
  m.M.end_time <- round;
  A.retire a m

let test_ids_increase_across_reuse () =
  let a = A.create ~capacity:2 in
  let m0 = A.alloc_data a ~src:1 ~dst:2 ~birth:0 in
  let m1 = A.alloc_update a ~origin:3 ~birth:0 in
  deliver a m0 ~round:1;
  A.recycle a;
  let m2 = A.alloc_data a ~src:4 ~dst:5 ~birth:2 in
  Alcotest.(check int) "reused slot" 0 m2.M.slot;
  Alcotest.(check bool) "same record" true (m0 == m2);
  Alcotest.(check (list int)) "ids" [ 0; 1; 2 ] [ 0; m1.M.id; m2.M.id ];
  Alcotest.(check bool) "reinitialized" true
    (M.is_data m2 && (not m2.M.delivered) && m2.M.src = 4 && m2.M.end_time = -1)

let test_retired_slot_waits_for_round_end () =
  let a = A.create ~capacity:1 in
  let m0 = A.alloc_data a ~src:0 ~dst:1 ~birth:0 in
  deliver a m0 ~round:0;
  (* Same round: the retired record must stay as it was. *)
  let m1 = A.alloc_data a ~src:2 ~dst:3 ~birth:0 in
  Alcotest.(check bool) "fresh slot, not the retired one" true
    (m1.M.slot <> m0.M.slot);
  Alcotest.(check int) "retired record untouched" 0 m0.M.id;
  Alcotest.(check bool) "still delivered" true m0.M.delivered;
  Alcotest.(check int) "grew by doubling" 2 (A.capacity a);
  A.recycle a;
  let m2 = A.alloc_update a ~origin:5 ~birth:1 in
  Alcotest.(check int) "recycled after the round" m0.M.slot m2.M.slot;
  Alcotest.(check int) "peak" 2 (A.peak a);
  Alcotest.(check int) "get by slot" m1.M.id (A.get a m1.M.slot).M.id;
  Alcotest.check_raises "never handed out"
    (Invalid_argument "Arena.get: slot never handed out") (fun () ->
      ignore (A.get a 2))

(* Random costs on a mix of data and update messages, some delivered:
   the arena's statistics must equal Run_stats.of_iter over the same
   records, before the round's end and after it. *)
let test_totals_plus_live_equal_fold () =
  let rng = Random.State.make [| 42 |] in
  let a = A.create ~capacity:4 in
  let msgs =
    List.init 200 (fun i ->
        let birth = i / 3 in
        let m =
          if i mod 3 = 2 then A.alloc_update a ~origin:i ~birth
          else A.alloc_data a ~src:i ~dst:(i + 1) ~birth
        in
        m.M.hops <- Random.State.int rng 20;
        m.M.rotations <- Random.State.int rng 5;
        m.M.steps <- Random.State.int rng 25;
        m.M.pauses <- Random.State.int rng 7;
        m.M.bypasses <- Random.State.int rng 3;
        m)
  in
  List.iter
    (fun (m : M.t) ->
      if Random.State.bool rng then
        deliver a m ~round:(m.M.birth + Random.State.int rng 50))
    msgs;
  let expected = Stats.of_messages ~config ~rounds:90 msgs in
  let same what got =
    Alcotest.(check string) what
      (Format.asprintf "%a" Stats.pp expected)
      (Format.asprintf "%a" Stats.pp got);
    Alcotest.(check bool) (what ^ ", bit for bit") true (got = expected)
  in
  same "before the round's end" (A.stats ~config ~rounds:90 a);
  same "called twice" (A.stats ~config ~rounds:90 a);
  A.recycle a;
  same "after recycling" (A.stats ~config ~rounds:90 a);
  let live = ref 0 in
  A.iter_live a (fun _ -> incr live);
  Alcotest.(check int) "live = undelivered"
    (List.length (List.filter (fun (m : M.t) -> not m.M.delivered) msgs))
    !live

let () =
  Alcotest.run "arena"
    [
      ( "recycling",
        [
          Alcotest.test_case "ids increase across slot reuse" `Quick
            test_ids_increase_across_reuse;
          Alcotest.test_case "retired slot waits for the round's end" `Quick
            test_retired_slot_waits_for_round_end;
          Alcotest.test_case "retired totals + live = of_iter" `Quick
            test_totals_plus_live_equal_fold;
        ] );
    ]

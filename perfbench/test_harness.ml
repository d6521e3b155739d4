(* Tests of the benchmark's own helpers: the ten-beyond percentile
   rule, ratio-with-base formatting, the failure counter, the
   reference-speed conversion, span self times, the result line, and
   the metric lists against BENCHMARK.json. *)

module H = Harness
module F = Harness.Failures

let floats = Alcotest.(float 0.)
let ints n = Array.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check floats "odd" 2. (H.median [| 3.; 1.; 2. |]);
  Alcotest.check floats "even" 2.5 (H.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Harness.median: no samples")
    (fun () -> ignore (H.median [||]))

let test_fastest () =
  Alcotest.check floats "smallest" 1. (H.fastest [| 3.; 1.; 2. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Harness.fastest: no samples")
    (fun () -> ignore (H.fastest [||]))

let test_calibration () =
  Alcotest.check (Alcotest.float 1e-12) "at nominal speed" 0.5
    (Calib.at_reference ~raw:0.5 ~kernel:Calib.nominal_s);
  Alcotest.check (Alcotest.float 1e-12) "host twice as slow" 0.25
    (Calib.at_reference ~raw:0.5 ~kernel:(2. *. Calib.nominal_s));
  Alcotest.check_raises "no kernel time"
    (Invalid_argument "Calib.at_reference: kernel time not positive") (fun () ->
      ignore (Calib.at_reference ~raw:1. ~kernel:0.))

let test_tail_percentile () =
  let some = Alcotest.(option (pair (float 0.) int)) in
  (* 1000 samples: p99 sits at rank 990 with exactly 10 beyond. *)
  Alcotest.check some "p99 of 1000" (Some (990., 10)) (H.tail_percentile (ints 1000) 0.99);
  Alcotest.check some "p99.5 of 1000 has 5 beyond" None
    (H.tail_percentile (ints 1000) 0.995);
  Alcotest.check some "p99.9 of 10000" (Some (9990., 10))
    (H.tail_percentile (ints 10_000) 0.999);
  Alcotest.check some "p99.9 of 9999 has 9 beyond" None
    (H.tail_percentile (ints 9_999) 0.999);
  Alcotest.check some "p50 of 25 unsorted" (Some (13., 12))
    (H.tail_percentile (Array.init 25 (fun i -> float_of_int (25 - i))) 0.5);
  Alcotest.check some "empty" None (H.tail_percentile [||] 0.5);
  Alcotest.(check int) "beyond" 50 (H.beyond ~count:50_000 0.999);
  Alcotest.check_raises "q = 1" (Invalid_argument "Harness.beyond: q outside (0, 1)")
    (fun () -> ignore (H.beyond ~count:10 1.))

let test_ratio () =
  Alcotest.(check string) "half" "0.5 (1/2)" (H.pp_ratio (H.ratio 1. 2.));
  Alcotest.(check string) "zero base" "0 (0/0)" (H.pp_ratio (H.ratio 0. 0.));
  Alcotest.(check string) "counts in full" "0.01561 (283114/18139139)"
    (H.pp_ratio (H.ratio 283114. 18139139.));
  Alcotest.(check string) "fractional base" "1.285 (1.32287/1.02986)"
    (H.pp_ratio (H.ratio 1.32287 1.02986));
  Alcotest.check floats "value" 0.25 (H.ratio_value (H.ratio 1. 4.))

let test_failures () =
  let t = F.create ~attempted:100 in
  Alcotest.(check int) "nothing failed" 0 (F.failed t);
  F.refused t 20;
  F.check t "passing check" true;
  Alcotest.(check int) "shed requests fail" 20 (F.failed t);
  Alcotest.(check bool) "still correct" true (F.correct t);
  F.check t "broken tree" false;
  F.check t "stats differ" false;
  Alcotest.(check int) "a failed check fails every request" 100 (F.failed t);
  Alcotest.(check bool) "incorrect" false (F.correct t);
  Alcotest.(check (list string)) "failed checks in order"
    [ "broken tree"; "stats differ" ] (F.failed_checks t);
  Alcotest.(check int) "checks counted" 3 (F.checks t);
  let u = F.create ~attempted:10 in
  F.refused u 25;
  Alcotest.(check int) "never above attempted" 10 (F.failed u)

let span id name parent start_s end_s = { H.Spans.id; name; parent; start_s; end_s }

let test_self_times () =
  (* A 10 s forest span with a 6 s core child, which has a 1 s bstnet
     child; a separate 2 s top-level core span. *)
  let spans =
    [
      span 0 "forest.overlay.run" (-1) 0. 10.;
      span 1 "core.concurrent.run" 0 2. 8.;
      span 2 "bstnet.build" 1 3. 4.;
      span 3 "core.concurrent.run" (-1) 20. 22.;
    ]
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "self time per layer"
    [ ("bstnet", 1.); ("core", 7.); ("forest", 4.) ]
    (H.Spans.self_times spans);
  Alcotest.(check string) "layer" "servekit" (H.Spans.layer "servekit.bqueue.offer_take")

let test_recorder () =
  let t = H.Spans.create ~enabled:true ~run_id:"r" in
  let v = H.Spans.with_span t "a.outer" (fun () -> H.Spans.with_span t "b.inner" (fun () -> 7)) in
  Alcotest.(check int) "value passes through" 7 v;
  (match H.Spans.spans t with
  | [ o; i ] ->
      Alcotest.(check (list string)) "opening order" [ "a.outer"; "b.inner" ] [ o.name; i.name ];
      Alcotest.(check int) "parent" o.id i.parent;
      Alcotest.(check int) "top" (-1) o.parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  let off = H.Spans.create ~enabled:false ~run_id:"r" in
  ignore (H.Spans.with_span off "a.x" (fun () -> ()));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (H.Spans.spans off))

let test_result_json () =
  Alcotest.(check string) "line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"a\": \
     {\"value\": 0.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}}"
    (H.result_json ~correct:true ~attempted:3 ~failed:1
       [ ("a", 0.5, "s"); ("b", Float.nan, "ms") ])

(* The "name" values inside the JSON array that follows [key]. *)
let names_under json key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then raise Not_found
      else if String.sub json i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let start = find_from 0 (Printf.sprintf "%S" key) in
  let stop = find_from start "]" in
  let rec collect i acc =
    match find_from i "\"name\": \"" with
    | j when j < stop ->
        let v = j + String.length "\"name\": \"" in
        let e = String.index_from json v '"' in
        collect e (String.sub json v (e - v) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  collect start []

let test_schema () =
  let json = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  Alcotest.(check (list string)) "end_to_end" (List.map fst Schema.end_to_end)
    (names_under json "end_to_end");
  Alcotest.(check (list string)) "per_layer" (List.map fst Schema.per_layer)
    (names_under json "per_layer");
  Alcotest.check_raises "missing metric"
    (Invalid_argument "Schema.collect: missing metric served_ratio") (fun () ->
      ignore
        (Schema.collect Schema.end_to_end
           (List.filter_map
              (fun (n, _) -> if n = "served_ratio" then None else Some (n, 1.))
              Schema.end_to_end)))

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "fastest" `Quick test_fastest;
          Alcotest.test_case "calibration" `Quick test_calibration;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "ratio with base" `Quick test_ratio;
          Alcotest.test_case "failure counter" `Quick test_failures;
          Alcotest.test_case "span self times" `Quick test_self_times;
          Alcotest.test_case "span recorder" `Quick test_recorder;
          Alcotest.test_case "result line" `Quick test_result_json;
          Alcotest.test_case "schema matches BENCHMARK.json" `Quick test_schema;
        ] );
    ]

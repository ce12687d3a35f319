(* Tests for the benchmark itself: frame attribution, agreement between
   the metrics it prints and BENCHMARK.json, and a tiny run of every
   workload through the same output checks the timed runs use. *)

module Json = Flux_json.Json

let layer_mapping () =
  let self files = Layers.self_of_frames files in
  Alcotest.(check string) "kvs" "kvs" (self [ "lib/kvs/kvs_module.ml" ]);
  Alcotest.(check string) "net split from sim" "net" (self [ "lib/sim/net.ml" ]);
  Alcotest.(check string) "rest of sim" "engine" (self [ "lib/sim/engine.ml" ]);
  Alcotest.(check string) "cmb" "session" (self [ "lib/cmb/session.ml" ]);
  Alcotest.(check string) "absolute path" "json" (self [ "/src/x/lib/json/json.ml" ]);
  Alcotest.(check string) "innermost lib frame wins" "sha1"
    (self [ "perfbench/sampler.ml"; "hashtbl.ml"; "lib/sha1/sha1.ml"; "lib/kvs/tree.ml" ]);
  Alcotest.(check string) "stdlib only" "other" (self [ "hashtbl.ml"; "perfbench/main.ml" ]);
  Alcotest.(check string) "unknown lib" "other" (self [ "lib/trace/tracer.ml"; "lib/kvs/client.ml" ]);
  Alcotest.(check string) "not a lib dir" "other" (self [ "mylib/kvs/x.ml" ]);
  Alcotest.(check (list string)) "inclusive" [ "core"; "engine"; "kvs" ]
    (Layers.inclusive_of_frames
       [ "lib/kvs/a.ml"; "lib/core/b.ml"; "lib/kvs/c.ml"; "lib/sim/proc.ml"; "x.ml" ])

let declared () =
  let doc = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  fun key ->
    List.map
      (fun m ->
        ( Json.to_string_v (Json.member "name" m),
          Json.to_string_v (Json.member "unit" m),
          Json.to_string_v (Json.member "better" m) ))
      (Json.to_list (Json.member key doc))
    |> List.sort compare

let ours ms =
  List.map
    (fun (m : Report.metric) ->
      (m.Report.name, m.Report.unit_, match m.Report.better with Report.Lower -> "lower" | Higher -> "higher"))
    ms
  |> List.sort compare

let names_match_benchmark_json () =
  let d = declared () in
  Alcotest.(check (list (triple string string string))) "end_to_end" (d "end_to_end")
    (ours Report.end_to_end);
  Alcotest.(check (list (triple string string string))) "per_layer" (d "per_layer")
    (ours Report.per_layer);
  let workloads =
    let doc = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
    List.map (fun w -> Json.to_string_v (Json.member "name" w)) (Json.to_list (Json.member "workloads" doc))
  in
  Alcotest.(check (list string)) "workloads" workloads (List.map fst Work.workloads)

(* The printed names, taken from the result line itself. *)
let printed_names r =
  match Json.of_string (Report.to_json r) with
  | doc -> List.sort compare (List.map fst (Json.to_obj (Json.member "metrics" doc)))

let names ms = List.sort compare (List.map (fun (m : Report.metric) -> m.Report.name) ms)

let tiny_run (name, w) =
  Alcotest.test_case name `Quick (fun () ->
      let seed = 5 in
      let rt o = Option.get (Report.decode (Report.encode o)) in
      let u = rt (Work.run Work.Tiny w ~seed ~traced:false) in
      let t = rt (Work.run Work.Tiny w ~seed ~traced:true) in
      Alcotest.(check int) "no failed operation" 0 (u.Work.failed + t.Work.failed);
      Alcotest.(check bool) "operations attempted" true (u.Work.attempted > 0);
      Alcotest.(check bool) "traced fingerprint = untraced" true (u.Work.fp = t.Work.fp);
      let r0 = Report.aggregate ~trace:false ~untraced:[ u ] ~traced:[] () in
      let r1 = Report.aggregate ~trace:true ~untraced:[ u ] ~traced:[ t ] () in
      Alcotest.(check int) "error rate 0" 0 (r0.Report.failed + r1.Report.failed);
      Alcotest.(check (list string)) "trace 0 prints end_to_end" (names Report.end_to_end)
        (printed_names r0);
      Alcotest.(check (list string)) "trace 1 prints per_layer" (names Report.per_layer)
        (printed_names r1);
      let self =
        List.fold_left (fun acc l -> acc +. Report.get t (l ^ ".self_s")) 0.0 Layers.self_layers
      in
      Alcotest.(check (float 1e-9)) "self times sum to CPU seconds" (Report.get t "trace.cpu_s") self;
      Alcotest.(check bool) "untraced run is timed in blocks" true
        (u.Work.chunks <> [] && t.Work.chunks = []);
      Alcotest.(check bool) "blocks sum to at most run_s" true
        (Report.fastest_blocks [ u ] <= Report.get u "run_s");
      let wrong = { u with Work.fp = { u.Work.fp with Work.sim_events = u.Work.fp.Work.sim_events + 1 } } in
      Alcotest.(check int) "a fingerprint mismatch is a failure" 1
        (Report.aggregate ~trace:false ~untraced:[ u; wrong ] ~traced:[] ()).Report.failed)

let rep chunks =
  {
    Work.size = "";
    fp = { Work.sim_events = 0; sim_clock = 0.0; rpc_messages = 0 };
    attempted = 1;
    failed = 0;
    metrics = [];
    chunks;
  }

let fastest_blocks () =
  let check = Alcotest.(check (float 1e-12)) in
  check "one repetition: its own sum" 6.0 (Report.fastest_blocks [ rep [ 1.0; 2.0; 3.0 ] ]);
  check "fastest repetition per block" 3.0
    (Report.fastest_blocks [ rep [ 1.0; 2.0; 3.0 ]; rep [ 2.0; 1.0; 1.0 ] ]);
  check "a repetition with other blocks is left out" 6.0
    (Report.fastest_blocks [ rep [ 1.0; 2.0; 3.0 ]; rep [ 0.1; 0.1 ] ])

let () =
  Alcotest.run "perfbench"
    [
      ("layers", [ Alcotest.test_case "frame to layer" `Quick layer_mapping ]);
      ( "metrics",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick names_match_benchmark_json;
          Alcotest.test_case "run time from the fastest blocks" `Quick fastest_blocks;
        ] );
      ("tiny", List.map tiny_run Work.workloads);
    ]

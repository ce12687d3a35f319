(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section V) plus the ablations called out in DESIGN.md.

   Usage: main.exe [experiment...] where experiment is one of
     table1 fig2 fig3 fig4a fig4b sweep model ablate-sched ablate-fanout
     ablate-shards faults chaos micro overload shard ckpt sched observe telem
     elastic perf
   No arguments runs everything. Scales can be reduced with
   BENCH_FAST=1 for a quick pass. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Tree = Flux_kvs.Tree
module Sha1 = Flux_sha1.Sha1
module Kap = Flux_kap.Kap
module Rng = Flux_util.Rng
module Heap = Flux_util.Heap
module Center = Flux_core.Center
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Workload = Flux_core.Workload
module Central = Flux_baseline.Central
module Chaos = Flux_kap.Chaos
module Overload = Flux_kap.Overload
module Shard = Flux_kap.Shard
module Ckpt = Flux_kap.Ckpt
module Sched = Flux_kap.Sched
module KTelem = Flux_kap.Telem
module KElastic = Flux_kap.Elastic
module Export = Flux_trace.Export

let fast = Sys.getenv_opt "BENCH_FAST" <> None

(* Machine-readable one-line summary of a fault experiment: the
   lifecycle/accounting counters as JSON, for downstream scraping. *)
let fault_summary ~experiment sess ?(extra = []) () =
  let rpc = Session.rpc_net_stats sess in
  let ev = Session.event_net_stats sess in
  let ring = Session.ring_net_stats sess in
  Printf.printf "  summary %s\n%!"
    (Json.to_string
       (Json.obj
          ([
             ("experiment", Json.string experiment);
             ("rpc_timeouts", Json.int (Session.rpc_timeouts sess));
             ("rpc_retries", Json.int (Session.rpc_retries sess));
             ( "dead_letters",
               Json.int (rpc.Net.dead_letters + ev.Net.dead_letters + ring.Net.dead_letters) );
             ("dropped", Json.int (rpc.Net.dropped + ev.Net.dropped + ring.Net.dropped));
           ]
          @ extra)))

let node_scales = if fast then [ 16; 32; 64 ] else [ 64; 128; 256; 512 ]
let vsizes = if fast then [ 8; 512; 8192 ] else [ 8; 32; 128; 512; 2048; 8192; 32768 ]

let header title = Printf.printf "\n=== %s ===\n%!" title

(* --- Table I: the comms-module inventory, exercised ------------------- *)

let table1 () =
  header "Table I: prototyped comms modules (all loaded and exercised in one session)";
  let eng = Engine.create () in
  let sess = Session.create eng ~size:16 () in
  ignore (Kvs.load sess () : Kvs.t array);
  ignore (Flux_modules.Barrier.load sess () : Flux_modules.Barrier.t array);
  ignore (Flux_modules.Wexec.load sess () : Flux_modules.Wexec.t array);
  ignore (Flux_modules.Group.load sess () : Flux_modules.Group.t array);
  ignore (Flux_modules.Resvc.load sess () : Flux_modules.Resvc.t array);
  let logm = Flux_modules.Log_mod.load sess () in
  let hb = Flux_modules.Hb.load sess ~period:0.05 () in
  let live = Flux_modules.Live.load sess ~hb () in
  let mon = Flux_modules.Mon.load sess ~hb () in
  Flux_modules.Mon.register_sampler "load" (fun ~rank ~epoch:_ -> float_of_int rank);
  Flux_modules.Wexec.register_program "noop" (fun ctx -> ctx.Flux_modules.Wexec.px_printf "ok");
  let results : (string * string) list ref = ref [] in
  let ok name detail = results := (name, detail) :: !results in
  ignore
    (Proc.spawn eng (fun () ->
         let api = Api.connect sess ~rank:13 in
         let c = Client.connect sess ~rank:13 in
         (* hb + mon *)
         (match Flux_modules.Mon.activate api ~script:"load" with
         | Ok () -> ()
         | Error e -> failwith e);
         Proc.sleep 0.4;
         ok "hb"
           (Printf.sprintf "heartbeat epoch %d multicast to all 16 ranks"
              (Flux_modules.Hb.epoch hb.(13)));
         (match Flux_modules.Mon.latest_aggregate mon.(0) with
         | Some (_, s) ->
           ok "mon"
             (Printf.sprintf "sampled %d ranks, min/max/sum = %g/%g/%g -> stored in KVS"
                s.Flux_modules.Mon.s_count s.Flux_modules.Mon.s_min s.Flux_modules.Mon.s_max
                s.Flux_modules.Mon.s_sum)
         | None -> ok "mon" "NO AGGREGATE");
         (* log *)
         Flux_modules.Log_mod.log api ~level:Flux_modules.Log_mod.Warn "bench message";
         Flux_modules.Log_mod.log api ~level:Flux_modules.Log_mod.Warn "bench message";
         Proc.sleep 0.05;
         ok "log"
           (Printf.sprintf "root log holds %d reduced entries"
              (List.length (Flux_modules.Log_mod.root_log logm.(0))));
         (* group + barrier *)
         ignore (Flux_modules.Group.join api ~group:"g" ~tag:"bench" : (int, string) result);
         ok "group" "membership tracked at session root";
         ok "barrier" "collective barriers gate every KAP phase below";
         (* kvs *)
         (match Client.put c ~key:"bench.k" (Json.int 1) with Ok () -> () | Error e -> failwith e);
         (match Client.commit c with
         | Ok v -> ok "kvs" (Printf.sprintf "put+commit -> version %d, setroot multicast" v)
         | Error e -> failwith e);
         (* wexec *)
         (match Flux_modules.Wexec.run api ~jobid:"t1-job" ~prog:"noop" ~ranks:[ 1; 2; 3 ] () with
         | Ok comp ->
           ok "wexec"
             (Printf.sprintf "bulk-launched %d tasks, stdout captured in KVS"
                comp.Flux_modules.Wexec.c_ntasks)
         | Error e -> failwith e);
         (* resvc *)
         (match Flux_modules.Resvc.alloc api ~jobid:"t1-alloc" ~nnodes:4 with
         | Ok ranks ->
           ok "resvc"
             (Printf.sprintf "allocated nodes [%s] from the KVS-enumerated pool"
                (String.concat ";" (List.map string_of_int ranks)))
         | Error e -> failwith e);
         (* live: crash a leaf and wait for detection *)
         Session.crash sess 9;
         Proc.sleep 0.4;
         ok "live"
           (Printf.sprintf "rank 9 declared dead by its parent after missed hellos (%s)"
              (if Session.is_down sess 9 then "overlays rewired" else "NOT DETECTED"));
         Flux_modules.Hb.stop hb)
      : Proc.pid);
  Engine.run eng;
  ignore live;
  List.iter (fun (m, d) -> Printf.printf "  %-8s %s\n" m d) (List.rev !results)

(* --- Figure 2: producer (kvs_put) max latency --------------------------- *)

let fig2 () =
  header "Figure 2: producer-phase max latency (s) vs producers, by value size";
  Printf.printf "%-10s %-8s" "producers" "nodes";
  List.iter (fun v -> Printf.printf " vsize-%-8d" v) vsizes;
  print_newline ();
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      Printf.printf "%-10d %-8d" (nodes * 16) nodes;
      List.iter
        (fun vsize ->
          let r = Kap.run { cfg with Kap.value_size = vsize } in
          Printf.printf " %-14.6f" r.Kap.r_producer.Kap.ph_max)
        vsizes;
      Printf.printf "\n%!")
    node_scales

(* --- Figure 3: fence max latency, unique vs redundant -------------------- *)

let fig3 () =
  header "Figure 3: synchronization (kvs_fence) max latency (s) vs producers";
  List.iter
    (fun kind ->
      let label, prefix =
        match kind with
        | Kap.Unique -> ("unique values", "vsize-")
        | Kap.Redundant -> ("redundant values", "red-vs-")
      in
      Printf.printf "-- %s --\n" label;
      Printf.printf "%-10s %-8s" "producers" "nodes";
      List.iter (fun v -> Printf.printf " %s%-8d" prefix v) vsizes;
      print_newline ();
      List.iter
        (fun nodes ->
          let cfg = Kap.fully_populated ~nodes in
          Printf.printf "%-10d %-8d" (nodes * 16) nodes;
          List.iter
            (fun vsize ->
              let r = Kap.run { cfg with Kap.value_size = vsize; value_kind = kind } in
              Printf.printf " %-14.6f" r.Kap.r_sync.Kap.ph_max)
            vsizes;
          Printf.printf "\n%!")
        node_scales)
    [ Kap.Unique; Kap.Redundant ]

(* --- Figure 4: consumer (kvs_get) max latency ------------------------------ *)

let fig4 layout label =
  header label;
  let accesses = [ 1; 4; 16 ] in
  Printf.printf "%-10s %-8s" "consumers" "nodes";
  List.iter (fun a -> Printf.printf " access-%-7d" a) accesses;
  Printf.printf " loads\n";
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      Printf.printf "%-10d %-8d" (nodes * 16) nodes;
      let loads = ref 0 in
      List.iter
        (fun ngets ->
          let r = Kap.run { cfg with Kap.ngets; dir_layout = layout; access_stride = 7 } in
          loads := r.Kap.r_loads_issued;
          Printf.printf " %-14.6f" r.Kap.r_consumer.Kap.ph_max)
        accesses;
      Printf.printf " %d\n%!" !loads)
    node_scales

let fig4a () =
  fig4 Kap.Single_dir
    "Figure 4a: consumer max latency (s), all objects in a single KVS directory"

let fig4b () =
  fig4 (Kap.Multi_dir 128)
    "Figure 4b: consumer max latency (s), directories limited to 128 objects"

(* --- Asymmetric role sweeps (Section V.A method) -------------------------------- *)

let sweep () =
  header
    "Role sweep: varying producer or consumer count while the other stays at all cores";
  let nodes = if fast then 32 else 128 in
  let total = nodes * 16 in
  let fractions = [ 8; 4; 2; 1 ] in
  Printf.printf "(%d nodes, %d procs, vsize 512, unique values, single dir)\n" nodes total;
  Printf.printf "-- producers varied, consumers = %d --\n" total;
  Printf.printf "%-10s %-14s %-14s %-14s\n" "producers" "put_max(s)" "fence_max(s)" "get_max(s)";
  List.iter
    (fun frac ->
      let cfg =
        { (Kap.fully_populated ~nodes) with Kap.value_size = 512; producers = total / frac }
      in
      let r = Kap.run cfg in
      Printf.printf "%-10d %-14.6f %-14.6f %-14.6f\n%!" (total / frac)
        r.Kap.r_producer.Kap.ph_max r.Kap.r_sync.Kap.ph_max r.Kap.r_consumer.Kap.ph_max)
    fractions;
  Printf.printf "-- consumers varied, producers = %d --\n" total;
  Printf.printf "%-10s %-14s %-14s %-14s\n" "consumers" "put_max(s)" "fence_max(s)" "get_max(s)";
  List.iter
    (fun frac ->
      let cfg =
        { (Kap.fully_populated ~nodes) with Kap.value_size = 512; consumers = total / frac }
      in
      let r = Kap.run cfg in
      Printf.printf "%-10d %-14.6f %-14.6f %-14.6f\n%!" (total / frac)
        r.Kap.r_producer.Kap.ph_max r.Kap.r_sync.Kap.ph_max r.Kap.r_consumer.Kap.ph_max)
    fractions

(* --- The analytic model: log2(C) x T(G) -------------------------------------- *)

let model () =
  header "Consumer-latency model: measured vs log2(nodes) x T(G) (Section V.B)";
  Printf.printf "%-8s %-10s %-12s %-12s %-8s\n" "nodes" "G" "measured(s)" "model(s)" "ratio";
  let netc = Net.default_config in
  List.iter
    (fun nodes ->
      let cfg = Kap.fully_populated ~nodes in
      let r = Kap.run { cfg with Kap.ngets = 1 } in
      let g = r.Kap.r_total_objects in
      (* One 8-byte object inlined in a directory entry is ~26 bytes of
         serialized JSON; T(G) is one hop's transfer of the directory. *)
      let dir_bytes = float_of_int g *. 26.0 in
      let t_g =
        netc.Net.link_latency
        +. (dir_bytes /. netc.Net.bandwidth)
        +. netc.Net.host_cpu_per_msg
        +. (dir_bytes *. netc.Net.host_cpu_per_byte)
      in
      let depth = Float.log2 (float_of_int nodes) in
      let predicted = depth *. t_g in
      Printf.printf "%-8d %-10d %-12.6f %-12.6f %-8.2f\n%!" nodes g
        r.Kap.r_consumer.Kap.ph_max predicted
        (r.Kap.r_consumer.Kap.ph_max /. predicted))
    node_scales;
  Printf.printf
    "(ratios near 1: the replication wave down the slave-cache tree dominates, as the paper models)\n"

(* --- Ablation: hierarchical vs centralized scheduling ------------------------ *)

let ablate_sched () =
  header "Ablation: scheduler parallelism — centralized controller vs Flux hierarchy";
  let nodes = if fast then 32 else 64 in
  let n_jobs = if fast then 600 else 2000 in
  let mk_wl () =
    List.map
      (fun (s : Job.submission) ->
        match s.Job.sub_payload with
        | Job.Sleep d -> { s with Job.sub_payload = Job.Sleep (Float.max 0.05 (d /. 10.0)) }
        | _ -> s)
      (Workload.uq_ensemble (Rng.create 42) ~n:n_jobs ~mean_duration:2.0 ())
  in
  Printf.printf "%d one-node ensemble jobs on %d nodes (10 ms controller cost per start)\n"
    n_jobs nodes;
  Printf.printf "%-22s %-10s %-10s %-10s\n" "configuration" "makespan" "jobs/s" "mean_wait";
  let eng = Engine.create () in
  let central = Central.create eng ~nnodes:nodes () in
  Central.submit_plan central (mk_wl ());
  Engine.run eng;
  let cs = Central.stats central in
  Printf.printf "%-22s %-10.1f %-10.1f %-10.1f\n%!" "centralized (1 ctrl)" cs.Central.bs_makespan
    (float_of_int cs.Central.bs_completed /. cs.Central.bs_makespan)
    cs.Central.bs_mean_wait;
  List.iter
    (fun k ->
      let c = Center.create ~nodes () in
      let parts = Workload.split_round_robin k (mk_wl ()) in
      List.iter
        (fun workload ->
          ignore
            (Instance.submit c.Center.root
               ~spec:(Jobspec.make ~nnodes:(nodes / k) ())
               ~payload:(Job.Child { policy = "fcfs"; workload })
              : Job.t))
        parts;
      Center.run c;
      let fs = Instance.stats_recursive c.Center.root in
      Printf.printf "%-22s %-10.1f %-10.1f %-10.1f\n%!"
        (Printf.sprintf "flux 2-level (%d kids)" k)
        fs.Instance.st_makespan
        (float_of_int (fs.Instance.st_completed - k) /. fs.Instance.st_makespan)
        fs.Instance.st_mean_wait)
    [ 2; 4; 8; 16 ]

(* --- Ablation: RPC-tree fan-out ------------------------------------------------ *)

let ablate_fanout () =
  header "Ablation: CMB tree fan-out vs fence and get latency";
  let nodes = if fast then 64 else 256 in
  Printf.printf "(%d nodes, %d procs, vsize 512, unique values)\n" nodes (nodes * 16);
  Printf.printf "%-8s %-12s %-12s %-12s\n" "fanout" "fence(s)" "get(s)" "tree-depth";
  List.iter
    (fun k ->
      let cfg = { (Kap.fully_populated ~nodes) with Kap.value_size = 512; fanout = k } in
      let r = Kap.run cfg in
      Printf.printf "%-8d %-12.6f %-12.6f %-12d\n%!" k r.Kap.r_sync.Kap.ph_max
        r.Kap.r_consumer.Kap.ph_max
        (Flux_util.Treemath.tree_height ~k ~size:nodes))
    [ 2; 4; 8; 16 ]

(* --- Ablation: distributed KVS master (the paper's future work) ---------------- *)

let ablate_shards () =
  header "Future work implemented: distributing the KVS master (sharded volumes)";
  let nodes = if fast then 32 else 128 in
  let ppn = 16 in
  let nputs = 4 in
  let total = nodes * ppn in
  Printf.printf
    "%d procs on %d nodes; each puts %d unique 512 B values (hashed across volumes) then joins one fence\n"
    total nodes nputs;
  Printf.printf "%-8s %-14s %-14s %-16s\n" "shards" "fence_max(s)" "get_max(s)" "max master bytes";
  List.iter
    (fun shards ->
      let eng = Engine.create () in
      let sess = Session.create eng ~rank_topology:Session.Direct ~size:nodes () in
      let vt = Flux_kvs.Volumes.load sess ~shards () in
      let fence_s = Flux_util.Stats.create () in
      let get_s = Flux_util.Stats.create () in
      let remaining = ref total in
      for p = 0 to total - 1 do
        let node = p mod nodes in
        ignore
          (Proc.spawn eng (fun () ->
               let c = Flux_kvs.Volumes.client vt ~rank:node in
               let expect label = function
                 | Ok v -> v
                 | Error e -> failwith (label ^ ": " ^ e)
               in
               for j = 0 to nputs - 1 do
                 let idx = (p * nputs) + j in
                 expect "put"
                   (Flux_kvs.Volumes.put c
                      ~key:(Printf.sprintf "d%d.k%d" (idx mod 997) idx)
                      (Json.pad_unique 512 idx))
               done;
               let t0 = Engine.now eng in
               expect "fence" (Flux_kvs.Volumes.fence c ~name:"shard-bench" ~nprocs:total);
               Flux_util.Stats.add fence_s (Engine.now eng -. t0);
               let t1 = Engine.now eng in
               let idx = (p * nputs) mod (total * nputs) in
               ignore
                 (expect "get"
                    (Flux_kvs.Volumes.get c ~key:(Printf.sprintf "d%d.k%d" (idx mod 997) idx))
                   : Json.t);
               Flux_util.Stats.add get_s (Engine.now eng -. t1);
               decr remaining)
            : Proc.pid)
      done;
      Engine.run eng;
      if !remaining <> 0 then failwith "shard bench clients stuck";
      let max_master_bytes =
        List.fold_left max 0
          (List.init shards (fun v ->
               Flux_kvs.Kvs_module.store_bytes
                 (Flux_kvs.Volumes.instance vt ~volume:v
                    ~rank:(Flux_kvs.Volumes.master_rank vt v))))
      in
      Printf.printf "%-8d %-14.6f %-14.6f %-16d\n%!" shards
        (Flux_util.Stats.max fence_s) (Flux_util.Stats.max get_s) max_master_bytes)
    [ 1; 2; 4; 8 ]

(* --- Bechamel micro-benchmarks --------------------------------------------------- *)

let micro () =
  header "Micro-benchmarks (bechamel, per-run cost of the hot primitives)";
  let open Bechamel in
  let payload = String.make 4096 'x' in
  let json_val = Json.obj [ ("key", Json.string "kap.o123"); ("v", Json.pad 256) ] in
  let tree_store = Hashtbl.create 64 in
  let store v =
    let sha = Sha1.digest_json v in
    Hashtbl.replace tree_store (Sha1.to_hex sha) v;
    sha
  in
  let fetch sha = Hashtbl.find_opt tree_store (Sha1.to_hex sha) in
  ignore (store Tree.empty_dir : Sha1.digest);
  let base_root =
    Tree.apply_tuples ~fetch ~store ~root:Tree.empty_dir_sha
      (List.init 128 (fun i -> (Printf.sprintf "d.k%d" i, Tree.dirent_val (Json.int i))))
  in
  let counter = ref 0 in
  let tests =
    [
      Test.make ~name:"sha1-4KiB"
        (Staged.stage (fun () -> ignore (Sha1.digest_string payload : Sha1.digest)));
      Test.make ~name:"json-print+parse"
        (Staged.stage (fun () -> ignore (Json.of_string (Json.to_string json_val) : Json.t)));
      Test.make ~name:"json-size-model"
        (Staged.stage (fun () -> ignore (Json.serialized_size json_val : int)));
      Test.make ~name:"hashtree-apply-1-tuple"
        (Staged.stage (fun () ->
             incr counter;
             ignore
               (Tree.apply_tuples ~fetch ~store ~root:base_root
                  [
                    ( Printf.sprintf "d.k%d" (!counter mod 128),
                      Tree.dirent_val (Json.int !counter) );
                  ]
                 : Sha1.digest)));
      Test.make ~name:"heap-push-pop"
        (Staged.stage
           (* Steady depth 16k, near kap-get's engine.pending_hwm: each run
              pops the earliest entry and re-queues it a seeded delay
              later, so both the pop and the push sift through the tree. *)
           (let rng = Rng.create 7 in
            let delays = Array.init 4096 (fun _ -> Rng.float rng 1.0) in
            let h = Heap.create ~dummy:() in
            for i = 0 to 16_383 do
              Heap.push h delays.(i land 4095) ()
            done;
            let k = ref 0 in
            fun () ->
              let t = Heap.top_prio h in
              Heap.pop_top h;
              k := (!k + 1) land 4095;
              Heap.push h (t +. delays.(!k)) ()));
      Test.make ~name:"kap-4nodes-end-to-end"
        (Staged.stage (fun () -> ignore (Kap.run { Kap.default with Kap.nodes = 4 } : Kap.result)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-26s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-26s (no estimate)\n%!" name)
        ols)
    tests

(* --- Fault injection: the RPC lifecycle under loss and parent death ------ *)

let faults () =
  header "Fault injection: fence under message loss, and a parent death mid-fence";
  (* (a) an 8-leaf fence on a 15-node tree with increasing injected loss:
     lost flushes/responses are recovered by the deadline + retransmit
     machinery at the cost of backoff latency. *)
  List.iter
    (fun loss ->
      let eng = Engine.create () in
      let sess = Session.create eng ~size:15 () in
      ignore (Kvs.load sess () : Kvs.t array);
      Net.set_loss (Session.rpc_net sess) loss;
      let nprocs = 8 in
      let released = ref 0 in
      let t_done = ref 0.0 in
      for r = 7 to 14 do
        ignore
          (Proc.spawn eng (fun () ->
               let c = Client.connect sess ~rank:r in
               (match Client.put c ~key:(Printf.sprintf "fl.%d" r) (Json.int r) with
               | Ok () -> ()
               | Error e -> failwith e);
               match Client.fence c ~name:"bench-loss" ~nprocs with
               | Ok _ ->
                 incr released;
                 t_done := Float.max !t_done (Engine.now eng)
               | Error _ -> ())
            : Proc.pid)
      done;
      Engine.run eng;
      let st = Net.stats (Session.rpc_net sess) in
      Printf.printf
        "  loss %3.0f%%: released %d/%d in %8.5f s, retries %3d, timeouts %2d, dead letters %3d\n%!"
        (100.0 *. loss) !released nprocs !t_done (Session.rpc_retries sess)
        (Session.rpc_timeouts sess) st.Net.dead_letters;
      fault_summary ~experiment:"faults-loss" sess
        ~extra:[ ("loss", Json.float loss); ("released", Json.int !released) ]
        ())
    [ 0.0; 0.02; 0.05; 0.10 ];
  (* (b) the EXPERIMENTS.md scenario: rank 6 (parent of 13 and 14) dies
     before their flushes arrive and is marked down a second later; the
     retransmits route through the healed parent and release the fence. *)
  let eng = Engine.create () in
  let sess = Session.create eng ~size:15 () in
  ignore (Kvs.load sess () : Kvs.t array);
  Session.crash sess 6;
  ignore (Engine.schedule eng ~delay:1.0 (fun () -> Session.mark_down sess 6) : Engine.handle);
  let released = ref 0 in
  let t_done = ref 0.0 in
  List.iter
    (fun r ->
      ignore
        (Proc.spawn eng (fun () ->
             let c = Client.connect sess ~rank:r in
             (match Client.put c ~key:(Printf.sprintf "pd.%d" r) (Json.int r) with
             | Ok () -> ()
             | Error e -> failwith e);
             match Client.fence c ~name:"bench-pdeath" ~nprocs:3 with
             | Ok _ ->
               incr released;
               t_done := Float.max !t_done (Engine.now eng)
             | Error _ -> ())
          : Proc.pid))
    [ 5; 13; 14 ];
  Engine.run eng;
  Printf.printf
    "  parent death mid-fence: released %d/3 in %.3f s via the healed parent (retries %d, timeouts %d)\n%!"
    !released !t_done (Session.rpc_retries sess) (Session.rpc_timeouts sess);
  fault_summary ~experiment:"faults-parent-death" sess
    ~extra:[ ("released", Json.int !released) ]
    ();
  Printf.printf "%s" (Export.fault_counters_csv
    ~rpc_timeouts:(Session.rpc_timeouts sess)
    ~rpc_retries:(Session.rpc_retries sess)
    ~dead_letters:(Session.rpc_net_stats sess).Net.dead_letters
    ~dropped:(Session.rpc_net_stats sess).Net.dropped ())

let chaos () =
  header "Chaos: seeded fault schedules over a live workload (consistency proved per run)";
  let seeds = if fast then [ 1; 2; 3 ] else List.init 10 (fun i -> 1 + i) in
  let total_viol = ref 0 in
  List.iter
    (fun seed ->
      let r = Chaos.run { Chaos.default with Chaos.seed } in
      total_viol := !total_viol + List.length r.Chaos.violations;
      Printf.printf
        "  seed %2d: commits %3d (+%d indet), fences %2d (+%d indet), kills %2d (%d master), \
         takeovers %d, final v%d, violations %d\n%!"
        seed r.Chaos.commits_ok r.Chaos.commits_indeterminate r.Chaos.fences_ok
        r.Chaos.fences_indeterminate r.Chaos.kills r.Chaos.master_kills r.Chaos.takeovers
        r.Chaos.final_version
        (List.length r.Chaos.violations);
      List.iter (fun v -> Printf.printf "    violation: %s\n%!" v) r.Chaos.violations;
      Printf.printf "  summary %s\n%!"
        (Json.to_string
           (Json.obj
              [
                ("experiment", Json.string "chaos");
                ("seed", Json.int seed);
                ("rpc_timeouts", Json.int r.Chaos.rpc_timeouts);
                ("rpc_retries", Json.int r.Chaos.rpc_retries);
                ("dead_letters", Json.int r.Chaos.dead_letters);
                ("dropped", Json.int r.Chaos.dropped);
                ("master_kills", Json.int r.Chaos.master_kills);
                ("takeovers", Json.int r.Chaos.takeovers);
                ("keys_checked", Json.int r.Chaos.keys_checked);
                ("violations", Json.int (List.length r.Chaos.violations));
              ])))
    seeds;
  Printf.printf "  %d seeds, %d total violations%s\n%!" (List.length seeds) !total_viol
    (if !total_viol = 0 then " — all consistency guarantees held" else " — INVARIANT BREACH")

(* --- Overload: open-loop soak past master capacity ------------------------ *)

let overload () =
  header "Overload: open-loop soak past master capacity (bounded queues, credits, admission)";
  let size = if fast then 64 else 512 in
  let nproducers = if fast then 8 else 16 in
  let producers = List.init nproducers (fun i -> size - nproducers + i) in
  let duration = if fast then 0.3 else 0.5 in
  let base = { Overload.default with Overload.size; producers; duration } in
  let cap = Overload.master_capacity base in
  Printf.printf "(%d nodes, %d producers, %.1fs window, master capacity %.0f ops/s)\n%!"
    size nproducers duration cap;
  Printf.printf "%-10s %8s %8s %8s %8s %10s %10s %6s %6s %6s %5s\n" "profile" "x-cap"
    "offered" "acked" "shed" "goodput" "p99(s)" "stash" "link" "intake" "viol";
  let scenarios =
    [
      ("sustained", 0.5, Overload.Sustained, false);
      ("sustained", 1.0, Overload.Sustained, false);
      ("sustained", 2.0, Overload.Sustained, false);
      ("bursty", 2.0, Overload.Bursty, false);
      ("chaos", 1.0, Overload.Sustained, true);
    ]
  in
  let rows =
    List.map
      (fun (label, mult, profile, chaos_kill) ->
        let cfg = { base with Overload.rate = cap *. mult; profile; chaos_kill } in
        let r = Overload.run cfg in
        Printf.printf "%-10s %8.1f %8d %8d %8d %10.0f %10.6f %6d %6d %6d %5d\n%!" label
          mult r.Overload.offered r.Overload.acked r.Overload.shed r.Overload.goodput
          r.Overload.ack_p99 r.Overload.flow_stash_hwm r.Overload.link_depth_hwm
          r.Overload.intake_hwm
          (List.length r.Overload.violations);
        List.iter (fun v -> Printf.printf "    violation: %s\n%!" v) r.Overload.violations;
        ( (label, mult, r),
          Json.obj
            [
              ("profile", Json.string label);
              ("capacity_multiple", Json.float mult);
              ("rate", Json.float cfg.Overload.rate);
              ("offered", Json.int r.Overload.offered);
              ("acked", Json.int r.Overload.acked);
              ("shed", Json.int r.Overload.shed);
              ("failed", Json.int r.Overload.failed);
              ("goodput", Json.float r.Overload.goodput);
              ("ack_p50", Json.float r.Overload.ack_p50);
              ("ack_p99", Json.float r.Overload.ack_p99);
              ("admission_sheds", Json.int r.Overload.admission_sheds);
              ("intake_hwm", Json.int r.Overload.intake_hwm);
              ("flow_stash_hwm", Json.int r.Overload.flow_stash_hwm);
              ("link_depth_hwm", Json.int r.Overload.link_depth_hwm);
              ("lost_acks", Json.int r.Overload.lost_acks);
              ("drained", Json.bool r.Overload.drained);
              ("sim_events", Json.int r.Overload.sim_events);
              ("violations", Json.int (List.length r.Overload.violations));
            ] ))
      scenarios
  in
  (* The shape the protection stack must produce: goodput at 2x capacity
     plateaus near the 1x level instead of collapsing under retry storms
     and unbounded queueing. *)
  let goodput_at m =
    List.filter_map
      (fun ((label, mult, r), _) ->
        if label = "sustained" && mult = m then Some r.Overload.goodput else None)
      rows
    |> function g :: _ -> g | [] -> 0.0
  in
  let g1 = goodput_at 1.0 and g2 = goodput_at 2.0 in
  Printf.printf "  goodput at 2x capacity retains %.0f%% of the 1x level (%s)\n%!"
    (if g1 > 0.0 then 100.0 *. g2 /. g1 else 0.0)
    (if g2 >= 0.5 *. g1 then "plateau — protected" else "COLLAPSE");
  let doc =
    Json.obj
      [
        ("experiment", Json.string "overload");
        ("nodes", Json.int size);
        ("producers", Json.int nproducers);
        ("duration", Json.float duration);
        ("master_capacity", Json.float cap);
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
        ("rows", Json.list (List.map snd rows));
      ]
  in
  let oc = open_out "BENCH_OVERLOAD.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_OVERLOAD.json (%d scenarios)\n%!" (List.length rows)

(* --- Shard: goodput vs shard count at 2x offered load --------------------- *)

let shard () =
  header "Shard: goodput vs shards at 2x one master's capacity (distributed KVS master)";
  let duration = if fast then 0.25 else 0.4 in
  let base = { Shard.soak_default with Shard.duration } in
  let cap = Shard.soak_capacity base in
  Printf.printf
    "(%d nodes, %d producers, %.2fs window, per-master capacity %.0f ops/s, offered %.0f)\n%!"
    base.Shard.size
    (List.length base.Shard.producers)
    duration cap base.Shard.rate;
  Printf.printf "%-7s %8s %8s %8s %10s %8s %6s %5s\n" "shards" "offered" "acked" "shed"
    "goodput" "intake" "lost" "viol";
  let rows =
    List.map
      (fun shards ->
        let r = Shard.soak { base with Shard.shards } in
        Printf.printf "%-7d %8d %8d %8d %10.0f %8d %6d %5d\n%!" shards
          r.Shard.offered r.Shard.acked r.Shard.shed r.Shard.goodput r.Shard.intake_hwm
          r.Shard.lost_acks
          (List.length r.Shard.violations);
        List.iter (fun v -> Printf.printf "    violation: %s\n%!" v) r.Shard.violations;
        ( r,
          Json.obj
            [
              ("shards", Json.int shards);
              ("offered", Json.int r.Shard.offered);
              ("acked", Json.int r.Shard.acked);
              ("shed", Json.int r.Shard.shed);
              ("failed", Json.int r.Shard.failed);
              ("goodput", Json.float r.Shard.goodput);
              ("ack_p50", Json.float r.Shard.ack_p50);
              ("ack_p99", Json.float r.Shard.ack_p99);
              ("admission_sheds", Json.int r.Shard.admission_sheds);
              ("intake_hwm", Json.int r.Shard.intake_hwm);
              ("lost_acks", Json.int r.Shard.lost_acks);
              ("drained", Json.bool r.Shard.drained);
              ("sim_events", Json.int r.Shard.sim_events);
              ("violations", Json.int (List.length r.Shard.violations));
            ] ))
      [ 1; 2; 4 ]
  in
  let goodput_of n =
    List.filter_map
      (fun (r, _) -> if r.Shard.shards = n then Some r.Shard.goodput else None)
      rows
    |> function g :: _ -> g | [] -> 0.0
  in
  let g1 = goodput_of 1 and g4 = goodput_of 4 in
  let ratio = if g1 > 0.0 then g4 /. g1 else 0.0 in
  Printf.printf "  goodput scales %.2fx from 1 to 4 shards (%s)\n%!" ratio
    (if ratio >= 1.8 then "distributed master relieves the bottleneck"
     else "BELOW the 1.8x bar");
  let doc =
    Json.obj
      [
        ("experiment", Json.string "shard");
        ("nodes", Json.int base.Shard.size);
        ("producers", Json.int (List.length base.Shard.producers));
        ("duration", Json.float duration);
        ("per_master_capacity", Json.float cap);
        ("offered_rate", Json.float base.Shard.rate);
        ("scaling_1_to_4", Json.float ratio);
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
        ("rows", Json.list (List.map snd rows));
      ]
  in
  let oc = open_out "BENCH_SHARD.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_SHARD.json (%d shard counts)\n%!" (List.length rows)

(* --- Ckpt: checkpoint overhead + recovery time vs snapshot depth ---------- *)

let ckpt () =
  header "Ckpt: checkpoint overhead vs plain fences, recovery time vs checkpoint depth";
  let pr_violations label r =
    List.iter (fun v -> Printf.printf "    %s violation: %s\n%!" label v) r.Ckpt.r_violations
  in
  (* Curve 1: fault-free runs, manifests on vs off. The manifest put +
     commit after each checkpoint fence is the whole overhead of making
     the fence a durable recovery point. *)
  let epochs = if fast then 4 else 8 in
  let base = { Ckpt.default with Ckpt.kill = None; epochs } in
  let plain = Ckpt.run { base with Ckpt.manifests = false } in
  let durable = Ckpt.run { base with Ckpt.manifests = true } in
  pr_violations "plain" plain;
  pr_violations "durable" durable;
  let overhead_pct =
    if plain.Ckpt.r_ckpt_mean > 0.0 then
      100.0 *. ((durable.Ckpt.r_ckpt_mean /. plain.Ckpt.r_ckpt_mean) -. 1.0)
    else 0.0
  in
  Printf.printf "%-10s %14s %14s\n" "fences" "mean(s)" "p50(s)";
  Printf.printf "%-10s %14.6f %14.6f\n" "plain" plain.Ckpt.r_ckpt_mean plain.Ckpt.r_ckpt_p50;
  Printf.printf "%-10s %14.6f %14.6f\n%!" "durable" durable.Ckpt.r_ckpt_mean
    durable.Ckpt.r_ckpt_p50;
  Printf.printf "  checkpoint overhead over a plain fence: %+.1f%%\n%!" overhead_pct;
  (* Curve 2: kill a worker right after epoch [epochs-1] commits its
     manifest and measure first-kill-to-completion as checkpoint depth
     grows. Because a recovery point is just a root hash, resuming from
     a deep manifest costs the same as a shallow one — recovery time
     should stay flat while the snapshot grows. The seed is chosen so
     the window assassin's target epoch is [epochs - 1]. *)
  let depths = if fast then [ 2; 4 ] else [ 2; 4; 8 ] in
  Printf.printf "%-8s %12s %10s %12s %10s %10s\n" "epochs" "recovery(s)" "attempts"
    "resume_from" "snap_objs" "snap_bytes";
  let rows =
    List.map
      (fun epochs ->
        let r =
          Ckpt.run
            { Ckpt.default with
              Ckpt.kill = Some Ckpt.Between_ckpt_and_fence;
              epochs;
              seed = (2 * epochs) - 3
            }
        in
        pr_violations (Printf.sprintf "depth-%d" epochs) r;
        let resume_from =
          match List.rev r.Ckpt.r_resume_epochs with e :: _ -> e | [] -> 0
        in
        Printf.printf "%-8d %12.3f %10d %12d %10d %10d\n%!" epochs r.Ckpt.r_recovery_time
          r.Ckpt.r_attempts resume_from r.Ckpt.r_snapshot_objects r.Ckpt.r_snapshot_bytes;
        Json.obj
          [
            ("epochs", Json.int epochs);
            ("recovery_time", Json.float r.Ckpt.r_recovery_time);
            ("attempts", Json.int r.Ckpt.r_attempts);
            ("requeues", Json.int r.Ckpt.r_requeues);
            ("resume_from", Json.int resume_from);
            ("acked_epoch", Json.int r.Ckpt.r_acked_epoch);
            ("snapshot_objects", Json.int r.Ckpt.r_snapshot_objects);
            ("snapshot_bytes", Json.int r.Ckpt.r_snapshot_bytes);
            ("violations", Json.int (List.length r.Ckpt.r_violations));
          ])
      depths
  in
  let doc =
    Json.obj
      [
        ("experiment", Json.string "ckpt");
        ("nodes", Json.int Ckpt.default.Ckpt.size);
        ("workers", Json.int (List.length Ckpt.default.Ckpt.workers));
        ("overhead_epochs", Json.int epochs);
        ("plain_fence_mean", Json.float plain.Ckpt.r_ckpt_mean);
        ("plain_fence_p50", Json.float plain.Ckpt.r_ckpt_p50);
        ("durable_ckpt_mean", Json.float durable.Ckpt.r_ckpt_mean);
        ("durable_ckpt_p50", Json.float durable.Ckpt.r_ckpt_p50);
        ("overhead_pct", Json.float overhead_pct);
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
        ("recovery_rows", Json.list rows);
      ]
  in
  let oc = open_out "BENCH_CKPT.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_CKPT.json (%d depths)\n%!" (List.length depths)

(* --- Sched: hierarchical vs centralized under a pilot-style task storm ---- *)

let sched () =
  header "Sched: hierarchical vs centralized scheduling of a pilot-style task storm";
  let nodes = if fast then 16 else 32 in
  let tasks = if fast then 400 else 1200 in
  let base =
    { Sched.default with
      Sched.nodes;
      tasks;
      fanout = 2;
      children = 2;
      mean_duration = 0.1;
      min_duration = 0.01;
      task_kind = Sched.Wexec_tasks;
      trace = true
    }
  in
  let level_row lv =
    Json.obj
      [
        ("level", Json.int lv.Sched.lv_depth);
        ("jobs", Json.int lv.Sched.lv_jobs);
        ("submit_match_mean", Json.float lv.Sched.lv_submit_match_mean);
        ("submit_match_p95", Json.float lv.Sched.lv_submit_match_p95);
      ]
  in
  let report_row ~label (r : Sched.report) =
    List.iter (fun v -> Printf.printf "    %s violation: %s\n%!" label v) r.Sched.r_violations;
    Json.obj
      [
        ("config", Json.string label);
        ("depth", Json.int r.Sched.r_depth);
        ("children", Json.int r.Sched.r_children);
        ("leaves", Json.int r.Sched.r_leaves);
        ("tasks", Json.int r.Sched.r_tasks);
        ("acked", Json.int r.Sched.r_acked);
        ("jobs_per_s", Json.float r.Sched.r_jobs_per_s);
        ("makespan", Json.float r.Sched.r_makespan);
        ("mean_wait", Json.float r.Sched.r_mean_wait);
        ("sched_cycles", Json.int r.Sched.r_sched_cycles);
        ("hop_match_start_mean", Json.float r.Sched.r_hop_match_start_mean);
        ("hop_start_complete_mean", Json.float r.Sched.r_hop_start_complete_mean);
        ("levels", Json.list (List.map level_row r.Sched.r_levels));
        ("requeues", Json.int r.Sched.r_requeues);
        ("kills", Json.int r.Sched.r_kills);
        ("violations", Json.int (List.length r.Sched.r_violations));
      ]
  in
  (* Curve 1: throughput vs hierarchy depth at fixed fanout 2 — the
     paper's log2(C)*T(G) argument. Depth 0 is one flat Flux instance;
     the centralized baseline is the traditional monolithic scheduler
     with the same decision-cost model. *)
  Printf.printf "%-14s %8s %10s %12s %10s %12s\n" "config" "acked" "jobs/s" "makespan(s)"
    "cycles" "mean_wait(s)";
  let central = Sched.run_central base in
  Printf.printf "%-14s %8d %10.1f %12.3f %10d %12.4f\n%!" "central" central.Sched.c_completed
    central.Sched.c_jobs_per_s central.Sched.c_makespan central.Sched.c_sched_cycles
    central.Sched.c_mean_wait;
  let depth_rows =
    List.map
      (fun depth ->
        let r = Sched.run { base with Sched.depth } in
        let label = Printf.sprintf "depth-%d" depth in
        Printf.printf "%-14s %8d %10.1f %12.3f %10d %12.4f\n%!" label r.Sched.r_acked
          r.Sched.r_jobs_per_s r.Sched.r_makespan r.Sched.r_sched_cycles r.Sched.r_mean_wait;
        List.iter
          (fun lv ->
            Printf.printf "    level %d: %6d jobs  submit->match mean %.5fs  p95 %.5fs\n%!"
              lv.Sched.lv_depth lv.Sched.lv_jobs lv.Sched.lv_submit_match_mean
              lv.Sched.lv_submit_match_p95)
          r.Sched.r_levels;
        (depth, r, report_row ~label r))
      [ 0; 1; 2; 3 ]
  in
  (* Curve 2: throughput vs hierarchy fanout at depth 1 — wider trees
     shrink T(G) per level but shorten the tree; the sweet spot moves
     with the task grain, which is the tunability argument. *)
  let fanout_rows =
    List.filter_map
      (fun children ->
        if nodes / children < 1 then None
        else begin
          let r = Sched.run { base with Sched.depth = 1; children } in
          let label = Printf.sprintf "fanout-%d" children in
          Printf.printf "%-14s %8d %10.1f %12.3f %10d %12.4f\n%!" label r.Sched.r_acked
            r.Sched.r_jobs_per_s r.Sched.r_makespan r.Sched.r_sched_cycles
            r.Sched.r_mean_wait;
          Some (report_row ~label r)
        end)
      [ 2; 4; 8 ]
  in
  (* Curve 3: the chaos row — kill a worker rank of leaf 0 mid-batch and
     let the surviving siblings drain the backlog via requeues. The
     invariant set (no lost task, no double ack, no exec-after-ack) must
     hold with zero violations. *)
  let chaos_cfg =
    { base with
      Sched.depth = 2;
      children = 2;
      kill_leaf = true;
      tasks = (if fast then 200 else 600)
    }
  in
  let chaos_r = Sched.run chaos_cfg in
  Printf.printf "%-14s %8d %10.1f %12.3f %10d %12.4f  (kills %d, requeues %d)\n%!"
    "chaos-leaf" chaos_r.Sched.r_acked chaos_r.Sched.r_jobs_per_s chaos_r.Sched.r_makespan
    chaos_r.Sched.r_sched_cycles chaos_r.Sched.r_mean_wait chaos_r.Sched.r_kills
    chaos_r.Sched.r_requeues;
  let chaos_row = report_row ~label:"chaos-leaf" chaos_r in
  (* Headline: the hierarchy must beat the monolithic controller once
     it is at least two levels deep. *)
  let speedup_at d =
    List.filter_map
      (fun (depth, r, _) ->
        if depth = d && central.Sched.c_jobs_per_s > 0.0 then
          Some (r.Sched.r_jobs_per_s /. central.Sched.c_jobs_per_s)
        else None)
      depth_rows
  in
  (match speedup_at 2 with
  | [ s ] ->
    Printf.printf "  hierarchical depth-2 vs central: %.2fx jobs/s (%s)\n%!" s
      (if s > 1.0 then "hierarchy wins" else "UNEXPECTED: central wins")
  | _ -> ());
  let doc =
    Json.obj
      [
        ("experiment", Json.string "sched");
        ("nodes", Json.int nodes);
        ("tasks", Json.int tasks);
        ("mean_duration", Json.float base.Sched.mean_duration);
        ("policy", Json.string base.Sched.policy);
        ( "central",
          Json.obj
            [
              ("completed", Json.int central.Sched.c_completed);
              ("jobs_per_s", Json.float central.Sched.c_jobs_per_s);
              ("makespan", Json.float central.Sched.c_makespan);
              ("mean_wait", Json.float central.Sched.c_mean_wait);
              ("sched_cycles", Json.int central.Sched.c_sched_cycles);
            ] );
        ("depth_rows", Json.list (List.map (fun (_, _, j) -> j) depth_rows));
        ("fanout_rows", Json.list fanout_rows);
        ("chaos", chaos_row);
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
      ]
  in
  let oc = open_out "BENCH_SCHED.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_SCHED.json (%d depth rows, %d fanout rows)\n%!"
    (List.length depth_rows) (List.length fanout_rows)

(* --- Observe: traced fence critical path + metrics registry export -------- *)

let observe () =
  header "Observe: traced put-fence critical path (Fig. 4 decomposition) and metrics";
  let nodes = if fast then 16 else 64 in
  let cfg = { (Kap.fully_populated ~nodes) with Kap.value_size = 512; trace = true } in
  let r = Kap.run cfg in
  let tr = match r.Kap.r_trace with Some tr -> tr | None -> failwith "observe: no tracer" in
  let m = match r.Kap.r_metrics with Some m -> m | None -> failwith "observe: no metrics" in
  match Export.fence_critical_path tr ~name:"kap-sync" with
  | Error e -> failwith ("observe: " ^ e)
  | Ok fb ->
    Format.printf "%a@." Export.pp_fence_breakdown fb;
    Printf.printf "  measured sync phase max %.6f s (mean %.6f s)\n" r.Kap.r_sync.Kap.ph_max
      r.Kap.r_sync.Kap.ph_mean;
    let doc =
      Json.obj
        [
          ("experiment", Json.string "observe");
          ("nodes", Json.int nodes);
          ("procs", Json.int (nodes * cfg.Kap.procs_per_node));
          ("fence", Json.string "kap-sync");
          ("ascent_s", Json.float fb.Export.fb_ascent);
          ("commit_s", Json.float fb.Export.fb_commit);
          ("broadcast_s", Json.float fb.Export.fb_broadcast);
          ("total_s", Json.float fb.Export.fb_total);
          ("sync_max_s", Json.float r.Kap.r_sync.Kap.ph_max);
          ("trace_events", Json.int (List.length (Flux_trace.Tracer.events tr)));
          ("trace_dropped", Json.int (Flux_trace.Tracer.dropped tr));
          ("metrics", Flux_trace.Metrics.to_json m);
        ]
    in
    let oc = open_out "BENCH_TRACE.json" in
    output_string oc (Json.to_string doc);
    output_char oc '\n';
    close_out oc;
    let oc = open_out "METRICS.csv" in
    output_string oc (Flux_trace.Metrics.to_csv m);
    close_out oc;
    Printf.printf "  wrote BENCH_TRACE.json and METRICS.csv (%d nodes x %d procs)\n%!" nodes
      cfg.Kap.procs_per_node

(* --- Telem: telemetry-plane overhead and rollup footprint ----------------- *)

(* Two questions the telemetry plane must answer before it is allowed
   on by default anywhere: (a) what does running it in-band cost — the
   overload soak with [telem] off twice (proving the fingerprint is
   untouched when disabled) and once with it on, comparing wall-clock
   events/s; (b) how much TBON traffic do rollups generate per epoch as
   the interval shrinks — a fault-free Telem harness sweep. Rows land
   in BENCH_TELEM.json. *)

let telem () =
  header "Telem: in-band rollup overhead (off vs on) and bytes/epoch vs interval";
  let size = if fast then 48 else 256 in
  let nproducers = if fast then 6 else 12 in
  let producers = List.init nproducers (fun i -> size - nproducers + i) in
  let duration = if fast then 0.25 else 0.4 in
  let base = { Overload.default with Overload.size; producers; duration } in
  let cap = Overload.master_capacity base in
  let base = { base with Overload.rate = cap } in
  let timed cfg =
    Gc.compact ();
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let r = Overload.run cfg in
    let wall = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    let alloc = s1.Gc.minor_words +. s1.Gc.major_words -. s1.Gc.promoted_words
                -. (s0.Gc.minor_words +. s0.Gc.major_words -. s0.Gc.promoted_words) in
    (wall, alloc, r)
  in
  Printf.printf "(%d nodes, %d producers, %.2fs soak at 1x capacity)\n%!" size nproducers
    duration;
  Printf.printf "%-12s %10s %12s %12s %10s %8s %8s %8s\n" "run" "wall(s)" "sim-events"
    "events/s" "alloc(Mw)" "epochs" "alerts" "dumps";
  (* Discard a warm-up run so the first timed row doesn't pay code and
     allocator warm-up that the later rows don't. *)
  ignore (Overload.run { base with Overload.telem = false });
  let w_off1, a_off1, off1 = timed { base with Overload.telem = false } in
  let w_off2, a_off2, off2 = timed { base with Overload.telem = false } in
  (* Two cadences: coarse (2 rollup epochs over the window — the
     realistic regime, where a soak window is a fraction of one
     telemetry epoch) and aggressive (10 epochs — oversampling, to make
     the plane's marginal cost visible). *)
  let w_on, a_on, on =
    timed
      { base with Overload.telem = true; telem_interval = base.Overload.duration /. 2.0 }
  in
  let w_fast, a_fast, on_fast =
    timed
      { base with Overload.telem = true; telem_interval = base.Overload.duration /. 10.0 }
  in
  let rate_of wall (r : Overload.report) = float_of_int r.Overload.sim_events /. wall in
  let soak_row name wall alloc (r : Overload.report) =
    Printf.printf "%-12s %10.2f %12d %12.0f %10.1f %8d %8d %8d\n%!" name wall
      r.Overload.sim_events (rate_of wall r) (alloc /. 1e6) r.Overload.telem_epochs
      r.Overload.telem_alerts r.Overload.telem_dumps;
    Json.obj
      [
        ("run", Json.string name);
        ("wall_s", Json.float wall);
        ("sim_events", Json.int r.Overload.sim_events);
        ("events_per_s", Json.float (rate_of wall r));
        ("alloc_words", Json.float alloc);
        ("acked", Json.int r.Overload.acked);
        ("telem_epochs", Json.int r.Overload.telem_epochs);
        ("telem_alerts", Json.int r.Overload.telem_alerts);
        ("telem_dumps", Json.int r.Overload.telem_dumps);
        ("violations", Json.int (List.length r.Overload.violations));
      ]
  in
  let row1 = soak_row "telem-off/1" w_off1 a_off1 off1 in
  let row2 = soak_row "telem-off/2" w_off2 a_off2 off2 in
  let row3 = soak_row "telem-on" w_on a_on on in
  let row4 = soak_row "telem-on/10x" w_fast a_fast on_fast in
  let soak_rows = [ row1; row2; row3; row4 ] in
  let fingerprint_stable = off1.Overload.sim_events = off2.Overload.sim_events in
  (* Wall-clock is noisy; take the faster of the two off runs as the
     baseline so measured overhead is conservative (an upper bound),
     and record the off-run spread as the noise floor the overhead
     should be judged against. *)
  let off_rate = Float.max (rate_of w_off1 off1) (rate_of w_off2 off2) in
  let off_spread_pct =
    100.0
    *. ((off_rate /. Float.min (rate_of w_off1 off1) (rate_of w_off2 off2)) -. 1.0)
  in
  let overhead_of wall r =
    let rate = rate_of wall r in
    if rate > 0.0 then 100.0 *. ((off_rate /. rate) -. 1.0) else 0.0
  in
  let overhead_pct = overhead_of w_on on in
  let overhead_fast_pct = overhead_of w_fast on_fast in
  Printf.printf
    "  telem-off fingerprint %s (%d = %d); off-run spread %.1f%%\n\
    \  telem-on overhead %+.1f%% events/s (%d epochs); %+.1f%% oversampled (%d epochs)\n\
     %!"
    (if fingerprint_stable then "IDENTICAL" else "DIVERGED")
    off1.Overload.sim_events off2.Overload.sim_events off_spread_pct overhead_pct
    on.Overload.telem_epochs overhead_fast_pct on_fast.Overload.telem_epochs;
  Printf.printf "%-10s %8s %12s %12s %8s %8s %6s\n" "interval" "epochs" "bytes" "bytes/ep"
    "alerts" "late" "viol";
  let intervals = if fast then [ 0.025; 0.05; 0.1 ] else [ 0.0125; 0.025; 0.05; 0.1 ] in
  let sweep_rows =
    List.map
      (fun interval ->
        let cfg =
          {
            KTelem.default with
            KTelem.straggler = None;
            interval;
            epochs = (if fast then 10 else 20);
            size = (if fast then 16 else 32);
          }
        in
        let r = KTelem.run cfg in
        let per_epoch =
          if r.KTelem.t_epochs > 0 then
            float_of_int r.KTelem.t_rollup_bytes /. float_of_int r.KTelem.t_epochs
          else 0.0
        in
        Printf.printf "%-10.4f %8d %12d %12.0f %8d %8d %6d\n%!" interval r.KTelem.t_epochs
          r.KTelem.t_rollup_bytes per_epoch
          (List.length r.KTelem.t_alerts)
          r.KTelem.t_late_drops
          (List.length r.KTelem.t_violations);
        List.iter
          (fun v -> Printf.printf "    violation: %s\n%!" v)
          r.KTelem.t_violations;
        Json.obj
          [
            ("interval", Json.float interval);
            ("epochs", Json.int r.KTelem.t_epochs);
            ("rollup_bytes", Json.int r.KTelem.t_rollup_bytes);
            ("bytes_per_epoch", Json.float per_epoch);
            ("alerts", Json.int (List.length r.KTelem.t_alerts));
            ("late_drops", Json.int r.KTelem.t_late_drops);
            ("sim_events", Json.int r.KTelem.t_events);
            ("violations", Json.int (List.length r.KTelem.t_violations));
          ])
      intervals
  in
  let doc =
    Json.obj
      [
        ("experiment", Json.string "telem");
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
        ("soak_nodes", Json.int size);
        ("soak_duration", Json.float duration);
        ("fingerprint_stable", Json.bool fingerprint_stable);
        ("off_spread_pct", Json.float off_spread_pct);
        ("telem_overhead_pct", Json.float overhead_pct);
        ("telem_overhead_oversampled_pct", Json.float overhead_fast_pct);
        ("soak", Json.list soak_rows);
        ("interval_sweep", Json.list sweep_rows);
      ]
  in
  let oc = open_out "BENCH_TELEM.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_TELEM.json (%d soak runs, %d sweep points)\n%!"
    (List.length soak_rows) (List.length sweep_rows)

(* --- Elasticity: three-regime bursty soak --------------------------------- *)

(* One seeded bursty task stream against a small child instance under
   the three protection regimes: unprotected (the queue grows without
   bound and scheduler-cycle cost collapses goodput), protected (PR 5's
   static shed bounds the queue; goodput plateaus at the child's fixed
   capacity), and elastic (the closed-loop controller buys nodes from
   the root's headroom while the burst lasts and returns them after).
   The headline number is the recovery ratio — elastic goodput over
   protected goodput at the same (over-capacity) offered load — plus
   the safety counters: zero acked-write loss across every rescale and
   a same-seed fingerprint match over a double run. Rows land in
   BENCH_ELASTIC.json. *)

let elastic () =
  header "Elastic: unprotected collapse vs static shed vs closed-loop autoscale";
  let base =
    if fast then { KElastic.default with KElastic.duration = 3.0; drain = 1.5 }
    else KElastic.default
  in
  let row mode =
    let r = KElastic.run { base with KElastic.mode } in
    Printf.printf
      "  %-12s goodput %6.1f/s  acked %4d/%-4d shed %4d  queue^ %4d  nodes %2d^%-2d  \
       grows %d shrinks %d denied %d  viol %d\n\
       %!"
      (KElastic.mode_to_string r.KElastic.e_mode)
      r.KElastic.e_goodput r.KElastic.e_acked r.KElastic.e_offered r.KElastic.e_shed
      r.KElastic.e_queue_peak r.KElastic.e_nodes_final r.KElastic.e_nodes_peak
      r.KElastic.e_grows r.KElastic.e_shrinks r.KElastic.e_denied
      (List.length r.KElastic.e_violations);
    List.iter (fun v -> Printf.printf "      violation: %s\n%!" v) r.KElastic.e_violations;
    r
  in
  Printf.printf "(%d ranks, child of %d, %.1fs arrivals + %.1fs drain, cap %d)\n%!"
    base.KElastic.size base.KElastic.child_nodes base.KElastic.duration
    base.KElastic.drain base.KElastic.queue_cap;
  let unprot = row KElastic.Unprotected in
  let prot = row KElastic.Protected in
  let elas = row KElastic.Elastic in
  let recovery =
    if prot.KElastic.e_goodput > 0.0 then elas.KElastic.e_goodput /. prot.KElastic.e_goodput
    else 0.0
  in
  let elas2 = KElastic.run { base with KElastic.mode = KElastic.Elastic } in
  let deterministic = String.equal elas.KElastic.e_fingerprint elas2.KElastic.e_fingerprint in
  Printf.printf "  recovery ratio (elastic/protected): %.2fx\n%!" recovery;
  Printf.printf "  same-seed double run: %s\n%!"
    (if deterministic then "fingerprints match" else "FINGERPRINT MISMATCH");
  let regime_json (r : KElastic.report) =
    Json.obj
      [
        ("mode", Json.string (KElastic.mode_to_string r.KElastic.e_mode));
        ("offered", Json.int r.KElastic.e_offered);
        ("submitted", Json.int r.KElastic.e_submitted);
        ("shed", Json.int r.KElastic.e_shed);
        ("acked", Json.int r.KElastic.e_acked);
        ("failed", Json.int r.KElastic.e_failed);
        ("cancelled", Json.int r.KElastic.e_cancelled);
        ("goodput_per_s", Json.float r.KElastic.e_goodput);
        ("queue_peak", Json.int r.KElastic.e_queue_peak);
        ("nodes_final", Json.int r.KElastic.e_nodes_final);
        ("nodes_peak", Json.int r.KElastic.e_nodes_peak);
        ("grows", Json.int r.KElastic.e_grows);
        ("shrinks", Json.int r.KElastic.e_shrinks);
        ("denied", Json.int r.KElastic.e_denied);
        ("drains", Json.int r.KElastic.e_drains);
        ("decisions", Json.int r.KElastic.e_decisions);
        ("telem_epochs", Json.int r.KElastic.e_telem_epochs);
        ("alerts", Json.int r.KElastic.e_alerts);
        ("write_loss", Json.int r.KElastic.e_write_loss);
        ( "node_trajectory",
          Json.list
            (List.map
               (fun (t, n) -> Json.obj [ ("t", Json.float t); ("nodes", Json.int n) ])
               r.KElastic.e_trajectory) );
        ("fingerprint", Json.string r.KElastic.e_fingerprint);
        ("violations", Json.strings r.KElastic.e_violations);
        ("sim_events", Json.int r.KElastic.e_events);
      ]
  in
  let doc =
    Json.obj
      [
        ("bench", Json.string "elastic");
        ("fast", Json.int (if fast then 1 else 0));
        ("regimes", Json.list (List.map regime_json [ unprot; prot; elas ]));
        ("recovery_ratio", Json.float recovery);
        ("deterministic", Json.int (if deterministic then 1 else 0));
      ]
  in
  let oc = open_out "BENCH_ELASTIC.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_ELASTIC.json (3 regimes, recovery %.2fx)\n%!" recovery

(* --- Perf tier: paper-scale workloads with a machine-readable baseline ---- *)

(* Runs fig2/fig4-shaped KAP workloads at the paper's largest published
   tier (512 nodes x 16 cores; Section V) and records, per scenario:
   real wall-clock seconds, simulated events per real second (the
   engine-throughput figure the tentpole optimizations target), total
   allocation (minor+major words from [Gc.quick_stat]), and the
   simulated clock + event count (the determinism fingerprint every
   future PR must preserve). The rows land in BENCH_PERF.json so the
   perf trajectory survives across PRs. *)

let perf () =
  header "Perf: paper-scale tier (wall s, simulated events/s, allocation words)";
  let nodes = if fast then 64 else 512 in
  let scenarios =
    [
      ( "fig2-put-fence",
        fun () ->
          Kap.run { (Kap.fully_populated ~nodes) with Kap.value_size = 512 } );
      ( "fig2-redundant",
        fun () ->
          Kap.run
            {
              (Kap.fully_populated ~nodes) with
              Kap.value_size = 512;
              value_kind = Kap.Redundant;
            } );
      ( "fig4-multi-dir-get",
        fun () ->
          Kap.run
            {
              (Kap.fully_populated ~nodes) with
              Kap.ngets = 4;
              dir_layout = Kap.Multi_dir 128;
              access_stride = 7;
            } );
    ]
  in
  Printf.printf "(%d nodes x 16 procs per scenario)\n" nodes;
  Printf.printf "%-20s %10s %14s %14s %16s %12s\n" "scenario" "wall(s)" "sim-events"
    "events/s" "alloc(Mwords)" "sim-clock";
  let rows =
    List.map
      (fun (name, f) ->
        (* Collect the previous scenario's garbage (dead sessions, caches,
           memo tables) so each row measures its own workload, not its
           predecessor's heap. *)
        Gc.compact ();
        let s0 = Gc.quick_stat () in
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let wall = Unix.gettimeofday () -. t0 in
        let s1 = Gc.quick_stat () in
        let alloc_words =
          s1.Gc.minor_words +. s1.Gc.major_words -. s1.Gc.promoted_words
          -. (s0.Gc.minor_words +. s0.Gc.major_words -. s0.Gc.promoted_words)
        in
        let events_per_s = float_of_int r.Kap.r_events /. wall in
        Printf.printf "%-20s %10.2f %14d %14.0f %16.1f %12.6f\n%!" name wall
          r.Kap.r_events events_per_s (alloc_words /. 1e6) r.Kap.r_wallclock;
        Json.obj
          [
            ("scenario", Json.string name);
            ("nodes", Json.int nodes);
            ("procs", Json.int (nodes * 16));
            ("wall_s", Json.float wall);
            ("sim_events", Json.int r.Kap.r_events);
            ("sim_events_per_s", Json.float events_per_s);
            ("alloc_words", Json.float alloc_words);
            ("sim_clock", Json.float r.Kap.r_wallclock);
            ("rpc_messages", Json.int r.Kap.r_rpc_messages);
            ("put_max_s", Json.float r.Kap.r_producer.Kap.ph_max);
            ("fence_max_s", Json.float r.Kap.r_sync.Kap.ph_max);
            ("get_max_s", Json.float r.Kap.r_consumer.Kap.ph_max);
          ])
      scenarios
  in
  let doc =
    Json.obj
      [
        ("tier", Json.string (if fast then "fast" else "paper-scale"));
        ("scenarios", Json.list rows);
      ]
  in
  let oc = open_out "BENCH_PERF.json" in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote BENCH_PERF.json (%d scenarios, %s tier)\n%!" (List.length rows)
    (if fast then "fast" else "paper-scale")

(* --- Scale: simulator cost against process and task count --------------- *)

(* Two curves. The fig2 put-fence shape (every proc puts one unique
   512 B value into one directory, one fence, one get) at growing node
   counts x 16 procs; and the sched-storm shape (a depth-2, fanout-2
   instance tree over 64 nodes fed a seeded pilot stream of sleep tasks
   at t=0, no launch stack) at growing task counts. Each point runs in
   a fresh process of this executable: the peak heap
   ([Gc.top_heap_words]) and the weak memo tables are process-wide, so a
   second point in the same process would inherit the first one's. The
   least-squares slope of log cost against log size is 1 when the
   simulator's cost is linear in it and 2 when it is quadratic. *)

(* Print one point's line for the parent, then exit: the parent reads
   one line and closes the pipe. *)
let report_point size ~wall ~events ~clock ~rpcs =
  let heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  Printf.printf "%d %.6f %d %d %.9f %d\n%!" size wall heap events clock rpcs;
  exit 0

let scale_point nodes =
  let t0 = Unix.gettimeofday () in
  let r = Kap.run { (Kap.fully_populated ~nodes) with Kap.value_size = 512 } in
  report_point nodes ~wall:(Unix.gettimeofday () -. t0) ~events:r.Kap.r_events
    ~clock:r.Kap.r_wallclock ~rpcs:r.Kap.r_rpc_messages

let task_point tasks =
  let t0 = Unix.gettimeofday () in
  let eng = Engine.create () in
  let sess = Session.create eng ~fanout:2 ~size:64 () in
  let root = Instance.create_root sess ~name:"scale" () in
  Instance.submit_plan root
    (Workload.nest ~depth:2 ~children:2 ~policy:"fcfs" ~nnodes:64
       (Workload.pilot_tasks (Rng.create 1) ~n:tasks ()));
  Engine.run eng;
  let wall = Unix.gettimeofday () -. t0 in
  (* Every task plus the six child-instance jobs of the tree. *)
  let completed = (Instance.stats_recursive root).Instance.st_completed in
  if completed <> tasks + 6 then
    failwith (Printf.sprintf "scale: %d of %d tasks completed" (completed - 6) tasks);
  report_point tasks ~wall ~events:(Engine.events_executed eng) ~clock:(Engine.now eng)
    ~rpcs:(Session.rpc_net_stats sess).Net.messages

(* Run one point in a fresh process with [var]=[size] set. *)
let fresh_point var size =
  let cmd = Printf.sprintf "%s=%d %s scale" var size (Filename.quote Sys.executable_name) in
  let ic = Unix.open_process_in cmd in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some line ->
    Scanf.sscanf line "%d %f %d %d %f %d" (fun size wall heap events clock rpcs ->
        (size, wall, heap, events, clock, rpcs))
  | _ -> failwith (Printf.sprintf "scale: point %s=%d failed" var size)

let loglog_slope points =
  let n = float_of_int (List.length points) in
  let logs = List.map (fun (x, y) -> (log x, log y)) points in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. logs
  and sy = List.fold_left (fun a (_, y) -> a +. y) 0. logs in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. logs
  and sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. logs in
  ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx))

let print_slopes what rows =
  Printf.printf "log-log slope vs %s: wall %.2f, peak heap %.2f\n" what
    (loglog_slope (List.map (fun (p, w, _) -> (p, w)) rows))
    (loglog_slope (List.map (fun (p, _, h) -> (p, h)) rows))

let scale () =
  match (Sys.getenv_opt "SCALE_NODES", Sys.getenv_opt "SCALE_TASKS") with
  | Some n, _ -> scale_point (int_of_string n)
  | None, Some n -> task_point (int_of_string n)
  | None, None ->
    header "Scale: fig2 put-fence simulator cost vs processes (fresh process per point)";
    let sizes = if fast then [ 16; 32; 64 ] else [ 64; 128; 256; 512; 1024 ] in
    Printf.printf "%6s %7s %9s %14s %12s %11s %12s %9s\n" "nodes" "procs" "wall(s)"
      "peak-heap(MB)" "B/process" "sim-events" "sim-clock" "rpc-msgs";
    let rows =
      List.map
        (fun nodes ->
          let nodes, wall, heap, events, clock, rpcs = fresh_point "SCALE_NODES" nodes in
          let procs = nodes * 16 in
          Printf.printf "%6d %7d %9.3f %14.2f %12d %11d %12.6f %9d\n%!" nodes procs wall
            (float_of_int heap /. 1e6) (heap / procs) events clock rpcs;
          (float_of_int procs, wall, float_of_int heap))
        sizes
    in
    print_slopes "procs" rows;
    header "Scale: sched-storm simulator cost vs tasks (64 nodes, depth-2 tree)";
    let sizes =
      if fast then [ 5_000; 10_000; 20_000 ]
      else [ 5_000; 10_000; 20_000; 40_000; 80_000; 160_000; 320_000 ]
    in
    Printf.printf "%7s %9s %14s %9s %11s %14s %9s\n" "tasks" "wall(s)" "peak-heap(MB)"
      "B/task" "sim-events" "sim-clock" "rpc-msgs";
    let rows =
      List.map
        (fun tasks ->
          let tasks, wall, heap, events, clock, rpcs = fresh_point "SCALE_TASKS" tasks in
          Printf.printf "%7d %9.3f %14.2f %9d %11d %14.6f %9d\n%!" tasks wall
            (float_of_int heap /. 1e6) (heap / tasks) events clock rpcs;
          (float_of_int tasks, wall, float_of_int heap))
        sizes
    in
    print_slopes "tasks" rows

(* --- Driver -------------------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("sweep", sweep);
    ("model", model);
    ("ablate-sched", ablate_sched);
    ("ablate-fanout", ablate_fanout);
    ("ablate-shards", ablate_shards);
    ("faults", faults);
    ("chaos", chaos);
    ("micro", micro);
    ("overload", overload);
    ("shard", shard);
    ("ckpt", ckpt);
    ("sched", sched);
    ("observe", observe);
    ("telem", telem);
    ("elastic", elastic);
    ("perf", perf);
    ("scale", scale);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n" name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  Printf.printf "\nall requested experiments done in %.1fs (real time)\n"
    (Unix.gettimeofday () -. t0)

(* Tests for the Flux core: resource model, jobspecs, jobs, pools,
   policies, hierarchical instances, elasticity, power capping, PMI and
   the centralized baseline. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Rng = Flux_util.Rng
module Resource = Flux_core.Resource
module Jobspec = Flux_core.Jobspec
module Job = Flux_core.Job
module Pool = Flux_core.Pool
module Policy = Flux_core.Policy
module Instance = Flux_core.Instance
module Center = Flux_core.Center
module Workload = Flux_core.Workload
module Pmi = Flux_core.Pmi
module Central = Flux_baseline.Central
module Wexec = Flux_modules.Wexec
module Session = Flux_cmb.Session

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let flt = Alcotest.float 1e-9

(* --- Resource model ----------------------------------------------------- *)

let sample_center () =
  Resource.center ~name:"llnl"
    [
      Resource.cluster ~nnodes:64 ~power_watts:50_000.0 ~name:"zin" ();
      Resource.cluster ~nnodes:32 ~name:"cab" ();
      Resource.filesystem ~bandwidth_gbs:500.0 ~name:"lscratch" ();
    ]

let test_resource_counts () =
  let c = sample_center () in
  check int "nodes" 96 (Resource.count Resource.Node c);
  check int "clusters" 2 (Resource.count Resource.Cluster c);
  check int "cores" (96 * 16) (Resource.count Resource.Core c);
  check flt "power" 50_000.0 (Resource.total_quantity Resource.Power c);
  check flt "fs bandwidth" 500.0 (Resource.total_quantity Resource.Bandwidth c);
  check flt "memory" (96.0 *. 32.0) (Resource.total_quantity Resource.Memory c);
  check bool "depth >= 4" true (Resource.depth c >= 4)

let test_resource_find () =
  let c = sample_center () in
  (match Resource.find_by_name "zin12" c with
  | Some v -> check bool "found a node" true (v.Resource.rtype = Resource.Node)
  | None -> Alcotest.fail "zin12 missing");
  check int "nodes_of" 96 (List.length (Resource.nodes_of c))

let test_resource_unique_ids () =
  let c = sample_center () in
  let ids = List.map (fun v -> v.Resource.id) (Resource.find_all (fun _ -> true) c) in
  check int "ids unique" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_resource_json_roundtrip () =
  let c = sample_center () in
  let c' = Resource.of_json (Resource.to_json c) in
  check int "same node count" (Resource.count Resource.Node c)
    (Resource.count Resource.Node c');
  check flt "same power" 50_000.0 (Resource.total_quantity Resource.Power c')

(* --- Jobspec -------------------------------------------------------------- *)

let test_jobspec () =
  let s = Jobspec.make ~nnodes:4 ~power_per_node:100.0 () in
  check flt "power needed" 400.0 (Jobspec.power_needed s ~nnodes:4);
  check int "min rigid" 4 (Jobspec.min_nodes s);
  let m = Jobspec.make ~nnodes:4 ~elasticity:(Jobspec.Moldable (2, 8)) () in
  check int "min moldable" 2 (Jobspec.min_nodes m);
  check int "max moldable" 8 (Jobspec.max_nodes m);
  (match Jobspec.validate (Jobspec.make ~nnodes:0 ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected invalid");
  match Jobspec.validate (Jobspec.make ~nnodes:10 ~elasticity:(Jobspec.Moldable (2, 8)) ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nnodes outside bounds must fail"

(* --- Job state machine ------------------------------------------------------ *)

let test_job_transitions () =
  let j =
    Job.create ~jid:"t1" ~spec:(Jobspec.make ~nnodes:1 ()) ~payload:(Job.Sleep 1.0) ~now:0.0
  in
  Job.set_state j ~now:1.0 Job.Allocated;
  Job.set_state j ~now:2.0 Job.Running;
  Job.set_state j ~now:10.0 Job.Complete;
  check flt "wait" 2.0 (Job.wait_time j);
  check flt "turnaround" 10.0 (Job.turnaround j);
  check flt "runtime" 8.0 (Job.runtime j);
  let j2 =
    Job.create ~jid:"t2" ~spec:(Jobspec.make ~nnodes:1 ()) ~payload:(Job.Sleep 1.0) ~now:0.0
  in
  Alcotest.check_raises "illegal transition"
    (Invalid_argument "Job.set_state: illegal transition pending -> complete for t2")
    (fun () -> Job.set_state j2 ~now:1.0 Job.Complete)

(* --- Pool --------------------------------------------------------------------- *)

let test_pool_grant_release () =
  let p = Pool.create ~nodes:[ 0; 1; 2; 3 ] () in
  let spec = Jobspec.make ~nnodes:3 () in
  (match Pool.try_grant p ~spec ~nnodes:3 with
  | Some g ->
    check int "granted" 3 (List.length g.Pool.g_nodes);
    check int "free after" 1 (Pool.free_nodes p);
    (match Pool.try_grant p ~spec ~nnodes:2 with
    | Some _ -> Alcotest.fail "overallocation"
    | None -> ());
    Pool.release p g;
    check int "free restored" 4 (Pool.free_nodes p)
  | None -> Alcotest.fail "grant failed")

let test_pool_power_constraint () =
  let p = Pool.create ~nodes:[ 0; 1; 2; 3 ] ~power_budget:500.0 () in
  let spec = Jobspec.make ~nnodes:2 ~power_per_node:200.0 () in
  (match Pool.try_grant p ~spec ~nnodes:2 with
  | Some _ -> check flt "power used" 400.0 (Pool.power_in_use p)
  | None -> Alcotest.fail "should fit");
  (* 2 nodes free but only 100 W headroom. *)
  match Pool.try_grant p ~spec ~nnodes:2 with
  | Some _ -> Alcotest.fail "power overcommitted"
  | None -> ()

let test_pool_bandwidth_constraint () =
  let p = Pool.create ~nodes:[ 0; 1; 2; 3 ] ~fs_bandwidth:10.0 () in
  let spec = Jobspec.make ~nnodes:1 ~fs_bandwidth:6.0 () in
  (match Pool.try_grant p ~spec ~nnodes:1 with
  | Some _ -> ()
  | None -> Alcotest.fail "first io job fits");
  match Pool.try_grant p ~spec ~nnodes:1 with
  | Some _ -> Alcotest.fail "bandwidth overcommitted"
  | None -> ()

let test_pool_double_release () =
  let p = Pool.create ~nodes:[ 0; 1 ] () in
  match Pool.try_grant p ~spec:(Jobspec.make ~nnodes:1 ()) ~nnodes:1 with
  | Some g ->
    Pool.release p g;
    Alcotest.check_raises "double release"
      (Invalid_argument "Pool.release: node 0 not outstanding") (fun () -> Pool.release p g)
  | None -> Alcotest.fail "grant failed"

let test_pool_donate_absorb () =
  let p = Pool.create ~nodes:[ 0; 1; 2; 3 ] () in
  let got = Pool.donate_nodes p 2 in
  check int "donated" 2 (List.length got);
  check int "membership shrank" 2 (Pool.total_nodes p);
  Pool.absorb_nodes p got;
  check int "membership restored" 4 (Pool.total_nodes p);
  check int "free restored" 4 (Pool.free_nodes p)

(* --- Policies -------------------------------------------------------------------- *)

let mk_job jid nnodes est =
  Job.create ~jid ~spec:(Jobspec.make ~nnodes ~walltime_est:est ())
    ~payload:(Job.Sleep est) ~now:0.0

let test_fcfs_strict () =
  let pool = Pool.create ~nodes:[ 0; 1; 2; 3 ] () in
  let q = [ mk_job "a" 2 10.0; mk_job "b" 8 10.0; mk_job "c" 1 10.0 ] in
  let starts = Policy.Fcfs.schedule ~now:0.0 ~pool ~queue:q ~running:[] in
  (* "a" fits; "b" blocks; "c" must NOT overtake. *)
  check (Alcotest.list Alcotest.string) "only head run"
    [ "a" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

let test_easy_backfill_jumps () =
  let pool = Pool.create ~nodes:[ 0; 1; 2; 3 ] () in
  (* Running job holds 2 nodes until t=100 (estimate). Head job wants
     4 nodes -> shadow at t=100. A 30s 2-node job can backfill; a 200s
     2-node job would delay the head and must not start. *)
  let running_job = mk_job "r" 2 100.0 in
  Job.set_state running_job ~now:0.0 Job.Allocated;
  Job.set_state running_job ~now:0.0 Job.Running;
  let grant =
    match Pool.try_grant pool ~spec:running_job.Job.spec ~nnodes:2 with
    | Some g -> g
    | None -> Alcotest.fail "setup grant"
  in
  let head = mk_job "head" 4 50.0 in
  let short = mk_job "short" 2 30.0 in
  let long = mk_job "long" 2 200.0 in
  let starts =
    Policy.Easy_backfill.schedule ~now:0.0 ~pool ~queue:[ head; long; short ]
      ~running:[ (running_job, grant) ]
  in
  check (Alcotest.list Alcotest.string) "short backfills, long does not"
    [ "short" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

let test_moldable_shrinks () =
  let pool = Pool.create ~nodes:[ 0; 1; 2 ] () in
  let j =
    Job.create ~jid:"m"
      ~spec:(Jobspec.make ~nnodes:8 ~elasticity:(Jobspec.Moldable (2, 8)) ())
      ~payload:(Job.Sleep 10.0) ~now:0.0
  in
  let starts = Policy.Fcfs_moldable.schedule ~now:0.0 ~pool ~queue:[ j ] ~running:[] in
  match starts with
  | [ s ] -> check int "shrunk to fit" 3 s.Policy.s_nnodes
  | _ -> Alcotest.fail "expected one start"

let test_easy_backfill_spare_nodes () =
  (* Beyond the reservation, spare capacity at shadow time may run jobs
     that outlive the shadow. 8 nodes; 4 running till t=100; head wants
     6 -> shadow at 100 with 8-6=2 spare; a 2-node 500s job may start. *)
  let pool = Pool.create ~nodes:(List.init 8 Fun.id) () in
  let running_job = mk_job "r" 4 100.0 in
  Job.set_state running_job ~now:0.0 Job.Allocated;
  Job.set_state running_job ~now:0.0 Job.Running;
  let grant =
    match Pool.try_grant pool ~spec:running_job.Job.spec ~nnodes:4 with
    | Some g -> g
    | None -> Alcotest.fail "setup grant"
  in
  let head = mk_job "head" 6 50.0 in
  let long_small = mk_job "long-small" 2 500.0 in
  let long_big = mk_job "long-big" 4 500.0 in
  let starts =
    Policy.Easy_backfill.schedule ~now:0.0 ~pool ~queue:[ head; long_big; long_small ]
      ~running:[ (running_job, grant) ]
  in
  check (Alcotest.list Alcotest.string) "only the spare-sized job backfills"
    [ "long-small" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

let test_easy_backfill_empty_pool_no_starts () =
  let pool = Pool.create ~nodes:[ 0 ] () in
  let head = mk_job "head" 1 10.0 in
  let g =
    match Pool.try_grant pool ~spec:(Jobspec.make ~nnodes:1 ()) ~nnodes:1 with
    | Some g -> g
    | None -> Alcotest.fail "setup"
  in
  let holder = mk_job "holder" 1 50.0 in
  Job.set_state holder ~now:0.0 Job.Allocated;
  Job.set_state holder ~now:0.0 Job.Running;
  let starts =
    Policy.Easy_backfill.schedule ~now:0.0 ~pool ~queue:[ head ] ~running:[ (holder, g) ]
  in
  check int "nothing can start" 0 (List.length starts)

let test_policy_unknown_name () =
  Alcotest.check_raises "unknown policy" (Invalid_argument "Policy.by_name: unknown policy \"lifo\"")
    (fun () -> ignore (Policy.by_name "lifo"))

let test_priority_policy () =
  let pool = Pool.create ~nodes:[ 0; 1 ] () in
  let mk jid pr =
    Job.create ~jid ~spec:(Jobspec.make ~nnodes:2 ~priority:pr ()) ~payload:(Job.Sleep 1.0)
      ~now:0.0
  in
  let starts =
    Policy.Priority.schedule ~now:0.0 ~pool
      ~queue:[ mk "low" 0; mk "urgent" 10; mk "mid" 5 ]
      ~running:[]
  in
  check (Alcotest.list Alcotest.string) "highest priority first" [ "urgent" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

let test_priority_stable_ties () =
  let pool = Pool.create ~nodes:[ 0; 1; 2; 3 ] () in
  let mk jid = mk_job jid 1 10.0 in
  let starts =
    Policy.Priority.schedule ~now:0.0 ~pool ~queue:[ mk "a"; mk "b"; mk "c" ] ~running:[]
  in
  check (Alcotest.list Alcotest.string) "submission order kept" [ "a"; "b"; "c" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

let test_fair_share_policy () =
  let pool = Pool.create ~nodes:(List.init 8 Fun.id) () in
  (* alice already holds 4 nodes; queued: alice then bob (2 nodes each);
     only bob's fits fairness-first ordering. *)
  let alice_running =
    Job.create ~jid:"ar" ~spec:(Jobspec.make ~nnodes:4 ~user:"alice" ())
      ~payload:(Job.Sleep 100.0) ~now:0.0
  in
  Job.set_state alice_running ~now:0.0 Job.Allocated;
  Job.set_state alice_running ~now:0.0 Job.Running;
  let grant =
    match Pool.try_grant pool ~spec:alice_running.Job.spec ~nnodes:4 with
    | Some g -> g
    | None -> Alcotest.fail "setup"
  in
  let q_alice =
    Job.create ~jid:"qa" ~spec:(Jobspec.make ~nnodes:4 ~user:"alice" ())
      ~payload:(Job.Sleep 1.0) ~now:0.0
  in
  let q_bob =
    Job.create ~jid:"qb" ~spec:(Jobspec.make ~nnodes:4 ~user:"bob" ())
      ~payload:(Job.Sleep 1.0) ~now:0.0
  in
  let starts =
    Policy.Fair_share.schedule ~now:0.0 ~pool ~queue:[ q_alice; q_bob ]
      ~running:[ (alice_running, grant) ]
  in
  check (Alcotest.list Alcotest.string) "bob jumps the hogging user" [ "qb" ]
    (List.map (fun s -> s.Policy.s_job.Job.jid) starts)

(* --- Resource matching ------------------------------------------------------------- *)

module Rmatch = Flux_core.Rmatch

let hetero_center () =
  (* One rack of 4 fat nodes (64 GB) and two racks of 4 thin nodes. *)
  Resource.center ~name:"hc"
    [
      Resource.rack
        ~nodes:
          (List.init 4 (fun i ->
               Resource.node ~memory_gb:64.0 ~name:(Printf.sprintf "fat%d" i) ()))
        ~name:"rack-fat" ();
      Resource.rack
        ~nodes:
          (List.init 4 (fun i ->
               Resource.node ~memory_gb:16.0 ~name:(Printf.sprintf "thin%d" i) ()))
        ~name:"rack-thin0" ();
      Resource.rack
        ~nodes:
          (List.init 4 (fun i ->
               Resource.node ~memory_gb:16.0 ~name:(Printf.sprintf "thin%d" (4 + i)) ()))
        ~name:"rack-thin1" ();
    ]

let test_rmatch_memory_constraint () =
  let c = hetero_center () in
  let spec = Jobspec.make ~nnodes:3 ~memory_per_node_gb:32.0 () in
  (match Rmatch.select c ~spec Rmatch.First_fit with
  | Some sel ->
    check int "three nodes" 3 (List.length sel.Rmatch.sel_nodes);
    List.iter
      (fun n -> check bool "fat node chosen" true (Rmatch.node_memory_gb n >= 32.0))
      sel.Rmatch.sel_nodes
  | None -> Alcotest.fail "should fit");
  (* Five big-memory nodes do not exist. *)
  let spec5 = Jobspec.make ~nnodes:5 ~memory_per_node_gb:32.0 () in
  (match Rmatch.select c ~spec:spec5 Rmatch.First_fit with
  | None -> ()
  | Some _ -> Alcotest.fail "must not fit");
  check Alcotest.string "shortfall explained" "only 4 nodes also have >= 32 GB memory"
    (Rmatch.explain_shortfall c ~spec:spec5)

let test_rmatch_best_fit_preserves_fat_nodes () =
  let c = hetero_center () in
  let spec = Jobspec.make ~nnodes:2 ~memory_per_node_gb:8.0 () in
  match Rmatch.select c ~spec Rmatch.Best_fit with
  | Some sel ->
    List.iter
      (fun n ->
        check bool "thin nodes preferred" true (Rmatch.node_memory_gb n <= 16.0))
      sel.Rmatch.sel_nodes
  | None -> Alcotest.fail "should fit"

let test_rmatch_pack_by_rack () =
  let c = hetero_center () in
  let spec = Jobspec.make ~nnodes:4 () in
  match Rmatch.select c ~spec Rmatch.Pack_by_rack with
  | Some sel -> check int "single rack suffices" 1 (List.length sel.Rmatch.sel_racks)
  | None -> Alcotest.fail "should fit"

let test_rmatch_core_constraint () =
  let c =
    Resource.center ~name:"cc"
      [
        Resource.rack
          ~nodes:
            [
              Resource.node ~sockets:4 ~cores_per_socket:8 ~name:"big" ();
              Resource.node ~name:"small0" ();
              Resource.node ~name:"small1" ();
            ]
          ~name:"r0" ();
      ]
  in
  let spec = Jobspec.make ~nnodes:1 ~cores_per_node:32 () in
  match Rmatch.select c ~spec Rmatch.First_fit with
  | Some sel ->
    check Alcotest.string "the 32-core node" "big"
      (List.hd sel.Rmatch.sel_nodes).Resource.name
  | None -> Alcotest.fail "should fit"

(* --- Instance ---------------------------------------------------------------------- *)

let drain c = Center.run c

let test_instance_runs_jobs () =
  let c = Center.create ~nodes:8 () in
  let submit n d =
    ignore
      (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:n ~walltime_est:(2.0 *. d) ())
         ~payload:(Job.Sleep d)
        : Job.t)
  in
  submit 4 10.0;
  submit 4 20.0;
  submit 8 5.0;
  drain c;
  let st = Instance.stats c.Center.root in
  check int "all complete" 3 st.Instance.st_completed;
  check int "none failed" 0 st.Instance.st_failed;
  (* Two 4-node jobs run together; the 8-node job follows the longer. *)
  check bool "makespan about 25s" true
    (st.Instance.st_makespan > 24.9 && st.Instance.st_makespan < 25.5);
  check flt "node-seconds" ((4.0 *. 10.0) +. (4.0 *. 20.0) +. (8.0 *. 5.0))
    st.Instance.st_node_seconds

let test_instance_fcfs_wait_order () =
  let c = Center.create ~nodes:4 () in
  let j1 =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ()) ~payload:(Job.Sleep 10.0)
  in
  let j2 =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ()) ~payload:(Job.Sleep 10.0)
  in
  drain c;
  check bool "j2 started after j1 finished" true (j2.Job.start_time >= j1.Job.end_time)

let test_instance_app_payload () =
  Wexec.register_program "core-test-app" (fun ctx ->
      let d = Json.to_float (Json.member "duration" ctx.Wexec.px_args) in
      Proc.sleep d;
      ctx.Wexec.px_printf "computed");
  let c = Center.create ~nodes:4 () in
  let j =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:2 ())
      ~payload:
        (Job.App { prog = "core-test-app"; args = Json.null; per_rank = 2; duration = 5.0 })
  in
  drain c;
  check bool "complete" true (j.Job.jstate = Job.Complete);
  check bool "ran for its duration" true (Job.runtime j >= 5.0 && Job.runtime j < 6.0);
  (* Stdout of task (rank, local 0) captured in KVS by wexec. *)
  let got = ref None in
  ignore
    (Proc.spawn c.Center.eng (fun () ->
         let kvs = Center.kvs_client c ~rank:0 in
         let key = Printf.sprintf "lwj.%s.%d-0.stdout" j.Job.jid (List.hd j.Job.granted_nodes) in
         got := Some (Flux_kvs.Client.get kvs ~key)));
  drain c;
  match !got with
  | Some (Ok (Json.String s)) -> check bool "has output" true (String.length s > 0)
  | _ -> Alcotest.fail "stdout not captured"

let test_instance_hierarchy () =
  let c = Center.create ~nodes:16 () in
  (* A child instance gets 8 nodes and schedules 4 jobs of 4 nodes with
     its own FCFS queue; parent keeps the other 8 busy. *)
  let sub d n = { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:n (); sub_payload = Job.Sleep d } in
  let child_job =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:8 ())
      ~payload:(Job.Child { policy = "fcfs"; workload = [ sub 10.0 4; sub 10.0 4; sub 10.0 4; sub 10.0 4 ] })
  in
  let p1 =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:8 ()) ~payload:(Job.Sleep 30.0)
  in
  drain c;
  check bool "child job complete" true (child_job.Job.jstate = Job.Complete);
  check bool "parent job complete" true (p1.Job.jstate = Job.Complete);
  (* Child ran two waves of two 4-node jobs: ~20s + overheads. *)
  check bool "child duration about 20s" true
    (Job.runtime child_job >= 20.0 && Job.runtime child_job < 22.0);
  check int "pool restored" 16 (Pool.total_nodes (Instance.pool c.Center.root));
  let st = Instance.stats_recursive c.Center.root in
  check int "six jobs total" 6 st.Instance.st_completed

let test_instance_nested_two_levels () =
  let c = Center.create ~nodes:8 () in
  let leaf d = { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:1 (); sub_payload = Job.Sleep d } in
  let mid =
    {
      Job.sub_after = 0.0;
      sub_spec = Jobspec.make ~nnodes:2 ();
      sub_payload = Job.Child { policy = "fcfs"; workload = [ leaf 5.0; leaf 5.0 ] };
    }
  in
  let top =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
      ~payload:(Job.Child { policy = "fcfs"; workload = [ mid ] })
  in
  drain c;
  check bool "grandchild hierarchy completes" true (top.Job.jstate = Job.Complete);
  (* depth check through the recorded children *)
  match Instance.children c.Center.root with
  | [ child ] -> (
    check int "child depth" 1 (Instance.depth child);
    match Instance.children child with
    | [ grandchild ] -> check int "grandchild depth" 2 (Instance.depth grandchild)
    | _ -> Alcotest.fail "expected one grandchild")
  | _ -> Alcotest.fail "expected one child"

let test_instance_nested_session_isolation () =
  (* A Nested child owns a dedicated comms session: its wexec jobs run
     there and its KVS is invisible from the parent session. *)
  Wexec.register_program "nested-writer" (fun ctx ->
      (match Flux_kvs.Client.put ctx.Wexec.px_kvs ~key:"nested.secret" (Json.int 7) with
      | Ok () -> ()
      | Error e -> failwith e);
      match Flux_kvs.Client.commit ctx.Wexec.px_kvs with
      | Ok _ -> ()
      | Error e -> failwith e);
  let c = Center.create ~nodes:8 () in
  let inner =
    {
      Job.sub_after = 0.0;
      sub_spec = Jobspec.make ~nnodes:2 ();
      sub_payload =
        Job.App { prog = "nested-writer"; args = Json.null; per_rank = 1; duration = 0.1 };
    }
  in
  let top =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
      ~payload:(Job.Nested { policy = "fcfs"; workload = [ inner ] })
  in
  drain c;
  check bool "nested job complete" true (top.Job.jstate = Job.Complete);
  check int "parent pool restored" 8 (Pool.total_nodes (Instance.pool c.Center.root));
  (* The write went to the CHILD session's KVS, not the center's. *)
  let from_parent = ref None in
  ignore
    (Proc.spawn c.Center.eng (fun () ->
         let kvs = Center.kvs_client c ~rank:0 in
         from_parent := Some (Flux_kvs.Client.get kvs ~key:"nested.secret")));
  drain c;
  (match !from_parent with
  | Some (Error _) -> () (* correctly invisible *)
  | Some (Ok _) -> Alcotest.fail "nested KVS leaked into the parent session"
  | None -> Alcotest.fail "probe did not run");
  (* The nested session was registered as a child of the center session
     and torn down when the job completed. *)
  check int "child session unlinked after completion" 0
    (List.length (Flux_cmb.Session.child_sessions c.Center.sess));
  (* And the nested instance cannot be resized (dedicated session). *)
  match Instance.children c.Center.root with
  | [ child ] ->
    check bool "nested grow denied" true
      (Instance.request_grow child ~nnodes:2 = Error Instance.Resize_nested)
  | _ -> Alcotest.fail "expected one child"

(* Regression: resizes that move nothing used to return a bare 0 that
   read as success. Every no-op path must now name its reason. *)
let test_instance_resize_structured_errors () =
  let c = Center.create ~nodes:8 () in
  (* The root has no parent: both directions are structural errors. *)
  check bool "root grow" true
    (Instance.request_grow c.Center.root ~nnodes:2 = Error Instance.Resize_root);
  check bool "root shrink" true
    (Instance.request_shrink c.Center.root ~nnodes:2 = Error Instance.Resize_root);
  (* The keepalive pins all 4 child nodes, so the child has no free
     node to give back either. *)
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:4 (); sub_payload = Job.Sleep 10.0 }
  in
  ignore
    (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
       ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
      : Job.t);
  (* Parent's remaining 4 nodes are pinned by a long job: the child's
     grow request finds nothing to take. *)
  ignore
    (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ()) ~payload:(Job.Sleep 50.0)
      : Job.t);
  ignore
    (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
         match Instance.children c.Center.root with
         | [ child ] ->
           check bool "invalid nnodes" true
             (Instance.request_grow child ~nnodes:0 = Error (Instance.Resize_invalid 0));
           check bool "negative nnodes" true
             (Instance.request_shrink child ~nnodes:(-3)
             = Error (Instance.Resize_invalid (-3)));
           check bool "grow exhausted" true
             (Instance.request_grow child ~nnodes:2 = Error Instance.Resize_exhausted);
           (* The child's own 4 nodes are all held by its running job:
              shrink has no free node to return either. *)
           check bool "shrink exhausted" true
             (Instance.request_shrink child ~nnodes:2 = Error Instance.Resize_exhausted);
           check bool "error strings are distinct" true
             (List.length
                (List.sort_uniq compare
                   (List.map Instance.resize_error_to_string
                      [
                        Instance.Resize_invalid 0;
                        Instance.Resize_nested;
                        Instance.Resize_root;
                        Instance.Resize_exhausted;
                      ]))
             = 4)
         | _ -> Alcotest.fail "expected one child")
      : Engine.handle);
  drain c

let test_instance_grow_shrink () =
  let c = Center.create ~nodes:16 () in
  (* The child runs a long job so it is still alive when elasticity is
     exercised at t=1. *)
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:2 (); sub_payload = Job.Sleep 10.0 }
  in
  let child_job =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
      ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
  in
  ignore child_job;
  (* Let the child boot, then drive elasticity from a timer. *)
  let grew = ref (-1) and shrunk = ref (-1) in
  ignore
    (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
         match Instance.children c.Center.root with
         | [ child ] ->
           (match Instance.request_grow child ~nnodes:4 with
           | Ok n -> grew := n
           | Error e -> Alcotest.fail (Instance.resize_error_to_string e));
           check int "child pool grew" 8 (Pool.total_nodes (Instance.pool child));
           (match Instance.request_shrink child ~nnodes:2 with
           | Ok n -> shrunk := n
           | Error e -> Alcotest.fail (Instance.resize_error_to_string e));
           check int "child pool shrank" 6 (Pool.total_nodes (Instance.pool child))
         | _ -> Alcotest.fail "expected one child")
      : Engine.handle);
  drain c;
  check int "grow granted" 4 !grew;
  check int "shrink returned" 2 !shrunk;
  (* All nodes back home at the end. *)
  check int "root whole again" 16 (Pool.total_nodes (Instance.pool c.Center.root));
  check int "root all free" 16 (Pool.free_nodes (Instance.pool c.Center.root))

let test_instance_grow_bounded_by_parent () =
  let c = Center.create ~nodes:8 () in
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:2 (); sub_payload = Job.Sleep 10.0 }
  in
  ignore
    (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
       ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
      : Job.t);
  (* Parent keeps its other 4 nodes busy; the child can grow by at most
     what is free (parent-bounding rule). *)
  ignore
    (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:3 ()) ~payload:(Job.Sleep 50.0)
      : Job.t);
  let granted = ref (-1) in
  ignore
    (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
         match Instance.children c.Center.root with
         | [ child ] ->
           granted :=
             (match Instance.request_grow child ~nnodes:10 with Ok n -> n | Error _ -> 0)
         | _ -> Alcotest.fail "expected one child")
      : Engine.handle);
  drain c;
  check int "grow limited to free nodes" 1 !granted

let test_instance_power_cap () =
  let c = Center.create ~nodes:8 ~power_budget:800.0 () in
  let spec = Jobspec.make ~nnodes:4 ~power_per_node:200.0 () in
  let j1 = Instance.submit c.Center.root ~spec ~payload:(Job.Sleep 10.0) in
  let j2 = Instance.submit c.Center.root ~spec ~payload:(Job.Sleep 10.0) in
  drain c;
  (* 8 nodes are free but 800 W only feeds one 4-node 200 W/node job at
     a time: j2 must wait for j1. *)
  check bool "power serialized the jobs" true (j2.Job.start_time >= j1.Job.end_time)

let test_instance_power_cap_dynamic () =
  let c = Center.create ~nodes:8 ~power_budget:400.0 () in
  let spec = Jobspec.make ~nnodes:2 ~power_per_node:200.0 () in
  ignore (Instance.submit c.Center.root ~spec ~payload:(Job.Sleep 10.0) : Job.t);
  let j2 = Instance.submit c.Center.root ~spec ~payload:(Job.Sleep 10.0) in
  (* Raising the cap mid-run lets j2 start immediately instead of
     waiting for j1. *)
  ignore
    (Engine.schedule c.Center.eng ~delay:2.0 (fun () ->
         Instance.set_power_cap c.Center.root 1000.0)
      : Engine.handle);
  drain c;
  check bool "j2 started when cap rose" true
    (j2.Job.start_time >= 2.0 && j2.Job.start_time < 5.0)

let test_instance_io_coscheduling () =
  let c = Center.create ~nodes:8 ~fs_bandwidth:100.0 () in
  let io_spec = Jobspec.make ~nnodes:2 ~fs_bandwidth:60.0 () in
  let j1 = Instance.submit c.Center.root ~spec:io_spec ~payload:(Job.Sleep 10.0) in
  let j2 = Instance.submit c.Center.root ~spec:io_spec ~payload:(Job.Sleep 10.0) in
  drain c;
  (* Both fit node-wise, but 60+60 > 100 GB/s: the file system is a
     scheduled resource, so the jobs serialize instead of thrashing. *)
  check bool "io jobs serialized" true (j2.Job.start_time >= j1.Job.end_time)

let test_instance_malleable_grows_when_idle () =
  let c = Center.create ~nodes:8 () in
  let j =
    Instance.submit c.Center.root
      ~spec:(Jobspec.make ~nnodes:2 ~elasticity:(Jobspec.Malleable (2, 8)) ())
      ~payload:(Job.Sleep 10.0)
  in
  (* Probe mid-run: with nothing queued, the job expands to its max. *)
  let mid = ref 0 in
  ignore
    (Engine.schedule c.Center.eng ~delay:5.0 (fun () ->
         mid := List.length j.Job.granted_nodes)
      : Engine.handle);
  drain c;
  check int "grown to max" 8 !mid;
  check int "pool restored" 8 (Pool.free_nodes (Instance.pool c.Center.root))

let test_instance_malleable_shrinks_under_pressure () =
  let c = Center.create ~nodes:8 () in
  let malleable =
    Instance.submit c.Center.root
      ~spec:(Jobspec.make ~nnodes:8 ~elasticity:(Jobspec.Malleable (2, 8)) ())
      ~payload:(Job.Sleep 20.0)
  in
  (* A rigid 6-node job arrives at t=5; the malleable job must shed
     nodes so it can start well before the malleable one ends. *)
  let rigid = ref None in
  let mid_size = ref 99 in
  ignore
    (Engine.schedule c.Center.eng ~delay:5.0 (fun () ->
         rigid :=
           Some
             (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:6 ())
                ~payload:(Job.Sleep 5.0)))
      : Engine.handle);
  ignore
    (Engine.schedule c.Center.eng ~delay:7.0 (fun () ->
         mid_size := List.length malleable.Job.granted_nodes)
      : Engine.handle);
  drain c;
  (match !rigid with
  | Some r -> check bool "rigid started during malleable run" true (r.Job.start_time < 10.0)
  | None -> Alcotest.fail "rigid job not submitted");
  check int "malleable shrank to its minimum while rigid ran" 2 !mid_size;
  (* After the rigid job finishes, the malleable job grows back. *)
  check int "regrown by completion" 8 (List.length malleable.Job.granted_nodes);
  check int "all nodes home" 8 (Pool.free_nodes (Instance.pool c.Center.root))

let test_instance_cancel () =
  let c = Center.create ~nodes:4 () in
  let j1 = Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ()) ~payload:(Job.Sleep 10.0) in
  let j2 = Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ()) ~payload:(Job.Sleep 10.0) in
  ignore
    (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
         check bool "cancel pending" true (Instance.cancel c.Center.root ~jid:j2.Job.jid);
         check bool "cancel running" true (Instance.cancel c.Center.root ~jid:j1.Job.jid);
         check bool "cancel again fails" false (Instance.cancel c.Center.root ~jid:j1.Job.jid))
      : Engine.handle);
  drain c;
  check bool "j1 cancelled" true (j1.Job.jstate = Job.Cancelled);
  check bool "j2 cancelled" true (j2.Job.jstate = Job.Cancelled);
  check int "nodes free" 4 (Pool.free_nodes (Instance.pool c.Center.root))

let test_instance_cancel_child_refused () =
  let c = Center.create ~nodes:8 () in
  let keepalive =
    { Job.sub_after = 0.0; sub_spec = Jobspec.make ~nnodes:2 (); sub_payload = Job.Sleep 5.0 }
  in
  let child_job =
    Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:4 ())
      ~payload:(Job.Child { policy = "fcfs"; workload = [ keepalive ] })
  in
  ignore
    (Engine.schedule c.Center.eng ~delay:1.0 (fun () ->
         check bool "cancel of running child refused" false
           (Instance.cancel c.Center.root ~jid:child_job.Job.jid))
      : Engine.handle);
  drain c;
  check bool "child completed normally" true (child_job.Job.jstate = Job.Complete);
  check int "pool intact" 8 (Pool.free_nodes (Instance.pool c.Center.root))

let test_instance_rejects_oversized () =
  let c = Center.create ~nodes:4 () in
  Alcotest.check_raises "too big"
    (Invalid_argument "Instance.submit: job needs 8 nodes, instance owns 4") (fun () ->
      ignore
        (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:8 ())
           ~payload:(Job.Sleep 1.0)
          : Job.t))

let test_instance_provenance () =
  let c = Center.create ~nodes:4 ~provenance:true () in
  let j = Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:2 ()) ~payload:(Job.Sleep 3.0) in
  drain c;
  let got = ref None in
  ignore
    (Proc.spawn c.Center.eng (fun () ->
         let kvs = Center.kvs_client c ~rank:1 in
         got := Some (Flux_kvs.Client.get kvs ~key:(Printf.sprintf "lwj.%s.state" j.Job.jid))));
  drain c;
  match !got with
  | Some (Ok (Json.String s)) -> check Alcotest.string "final state recorded" "complete" s
  | _ -> Alcotest.fail "no provenance in KVS"

(* --- PMI -------------------------------------------------------------------------- *)

let test_pmi_exchange () =
  let c = Center.create ~nodes:4 () in
  let size = 8 in
  let fails = ref 0 in
  for r = 0 to size - 1 do
    ignore
      (Proc.spawn c.Center.eng (fun () ->
           let pmi = Pmi.init c.Center.sess ~jobid:"mpi0" ~rank:r ~node:(r mod 4) ~size in
           (match Pmi.put pmi ~key:"addr" (Printf.sprintf "ib0:%d" (7000 + r)) with
           | Ok () -> ()
           | Error _ -> incr fails);
           (match Pmi.exchange pmi with Ok () -> () | Error _ -> incr fails);
           (* Read every peer's business card. *)
           for peer = 0 to size - 1 do
             match Pmi.get pmi ~from_rank:peer ~key:"addr" with
             | Ok v -> if v <> Printf.sprintf "ib0:%d" (7000 + peer) then incr fails
             | Error _ -> incr fails
           done;
           match Pmi.finalize pmi with Ok () -> () | Error _ -> incr fails)
        : Proc.pid)
  done;
  drain c;
  check int "no failures" 0 !fails

(* --- Workload generators ------------------------------------------------------------ *)

let test_workload_determinism () =
  let a = Workload.batch_mix (Rng.create 5) ~n:50 ~max_nodes:32 () in
  let b = Workload.batch_mix (Rng.create 5) ~n:50 ~max_nodes:32 () in
  check int "same length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Job.submission) (y : Job.submission) ->
      check int "same nodes" x.Job.sub_spec.Jobspec.nnodes y.Job.sub_spec.Jobspec.nnodes)
    a b

let test_workload_bounds () =
  let subs = Workload.batch_mix (Rng.create 7) ~n:200 ~max_nodes:16 () in
  List.iter
    (fun (s : Job.submission) ->
      let n = s.Job.sub_spec.Jobspec.nnodes in
      check bool "nodes in range" true (n >= 1 && n <= 16))
    subs;
  check bool "positive work" true (Workload.total_node_seconds subs > 0.0)

let test_workload_io_phased () =
  let subs = Workload.io_phased (Rng.create 2) ~n:20 ~max_nodes:8 ~fs_bandwidth_each:12.5 () in
  check int "count" 20 (List.length subs);
  List.iter
    (fun (s : Job.submission) ->
      check flt "bandwidth attached" 12.5 s.Job.sub_spec.Jobspec.fs_bandwidth)
    subs

let test_workload_split () =
  let subs = Workload.uq_ensemble (Rng.create 3) ~n:10 () in
  let parts = Workload.split_round_robin 3 subs in
  check int "three parts" 3 (List.length parts);
  check int "all jobs kept" 10 (List.fold_left (fun a p -> a + List.length p) 0 parts)

(* --- Baseline ------------------------------------------------------------------------- *)

let test_central_completes_workload () =
  let eng = Engine.create () in
  let central = Central.create eng ~nnodes:32 () in
  let wl = Workload.batch_mix (Rng.create 11) ~n:60 ~max_nodes:16 ~mean_duration:30.0 () in
  Central.submit_plan central wl;
  Engine.run eng;
  let st = Central.stats central in
  check int "all completed" 60 st.Central.bs_completed;
  check bool "nonzero makespan" true (st.Central.bs_makespan > 0.0)

let test_hierarchy_beats_central_on_ensembles () =
  (* Same ensemble of tiny jobs; the centralized controller serializes
     all decisions, the two-level Flux splits them across 8 children. *)
  (* High-throughput ensemble: demand (320 starts/s) far exceeds the
     ~100 jobs/s a 10 ms/start monolithic controller can push, while
     eight parallel child schedulers absorb it easily. *)
  let n_jobs = 2000 and nnodes = 64 in
  let mk_wl () =
    List.map
      (fun (s : Job.submission) ->
        match s.Job.sub_payload with
        | Job.Sleep d ->
          let d = Float.max 0.05 (d /. 10.0) in
          { s with Job.sub_payload = Job.Sleep d; sub_spec = Jobspec.make ~nnodes:1 ~walltime_est:(2.0 *. d) () }
        | _ -> s)
      (Workload.uq_ensemble (Rng.create 42) ~n:n_jobs ~mean_duration:2.0 ())
  in
  (* centralized *)
  let eng1 = Engine.create () in
  let central = Central.create eng1 ~nnodes () in
  Central.submit_plan central (mk_wl ());
  Engine.run eng1;
  let cs = Central.stats central in
  (* two-level flux *)
  let c = Center.create ~nodes:nnodes () in
  let parts = Workload.split_round_robin 8 (mk_wl ()) in
  List.iter
    (fun workload ->
      ignore
        (Instance.submit c.Center.root ~spec:(Jobspec.make ~nnodes:8 ())
           ~payload:(Job.Child { policy = "fcfs"; workload })
          : Job.t))
    parts;
  drain c;
  let fs = Instance.stats_recursive c.Center.root in
  check int "central completed" n_jobs cs.Central.bs_completed;
  check int "flux completed" (n_jobs + 8) fs.Instance.st_completed;
  check bool
    (Printf.sprintf "flux makespan (%.1f) < central (%.1f)" fs.Instance.st_makespan
       cs.Central.bs_makespan)
    true
    (fs.Instance.st_makespan < cs.Central.bs_makespan)

(* --- Scheduler cost ---------------------------------------------------------------- *)

(* Words allocated while draining a flat 8-node scheduler fed [n] pilot
   sleep tasks at t=0. The run is deterministic, so the count is too. *)
let words_to_drain setup n =
  let eng = Engine.create () in
  setup eng (Workload.pilot_tasks (Rng.create 1) ~n ());
  let before = Gc.minor_words () in
  Engine.run eng;
  Gc.minor_words () -. before

(* Four times the tasks must cost well under sixteen times the words: a
   pending queue that walks itself per job makes this ratio ~15. *)
let check_cost_linear setup () =
  let ratio = words_to_drain setup 4000 /. words_to_drain setup 1000 in
  check bool (Printf.sprintf "4x tasks cost %.2fx words (< 6)" ratio) true (ratio < 6.0)

let test_instance_cost_linear =
  check_cost_linear (fun eng stream ->
      let sess = Session.create eng ~size:8 () in
      Instance.submit_plan (Instance.create_root sess ~name:"cost" ()) stream)

let test_central_cost_linear =
  check_cost_linear (fun eng stream -> Central.submit_plan (Central.create eng ~nnodes:8 ()) stream)

let () =
  Alcotest.run "flux_core"
    [
      ( "resource",
        [
          Alcotest.test_case "counts" `Quick test_resource_counts;
          Alcotest.test_case "find" `Quick test_resource_find;
          Alcotest.test_case "unique ids" `Quick test_resource_unique_ids;
          Alcotest.test_case "json roundtrip" `Quick test_resource_json_roundtrip;
        ] );
      ("jobspec", [ Alcotest.test_case "validation and bounds" `Quick test_jobspec ]);
      ("job", [ Alcotest.test_case "state machine" `Quick test_job_transitions ]);
      ( "pool",
        [
          Alcotest.test_case "grant/release" `Quick test_pool_grant_release;
          Alcotest.test_case "power constraint" `Quick test_pool_power_constraint;
          Alcotest.test_case "bandwidth constraint" `Quick test_pool_bandwidth_constraint;
          Alcotest.test_case "double release" `Quick test_pool_double_release;
          Alcotest.test_case "donate/absorb" `Quick test_pool_donate_absorb;
        ] );
      ( "policy",
        [
          Alcotest.test_case "fcfs strict" `Quick test_fcfs_strict;
          Alcotest.test_case "easy backfill" `Quick test_easy_backfill_jumps;
          Alcotest.test_case "moldable shrinks" `Quick test_moldable_shrinks;
          Alcotest.test_case "easy spare-node backfill" `Quick test_easy_backfill_spare_nodes;
          Alcotest.test_case "easy nothing fits" `Quick test_easy_backfill_empty_pool_no_starts;
          Alcotest.test_case "unknown policy" `Quick test_policy_unknown_name;
          Alcotest.test_case "priority" `Quick test_priority_policy;
          Alcotest.test_case "priority stable ties" `Quick test_priority_stable_ties;
          Alcotest.test_case "fair share" `Quick test_fair_share_policy;
        ] );
      ( "instance",
        [
          Alcotest.test_case "runs jobs" `Quick test_instance_runs_jobs;
          Alcotest.test_case "fcfs order" `Quick test_instance_fcfs_wait_order;
          Alcotest.test_case "app payload via wexec" `Quick test_instance_app_payload;
          Alcotest.test_case "hierarchy" `Quick test_instance_hierarchy;
          Alcotest.test_case "two levels" `Quick test_instance_nested_two_levels;
          Alcotest.test_case "nested session isolation" `Quick
            test_instance_nested_session_isolation;
          Alcotest.test_case "grow/shrink" `Quick test_instance_grow_shrink;
          Alcotest.test_case "resize structured errors" `Quick
            test_instance_resize_structured_errors;
          Alcotest.test_case "grow bounded" `Quick test_instance_grow_bounded_by_parent;
          Alcotest.test_case "power cap" `Quick test_instance_power_cap;
          Alcotest.test_case "dynamic power cap" `Quick test_instance_power_cap_dynamic;
          Alcotest.test_case "io co-scheduling" `Quick test_instance_io_coscheduling;
          Alcotest.test_case "malleable grows" `Quick test_instance_malleable_grows_when_idle;
          Alcotest.test_case "malleable shrinks" `Quick
            test_instance_malleable_shrinks_under_pressure;
          Alcotest.test_case "cancel" `Quick test_instance_cancel;
          Alcotest.test_case "oversized rejected" `Quick test_instance_rejects_oversized;
          Alcotest.test_case "cancel child refused" `Quick test_instance_cancel_child_refused;
          Alcotest.test_case "provenance" `Quick test_instance_provenance;
        ] );
      ( "rmatch",
        [
          Alcotest.test_case "memory constraint" `Quick test_rmatch_memory_constraint;
          Alcotest.test_case "best fit" `Quick test_rmatch_best_fit_preserves_fat_nodes;
          Alcotest.test_case "pack by rack" `Quick test_rmatch_pack_by_rack;
          Alcotest.test_case "core constraint" `Quick test_rmatch_core_constraint;
        ] );
      ("pmi", [ Alcotest.test_case "bootstrap exchange" `Quick test_pmi_exchange ]);
      ( "workload",
        [
          Alcotest.test_case "determinism" `Quick test_workload_determinism;
          Alcotest.test_case "bounds" `Quick test_workload_bounds;
          Alcotest.test_case "split" `Quick test_workload_split;
          Alcotest.test_case "io phased" `Quick test_workload_io_phased;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "central completes" `Quick test_central_completes_workload;
          Alcotest.test_case "hierarchy beats central" `Quick
            test_hierarchy_beats_central_on_ensembles;
        ] );
      ( "cost",
        [
          Alcotest.test_case "instance linear in tasks" `Quick test_instance_cost_linear;
          Alcotest.test_case "central linear in tasks" `Quick test_central_cost_linear;
        ] );
    ]

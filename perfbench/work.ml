(* The four workloads, driven through the public APIs of flux_sim,
   flux_cmb, flux_kvs, flux_modules and flux_core. One call to [run]
   is one repetition: build the simulation from the seed, run it until
   the event queue drains, check every output, and report its cost.
   With [~traced:true] the repetition also records wall-clock spans
   around each family of calls, samples the call stack, and reads the
   public counters of every layer. *)

module Json = Flux_json.Json
module Engine = Flux_sim.Engine
module Proc = Flux_sim.Proc
module Net = Flux_sim.Net
module Session = Flux_cmb.Session
module Api = Flux_cmb.Api
module Kvs = Flux_kvs.Kvs_module
module Client = Flux_kvs.Client
module Barrier = Flux_modules.Barrier
module Wexec = Flux_modules.Wexec
module Instance = Flux_core.Instance
module Job = Flux_core.Job
module Workload = Flux_core.Workload
module Rng = Flux_util.Rng

type workload = Kap_fence | Kap_get | Job_launch | Sched_storm

let workloads =
  [
    ("kap-fence", Kap_fence);
    ("kap-get", Kap_get);
    ("job-launch", Job_launch);
    ("sched-storm", Sched_storm);
  ]

(* [Full] is what the benchmark times; [Tiny] is the same code at a
   size the test suite can afford. *)
type scale = Full | Tiny

type fingerprint = { sim_events : int; sim_clock : float; rpc_messages : int }

type outcome = {
  size : string;
  fp : fingerprint;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  chunks : float list;
      (** wall seconds of each block of [chunk_events] consecutive events
          of an untraced run, then the rest of the run; they sum to just
          under its run_s. Empty for a traced run. *)
}

let procs_per_node = 16

(* --- Spans ----------------------------------------------------------------- *)

(* A family's span runs from the first call's entry to the last call's
   return, in real time, so it covers everything interleaved between
   the calls of one phase. *)
type span = { mutable first : float; mutable last : float }

type spans = {
  session : span;
  modules : span;
  spawn : span;
  submit : span;
  put : span;
  fence : span;
  get : span;
  barrier : span;
}

let new_span () = { first = Float.nan; last = Float.nan }

let new_spans () =
  {
    session = new_span ();
    modules = new_span ();
    spawn = new_span ();
    submit = new_span ();
    put = new_span ();
    fence = new_span ();
    get = new_span ();
    barrier = new_span ();
  }

let span_s s = if Float.is_nan s.first then 0.0 else s.last -. s.first

let within traced s f =
  if not traced then f ()
  else begin
    let t = Unix.gettimeofday () in
    if Float.is_nan s.first then s.first <- t;
    let r = f () in
    s.last <- Unix.gettimeofday ();
    r
  end

(* --- A built simulation ----------------------------------------------------- *)

type sim = {
  eng : Engine.t;
  sess : Session.t;
  kvs : Kvs.t array;
  barriers : Barrier.t array;
  root : Instance.t option;
  gets : int;  (** KVS gets the workload issues *)
  wexec_tasks : unit -> int;
  check : unit -> int * int;  (** (attempted, failed) operations *)
  size : string;
}

(* --- KAP workloads ------------------------------------------------------------ *)

(* Every core of [nodes] runs one tester: barrier, one put, one fence,
   then [ngets] gets. Object [idx] lives at [key idx] with value
   [value idx]; tester [p] reads objects [(base p + k) mod total], so
   the value each get must return is known from the seed alone. *)
let kap ~traced sp ~nodes ~ngets ~key ~value ~base =
  let eng = Engine.create () in
  let sess = within traced sp.session (fun () -> Session.create eng ~fanout:2 ~size:nodes ()) in
  let kvs, barriers =
    within traced sp.modules (fun () -> (Kvs.load sess (), Barrier.load sess ()))
  in
  let total = nodes * procs_per_node in
  let ok = ref 0 in
  let succeed = function Ok _ -> incr ok | Error _ -> () in
  within traced sp.spawn (fun () ->
      for p = 0 to total - 1 do
        let node = p mod nodes in
        let b = base p in
        ignore
          (Proc.spawn eng (fun () ->
               let api = Api.connect sess ~rank:node in
               let c = Client.connect sess ~rank:node in
               succeed
                 (within traced sp.barrier (fun () ->
                      Barrier.enter api ~name:"perfbench-setup" ~nprocs:total));
               succeed (within traced sp.put (fun () -> Client.put c ~key:(key p) (value p)));
               succeed
                 (within traced sp.fence (fun () ->
                      Client.fence c ~name:"perfbench-sync" ~nprocs:total));
               for k = 0 to ngets - 1 do
                 let idx = (b + k) mod total in
                 match within traced sp.get (fun () -> Client.get c ~key:(key idx)) with
                 | Ok v when Json.equal v (value idx) -> incr ok
                 | Ok _ | Error _ -> ()
               done)
            : Proc.pid)
      done);
  let attempted = total * (3 + ngets) in
  {
    eng;
    sess;
    kvs;
    barriers;
    root = None;
    gets = total * ngets;
    wexec_tasks = (fun () -> 0);
    check = (fun () -> (attempted, attempted - !ok));
    size = Printf.sprintf "%dx%d" nodes procs_per_node;
  }

let kap_fence ~traced sp scale ~seed =
  let nodes = match scale with Full -> 256 | Tiny -> 4 in
  let total = nodes * procs_per_node in
  let rng = Rng.create seed in
  let salt0 = Rng.int rng 1_000_000_000 in
  let shift = Rng.int rng total in
  kap ~traced sp ~nodes ~ngets:1
    ~key:(Printf.sprintf "kap.o%d")
    ~value:(fun idx -> Json.pad_unique 512 (salt0 + idx))
    ~base:(fun p -> p + shift)

(* The redundant 8 B value is one shared physical value, as in a real
   producer writing the same datum: the write side stays cheap and the
   run is dominated by faulting 128-object directories in. *)
let kap_get ~traced sp scale ~seed =
  let nodes = match scale with Full -> 256 | Tiny -> 4 in
  let total = nodes * procs_per_node in
  let rng = Rng.create seed in
  let bases = Array.init total (fun _ -> Rng.int rng total) in
  let v = Json.pad 8 in
  kap ~traced sp ~nodes ~ngets:16
    ~key:(fun idx -> Printf.sprintf "kap.d%d.o%d" (idx / 128) idx)
    ~value:(fun _ -> v)
    ~base:(fun p -> bases.(p))

(* --- Instance-tree workloads ------------------------------------------------------ *)

let prog = "perfbench.task"

let rec instances i = i :: List.concat_map instances (Instance.children i)

let task_jobs root =
  List.concat_map
    (fun i ->
      List.filter
        (fun (j : Job.t) ->
          match j.Job.job_payload with
          | Job.Sleep _ | Job.App _ -> true
          | Job.Child _ | Job.Nested _ -> false)
        (Instance.jobs i))
    (instances root)

(* A depth-2, fanout-2 instance tree over [nodes] nodes receives a
   seeded pilot stream of [tasks] sub-second single-node tasks, all at
   t=0. With [launch] every task is a wexec launch of a program that
   records its execution; without, tasks are scheduler-only sleeps and
   no kvs/barrier/wexec modules are loaded. *)
let tree ~traced sp ~nodes ~tasks ~launch ~seed =
  let eng = Engine.create () in
  let sess = within traced sp.session (fun () -> Session.create eng ~fanout:2 ~size:nodes ()) in
  let execs = Array.make tasks 0 in
  let kvs, barriers =
    within traced sp.modules (fun () ->
        if not launch then ([||], [||])
        else begin
          let kvs = Kvs.load sess () in
          let barriers = Barrier.load sess () in
          ignore (Wexec.load sess () : Wexec.t array);
          Wexec.register_program prog (fun ctx ->
              Proc.sleep (Json.to_float (Json.member "duration" ctx.Wexec.px_args));
              let tid = Json.to_int (Json.member "tid" ctx.Wexec.px_args) in
              execs.(tid) <- execs.(tid) + 1);
          (kvs, barriers)
        end)
  in
  let root, stream =
    within traced sp.submit (fun () ->
        let root = Instance.create_root sess ~name:"perfbench" () in
        let stream =
          Workload.pilot_tasks (Rng.create seed) ~n:tasks
            ~prog:(if launch then prog else "")
            ()
        in
        Instance.submit_plan root
          (Workload.nest ~depth:2 ~children:2 ~policy:"fcfs" ~nnodes:nodes stream);
        (root, stream))
  in
  (* Every task must reach Complete exactly once: launched tasks are
     matched by their logical id and must also have executed exactly
     once; sleep tasks carry no id, so the multiset of completed sleep
     durations must equal the stream's. *)
  let check () =
    let completed =
      List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Complete) (task_jobs root)
    in
    let good =
      if launch then begin
        let acks = Array.make tasks 0 in
        List.iter
          (fun (j : Job.t) ->
            match j.Job.job_payload with
            | Job.App { args; _ } ->
              let tid = Json.to_int (Json.member "tid" args) in
              acks.(tid) <- acks.(tid) + 1
            | _ -> ())
          completed;
        let n = ref 0 in
        Array.iteri (fun tid a -> if a = 1 && execs.(tid) = 1 then incr n) acks;
        !n
      end
      else begin
        let want : (float, int) Hashtbl.t = Hashtbl.create tasks in
        let add d k =
          Hashtbl.replace want d (k + Option.value ~default:0 (Hashtbl.find_opt want d))
        in
        List.iter
          (fun (s : Job.submission) ->
            match s.Job.sub_payload with Job.Sleep d -> add d 1 | _ -> ())
          stream;
        let matched = ref 0 and extra = ref 0 in
        List.iter
          (fun (j : Job.t) ->
            match j.Job.job_payload with
            | Job.Sleep d when Option.value ~default:0 (Hashtbl.find_opt want d) > 0 ->
              add d (-1);
              incr matched
            | _ -> incr extra)
          completed;
        !matched - !extra
      end
    in
    (tasks, tasks - good)
  in
  {
    eng;
    sess;
    kvs;
    barriers;
    root = Some root;
    gets = 0;
    wexec_tasks = (fun () -> Array.fold_left ( + ) 0 execs);
    check;
    size = Printf.sprintf "%dn/%dt" nodes tasks;
  }

let job_launch ~traced sp scale ~seed =
  let nodes, tasks = match scale with Full -> (64, 1000) | Tiny -> (8, 40) in
  tree ~traced sp ~nodes ~tasks ~launch:true ~seed

let sched_storm ~traced sp scale ~seed =
  let nodes, tasks = match scale with Full -> (64, 20_000) | Tiny -> (8, 200) in
  tree ~traced sp ~nodes ~tasks ~launch:false ~seed

let build = function
  | Kap_fence -> kap_fence
  | Kap_get -> kap_get
  | Job_launch -> job_launch
  | Sched_storm -> sched_storm

(* --- One repetition ------------------------------------------------------------------ *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The run is deterministic, so block [i] of one repetition does the
   same work as block [i] of every other; blocks are short enough that
   the host's slow moments rarely cover one in every repetition. *)
let chunk_events = 512

(* [Engine.run] without a limit is exactly this loop over
   [Engine.step]; stepping by hand lets the run be timed in blocks. *)
let run_chunked eng =
  let chunks = ref [] and n = ref 0 in
  let last = ref (Unix.gettimeofday ()) in
  let mark () =
    let t = Unix.gettimeofday () in
    chunks := (t -. !last) :: !chunks;
    last := t
  in
  while Engine.step eng do
    incr n;
    if !n mod chunk_events = 0 then mark ()
  done;
  mark ();
  List.rev !chunks

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let layer_metrics sim sp ~hwm ~cpu ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) (prof : Sampler.result) =
  let f = float_of_int in
  let sum g a = Array.fold_left (fun acc x -> acc + g x) 0 a in
  let rpc = Session.rpc_net_stats sim.sess in
  let ev = Session.event_net_stats sim.sess in
  let ring = Session.ring_net_stats sim.sess in
  let loads = sum Kvs.loads_issued sim.kvs in
  let stats = Option.map Instance.stats_recursive sim.root in
  let core g = match stats with Some s -> f (g s) | None -> 0.0 in
  let alloc (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words in
  let share counts l =
    match List.assoc_opt l counts with
    | Some n -> f n /. f prof.Sampler.samples *. cpu
    | None -> if l = "other" && prof.Sampler.samples = 0 then cpu else 0.0
  in
  [
    ("setup.session_s", span_s sp.session);
    ("setup.modules_s", span_s sp.modules);
    ("setup.spawn_s", span_s sp.spawn);
    ("setup.submit_s", span_s sp.submit);
    ("engine.events", f (Engine.events_executed sim.eng));
    ("engine.pending_hwm", f hwm);
    ("engine.compactions", f (Engine.compactions sim.eng));
    ("net.rpc_msgs", f rpc.Net.messages);
    ("net.rpc_bytes", f rpc.Net.bytes);
    ("net.event_msgs", f ev.Net.messages);
    ("net.event_bytes", f ev.Net.bytes);
    ("net.ring_msgs", f ring.Net.messages);
    ("net.drops", f (rpc.Net.dropped + ev.Net.dropped + ring.Net.dropped));
    ( "net.link_depth_hwm",
      f
        (List.fold_left max 0
           (List.map Net.max_link_depth_hwm
              [ Session.rpc_net sim.sess; Session.event_net sim.sess; Session.ring_net sim.sess ]))
    );
    ("session.root_ingress_bytes", f (Session.root_rpc_ingress_bytes sim.sess));
    ("session.rpc_retries", f (Session.rpc_retries sim.sess));
    ("session.rpc_timeouts", f (Session.rpc_timeouts sim.sess));
    ("kvs.put_phase_s", span_s sp.put);
    ("kvs.fence_phase_s", span_s sp.fence);
    ("kvs.get_phase_s", span_s sp.get);
    ("kvs.loads", f loads);
    ("kvs.fault_ratio", if sim.gets = 0 then 0.0 else f loads /. f sim.gets);
    ("kvs.cached_objects", f (sum Kvs.cached_objects sim.kvs));
    ("kvs.store_mb", f (sum Kvs.store_bytes sim.kvs) /. 1e6);
    ("modules.barrier_phase_s", span_s sp.barrier);
    ("modules.barrier_enters", f (sum Barrier.enters_seen sim.barriers));
    ("modules.wexec_tasks", f (sim.wexec_tasks ()));
    ("core.sched_cycles", core (fun s -> s.Instance.st_sched_cycles));
    ("core.jobs_completed", core (fun s -> s.Instance.st_completed));
    ("gc.alloc_mwords", (alloc gc1 -. alloc gc0) /. 1e6);
    ("gc.promoted_mwords", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
    ("gc.minor_gcs", f (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    ("gc.major_gcs", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ("gc.pause_s", prof.Sampler.pause_s);
    ("trace.samples", f prof.Sampler.samples);
    ("trace.cpu_s", cpu);
  ]
  @ List.map (fun l -> (l ^ ".self_s", share prof.Sampler.self l)) Layers.self_layers
  (* Not reported metrics: inclusive time, for the profile a traced
     repetition prints on stderr. *)
  @ List.map (fun l -> (l ^ ".incl_s", share prof.Sampler.inclusive l)) Layers.self_layers

(* Set-up time alone: build the simulation, never run it. The parent
   process adds many of these to the repetitions' own set-up times,
   because set-up is short and its median needs many samples. *)
let setup_only scale w ~seed =
  let t0 = Unix.gettimeofday () in
  let sim = build w ~traced:false (new_spans ()) scale ~seed in
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity sim : sim);
  t1 -. t0

let run scale w ~seed ~traced =
  let sp = new_spans () in
  let gc0 = Gc.quick_stat () in
  if traced then Sampler.start ();
  let cpu0 = cpu_s () in
  let t0 = Unix.gettimeofday () in
  let sim = build w ~traced sp scale ~seed in
  let t1 = Unix.gettimeofday () in
  let cpu1 = cpu_s () in
  let hwm = ref 0 in
  let chunks =
    if traced then begin
      while Engine.step sim.eng do
        let p = Engine.pending sim.eng in
        if p > !hwm then hwm := p
      done;
      []
    end
    else run_chunked sim.eng
  in
  let t2 = Unix.gettimeofday () in
  let cpu2 = cpu_s () in
  let cpu = cpu2 -. cpu0 in
  let prof = if traced then Some (Sampler.stop ()) else None in
  let gc1 = Gc.quick_stat () in
  let attempted, failed = sim.check () in
  let end_to_end =
    [
      ("setup_s", t1 -. t0);
      ("run_s", t2 -. t1);
      ("peak_heap_mb", mb_of_words gc1.Gc.top_heap_words);
      (* Not a reported metric: logged per repetition so that a slow
         run_s can be told apart from time the process spent off-CPU. *)
      ("run_cpu_s", cpu2 -. cpu1);
    ]
  in
  {
    size = sim.size;
    fp =
      {
        sim_events = Engine.events_executed sim.eng;
        sim_clock = Engine.now sim.eng;
        rpc_messages = (Session.rpc_net_stats sim.sess).Net.messages;
      };
    attempted;
    failed;
    chunks;
    metrics =
      (match prof with
      | None -> end_to_end
      | Some prof -> end_to_end @ layer_metrics sim sp ~hwm:!hwm ~cpu ~gc0 ~gc1 prof);
  }

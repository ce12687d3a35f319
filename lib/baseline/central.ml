module Engine = Flux_sim.Engine
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Pool = Flux_core.Pool
module Policy = Flux_core.Policy
module Instance = Flux_core.Instance
module Job_queue = Flux_core.Job_queue

type t = {
  eng : Engine.t;
  pool : Pool.t;
  policy : (module Policy.S);
  cost : Instance.cost_model;
  queue : Job.t Job_queue.t;
  mutable running : (Job.t * Pool.grant) list;
  mutable all_jobs : Job.t list; (* reversed *)
  mutable pending_submissions : int;
  mutable sched_armed : bool;
  mutable cpu_free_at : float;
  mutable sched_cycles : int;
  mutable idle_cbs : (unit -> unit) list;
  jids : Flux_util.Idgen.t;
}

let create eng ~nnodes ?(policy = "fcfs") ?(cost_model = Instance.default_cost_model) () =
  {
    eng;
    pool = Pool.create ~nodes:(List.init nnodes Fun.id) ();
    policy = Policy.by_name policy;
    cost = cost_model;
    queue = Job_queue.create ();
    running = [];
    all_jobs = [];
    pending_submissions = 0;
    sched_armed = false;
    cpu_free_at = 0.0;
    sched_cycles = 0;
    idle_cbs = [];
    jids = Flux_util.Idgen.create ~prefix:"central." ();
  }

let is_idle t = Job_queue.is_empty t.queue && t.running = [] && t.pending_submissions = 0
let check_idle t = if is_idle t then List.iter (fun f -> f ()) t.idle_cbs
let on_idle t f = t.idle_cbs <- t.idle_cbs @ [ f ]

let rec kick t =
  if not t.sched_armed then begin
    t.sched_armed <- true;
    (* The monolithic controller pays for the entire center's resources
       and the entire center's queue, on one CPU. *)
    let cost =
      t.cost.Instance.decision_base
      +. (t.cost.Instance.decision_per_node *. float_of_int (Pool.total_nodes t.pool))
      +. (t.cost.Instance.decision_per_job *. float_of_int (Job_queue.length t.queue))
    in
    let start = Float.max (Engine.now t.eng) t.cpu_free_at in
    t.cpu_free_at <- start +. cost;
    ignore
      (Engine.schedule_at t.eng ~time:(start +. cost) (fun () ->
           t.sched_armed <- false;
           cycle t)
        : Engine.handle)
  end

and cycle t =
  t.sched_cycles <- t.sched_cycles + 1;
  let module P = (val t.policy) in
  let starts =
    P.schedule ~now:(Engine.now t.eng) ~pool:t.pool ~queue:(Job_queue.to_list t.queue)
      ~running:t.running
  in
  List.iter
    (fun { Policy.s_job = job; s_nnodes } ->
      if job.Job.jstate = Job.Pending then
        match Pool.try_grant t.pool ~spec:job.Job.spec ~nnodes:s_nnodes with
        | Some grant ->
          t.cpu_free_at <-
            Float.max (Engine.now t.eng) t.cpu_free_at +. t.cost.Instance.start_cost;
          Job_queue.remove t.queue job;
          job.Job.granted_nodes <- grant.Pool.g_nodes;
          Job.set_state job ~now:(Engine.now t.eng) Job.Allocated;
          Job.set_state job ~now:(Engine.now t.eng) Job.Running;
          t.running <- (job, grant) :: t.running;
          let d =
            match job.Job.job_payload with
            | Job.Sleep d -> d
            | Job.App _ | Job.Child _ | Job.Nested _ ->
              invalid_arg "Central: only Sleep payloads are supported"
          in
          ignore
            (Engine.schedule t.eng ~delay:d (fun () -> finish t job grant) : Engine.handle)
        | None -> ())
    starts;
  check_idle t

and finish t job grant =
  Job.set_state job ~now:(Engine.now t.eng) Job.Complete;
  t.running <- List.filter (fun (j, _) -> j != job) t.running;
  Pool.release t.pool grant;
  kick t;
  check_idle t

let submit t (s : Job.submission) =
  let job =
    Job.create
      ~jid:(Flux_util.Idgen.next t.jids)
      ~spec:s.Job.sub_spec ~payload:s.Job.sub_payload ~now:(Engine.now t.eng)
  in
  t.all_jobs <- job :: t.all_jobs;
  Job_queue.push t.queue job;
  kick t

let submit_plan t subs =
  List.iter
    (fun (s : Job.submission) ->
      t.pending_submissions <- t.pending_submissions + 1;
      ignore
        (Engine.schedule t.eng ~delay:s.Job.sub_after (fun () ->
             t.pending_submissions <- t.pending_submissions - 1;
             submit t s)
          : Engine.handle))
    subs

let jobs t = List.rev t.all_jobs

type stats = {
  bs_completed : int;
  bs_mean_wait : float;
  bs_makespan : float;
  bs_sched_cycles : int;
  bs_node_seconds : float;
}

let stats t =
  let all = jobs t in
  let completed = List.filter (fun (j : Job.t) -> j.Job.jstate = Job.Complete) all in
  let waits = List.map Job.wait_time completed in
  let first_submit =
    List.fold_left (fun acc (j : Job.t) -> Float.min acc j.Job.submit_time) infinity all
  in
  let last_end =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.end_time) neg_infinity completed
  in
  {
    bs_completed = List.length completed;
    bs_mean_wait =
      (if waits = [] then 0.0
       else List.fold_left ( +. ) 0.0 waits /. float_of_int (List.length waits));
    bs_makespan = (if completed = [] then 0.0 else last_end -. first_submit);
    bs_sched_cycles = t.sched_cycles;
    bs_node_seconds =
      List.fold_left
        (fun acc (j : Job.t) ->
          acc +. (Job.runtime j *. float_of_int (List.length j.Job.granted_nodes)))
        0.0 completed;
  }

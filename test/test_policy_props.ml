(* Property tests over the scheduling policies: safety invariants that
   must hold for every policy on arbitrary queues. *)

module Rng = Flux_util.Rng
module Job = Flux_core.Job
module Jobspec = Flux_core.Jobspec
module Pool = Flux_core.Pool
module Policy = Flux_core.Policy
module Job_queue = Flux_core.Job_queue

let policies =
  [
    (module Policy.Fcfs : Policy.S);
    (module Policy.Easy_backfill : Policy.S);
    (module Policy.Fcfs_moldable : Policy.S);
    (module Policy.Priority : Policy.S);
    (module Policy.Fair_share : Policy.S);
  ]

(* Generate a random scheduling scene: a pool with some running jobs and
   a pending queue. *)
let gen_scene =
  QCheck.Gen.(
    let* nnodes = 4 -- 32 in
    let* n_running = 0 -- 3 in
    let* n_queue = 0 -- 10 in
    let* seed = 0 -- 100000 in
    return (nnodes, n_running, n_queue, seed))

let build_scene (nnodes, n_running, n_queue, seed) =
  let rng = Rng.create seed in
  let pool = Pool.create ~nodes:(List.init nnodes Fun.id) () in
  let running =
    List.filter_map
      (fun i ->
        let want = 1 + Rng.int rng (max 1 (nnodes / 2)) in
        let spec =
          Jobspec.make ~nnodes:want
            ~walltime_est:(10.0 +. Rng.float rng 100.0)
            ~user:(Printf.sprintf "u%d" (Rng.int rng 3))
            ()
        in
        match Pool.try_grant pool ~spec ~nnodes:want with
        | Some g ->
          let j =
            Job.create ~jid:(Printf.sprintf "r%d" i) ~spec ~payload:(Job.Sleep 1.0) ~now:0.0
          in
          Job.set_state j ~now:0.0 Job.Allocated;
          Job.set_state j ~now:0.0 Job.Running;
          Some (j, g)
        | None -> None)
      (List.init n_running Fun.id)
  in
  let queue =
    List.init n_queue (fun i ->
        let want = 1 + Rng.int rng nnodes in
        Job.create
          ~jid:(Printf.sprintf "q%d" i)
          ~spec:
            (Jobspec.make ~nnodes:want
               ~walltime_est:(10.0 +. Rng.float rng 100.0)
               ~user:(Printf.sprintf "u%d" (Rng.int rng 3))
               ~priority:(Rng.int rng 5) ())
          ~payload:(Job.Sleep 1.0) ~now:0.0)
  in
  (pool, queue, running)

let for_all_policies scene check_one =
  let pool, queue, running = build_scene scene in
  List.for_all
    (fun (module P : Policy.S) ->
      let starts = P.schedule ~now:0.0 ~pool ~queue ~running in
      check_one (module P : Policy.S) pool queue starts)
    policies

let prop_no_overcommit =
  QCheck.Test.make ~name:"starts never exceed free nodes" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      for_all_policies scene (fun _ pool _ starts ->
          let total = List.fold_left (fun a s -> a + s.Policy.s_nnodes) 0 starts in
          total <= Pool.free_nodes pool))

let prop_starts_from_queue =
  QCheck.Test.make ~name:"only queued pending jobs start, each at most once" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      for_all_policies scene (fun _ _ queue starts ->
          let jids = List.map (fun s -> s.Policy.s_job.Job.jid) starts in
          List.length (List.sort_uniq compare jids) = List.length jids
          && List.for_all (fun s -> List.memq s.Policy.s_job queue) starts))

let prop_node_counts_within_spec =
  QCheck.Test.make ~name:"chosen node counts respect elasticity bounds" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      for_all_policies scene (fun _ _ _ starts ->
          List.for_all
            (fun s ->
              s.Policy.s_nnodes >= Jobspec.min_nodes s.Policy.s_job.Job.spec
              && s.Policy.s_nnodes <= Jobspec.max_nodes s.Policy.s_job.Job.spec)
            starts))

let prop_fcfs_head_priority =
  QCheck.Test.make ~name:"fcfs never starts anything while the head is blocked" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      let pool, queue, running = build_scene scene in
      let starts = Policy.Fcfs.schedule ~now:0.0 ~pool ~queue ~running in
      match queue with
      | [] -> starts = []
      | head :: _ ->
        if head.Job.spec.Jobspec.nnodes > Pool.free_nodes pool then starts = []
        else (
          match starts with s :: _ -> s.Policy.s_job == head | [] -> false))

let prop_easy_backfill_protects_head =
  QCheck.Test.make ~name:"easy backfill never delays the head reservation" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      let pool, queue, running = build_scene scene in
      match queue with
      | [] -> true
      | head :: _ ->
        let free = Pool.free_nodes pool in
        let head_want = head.Job.spec.Jobspec.nnodes in
        if head_want <= free then true
        else begin
          let starts = Policy.Easy_backfill.schedule ~now:0.0 ~pool ~queue ~running in
          (* Recompute the shadow time from the running set only. *)
          let by_end =
            List.sort compare
              (List.map
                 (fun ((j : Job.t), (g : Pool.grant)) ->
                   ( j.Job.start_time +. j.Job.spec.Jobspec.walltime_est,
                     List.length g.Pool.g_nodes ))
                 running)
          in
          let rec shadow avail = function
            | [] -> (infinity, avail)
            | (t, n) :: rest ->
              let avail = avail + n in
              if avail >= head_want then (t, avail) else shadow avail rest
          in
          let shadow_time, avail_at_shadow = shadow free by_end in
          let spare = avail_at_shadow - head_want in
          (* Every backfilled job either ends before the shadow or fits
             in the spare capacity. *)
          let ok =
            let spare_used = ref 0 in
            List.for_all
              (fun s ->
                let est_end = s.Policy.s_job.Job.spec.Jobspec.walltime_est in
                if est_end <= shadow_time then true
                else begin
                  spare_used := !spare_used + s.Policy.s_nnodes;
                  !spare_used <= spare
                end)
              starts
          in
          ok
        end)

let prop_no_double_allocation =
  QCheck.Test.make ~name:"granting every start yields pairwise-disjoint node sets"
    ~count:300 (QCheck.make gen_scene) (fun scene ->
      for_all_policies scene (fun _ pool _ starts ->
          (* Actually apply the schedule: every start must be grantable
             in order, and no node may appear in two grants (or in a
             grant and a running job's allocation — the pool state
             already excludes running nodes, so a grant containing one
             would be the overlap). *)
          let grants =
            List.map
              (fun s ->
                match
                  Pool.try_grant pool ~spec:s.Policy.s_job.Job.spec ~nnodes:s.Policy.s_nnodes
                with
                | Some g -> g.Pool.g_nodes
                | None -> Alcotest.fail "scheduled start not grantable")
              starts
          in
          let all = List.concat grants in
          List.length (List.sort_uniq compare all) = List.length all))

let prop_grant_release_roundtrip =
  QCheck.Test.make ~name:"allocate then free restores the pool exactly" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      for_all_policies scene (fun _ pool _ starts ->
          let before = List.sort compare (Pool.free_node_list pool) in
          let grants =
            List.filter_map
              (fun s ->
                Pool.try_grant pool ~spec:s.Policy.s_job.Job.spec ~nnodes:s.Policy.s_nnodes)
              starts
          in
          List.iter (Pool.release pool) grants;
          List.sort compare (Pool.free_node_list pool) = before))

let prop_deterministic =
  QCheck.Test.make ~name:"same seed, same scene, same schedule" ~count:300
    (QCheck.make gen_scene) (fun scene ->
      List.for_all
        (fun (module P : Policy.S) ->
          let run () =
            let pool, queue, running = build_scene scene in
            List.map
              (fun s -> (s.Policy.s_job.Job.jid, s.Policy.s_nnodes))
              (P.schedule ~now:0.0 ~pool ~queue ~running)
          in
          run () = run ())
        policies)

(* --- Pool node counters ---------------------------------------------------- *)

(* Random grant/release/expand/shrink/donate/absorb sequences. The pool's
   O(1) counts must equal the lengths of its lists: free nodes are read
   back directly, members are modelled as initial + absorbed - donated. *)
let prop_pool_counters =
  QCheck.Test.make ~name:"pool node counters equal list lengths" ~count:300
    (QCheck.make QCheck.Gen.(triple (1 -- 24) (0 -- 100000) (0 -- 80)))
    (fun (nnodes, seed, nops) ->
      let rng = Rng.create seed in
      let pool = Pool.create ~nodes:(List.init nnodes Fun.id) () in
      let spec = Jobspec.make ~nnodes:1 () in
      let members = ref (List.init nnodes Fun.id) in
      let held = ref [] and donated = ref [] and fresh = ref 1000 in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let replace g g' = held := g' :: List.filter (fun h -> h != g) !held in
      let step () =
        match Rng.int rng 6 with
        | 0 -> (
          match Pool.try_grant pool ~spec ~nnodes:(1 + Rng.int rng 6) with
          | Some g -> held := g :: !held
          | None -> ())
        | 1 when !held <> [] ->
          let g = pick !held in
          Pool.release pool g;
          held := List.filter (fun h -> h != g) !held
        | 2 when !held <> [] -> (
          let g = pick !held in
          match Pool.expand_grant pool g ~spec ~extra:(1 + Rng.int rng 4) with
          | Some g' -> replace g g'
          | None -> ())
        | 3 when !held <> [] ->
          let g = pick !held in
          replace g (Pool.shrink_grant pool g ~spec ~release:(1 + Rng.int rng 4))
        | 4 ->
          let got = Pool.donate_nodes pool (Rng.int rng 5) in
          donated := got @ !donated;
          members := List.filter (fun r -> not (List.mem r got)) !members
        | _ ->
          (* Give back some donated nodes, or brand-new ones. *)
          let back =
            match !donated with
            | r :: rest ->
              donated := rest;
              [ r ]
            | [] ->
              incr fresh;
              [ !fresh ]
          in
          Pool.absorb_nodes pool back;
          members := List.sort_uniq compare (back @ !members)
      in
      let ok () =
        Pool.free_nodes pool = List.length (Pool.free_node_list pool)
        && Pool.total_nodes pool = List.length !members
      in
      let rec go k = k = 0 || (step (); ok () && go (k - 1)) in
      ok () && go nops)

(* --- Pending queue ----------------------------------------------------------- *)

type queue_op = Push of int | Remove of int | View

let gen_queue_ops =
  QCheck.Gen.(
    list_size (0 -- 200)
      (frequency
         [
           (4, map (fun x -> Push x) (0 -- 20));
           (* 21..25 are never pushed: absent removals *)
           (3, map (fun x -> Remove x) (0 -- 25));
           (1, return View);
         ]))

let print_queue_op = function
  | Push x -> Printf.sprintf "push %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | View -> "view"

(* The queue against a plain list: removal drops the first equal
   element, the view is the list, and the length matches throughout. *)
let prop_queue_model =
  QCheck.Test.make ~name:"pending queue behaves like a list" ~count:500
    (QCheck.make ~print:(QCheck.Print.list print_queue_op) gen_queue_ops)
    (fun ops ->
      let q = Job_queue.create () in
      let rec remove_first x = function
        | [] -> []
        | y :: rest -> if y = x then rest else y :: remove_first x rest
      in
      let model =
        List.fold_left
          (fun model op ->
            let model =
              match op with
              | Push x ->
                Job_queue.push q x;
                model @ [ x ]
              | Remove x ->
                Job_queue.remove q x;
                remove_first x model
              | View ->
                if Job_queue.to_list q <> model then QCheck.Test.fail_report "view differs";
                model
            in
            if Job_queue.length q <> List.length model then
              QCheck.Test.fail_report "length differs";
            if Job_queue.is_empty q <> (model = []) then
              QCheck.Test.fail_report "is_empty differs";
            model)
          [] ops
      in
      Job_queue.to_list q = model)

(* EASY backfill can start a job deep in a long queue: removal there
   must not grow the stack. *)
let test_queue_deep_removal () =
  let n = 100_000 in
  let q = Job_queue.create () in
  let items = Array.init n (fun i -> ref i) in
  Array.iter (Job_queue.push q) items;
  Job_queue.remove q items.(n - 1);
  Job_queue.remove q items.(n / 2);
  Job_queue.remove q (ref 0);
  Alcotest.(check int) "length" (n - 2) (Job_queue.length q);
  let view = Job_queue.to_list q in
  Alcotest.(check int) "view length" (n - 2) (List.length view);
  Alcotest.(check bool) "removed members gone" false
    (List.memq items.(n - 1) view || List.memq items.(n / 2) view);
  Alcotest.(check bool) "order kept" true (List.hd view == items.(0))

let () =
  Alcotest.run "flux_policy_props"
    [
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_no_overcommit;
            prop_starts_from_queue;
            prop_node_counts_within_spec;
            prop_fcfs_head_priority;
            prop_easy_backfill_protects_head;
            prop_no_double_allocation;
            prop_grant_release_roundtrip;
            prop_deterministic;
            prop_pool_counters;
          ] );
      ( "queue",
        Alcotest.test_case "100k-deep removal" `Quick test_queue_deep_removal
        :: List.map QCheck_alcotest.to_alcotest [ prop_queue_model ] );
    ]

(* Metric definitions, the record a repetition hands to its parent process,
   fingerprint checks, and the final result line. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Printed with [--trace 0]: figures over the untraced repetitions. *)
let end_to_end =
  [ m "setup_s" "s" Lower; m "run_s" "s" Lower; m "peak_heap_mb" "MB" Lower ]

(* Printed with [--trace 1]: one traced repetition (the one with the
   median run time), plus the tracing overhead against untraced ones. *)
let per_layer =
  [
    m "setup.session_s" "s" Lower;
    m "setup.modules_s" "s" Lower;
    m "setup.spawn_s" "s" Lower;
    m "setup.submit_s" "s" Lower;
    m "engine.self_s" "s" Lower;
    m "engine.events" "count" Lower;
    m "engine.pending_hwm" "count" Lower;
    m "engine.compactions" "count" Lower;
    m "net.self_s" "s" Lower;
    m "net.rpc_msgs" "count" Lower;
    m "net.rpc_bytes" "B" Lower;
    m "net.event_msgs" "count" Lower;
    m "net.event_bytes" "B" Lower;
    m "net.ring_msgs" "count" Lower;
    m "net.drops" "count" Lower;
    m "net.link_depth_hwm" "count" Lower;
    m "session.self_s" "s" Lower;
    m "session.root_ingress_bytes" "B" Lower;
    m "session.rpc_retries" "count" Lower;
    m "session.rpc_timeouts" "count" Lower;
    m "kvs.self_s" "s" Lower;
    m "kvs.put_phase_s" "s" Lower;
    m "kvs.fence_phase_s" "s" Lower;
    m "kvs.get_phase_s" "s" Lower;
    m "kvs.loads" "count" Lower;
    m "kvs.fault_ratio" "ratio" Lower;
    m "kvs.cached_objects" "count" Lower;
    m "kvs.store_mb" "MB" Lower;
    m "json.self_s" "s" Lower;
    m "sha1.self_s" "s" Lower;
    m "modules.self_s" "s" Lower;
    m "modules.barrier_phase_s" "s" Lower;
    m "modules.barrier_enters" "count" Lower;
    m "modules.wexec_tasks" "count" Higher;
    m "core.self_s" "s" Lower;
    m "core.sched_cycles" "count" Lower;
    m "core.jobs_completed" "count" Higher;
    m "util.self_s" "s" Lower;
    m "gc.alloc_mwords" "Mwords" Lower;
    m "gc.promoted_mwords" "Mwords" Lower;
    m "gc.minor_gcs" "count" Lower;
    m "gc.major_gcs" "count" Lower;
    m "gc.pause_s" "s" Lower;
    m "trace.samples" "count" Higher;
    m "trace.overhead" "ratio" Lower;
    m "trace.cpu_s" "s" Lower;
    m "other.self_s" "s" Lower;
  ]

(* --- Recorded fingerprints -------------------------------------------------- *)

let default_seed = 1

(* (sim_events, sim_clock, rpc_messages) of the [Full] workloads on
   the default seed 1 and the held-out seed 2. A pure performance
   change must reproduce them exactly. *)
let recorded : ((string * int) * Work.fingerprint) list =
  [
    (("kap-fence", 1), { Work.sim_events = 154177; sim_clock = 0x1.9c33e2822c02ap-7; rpc_messages = 46766 });
    (("kap-fence", 2), { Work.sim_events = 148801; sim_clock = 0x1.811d2f0903adp-7; rpc_messages = 44078 });
    (("kap-get", 1), { Work.sim_events = 271248; sim_clock = 0x1.289ac4e988d8cp-8; rpc_messages = 13216 });
    (("kap-get", 2), { Work.sim_events = 270988; sim_clock = 0x1.2aa249bdfa7cep-8; rpc_messages = 13086 });
    (("job-launch", 1), { Work.sim_events = 432188; sim_clock = 0x1.6b439f68321b7p+1; rpc_messages = 16524 });
    (("job-launch", 2), { Work.sim_events = 432089; sim_clock = 0x1.7d59062166c9bp+1; rpc_messages = 16472 });
    (("sched-storm", 1), { Work.sim_events = 41575; sim_clock = 0x1.12a8356954e89p+6; rpc_messages = 0 });
    (("sched-storm", 2), { Work.sim_events = 41596; sim_clock = 0x1.13013d8dfae52p+6; rpc_messages = 0 });
  ]

let expected_fp name seed = List.assoc_opt (name, seed) recorded

(* --- Repetition records ------------------------------------------------------- *)

(* A child process prints its outcome as lines of [key fields...];
   floats in hexadecimal so that nothing is lost in transit. *)
let encode (o : Work.outcome) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "size %s\n" o.Work.size;
  Printf.bprintf b "fp %d %h %d\n" o.Work.fp.Work.sim_events o.Work.fp.Work.sim_clock
    o.Work.fp.Work.rpc_messages;
  Printf.bprintf b "ops %d %d\n" o.Work.attempted o.Work.failed;
  List.iter (fun (k, v) -> Printf.bprintf b "m %s %h\n" k v) o.Work.metrics;
  Printf.bprintf b "chunks%s\n"
    (String.concat "" (List.map (Printf.sprintf " %h") o.Work.chunks));
  Buffer.contents b

let decode text =
  let size = ref "" and fp = ref None and ops = ref None and metrics = ref [] in
  let chunks = ref [] in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "size"; s ] -> size := s
      | [ "fp"; e; c; r ] ->
        fp :=
          Some
            {
              Work.sim_events = int_of_string e;
              sim_clock = float_of_string c;
              rpc_messages = int_of_string r;
            }
      | [ "ops"; a; f ] -> ops := Some (int_of_string a, int_of_string f)
      | [ "m"; k; v ] -> metrics := (k, float_of_string v) :: !metrics
      | "chunks" :: xs -> chunks := List.map float_of_string xs
      | _ -> ())
    (String.split_on_char '\n' text);
  match (!fp, !ops) with
  | Some fp, Some (attempted, failed) ->
    Some
      { Work.size = !size; fp; attempted; failed; metrics = List.rev !metrics; chunks = !chunks }
  | _ -> None

(* --- Aggregation --------------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let get (o : Work.outcome) k =
  match List.assoc_opt k o.Work.metrics with
  | Some v -> v
  | None -> invalid_arg ("Report.get: no metric " ^ k)

(* The run time of a run: for each block of events, the time of the
   repetition that ran it fastest, summed over the blocks. Every
   repetition does the same work block for block, and the host's slow
   moments come and go within a repetition, so the fastest time of
   each block is what the code costs on a quiet host. A median over
   whole repetitions instead moves with how much of the run fell in
   slow moments. Repetitions whose block count differs from the
   first's have a different fingerprint and are left out. *)
let fastest_blocks (reps : Work.outcome list) =
  match List.map (fun (o : Work.outcome) -> Array.of_list o.Work.chunks) reps with
  | [] -> Float.nan
  | first :: _ as all ->
    let best = Array.copy first in
    List.iter
      (fun a ->
        if Array.length a = Array.length best then
          Array.iteri (fun i x -> if x < best.(i) then best.(i) <- x) a)
      all;
    Array.fold_left ( +. ) 0.0 best

(* Every repetition must reproduce the first one's fingerprint and,
   where one is recorded for this workload and seed, that one too; a
   repetition that does not counts as one failed operation. *)
let fingerprint_failures ?expected (reps : Work.outcome list) =
  match reps with
  | [] -> 0
  | first :: _ ->
    let want = Option.value expected ~default:first.Work.fp in
    List.length (List.filter (fun (o : Work.outcome) -> o.Work.fp <> want) reps)

type result = {
  attempted : int;
  failed : int;
  values : (metric * float) list;
}

(* [untraced] and [traced] are the repetitions of one run, [setups]
   the set-up times of extra set-up-only processes. Without [trace]
   run time is [fastest_blocks] of the untraced repetitions, and the
   other values are medians over them, with set-up time taken over
   those and [setups] together. With [trace] they come
   from the traced repetition whose run time is the median one, so
   that its self times still sum to its CPU seconds. *)
let aggregate ?expected ?(setups = []) ~trace ~untraced ~traced () =
  let all = untraced @ traced in
  let attempted =
    List.fold_left (fun acc (o : Work.outcome) -> acc + o.Work.attempted + 1) 0 all
  in
  let failed =
    List.fold_left (fun acc (o : Work.outcome) -> acc + o.Work.failed) 0 all
    + fingerprint_failures ?expected all
  in
  let values =
    if not trace then
      List.map
        (fun mt ->
          let xs = List.map (fun o -> get o mt.name) untraced in
          match mt.name with
          | "setup_s" -> (mt, median (xs @ setups))
          | "run_s" -> (mt, fastest_blocks untraced)
          | _ -> (mt, median xs))
        end_to_end
    else begin
      let by_run = List.sort (fun a b -> compare (get a "run_s") (get b "run_s")) traced in
      let rep = List.nth by_run ((List.length by_run - 1) / 2) in
      let run_s reps = median (List.map (fun o -> get o "run_s") reps) in
      let overhead = (run_s traced /. run_s untraced) -. 1.0 in
      List.map
        (fun mt -> (mt, if mt.name = "trace.overhead" then overhead else get rep mt.name))
        per_layer
    end
  in
  { attempted; failed; values }

(* The human-readable profile of one traced repetition. *)
let profile (o : Work.outcome) =
  let cpu = get o "trace.cpu_s" in
  let pct x = if cpu > 0.0 then 100.0 *. x /. cpu else 0.0 in
  let b = Buffer.create 512 in
  Printf.bprintf b "%-8s %9s %6s %9s %6s   (%.0f samples over %.3f CPU s)\n" "layer" "self_s" "self%"
    "incl_s" "incl%" (get o "trace.samples") cpu;
  List.iter
    (fun l ->
      let self = get o (l ^ ".self_s") and incl = get o (l ^ ".incl_s") in
      Printf.bprintf b "%-8s %9.4f %6.1f %9.4f %6.1f\n" l self (pct self) incl (pct incl))
    Layers.self_layers;
  Buffer.contents b

let json_number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let to_json r =
  let metrics =
    List.map
      (fun (mt, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_number v) mt.unit_)
      r.values
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

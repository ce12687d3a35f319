(* Benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs repetitions of workload W, each in a fresh process (the
   simulator's memo tables and heap high-water mark would otherwise
   carry over), until S seconds have passed, and prints one JSON line:
   end-to-end figures with --trace 0, per-layer figures of a traced
   repetition with --trace 1. A repetition is this same executable
   invoked with --rep; it prints its outcome as a record on stdout. *)

let workload = ref ""
let seed = ref Report.default_seed
let seconds = ref 10
let trace = ref 0
let rep = ref false
let traced = ref false
let setup_only = ref false
let cpu = ref (-1)

let specs =
  [
    ("--workload", Arg.Set_string workload, " kap-fence | kap-get | job-launch | sched-storm");
    ("--seed", Arg.Set_int seed, " input seed");
    ("--seconds", Arg.Set_int seconds, " how long to keep repeating");
    ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ("--rep", Arg.Set rep, " run one repetition in this process and print its record");
    ("--traced", Arg.Set traced, " with --rep: trace the repetition");
    ("--cpu", Arg.Set_int cpu, " with --rep: run on this CPU only");
    ( "--setup-only",
      Arg.Set setup_only,
      " with --rep: only build the simulation, several times over; print each set-up time" );
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin : int -> unit = "perfbench_pin"

(* Child processes run one at a time, each on the next CPU this
   process may use. Left alone, the kernel starts every child on the
   same CPU; but the host slows its CPUs down independently, for
   seconds at a time, and run_s keeps each block's fastest time, so
   children spread over every CPU find the fast moments more often. *)
let cpus = allowed_cpus ()

(* [turn] counts the children of one kind, so that each kind cycles
   through the CPUs whatever else is spawned between them. *)
let spawn ~turn w extra =
  let on_cpu =
    if Array.length cpus = 0 then []
    else [ "--cpu"; string_of_int cpus.(!turn mod Array.length cpus) ]
  in
  incr turn;
  let args =
    [ Sys.executable_name; "--rep"; "--workload"; w; "--seed"; string_of_int !seed ]
    @ on_cpu @ extra
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> text
  | _ -> die "repetition of %s (seed %d) failed" w !seed

let untraced_spawned = ref 0
let traced_spawned = ref 0
let setups_spawned = ref 0

let spawn_rep w ~traced =
  let turn, extra = if traced then (traced_spawned, [ "--traced" ]) else (untraced_spawned, []) in
  match Report.decode (spawn ~turn w extra) with
  | Some o -> o
  | None -> die "repetition of %s (seed %d) printed no record" w !seed

(* Set-ups per set-up-only process. Only the first of them pays for
   the fresh process's first-touch page faults, whose cost swings with
   the host's memory pressure far more than the set-up work itself. *)
let setups_per_process = 6

let spawn_setups w =
  match
    List.map float_of_string_opt
      (String.split_on_char ' '
         (String.trim (spawn ~turn:setups_spawned w [ "--setup-only" ])))
  with
  | times when List.length times = setups_per_process && List.for_all Option.is_some times ->
    List.map Option.get times
  | _ -> die "set-up of %s (seed %d) printed no times" w !seed

let log_rep w ~traced (o : Work.outcome) =
  let samples = Option.value ~default:0.0 (List.assoc_opt "trace.samples" o.Work.metrics) in
  Printf.eprintf
    "{\"workload\": %S, \"seed\": %d, \"size\": %S, \"traced\": %b, \"samples\": %.0f, \
     \"setup_s\": %.6f, \"run_s\": %.6f, \"run_cpu_s\": %.6f, \"peak_heap_mb\": %.3f, \"sim_events\": %d, \
     \"sim_clock\": %.17g, \"rpc_messages\": %d, \"attempted\": %d, \"failed\": %d}\n%!"
    w !seed o.Work.size traced samples (Report.get o "setup_s") (Report.get o "run_s")
    (Report.get o "run_cpu_s")
    (Report.get o "peak_heap_mb") o.Work.fp.Work.sim_events o.Work.fp.Work.sim_clock
    o.Work.fp.Work.rpc_messages o.Work.attempted o.Work.failed

(* With --trace 1, traced and untraced repetitions alternate so that
   the overhead compares runs made under the same machine load. *)
let drive w =
  let deadline = Unix.gettimeofday () +. float_of_int !seconds in
  let untraced = ref [] and traced = ref [] and setups = ref [] in
  let min_untraced = if !trace = 1 then 1 else 3 in
  let rec loop i =
    let short = List.length !untraced < min_untraced || (!trace = 1 && !traced = []) in
    if short || Unix.gettimeofday () < deadline then begin
      let tr = !trace = 1 && i mod 2 = 0 in
      let o = spawn_rep w ~traced:tr in
      log_rep w ~traced:tr o;
      if tr then traced := o :: !traced
      else begin
        untraced := o :: !untraced;
        if !trace = 0 then setups := spawn_setups w @ !setups
      end;
      loop (i + 1)
    end
  in
  loop 0;
  let r =
    Report.aggregate
      ?expected:(Report.expected_fp w !seed)
      ~setups:!setups ~trace:(!trace = 1) ~untraced:(List.rev !untraced) ~traced:(List.rev !traced) ()
  in
  print_endline (Report.to_json r)

let () =
  Arg.parse (Arg.align specs) (fun a -> die "unexpected argument %S" a) "perfbench options:";
  let w =
    match List.assoc_opt !workload Work.workloads with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !rep && !cpu >= 0 then pin !cpu;
  if !seconds < 1 then die "--seconds must be at least 1";
  if !rep && !setup_only then
    print_endline
      (String.concat " "
         (List.init setups_per_process (fun _ ->
              Printf.sprintf "%h" (Work.setup_only Work.Full w ~seed:!seed))))
  else if !rep then begin
    let o = Work.run Work.Full w ~seed:!seed ~traced:!traced in
    if !traced then prerr_string (Report.profile o);
    print_string (Report.encode o)
  end
  else drive !workload

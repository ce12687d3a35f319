(* Statistical profiler for one traced repetition. An ITIMER_PROF timer
   raises SIGPROF in proportion to the process's CPU time (in practice
   at the kernel tick, ~250 Hz); the OCaml handler runs at the next safe
   point and walks the call stack, which on OCaml 5 crosses from a
   simulated process's fiber into the engine loop that resumed it.
   The same handler drains a Runtime_events cursor so that GC pause
   time (minor collections and major slices) is summed without the
   ring wrapping. *)

type result = {
  samples : int;
  self : (string * int) list;  (** layer -> samples charged as self time *)
  inclusive : (string * int) list;  (** layer -> samples with it on the stack *)
  pause_s : float;
  lost_events : int;
}

let self_counts : (string, int) Hashtbl.t = Hashtbl.create 16
let incl_counts : (string, int) Hashtbl.t = Hashtbl.create 16
let samples = ref 0
let pause_ns = ref 0L
let lost = ref 0
let gc_depth = ref 0
let gc_since = ref 0L
let cursor : Runtime_events.cursor option ref = ref None

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let frame_files () =
  match Printexc.backtrace_slots (Printexc.get_callstack 512) with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun s ->
           Option.map (fun l -> l.Printexc.filename) (Printexc.Slot.location s))

(* Minor collections and major slices can nest (a slice may start
   inside a forced minor GC): only the outermost interval counts. *)
let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if is_pause phase then begin
        if !gc_depth = 0 then gc_since := Runtime_events.Timestamp.to_int64 ts;
        incr gc_depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if is_pause phase && !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 then
          pause_ns :=
            Int64.add !pause_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !gc_since)
      end)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let drain () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None : int)
  | None -> ()

let on_sample _ =
  incr samples;
  let files = frame_files () in
  bump self_counts (Layers.self_of_frames files);
  List.iter (bump incl_counts) (Layers.inclusive_of_frames files);
  drain ()

let start () =
  Hashtbl.reset self_counts;
  Hashtbl.reset incl_counts;
  samples := 0;
  pause_ns := 0L;
  lost := 0;
  gc_depth := 0;
  Runtime_events.start ();
  let c = Runtime_events.create_cursor None in
  cursor := Some c;
  (* Skip whatever the ring held before this repetition. *)
  ignore (Runtime_events.read_poll c (Runtime_events.Callbacks.create ()) None : int);
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sample);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.001; it_value = 0.001 }
      : Unix.interval_timer_status)

let stop () =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 }
      : Unix.interval_timer_status);
  (* SIGPROF's default action kills the process: a signal still pending
     after the timer stops must be ignored, not defaulted. *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  drain ();
  (match !cursor with Some c -> Runtime_events.free_cursor c | None -> ());
  cursor := None;
  Runtime_events.pause ();
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  {
    samples = !samples;
    self = sorted self_counts;
    inclusive = sorted incl_counts;
    pause_s = Int64.to_float !pause_ns /. 1e9;
    lost_events = !lost;
  }

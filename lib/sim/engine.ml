module Heap = Flux_util.Heap

(* Each scheduled event is exactly one [handle], queued at most once:
   [schedule_at] makes a fresh one per event, and the persistent handle
   of [every] is never queued. [queued] lets [cancel] count cancelled
   entries still in the queue without touching it; only a fired handle
   needs it cleared, since a cancelled one ignores further cancels.
   [eng] is [None] only in [vacant], the sentinel that fills the
   queue's empty slots. *)
type t = {
  queue : handle Heap.t;
  self : t option;
  mutable clock : float;
  mutable executed : int;
  mutable cancelled_pending : int;
  mutable compactions : int;
}

and handle = {
  mutable cancelled : bool;
  mutable queued : bool;
  fn : unit -> unit;
  eng : t option;
}

let vacant = { cancelled = true; queued = false; fn = ignore; eng = None }

(* Below this size the lazy drain in [step] is already cheap; compacting
   would just churn the array. *)
let compact_floor = 64

let create () =
  let rec t =
    {
      queue = Heap.create ~dummy:vacant;
      self = Some t;
      clock = 0.0;
      executed = 0;
      cancelled_pending = 0;
      compactions = 0;
    }
  in
  t

let now t = t.clock

let pending t = Heap.length t.queue

let cancelled_pending t = t.cancelled_pending

let compactions t = t.compactions

(* Cancelled entries never advance the clock or the executed count (see
   [drain_cancelled]), so dropping them early is unobservable through
   the public API. Compact when they outnumber the live entries. *)
let maybe_compact t =
  let len = Heap.length t.queue in
  if len >= compact_floor && t.cancelled_pending > len - t.cancelled_pending then begin
    Heap.filter t.queue (fun h -> not h.cancelled);
    t.cancelled_pending <- 0;
    t.compactions <- t.compactions + 1
  end

let schedule_at t ~time fn =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time t.clock);
  let h = { cancelled = false; queued = true; fn; eng = t.self } in
  Heap.push t.queue time h;
  h

let schedule t ~delay fn =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) fn

let cancel h =
  match h.eng with
  | Some t when not h.cancelled ->
    h.cancelled <- true;
    if h.queued then t.cancelled_pending <- t.cancelled_pending + 1;
    maybe_compact t
  | _ -> ()

let every t ~period fn =
  if not (period > 0.0) then invalid_arg "Engine.every: period must be positive";
  (* A persistent handle, never queued itself: cancelling it stops the
     chain of reschedules. Each queued tick still rides its own fresh
     handle, so a tick already in flight when the chain is cancelled
     fires as a no-op — the clock and event count advance exactly as
     they always did. [tick] is the only closure this loop ever
     allocates; reschedules push it as-is. *)
  let h = { cancelled = false; queued = false; fn = ignore; eng = t.self } in
  let rec tick () =
    if not h.cancelled then begin
      fn ();
      if not h.cancelled then ignore (schedule t ~delay:period tick : handle)
    end
  in
  ignore (schedule t ~delay:period tick : handle);
  h

(* Cancelled events are drained without advancing the clock: a timer
   that was disarmed (e.g. an RPC deadline whose response arrived) must
   not distort the simulation's end time. *)
let drain_cancelled t =
  let q = t.queue in
  while (not (Heap.is_empty q)) && (Heap.top q).cancelled do
    ignore (Heap.pop_top q : handle);
    t.cancelled_pending <- t.cancelled_pending - 1
  done

(* Fires the top event, which [drain_cancelled] has left live. *)
let fire t =
  t.clock <- Heap.top_prio t.queue;
  let h = Heap.pop_top t.queue in
  h.queued <- false;
  t.executed <- t.executed + 1;
  h.fn ()

let step t =
  drain_cancelled t;
  if Heap.is_empty t.queue then false
  else begin
    fire t;
    true
  end

let run ?(until = infinity) t =
  let rec loop () =
    drain_cancelled t;
    if not (Heap.is_empty t.queue) then
      if Heap.top_prio t.queue > until then t.clock <- until
      else begin
        fire t;
        loop ()
      end
  in
  loop ()

let events_executed t = t.executed

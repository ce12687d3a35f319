(** The pending queue of a scheduler, in submission order.

    Shared by {!Instance} and the centralized baseline. A task stream
    pushes one job per submission and removes one per start, so every
    operation a scheduling cycle pays per job is O(1): push and length
    are constant time, and removing the head (the FCFS case) is too.
    The in-order list handed to {!Policy.S.schedule} is rebuilt only in
    the first {!to_list} after new pushes. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
(** O(1): read from a counter. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail, O(1). *)

val to_list : 'a t -> 'a list
(** Every element, oldest first. O(1) unless elements were pushed since
    the last call, in which case the view is rebuilt once in O(length). *)

val remove : 'a t -> 'a -> unit
(** Remove the first element physically equal to the argument; no-op if
    there is none. Works on the {!to_list} view (rebuilding it first if
    needed) and then costs O(position): the untouched tail after the
    match is shared, and the walk is tail-recursive, so removal at any
    depth is stack-safe. *)

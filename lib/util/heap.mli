(** 4-ary min-heap with stable ordering, stored as flat parallel arrays.

    Elements inserted with equal priority are popped in insertion order,
    which makes simulations built on the heap fully deterministic.
    Priorities are held unboxed; [push], [top_prio], [top] and [pop_top]
    allocate nothing (except when [push] doubles the arrays). *)

type 'a t
(** Mutable heap of elements of type ['a], prioritized by a float key. *)

val create : dummy:'a -> 'a t
(** [create ~dummy] is a fresh empty heap. Every slot not holding a
    queued element holds [dummy], so the heap never keeps a popped,
    filtered or cleared element alive. *)

val length : 'a t -> int
(** [length h] is the number of elements currently in [h]. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val push : 'a t -> float -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. Smaller priorities
    pop first; ties pop in insertion order. [prio] must not be NaN. *)

val top_prio : 'a t -> float
(** [top_prio h] is the priority of the minimum element. Raises
    [Invalid_argument] on an empty heap. *)

val top : 'a t -> 'a
(** [top h] is the minimum element, left in place. Raises
    [Invalid_argument] on an empty heap. *)

val pop_top : 'a t -> 'a
(** [pop_top h] removes and returns the minimum element. Raises
    [Invalid_argument] on an empty heap. *)

val pop : 'a t -> (float * 'a) option
(** [pop h] removes and returns the minimum element with its priority,
    or [None] if empty. Allocates the result; hot loops use [top_prio]
    and [pop_top]. *)

val clear : 'a t -> unit
(** [clear h] removes all elements. *)

val filter : 'a t -> ('a -> bool) -> unit
(** [filter h keep] removes every element for which [keep] is false, in
    O(n). Survivors keep their insertion rank, so their relative pop
    order — including ties — is exactly what it would have been. *)

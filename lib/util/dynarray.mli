(** Growable arrays.

    OCaml 5.1's standard library does not yet ship [Dynarray]; this is a
    small, self-contained replacement used throughout the code base for
    collecting elements whose count is unknown in advance. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is a fresh empty dynamic array. *)


val length : 'a t -> int

val get : 'a t -> int -> 'a
(** [get t i] is element [i]. @raise Invalid_argument if out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i x] replaces element [i]. @raise Invalid_argument if out of
    bounds. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x] at the end, growing the backing store as
    needed. *)

val pop : 'a t -> 'a
(** [pop t] removes and returns the last element.  The freed slot is
    junk-filled (overwritten with a still-live element) so the popped
    value does not leak by staying reachable from the backing store.
    @raise Invalid_argument on an empty array. *)

val clear : 'a t -> unit
(** [clear t] removes all elements and releases the backing store, so
    the cleared elements become collectable immediately. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val exists : ('a -> bool) -> 'a t -> bool

val to_array : 'a t -> 'a array
(** [to_array t] is a fresh array with the elements of [t] in order. *)

val to_list : 'a t -> 'a list

val of_list : 'a list -> 'a t

val of_array : 'a array -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** [sort cmp t] sorts [t] in place. *)

(** Over-decomposition geometry: the global grid is split into
    [count] relocatable {e blocks} — more blocks than ranks — and a
    mutable ownership table maps each block to the rank currently
    stepping it.  A block is identified by its id (its "rank" in the
    underlying {!Decomp}); [Bc.Domain n] faces of a block's boundary
    carry the {e neighbour block id}, not a rank.  This module is pure
    geometry; the per-block runtime state bundle lives in the core
    simulation layer and the routing in [vpic_parallel]. *)

type t

(** Blocks over a decomposition (typically [Decomp.size d >= nranks]). *)
val over : Decomp.t -> t

val decomp : t -> Decomp.t

(** Number of blocks. *)
val count : t -> int

(** Local grid of block [id] (remainder-aware dims and origin). *)
val grid : t -> dt:float -> id:int -> Grid.t

(** Boundary of block [id]; [Bc.Domain n] faces carry neighbour
    {e block} ids. *)
val bc : t -> global:Bc.t -> id:int -> Bc.t

(** Neighbour block id across a face (periodic wrap). *)
val neighbor : t -> id:int -> axis:Axis.t -> side:[ `Lo | `Hi ] -> int

(** Interior dims of block [id]. *)
val dims : t -> id:int -> int * int * int

(** Ghost-inclusive plane size (floats) of block [id] across [axis]:
    the port capacity one of its fill planes needs. *)
val plane_floats : t -> id:int -> axis:Axis.t -> int

(** Block -> rank ownership table.  Every rank holds an identical copy
    and applies the same collectively-agreed move list, so the table
    never diverges across the world. *)
module Ownership : sig
  type t

  (** Contiguous initial assignment: block [b] -> rank
      [b * nranks / nblocks] (remainder-fair). *)
  val initial : nblocks:int -> nranks:int -> t

  val of_array : int array -> t
  val nblocks : t -> int
  val owner : t -> int -> int
  val snapshot : t -> int array
  val owned : t -> rank:int -> int list

  (** Apply a move list [(block, new_rank)]; bumps {!version} when
      non-empty. *)
  val apply : t -> (int * int) list -> unit

  (** Incremented on every non-empty {!apply} — send-port caches key
      off this. *)
  val version : t -> int
end

(** Message-passing runtime: the role MPI plays in the paper, implemented
    over OCaml 5 domains.  Ranks are spawned by {!run}; each gets a handle
    carrying its rank and the shared world.  Two mechanisms carry all
    traffic: persistent {e ports} for data (ghost fills, folds, movers)
    and one {e rendezvous} for every collective ({!allgather}, the
    reductions and {!barrier}). *)

type t

(** {1 Failure semantics}

    A blocking wait ({!port_wait}, {!port_reserve} back-pressure,
    {!barrier} and the collectives) ends with data or with {!Rank_failed}
    when another rank's domain died by exception.  A dying rank poisons
    the whole world on its way out (see {!run}), so peers fail fast
    carrying the culprit's error instead of hanging on a message that
    will never arrive.  Port messages already committed before a death
    are still delivered. *)

(** Another rank's domain died; [error] is its rendered exception. *)
exception Rank_failed of { rank : int; error : string }

(** [run ~ranks f] spawns [ranks] domains, runs [f handle] on each and
    returns the per-rank results (index = rank).  If any rank raises, the
    world is poisoned (waiters on the other ranks raise {!Rank_failed}),
    every domain is joined, and the root-cause exception — not the
    [Rank_failed] cascade it provoked — is re-raised here. *)
val run : ranks:int -> (t -> 'a) -> 'a array

val rank : t -> int
val size : t -> int

(** {1 Shrinking-world recovery}

    A world can survive rank deaths instead of aborting.  Survivors that
    catch a {!Rank_failed} funnel into {!recover}: a failure-detector
    barrier that completes when every still-live rank has arrived (the
    quorum re-shrinks if further ranks die mid-round).  The last arriver
    resets the world for the next {e epoch}: the death flag clears, a
    half-filled rendezvous round is discarded, and every message still
    sitting in a port ring is invalidated — ports stamp each message
    with the sender's epoch, and consumers silently discard stamps older
    than the current epoch, so pre-rollback traffic can never corrupt
    the recovered run.  Collectives are survivor-aware throughout: a
    round's quorum is the live count and only the ranks that arrived
    contribute. *)

(** [recover t] enters the failure-detector barrier and returns the
    agreed (sorted) casualty list once every survivor has arrived.
    Call only after catching a failure; all live ranks must call it. *)
val recover : t -> int list

(** False once [rank] has died in any epoch. *)
val alive : t -> rank:int -> bool

(** Live ranks, ascending. *)
val live_ranks : t -> int list

(** The lowest live rank: the one that speaks for the world (prints,
    commits checkpoint generations). *)
val root : t -> int

(** Current world epoch (0 until the first completed recovery). *)
val epoch : t -> int

(** Like {!run} but rank deaths are expected: per-rank outcomes are
    returned as [result]s and nothing is re-raised, so a world in which
    survivors absorbed deaths via {!recover} still returns normally.
    Index = rank; dead ranks hold [Error] with their original exception. *)
val run_recoverable : ranks:int -> (t -> 'a) -> ('a, exn) result array

(** {1 Persistent ports}

    The data path.  Each rank registers a fixed array of receive slots
    once (collectively, in the same order on every rank, so slot indices
    agree across ranks).  A slot is a small fixed-depth ring of
    preallocated [Bigarray] Float32 buffers: the sender packs its payload
    straight into the next ring buffer ({!port_reserve} / {!port_commit})
    and never allocates unless the payload has outgrown the registered
    capacity; a receive runs a callback on the ring buffer in place.
    Each port carries exactly one sender and one consumer (its owner);
    payload packing and unpacking run with the slot lock released, so
    the two overlap. *)

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Fresh Float32 wire buffer of (at least) the given length. *)
val buf32_create : int -> buf32

type port

(** [port_register t ~capacities] creates [Array.length capacities]
    receive slots owned by this rank (element [i] sized [capacities.(i)]
    floats) and returns their base index.  Must be called collectively in
    the same order on every rank.  [names] (parallel to [capacities])
    label the slots for the wait observer. *)
val port_register : ?names:string array -> t -> capacities:int array -> int

(** [port t ~rank ~index] resolves a slot owned by [rank], blocking until
    that rank has registered it.  Resolve once and keep the handle: the
    lookup takes the world lock, the handle's operations only the slot's. *)
val port : t -> rank:int -> index:int -> port

(** [port_reserve p ~len] claims the slot's next ring buffer for the
    sender to pack [len] floats into, blocking while the ring is full of
    unconsumed messages (back-pressure).  Must be paired with
    {!port_commit}; only one reserve may be outstanding per port. *)
val port_reserve : port -> len:int -> buf32

(** [port_commit p ~len] publishes the reserved buffer's first [len]
    floats to the consumer. *)
val port_commit : port -> len:int -> unit

(** [port_post p buf ~len] reserve + copy + commit in one call, for
    payloads already packed elsewhere. *)
val port_post : port -> buf32 -> len:int -> unit

(** [port_wait p ~f] parks for the oldest unconsumed message and runs
    [f buffer len] on it in place, then retires the ring entry.  [f] runs
    outside the slot lock; the entry cannot be overwritten while [f]
    reads it (back-pressure).  Single-consumer: only the owning rank may
    wait on a port.  Raises {!Rank_failed} if a peer died and nothing is
    left to drain. *)
val port_wait : port -> f:(buf32 -> int -> unit) -> unit

(** {1 Wait observation}

    A per-domain hook reporting every {!port_wait}: how long the caller
    parked before a message was available ([on_wait], called on success
    and on failure).  Nothing calls [on_timeout] any more: no wait is
    bounded in time.  Installed by the telemetry layer to measure the
    comm-wait fraction; one atomic load per wait when no observer is
    installed anywhere. *)
type wait_observer = {
  on_wait : port:string -> seconds:float -> unit;
  on_timeout : port:string -> unit;
}

(** Install ([Some]) or remove ([None]) the calling domain's observer.
    The observer runs on the waiting domain, outside the port lock. *)
val set_wait_observer : wait_observer option -> unit

(** {1 Collectives}

    Every live rank must call each collective, in the same order. *)

(** [allgather t x] returns every rank's contribution, indexed by rank,
    with [[||]] for a rank that did not take part (dead, or one that
    contributed [[||]]).  The rows are one snapshot shared by every
    rank: read them, never write them.  A round that meets a death not
    yet absorbed by {!recover} fails alike on every participant: each
    raises {!Rank_failed}, including the rank whose arrival completed
    the shrunken quorum, so no rank returns a partial board. *)
val allgather : t -> float array -> float array array

(** {!allgather} with nothing to carry. *)
val barrier : t -> unit

(** The reductions fold the {!allgather} snapshot in ascending rank
    order, so every rank gets bitwise the same value. *)

val allreduce_sum : t -> float -> float
val allreduce_max : t -> float -> float

(** Element-wise sum of equal-length arrays. *)
val allreduce_sum_array : t -> float array -> float array

(** Element-wise max of equal-length arrays. *)
val allreduce_max_array : t -> float array -> float array

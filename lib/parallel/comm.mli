(** Message-passing runtime: the role MPI plays in the paper, implemented
    over OCaml 5 domains.  Ranks are spawned by {!run}; each gets a handle
    carrying its rank and the shared world.  Point-to-point messages are
    float arrays (buffered, non-blocking sends; blocking receives matched
    on (source, tag) in FIFO order per pair). *)

type t

(** {1 Failure semantics}

    A blocking wait ({!port_wait}, {!recv}, {!barrier}, the collectives,
    and {!port_reserve} back-pressure) can end three ways: with data,
    with {!Comm_timeout} when the caller supplied a [?deadline] that
    passed, or with {!Rank_failed} when another rank's domain died by
    exception.  A dying rank poisons the whole world on its way out
    (see {!run}), so peers fail fast carrying the culprit's error instead
    of hanging on a message that will never arrive.  Messages already
    posted before a death are still delivered. *)

(** A deadline passed with nothing received.  [port] names the stuck
    endpoint — for exchange ports: block, purpose, axis and direction;
    for mailbox receives: source and tag. *)
exception Comm_timeout of { port : string; waited : float }

(** Another rank's domain died; [error] is its rendered exception. *)
exception Rank_failed of { rank : int; error : string }

(** Raised by a blocking operation issued by a rank the world has marked
    dead (e.g. one accused of hanging by a peer's timeout): the rank must
    stand down, it is no longer part of any quorum. *)
exception Excluded of { rank : int }

(** [run ~ranks f] spawns [ranks] domains, runs [f handle] on each and
    returns the per-rank results (index = rank).  If any rank raises, the
    world is poisoned (waiters on the other ranks raise {!Rank_failed}),
    every domain is joined, and the root-cause exception — not the
    [Rank_failed] cascade it provoked — is re-raised here. *)
val run : ranks:int -> (t -> 'a) -> 'a array

(** Poison the world by hand, as if this rank had died with [error].
    {!run} does this automatically on an escaping exception; exposed for
    embeddings that manage domains themselves. *)
val poison : t -> error:string -> unit

val rank : t -> int
val size : t -> int

(** {1 Shrinking-world recovery}

    A world can survive rank deaths instead of aborting.  Survivors that
    catch a {!Rank_failed} funnel into {!recover}: a failure-detector
    barrier that completes when every still-live rank has arrived (the
    quorum re-shrinks if further ranks die mid-round).  The last arriver
    resets the world for the next {e epoch} — the death flag clears, the
    barrier arrival count re-zeroes, and every message still sitting in
    a port ring or mailbox queue is invalidated: ports and mailboxes
    stamp each message with the sender's epoch, and consumers silently
    discard stamps older than the current epoch, so pre-rollback traffic
    can never corrupt the recovered run.  Collectives and barriers are
    survivor-aware throughout: the root is the lowest live rank, only
    live ranks participate, and a barrier's completion quorum is the
    live count.  In a world that never lost a rank all of this reduces
    to the historical root-0, all-ranks behaviour. *)

(** [recover t] enters the failure-detector barrier and returns the
    agreed (sorted) casualty list once every survivor has arrived.
    Raises {!Excluded} if this rank is itself on the casualty list.
    Call only after catching a failure; all live ranks must call it. *)
val recover : t -> int list

(** Mark [peer] dead by hand — the accusation a rank makes when a
    deadline expired with no recorded death (the peer is presumed hung).
    Wakes every parked waiter in the world, like any other death. *)
val accuse : t -> peer:int -> error:string -> unit

(** False once [rank] has died (or been accused) in any epoch. *)
val alive : t -> rank:int -> bool

(** Live ranks, ascending. *)
val live_ranks : t -> int list

(** The lowest live rank: root of the survivor-aware collectives. *)
val root : t -> int

(** Current world epoch (0 until the first completed recovery). *)
val epoch : t -> int

(** Like {!run} but rank deaths are expected: per-rank outcomes are
    returned as [result]s and nothing is re-raised, so a world in which
    survivors absorbed deaths via {!recover} still returns normally.
    Index = rank; dead ranks hold [Error] with their original exception. *)
val run_recoverable : ranks:int -> (t -> 'a) -> ('a, exn) result array

(** {1 Persistent ports}

    The steady-state data path.  Each rank registers a fixed array of
    receive slots once (collectively, in the same order on every rank, so
    slot indices agree across ranks).  A slot is a small fixed-depth ring of
    preallocated [Bigarray] Float32 buffers: the sender packs its payload
    straight into the next ring buffer ({!port_reserve} / {!port_commit})
    and never allocates unless the payload has outgrown the registered
    capacity; a receive runs a callback on the ring buffer in place.  No
    hashtable, no queue nodes, no per-message arrays — array-indexed
    slots and two counters per slot.  Each port carries exactly one
    sender and one consumer (its owner); payload packing and unpacking
    run with the slot lock released, so the two overlap. *)

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Fresh Float32 wire buffer of (at least) the given length. *)
val buf32_create : int -> buf32

type port

(** [port_register t ~capacities] creates [Array.length capacities]
    receive slots owned by this rank (element [i] sized [capacities.(i)]
    floats) and returns their base index.  Must be called collectively in
    the same order on every rank.  [names] (parallel to [capacities])
    label the slots for {!Comm_timeout} diagnoses and fault injection. *)
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

(** [port_wait p ~f] blocks for the oldest unconsumed message and runs
    [f buffer len] on it in place, then retires the ring entry.  [f] runs
    outside the slot lock; the entry cannot be overwritten while [f]
    reads it (back-pressure).  Single-consumer: only the owning rank may
    wait on a port.

    [deadline] (seconds) bounds the wait: raises {!Comm_timeout} naming
    the port once it passes.  Without a deadline the wait parks on a
    condition variable (no polling); with one it degrades to a sleep-poll,
    so leave it unset on latency-critical steady-state paths.  Raises
    {!Rank_failed} if a peer died and nothing is left to drain. *)
val port_wait : ?deadline:float -> port -> f:(buf32 -> int -> unit) -> unit

(** Like {!port_wait} but returns [false] immediately when nothing is
    pending. *)
val port_try_recv : port -> f:(buf32 -> int -> unit) -> bool

(** {1 Wait observation}

    A per-domain hook reporting every {!port_wait}: how long the caller
    parked before a message was available ([on_wait], called on success
    and on failure) and every deadline expiry ([on_timeout], called
    before the {!Comm_timeout} propagates).  Installed by the telemetry
    layer to measure the comm-wait fraction; one atomic load per wait
    when no observer is installed anywhere. *)
type wait_observer = {
  on_wait : port:string -> seconds:float -> unit;
  on_timeout : port:string -> unit;
}

(** Install ([Some]) or remove ([None]) the calling domain's observer.
    The observer runs on the waiting domain, outside the port lock. *)
val set_wait_observer : wait_observer option -> unit

(** {1 Point-to-point (blocking shim)}

    The original mailbox API, kept for collectives, tests and low-rate
    control traffic.  Routes through a per-rank hashtable of queues and
    allocates per message; use ports on any per-step path. *)

(** Non-blocking buffered send.  Raises [Invalid_argument] if [tag] is in
    the reserved collective range (see {!tag_is_reserved}). *)
val send : t -> dst:int -> tag:int -> float array -> unit

(** Blocking receive of the oldest message from [src] with [tag].
    [deadline] (seconds) bounds the wait with {!Comm_timeout}, as in
    {!port_wait}. *)
val recv : ?deadline:float -> t -> src:int -> tag:int -> float array

(** True for tags reserved by the collectives (all negative tags). *)
val tag_is_reserved : int -> bool

(** {1 Collectives} (every rank must participate) *)

val barrier : t -> unit
val allreduce_sum : t -> float -> float
val allreduce_min : t -> float -> float
val allreduce_max : t -> float -> float

(** Element-wise sum of equal-length arrays. *)
val allreduce_sum_array : t -> float array -> float array

(** Element-wise max of equal-length arrays. *)
val allreduce_max_array : t -> float array -> float array

(** [bcast t ~root x] returns root's [x] on every rank. *)
val bcast : t -> root:int -> float array -> float array

(** Gather each rank's array at the root (None elsewhere). *)
val gather : t -> root:int -> float array -> float array array option

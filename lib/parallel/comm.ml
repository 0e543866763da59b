(* Concurrency/ownership rule (audited for the worker-team refactor):
   every shared structure here (ports, the rendezvous, the [dead] flag)
   is mutex-guarded, so the layer is memory-safe under any caller domain
   — but the *protocol* is rank-scoped: port traffic, collectives and
   barriers must be issued by the rank's own domain only, never from a
   team worker lane.  Collectives are counted per rank (a worker joining
   a round would deadlock or double-count), a port's consumer is its
   registering rank, and the wait observer is Domain.DLS-keyed to the
   rank's domain.  The team keeps this invariant structurally: workers
   run only tile closures handed to [Vpic_util.Pool.run], and no tiled
   kernel touches Comm. *)

exception Rank_failed of { rank : int; error : string }

type buf32 = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A persistent receive slot: a fixed-depth ring of preallocated Float32
   buffers owned by the receiving rank.  [posted] / [consumed] are
   monotonic counters; their difference is the number of in-flight
   messages (at most [port_depth]).  All fields are guarded by [pmu];
   buffer contents written before a counter bump under the mutex are
   visible to the reader that observes the bump (mutex happens-before). *)
type port = {
  pmu : Mutex.t;
  pcv : Condition.t;
  ring : buf32 array; (* length port_depth; elements replaced on growth *)
  lens : int array;
  pepochs : int array; (* world epoch at commit time, per ring entry *)
  mutable posted : int;
  mutable consumed : int;
  mutable waiters : int;
      (* threads parked on [pcv]; lets posts and consumes skip the
         broadcast (a kernel wake on the common path) when nobody waits *)
  pname : string; (* reported to the wait observer *)
  pworld : world; (* back-reference for the failed-rank check in waits *)
}

(* One rendezvous round: the contributions of the ranks that arrived,
   indexed by rank ([||] for a rank that has not).  The last arriver
   closes the round; from then on nobody writes to it, so [board] is the
   immutable snapshot every participant reads.  [death] is the death the
   round closed under, if any: every participant then raises it. *)
and round = {
  board : float array array;
  mutable arrived : int;
  mutable closed : bool;
  mutable death : (int * string) option;
}

and world = {
  nranks : int;
  bar_mu : Mutex.t;
  bar_cv : Condition.t;
  mutable round : round; (* the open round; guarded by [bar_mu] *)
  port_mu : Mutex.t;
  port_cv : Condition.t;
  port_tables : port array array; (* per rank; grows by registration *)
  (* First rank whose domain died by exception, with that error rendered
     to a string.  Set by [mark_failed]; every blocking wait checks it so
     peers raise [Rank_failed] instead of hanging on a message that will
     never arrive.  [recover] clears it once every survivor has agreed on
     the casualty list, so the flag is "a death this epoch has not yet
     absorbed", while [failed] below is the permanent record. *)
  mutable dead : (int * string) option;
  (* Permanent per-rank death record, updated by every [mark_failed]
     (unlike [dead], which records only the first).  Read unlocked by
     [live_root] and friends: the array is monotonic (false -> true
     only), and a rank acting on a stale value is woken into
     [Rank_failed] by the [mark_failed] broadcast, converging on the
     recovery path either way. *)
  failed : bool array;
  (* World epoch: bumped by each completed [recover] round.  Port
     messages stamped with an older epoch are pre-rollback traffic and
     are discarded un-read. *)
  mutable epoch : int;
  (* Ranks currently parked inside [recover] this round. *)
  mutable rec_count : int;
}

type t = { world : world; my_rank : int }

let new_round n =
  { board = Array.make n [||]; arrived = 0; closed = false; death = None }

(* -------------------------------------------------------- rank death ---- *)

let raise_dead (rank, error) = raise (Rank_failed { rank; error })

(* Record the failure and wake every parked waiter in the world: port
   consumers and back-pressured senders, rendezvous rounds.  Waiters
   re-check [dead] on wake and fail fast with the culprit's error.
   Idempotent; the first failure wins (later ones are usually the
   [Rank_failed] cascades it caused). *)
let mark_failed w rank exn_text =
  Mutex.lock w.bar_mu;
  w.failed.(rank) <- true;
  if w.dead = None then w.dead <- Some (rank, exn_text);
  Condition.broadcast w.bar_cv;
  Mutex.unlock w.bar_mu;
  Mutex.lock w.port_mu;
  let tables = Array.copy w.port_tables in
  Condition.broadcast w.port_cv;
  Mutex.unlock w.port_mu;
  Array.iter
    (Array.iter (fun p ->
         Mutex.lock p.pmu;
         Condition.broadcast p.pcv;
         Mutex.unlock p.pmu))
    tables

let make_world nranks =
  { nranks;
    bar_mu = Mutex.create ();
    bar_cv = Condition.create ();
    round = new_round nranks;
    port_mu = Mutex.create ();
    port_cv = Condition.create ();
    port_tables = Array.make nranks [||];
    dead = None;
    failed = Array.make nranks false;
    epoch = 0;
    rec_count = 0 }

let rank t = t.my_rank
let size t = t.world.nranks

(* ----------------------------------------------------- shrunken world ---- *)

let live_count_locked w =
  let n = ref 0 in
  Array.iter (fun f -> if not f then incr n) w.failed;
  !n

(* Lowest live rank.  In a world that never lost a rank this is 0. *)
let live_root w =
  let r = ref 0 in
  while !r < w.nranks - 1 && w.failed.(!r) do
    incr r
  done;
  !r

let alive t ~rank = not t.world.failed.(rank)
let epoch t = t.world.epoch
let root t = live_root t.world

let live_ranks t =
  let acc = ref [] in
  for r = t.world.nranks - 1 downto 0 do
    if not t.world.failed.(r) then acc := r :: !acc
  done;
  !acc

(* The failure-detector barrier.  Every survivor that catches a
   [Rank_failed] funnels here; the round completes when every still-live
   rank has arrived.  The predicate re-evaluates [live_count_locked] on
   each wake, so further deaths during the round shrink the quorum
   instead of deadlocking it.  The last arriver resets the world for the
   next epoch: the death flag is cleared, the open rendezvous round is
   discarded (wiping contributions from a round the dead rank never
   joined), and the epoch advance retroactively invalidates every
   message still sitting in a port ring.  The reset is safe exactly
   because all live ranks are parked here — nobody can be mid-send with
   the old epoch.  Returns the agreed casualty list. *)
let recover t =
  let w = t.world in
  Mutex.lock w.bar_mu;
  let e0 = w.epoch in
  w.rec_count <- w.rec_count + 1;
  Condition.broadcast w.bar_cv;
  while w.epoch = e0 && w.rec_count < live_count_locked w do
    Condition.wait w.bar_cv w.bar_mu
  done;
  if w.epoch = e0 then begin
    w.epoch <- e0 + 1;
    w.rec_count <- 0;
    w.dead <- None;
    w.round <- new_round w.nranks;
    Condition.broadcast w.bar_cv
  end;
  let dead = ref [] in
  for r = w.nranks - 1 downto 0 do
    if w.failed.(r) then dead := r :: !dead
  done;
  Mutex.unlock w.bar_mu;
  !dead

(* ------------------------------------------------------------ ports ---- *)

(* Depth 8, not 2: a field-solve step posts three ghost fills to the same
   slot back to back, and a shallow ring blocks the sender until the
   neighbour consumes — convoying ranks on every step.  On an
   oversubscribed host every such block is a context switch.  Depth 8
   absorbs over two full steps of skew while still bounding memory to a
   few ring buffers per face. *)
let port_depth = 8

let buf32_create n : buf32 =
  Bigarray.Array1.create Bigarray.Float32 Bigarray.c_layout (max 1 n)

let port_register ?names t ~capacities =
  let w = t.world in
  let name i =
    match names with
    | Some ns when i < Array.length ns -> ns.(i)
    | _ -> Printf.sprintf "port %d of rank %d" i t.my_rank
  in
  let make_slot i cap =
    { pmu = Mutex.create ();
      pcv = Condition.create ();
      ring = Array.init port_depth (fun _ -> buf32_create cap);
      lens = Array.make port_depth 0;
      pepochs = Array.make port_depth 0;
      posted = 0;
      consumed = 0;
      waiters = 0;
      pname = name i;
      pworld = w }
  in
  let slots = Array.mapi make_slot capacities in
  Mutex.lock w.port_mu;
  let base = Array.length w.port_tables.(t.my_rank) in
  w.port_tables.(t.my_rank) <- Array.append w.port_tables.(t.my_rank) slots;
  Condition.broadcast w.port_cv;
  Mutex.unlock w.port_mu;
  base

let port t ~rank ~index =
  assert (rank >= 0 && rank < t.world.nranks && index >= 0);
  let w = t.world in
  Mutex.lock w.port_mu;
  while Array.length w.port_tables.(rank) <= index do
    Condition.wait w.port_cv w.port_mu
  done;
  let p = w.port_tables.(rank).(index) in
  Mutex.unlock w.port_mu;
  p

(* Critical sections below are deliberately tiny — counter reads and
   bumps only.  Payload copies run with the mutex RELEASED, which is safe
   because each port has exactly one sender and one consumer:

   - between [port_reserve] and [port_commit] the sender owns ring entry
     [posted mod depth]; the consumer cannot observe it until the commit
     bumps [posted];
   - during a consume, the sender cannot overwrite ring entry
     [consumed mod depth]: reusing it requires posted = consumed + depth,
     exactly the condition [port_reserve]'s back-pressure blocks on.

   This lets the sender's pack-in overlap the receiver's unpack-out of
   the previous message — the point of a double-buffered port. *)

let port_reserve p ~len =
  Mutex.lock p.pmu;
  while p.posted - p.consumed >= port_depth && p.pworld.dead = None do
    p.waiters <- p.waiters + 1;
    Condition.wait p.pcv p.pmu;
    p.waiters <- p.waiters - 1
  done;
  (* A full ring whose consumer died never drains: fail the sender too. *)
  (match p.pworld.dead with
  | Some d when p.posted - p.consumed >= port_depth ->
      Mutex.unlock p.pmu;
      raise_dead d
  | _ -> ());
  let i = p.posted mod port_depth in
  (* Capacity is sized at registration; growth only happens when a
     variable-length payload (migration) outgrows its initial guess, so
     it amortises to zero in steady state. *)
  if Bigarray.Array1.dim p.ring.(i) < len then begin
    let cap = ref (Bigarray.Array1.dim p.ring.(i)) in
    while !cap < len do
      cap := 2 * !cap
    done;
    p.ring.(i) <- buf32_create !cap
  end;
  let b = p.ring.(i) in
  Mutex.unlock p.pmu;
  b

let port_commit p ~len =
  Mutex.lock p.pmu;
  let i = p.posted mod port_depth in
  assert (len <= Bigarray.Array1.dim p.ring.(i));
  p.lens.(i) <- len;
  p.pepochs.(i) <- p.pworld.epoch;
  p.posted <- p.posted + 1;
  if p.waiters > 0 then Condition.broadcast p.pcv;
  Mutex.unlock p.pmu

let port_post p (src : buf32) ~len =
  assert (len >= 0 && len <= Bigarray.Array1.dim src);
  let dst = port_reserve p ~len in
  for k = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst k (Bigarray.Array1.unsafe_get src k)
  done;
  port_commit p ~len

(* Caller holds [pmu].  Skip ring entries committed before the current
   world epoch: they are pre-rollback traffic a recovery invalidated.
   Bumping [consumed] releases any sender back-pressured on the stale
   ring, hence the broadcast. *)
let rec port_drop_stale p =
  if
    p.posted > p.consumed
    && p.pepochs.(p.consumed mod port_depth) < p.pworld.epoch
  then begin
    p.consumed <- p.consumed + 1;
    if p.waiters > 0 then Condition.broadcast p.pcv;
    port_drop_stale p
  end

(* Wait observer: an optional per-domain hook reporting how long each
   port wait parked, installed by the telemetry layer.  Gated on one
   global atomic so uninstrumented runs pay a single load per wait; the
   clock is only read when a hook is installed on the calling domain. *)
type wait_observer = {
  on_wait : port:string -> seconds:float -> unit;
  on_timeout : port:string -> unit;
}

let wait_observers_armed = Atomic.make false

let wait_observer_key : wait_observer option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_wait_observer o =
  Domain.DLS.set wait_observer_key o;
  match o with
  | Some _ -> Atomic.set wait_observers_armed true
  | None -> ()

(* Park on the condition variable until a current-epoch message is
   pending (zero steady-state cost; a failed rank's [mark_failed]
   broadcast wakes it), then run [f] on it in place with the lock
   released.  Pending messages are still delivered after a death; only
   an empty ring raises [Rank_failed]. *)
let port_wait p ~f =
  let obs =
    if Atomic.get wait_observers_armed then Domain.DLS.get wait_observer_key
    else None
  in
  let t0 = match obs with None -> 0. | Some _ -> Unix.gettimeofday () in
  let observe () =
    match obs with
    | Some o -> o.on_wait ~port:p.pname ~seconds:(Unix.gettimeofday () -. t0)
    | None -> ()
  in
  Mutex.lock p.pmu;
  port_drop_stale p;
  while p.posted = p.consumed && p.pworld.dead = None do
    p.waiters <- p.waiters + 1;
    Condition.wait p.pcv p.pmu;
    p.waiters <- p.waiters - 1;
    port_drop_stale p
  done;
  if p.posted = p.consumed then begin
    let d = Option.get p.pworld.dead in
    Mutex.unlock p.pmu;
    observe ();
    raise_dead d
  end;
  let i = p.consumed mod port_depth in
  let buf = p.ring.(i) and len = p.lens.(i) in
  Mutex.unlock p.pmu;
  observe ();
  f buf len;
  Mutex.lock p.pmu;
  p.consumed <- p.consumed + 1;
  if p.waiters > 0 then Condition.broadcast p.pcv;
  Mutex.unlock p.pmu

(* ------------------------------------------------------- rendezvous ---- *)

(* The one rendezvous behind the barrier and every collective.  The
   arriving rank copies its contribution onto the open round's board
   (a caller may reuse its array as soon as this returns, while peers
   still read the board).  The round's quorum is the live count, so a
   shrunken world's collectives keep working without the dead ranks'
   arrivals; the last arriver closes the round and opens the next.  A
   waiter reads its own round's board, never a later one.

   A death recorded and not yet recovered fails the round on every
   participant alike: a round that closes while [dead] is set closes
   failed and its closer raises [Rank_failed] too, and a death before
   the round closes releases the waiters into [Rank_failed] (a dead rank
   never arrives).  So no rank returns a board — a partial sum — that a
   peer of the same round saw fail.  [recover] discards the half-filled
   round. *)
let allgather t x =
  let w = t.world in
  Mutex.lock w.bar_mu;
  let r = w.round in
  r.board.(t.my_rank) <- Array.copy x;
  r.arrived <- r.arrived + 1;
  let death =
    if r.arrived >= live_count_locked w then begin
      r.closed <- true;
      r.death <- w.dead;
      w.round <- new_round w.nranks;
      Condition.broadcast w.bar_cv;
      r.death
    end
    else begin
      while (not r.closed) && w.dead = None do
        Condition.wait w.bar_cv w.bar_mu
      done;
      if r.closed then r.death else w.dead
    end
  in
  Mutex.unlock w.bar_mu;
  match death with Some d -> raise_dead d | None -> r.board

let barrier t = ignore (allgather t [||])

(* Fold the rows of the ranks that took part, in ascending rank order,
   starting from the lowest one's row: every rank computes the same
   value the same way. *)
let allreduce_array t ~merge xs =
  let acc = ref None in
  Array.iter
    (fun row ->
      if Array.length row > 0 then
        match !acc with
        | None -> acc := Some (Array.copy row)
        | Some a ->
            assert (Array.length row = Array.length a);
            Array.iteri (fun i x -> a.(i) <- merge a.(i) x) row)
    (allgather t xs);
  match !acc with Some a -> a | None -> [||]

let allreduce_sum_array t xs = allreduce_array t ~merge:( +. ) xs
let allreduce_max_array t xs = allreduce_array t ~merge:Float.max xs
let allreduce_sum t x = (allreduce_sum_array t [| x |]).(0)
let allreduce_max t x = (allreduce_max_array t [| x |]).(0)

(* ------------------------------------------------------------- worlds ---- *)

let run ~ranks f =
  assert (ranks >= 1);
  let world = make_world ranks in
  (* Each domain catches its own failure and poisons the world before
     exiting, so peers blocked on its messages raise [Rank_failed]
     immediately instead of hanging.  The first (root-cause) exception
     is re-raised from the caller after all domains are joined; the
     [Rank_failed] cascades it provoked are discarded. *)
  let wrap r () =
    try Ok (f { world; my_rank = r })
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      mark_failed world r (Printexc.to_string e);
      Error (e, bt)
  in
  let domains = Array.init ranks (fun r -> Domain.spawn (wrap r)) in
  let results = Array.map Domain.join domains in
  match world.dead with
  | None ->
      Array.map
        (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        results
  | Some (rank, _) -> (
      match results.(rank) with
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Ok _ ->
          (* mark_failed recorded a rank that later returned Ok: cannot
             happen, but fail loudly rather than silently succeed. *)
          assert false)

(* Like [run], but rank deaths are expected: each rank's outcome is
   returned as a [result] instead of re-raising the first casualty's
   error.  Used by supervised runs where survivors absorb deaths through
   [recover] and complete normally — the caller decides what a partial
   success means. *)
let run_recoverable ~ranks f =
  assert (ranks >= 1);
  let world = make_world ranks in
  let wrap r () =
    try Ok (f { world; my_rank = r })
    with e ->
      mark_failed world r (Printexc.to_string e);
      Error e
  in
  let domains = Array.init ranks (fun r -> Domain.spawn (wrap r)) in
  Array.map Domain.join domains

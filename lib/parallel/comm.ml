(* Concurrency/ownership rule (audited for the worker-team refactor):
   every shared structure here (inboxes, ports, barrier, the [dead]
   flag) is mutex-guarded, so the layer is memory-safe under any caller
   domain — but the *protocol* is rank-scoped: sends, receives,
   collectives and barriers must be issued by the rank's own domain
   only, never from a team worker lane.  Collectives are counted per
   rank (a worker joining a barrier would deadlock or double-count), a
   port's consumer is its registering rank, and the wait observer is
   Domain.DLS-keyed to the rank's domain.  The team keeps this invariant
   structurally: workers run only tile closures handed to
   [Vpic_util.Pool.run], and no tiled kernel touches Comm. *)

exception Comm_timeout of { port : string; waited : float }
exception Rank_failed of { rank : int; error : string }
exception Excluded of { rank : int }

(* Mailbox payloads carry the sender's world epoch so messages queued
   before a recovery rollback are silently discarded by post-recovery
   receivers (see [recover] below). *)
type inbox = {
  mu : Mutex.t;
  cv : Condition.t;
  queues : (int * int, (int * float array) Queue.t) Hashtbl.t;
}

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
  pname : string; (* for Comm_timeout diagnoses *)
  pworld : world; (* back-reference for the failed-rank check in waits *)
}

and world = {
  nranks : int;
  inboxes : inbox array;
  bar_mu : Mutex.t;
  bar_cv : Condition.t;
  mutable bar_count : int;
  mutable bar_gen : int;
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
     (unlike [dead], which records only the first).  Read unlocked by the
     survivor-aware collectives: the array is monotonic (false -> true
     only), and a rank acting on a stale value is woken into
     [Rank_failed] by the [mark_failed] broadcast, converging on the
     recovery path either way. *)
  failed : bool array;
  (* World epoch: bumped by each completed [recover] round.  Messages
     stamped with an older epoch are pre-rollback traffic and are
     discarded un-read. *)
  mutable epoch : int;
  (* Ranks currently parked inside [recover] this round. *)
  mutable rec_count : int;
}

type t = { world : world; my_rank : int }

(* -------------------------------------------------------- rank death ---- *)

let raise_dead (rank, error) = raise (Rank_failed { rank; error })

(* Record the failure and wake every parked waiter in the world: port
   consumers and back-pressured senders, mailbox receivers, barriers.
   Waiters re-check [dead] on wake and fail fast with the culprit's
   error.  Idempotent; the first failure wins (later ones are usually the
   [Rank_failed] cascades it caused). *)
let mark_failed w rank exn_text =
  Mutex.lock w.bar_mu;
  w.failed.(rank) <- true;
  if w.dead = None then w.dead <- Some (rank, exn_text);
  Condition.broadcast w.bar_cv;
  Mutex.unlock w.bar_mu;
  Array.iter
    (fun ib ->
      Mutex.lock ib.mu;
      Condition.broadcast ib.cv;
      Mutex.unlock ib.mu)
    w.inboxes;
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

let poison t ~error = mark_failed t.world t.my_rank error

let make_world nranks =
  { nranks;
    inboxes =
      Array.init nranks (fun _ ->
          { mu = Mutex.create ();
            cv = Condition.create ();
            queues = Hashtbl.create 64 });
    bar_mu = Mutex.create ();
    bar_cv = Condition.create ();
    bar_count = 0;
    bar_gen = 0;
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

(* Lowest live rank: the root of every survivor-aware collective.  In a
   world that never lost a rank this is 0 — the historical root. *)
let live_root w =
  let r = ref 0 in
  while !r < w.nranks - 1 && w.failed.(!r) do
    incr r
  done;
  !r

let iter_live w f =
  for r = 0 to w.nranks - 1 do
    if not w.failed.(r) then f r
  done

let alive t ~rank = not t.world.failed.(rank)
let epoch t = t.world.epoch
let root t = live_root t.world

let live_ranks t =
  let acc = ref [] in
  for r = t.world.nranks - 1 downto 0 do
    if not t.world.failed.(r) then acc := r :: !acc
  done;
  !acc

let accuse t ~peer ~error =
  assert (peer >= 0 && peer < t.world.nranks);
  mark_failed t.world peer error

(* The failure-detector barrier.  Every survivor that catches a
   [Rank_failed] (or a timeout shadowing one) funnels here; the round
   completes when every still-live rank has arrived.  The predicate
   re-evaluates [live_count_locked] on each wake, so further deaths
   during the round shrink the quorum instead of deadlocking it.  The
   last arriver resets the world for the next epoch: the death flag is
   cleared, the barrier generation is bumped with its arrival count
   zeroed (wiping contributions from barriers the dead rank poisoned),
   and the epoch advance retroactively invalidates every message still
   sitting in a port ring or mailbox queue.  The reset is safe exactly
   because all live ranks are parked here — nobody can be mid-send with
   the old epoch.  Returns the agreed casualty list. *)
let recover t =
  let w = t.world in
  Mutex.lock w.bar_mu;
  if w.failed.(t.my_rank) then begin
    Mutex.unlock w.bar_mu;
    raise (Excluded { rank = t.my_rank })
  end;
  let e0 = w.epoch in
  w.rec_count <- w.rec_count + 1;
  Condition.broadcast w.bar_cv;
  let excluded = ref false in
  while
    (not !excluded) && w.epoch = e0 && w.rec_count < live_count_locked w
  do
    Condition.wait w.bar_cv w.bar_mu;
    (* Accused while parked (a peer timed out on us mid-round): withdraw
       our arrival and die, instead of stalling the survivors' quorum. *)
    if w.failed.(t.my_rank) then excluded := true
  done;
  if !excluded then begin
    if w.epoch = e0 then begin
      w.rec_count <- w.rec_count - 1;
      Condition.broadcast w.bar_cv
    end;
    Mutex.unlock w.bar_mu;
    raise (Excluded { rank = t.my_rank })
  end;
  if w.epoch = e0 then begin
    w.epoch <- e0 + 1;
    w.rec_count <- 0;
    w.dead <- None;
    w.bar_count <- 0;
    w.bar_gen <- w.bar_gen + 1;
    Condition.broadcast w.bar_cv
  end;
  let dead = ref [] in
  for r = w.nranks - 1 downto 0 do
    if w.failed.(r) then dead := r :: !dead
  done;
  Mutex.unlock w.bar_mu;
  !dead

(* Reserved tag space for collectives; user tags are >= 0. *)
let tag_reduce = -1
let tag_bcast = -2
let tag_gather = -3
let tag_is_reserved tag = tag < 0

(* ------------------------------------------------------------ ports ---- *)

(* Depth 8, not 2: a field-solve step posts three ghost fills to the same
   slot back to back, and a shallow ring blocks the sender until the
   neighbour consumes — convoying ranks that the mailbox (with its
   unbounded buffering) lets run ahead.  On an oversubscribed host every
   such block is a context switch.  Depth 8 absorbs over two full steps
   of skew while still bounding memory to a few ring buffers per face. *)
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

let port_finish_consume p =
  Mutex.lock p.pmu;
  p.consumed <- p.consumed + 1;
  if p.waiters > 0 then Condition.broadcast p.pcv;
  Mutex.unlock p.pmu

(* Block until a message is pending.  Without [deadline] this parks on
   the condition variable (zero steady-state cost; a failed rank's
   [mark_failed] broadcast wakes it).  With a deadline there is no timed
   condvar wait in the stdlib, so the wait degrades to a sleep-poll at
   [deadline_poll] granularity — only runs configured with deadlines pay
   for it.  Raises [Comm_timeout] naming the port once the deadline
   passes, [Rank_failed] if a peer died with nothing left to drain
   (pending messages are still delivered after a death). *)
let deadline_poll = 0.0005

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

let port_wait_pending p ~deadline =
  match deadline with
  | None ->
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
        raise_dead d
      end
  | Some limit ->
      let t0 = Unix.gettimeofday () in
      let rec poll () =
        port_drop_stale p;
        if p.posted = p.consumed then begin
          match p.pworld.dead with
          | Some d ->
              Mutex.unlock p.pmu;
              raise_dead d
          | None ->
              let waited = Unix.gettimeofday () -. t0 in
              if waited > limit then begin
                Mutex.unlock p.pmu;
                raise (Comm_timeout { port = p.pname; waited })
              end;
              Mutex.unlock p.pmu;
              Unix.sleepf deadline_poll;
              Mutex.lock p.pmu;
              poll ()
        end
      in
      poll ()

(* Wait observer: an optional per-domain hook reporting how long each
   port wait parked and every deadline expiry, installed by the
   telemetry layer.  Gated on one global atomic so uninstrumented runs
   pay a single load per wait; the clock is only read when a hook is
   installed on the calling domain. *)
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

let port_wait ?deadline p ~f =
  let obs =
    if Atomic.get wait_observers_armed then Domain.DLS.get wait_observer_key
    else None
  in
  let t0 = match obs with None -> 0. | Some _ -> Unix.gettimeofday () in
  Mutex.lock p.pmu;
  (try port_wait_pending p ~deadline
   with e ->
     (* port_wait_pending released the mutex before raising *)
     (match obs with
     | Some o ->
         (match e with
         | Comm_timeout _ -> o.on_timeout ~port:p.pname
         | _ -> ());
         o.on_wait ~port:p.pname ~seconds:(Unix.gettimeofday () -. t0)
     | None -> ());
     raise e);
  let i = p.consumed mod port_depth in
  let buf = p.ring.(i) and len = p.lens.(i) in
  Mutex.unlock p.pmu;
  (match obs with
  | Some o -> o.on_wait ~port:p.pname ~seconds:(Unix.gettimeofday () -. t0)
  | None -> ());
  f buf len;
  port_finish_consume p

let port_try_recv p ~f =
  Mutex.lock p.pmu;
  port_drop_stale p;
  let ready = p.posted > p.consumed in
  if not ready then begin
    Mutex.unlock p.pmu;
    false
  end
  else begin
    let i = p.consumed mod port_depth in
    let buf = p.ring.(i) and len = p.lens.(i) in
    Mutex.unlock p.pmu;
    f buf len;
    port_finish_consume p;
    true
  end

(* --------------------------------------------------- mailbox (shim) ---- *)

let send_internal t ~dst ~tag payload =
  assert (dst >= 0 && dst < t.world.nranks);
  let ib = t.world.inboxes.(dst) in
  Mutex.lock ib.mu;
  let key = (t.my_rank, tag) in
  let q =
    match Hashtbl.find_opt ib.queues key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.add ib.queues key q;
        q
  in
  Queue.push (t.world.epoch, payload) q;
  Condition.broadcast ib.cv;
  Mutex.unlock ib.mu

let recv_internal ?deadline t ~src ~tag =
  assert (src >= 0 && src < t.world.nranks);
  let w = t.world in
  let ib = w.inboxes.(t.my_rank) in
  let key = (src, tag) in
  (* Caller holds ib.mu.  Drop the queue once it drains: long sweeps use
     many distinct (src, tag) keys and the table would otherwise grow
     without bound. *)
  let pop_locked q =
    let p = Queue.pop q in
    if Queue.is_empty q then Hashtbl.remove ib.queues key;
    p
  in
  let fail_locked e =
    Mutex.unlock ib.mu;
    e ()
  in
  (* No speculative spinning here: an idle rank parks on the condition
     variable and is woken by the sender's broadcast.  Burning a core in
     [Domain.cpu_relax] starved the rank that owned the message on
     oversubscribed hosts; the futex sleep costs microseconds and only on
     a genuinely empty queue.  A deadline degrades the park to a
     sleep-poll (no timed condvar wait in the stdlib); a failed rank
     wakes the parked path via [mark_failed]'s broadcast. *)
  Mutex.lock ib.mu;
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Hashtbl.find_opt ib.queues key with
    | Some q when not (Queue.is_empty q) ->
        let ep, payload = pop_locked q in
        (* Stale epoch: pre-rollback traffic, discard un-read. *)
        if ep < w.epoch then wait () else payload
    | _ -> (
        match w.dead with
        | Some d -> fail_locked (fun () -> raise_dead d)
        | None -> (
            match deadline with
            | None ->
                Condition.wait ib.cv ib.mu;
                wait ()
            | Some limit ->
                let waited = Unix.gettimeofday () -. t0 in
                if waited > limit then
                  fail_locked (fun () ->
                      raise
                        (Comm_timeout
                           { port =
                               Printf.sprintf
                                 "recv src=%d tag=%d at rank %d" src tag
                                 t.my_rank;
                             waited }))
                else begin
                  Mutex.unlock ib.mu;
                  Unix.sleepf deadline_poll;
                  Mutex.lock ib.mu;
                  wait ()
                end))
  in
  let payload = wait () in
  Mutex.unlock ib.mu;
  payload

let send t ~dst ~tag payload =
  if tag_is_reserved tag then invalid_arg "Comm.send: reserved tag";
  send_internal t ~dst ~tag payload

let recv ?deadline t ~src ~tag =
  if tag_is_reserved tag then invalid_arg "Comm.recv: reserved tag";
  recv_internal ?deadline t ~src ~tag

let barrier t =
  let w = t.world in
  Mutex.lock w.bar_mu;
  if w.failed.(t.my_rank) then begin
    Mutex.unlock w.bar_mu;
    raise (Excluded { rank = t.my_rank })
  end;
  let gen = w.bar_gen in
  w.bar_count <- w.bar_count + 1;
  (* Completion quorum is the live count, so a shrunken world's barriers
     keep working without the dead ranks' arrivals. *)
  if w.bar_count >= live_count_locked w then begin
    w.bar_count <- 0;
    w.bar_gen <- gen + 1;
    Condition.broadcast w.bar_cv
  end
  else begin
    while w.bar_gen = gen && w.dead = None do
      Condition.wait w.bar_cv w.bar_mu
    done;
    (* A dead rank never arrives: release the survivors. *)
    match w.dead with
    | Some d when w.bar_gen = gen ->
        Mutex.unlock w.bar_mu;
        raise_dead d
    | _ -> ()
  end;
  Mutex.unlock w.bar_mu

let reduce_with t combine x =
  (* Root accumulates, then broadcasts.  O(P) messages: fine for the rank
     counts a 2-core host can exercise; the perf model, not this runtime,
     captures large-P communication costs.  The root is the lowest live
     rank and only live ranks participate — identical to the historical
     root-0 all-ranks shape until a rank dies. *)
  let w = t.world in
  let root = live_root w in
  if t.my_rank = root then begin
    let acc = ref x in
    iter_live w (fun src ->
        if src <> root then begin
          let v = recv_internal t ~src ~tag:tag_reduce in
          acc := combine !acc v.(0)
        end);
    iter_live w (fun dst ->
        if dst <> root then send_internal t ~dst ~tag:tag_reduce [| !acc |]);
    !acc
  end
  else begin
    send_internal t ~dst:root ~tag:tag_reduce [| x |];
    (recv_internal t ~src:root ~tag:tag_reduce).(0)
  end

let allreduce_sum t x = reduce_with t ( +. ) x
let allreduce_min t x = reduce_with t Float.min x
let allreduce_max t x = reduce_with t Float.max x

let allreduce_array t ~merge xs =
  let w = t.world in
  if w.nranks = 1 then Array.copy xs
  else begin
    let root = live_root w in
    if t.my_rank = root then begin
      let acc = Array.copy xs in
      iter_live w (fun src ->
          if src <> root then begin
            let v = recv_internal t ~src ~tag:tag_reduce in
            assert (Array.length v = Array.length acc);
            Array.iteri (fun i x -> acc.(i) <- merge acc.(i) x) v
          end);
      iter_live w (fun dst ->
          if dst <> root then send_internal t ~dst ~tag:tag_reduce acc);
      acc
    end
    else begin
      send_internal t ~dst:root ~tag:tag_reduce xs;
      recv_internal t ~src:root ~tag:tag_reduce
    end
  end

let allreduce_sum_array t xs = allreduce_array t ~merge:( +. ) xs
let allreduce_max_array t xs = allreduce_array t ~merge:Float.max xs

let bcast t ~root x =
  let w = t.world in
  if w.nranks = 1 then x
  else begin
    (* A dead root would strand every receiver: substitute the lowest
       live rank (callers hardcode root 0, which can die). *)
    let root = if w.failed.(root) then live_root w else root in
    if t.my_rank = root then begin
      iter_live w (fun dst ->
          if dst <> root then send_internal t ~dst ~tag:tag_bcast x);
      x
    end
    else recv_internal t ~src:root ~tag:tag_bcast
  end

let gather t ~root x =
  let w = t.world in
  let root = if w.failed.(root) then live_root w else root in
  if t.my_rank = root then begin
    (* Dead ranks' slots stay [||]. *)
    let out = Array.make w.nranks [||] in
    out.(root) <- x;
    iter_live w (fun src ->
        if src <> root then out.(src) <- recv_internal t ~src ~tag:tag_gather);
    Some out
  end
  else begin
    send_internal t ~dst:root ~tag:tag_gather x;
    None
  end

let run ~ranks f =
  assert (ranks >= 1);
  let world = make_world ranks in
  (* Each domain catches its own failure and poisons the world before
     exiting, so peers blocked on its messages raise [Rank_failed]
     immediately instead of hanging until some external timeout.  The
     first (root-cause) exception is re-raised from the caller after all
     domains are joined; the [Rank_failed] cascades it provoked are
     discarded. *)
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

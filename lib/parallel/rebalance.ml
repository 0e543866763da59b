(* Pure planning: every rank feeds the same allreduced per-block cost
   vector and ownership table through the same greedy loop, so the move
   list agrees across the world without a broadcast. *)

let rank_loads ~costs ~owner ~nranks =
  let load = Array.make nranks 0. in
  Array.iteri (fun b c -> load.(owner.(b)) <- load.(owner.(b)) +. c) costs;
  load

let imbalance load =
  let n = Array.length load in
  if n = 0 then 1.
  else begin
    let sum = Array.fold_left ( +. ) 0. load in
    let mx = Array.fold_left Float.max 0. load in
    let mean = sum /. float_of_int n in
    if mean > 0. then mx /. mean else 1.
  end

(* arg-extrema restricted to a live mask: dead ranks are never donors
   (they own nothing) and must never be targets. *)
let argmax ~alive a =
  let best = ref (-1) in
  Array.iteri
    (fun i v -> if alive.(i) && (!best < 0 || v > a.(!best)) then best := i)
    a;
  !best

let argmin ~alive a =
  let best = ref (-1) in
  Array.iteri
    (fun i v -> if alive.(i) && (!best < 0 || v < a.(!best)) then best := i)
    a;
  !best

(* max/mean over the live entries only — a dead rank's permanent zero
   load must not masquerade as imbalance. *)
let imbalance_live ~alive load =
  let lv = ref [] in
  Array.iteri (fun i v -> if alive.(i) then lv := v :: !lv) load;
  imbalance (Array.of_list !lv)

type plan = {
  moves : (int * int) list;  (* (block, destination rank), in order *)
  imbalance_before : float;
  imbalance_after : float;
}

let no_moves load =
  { moves = []; imbalance_before = imbalance load;
    imbalance_after = imbalance load }

(* Greedy: repeatedly move one block from the most- to the least-loaded
   rank, choosing the block whose transfer lands the pair closest to
   even.  A source rank always keeps at least one block, and a move must
   strictly reduce the donor pair's larger side, so the loop
   terminates.  [alive] (default all-true) restricts the plan to the
   surviving rank set after a recovery: dead ranks are never picked as
   donor or target, and the imbalance verdict ignores their zero load. *)
let plan ?(max_moves = max_int) ?alive ~costs ~owner ~nranks ~threshold () =
  let alive =
    match alive with Some a -> a | None -> Array.make (max 1 nranks) true
  in
  let nlive = Array.fold_left (fun n a -> if a then n + 1 else n) 0 alive in
  if nranks < 2 || nlive < 2 then
    no_moves (rank_loads ~costs ~owner ~nranks:(max 1 nranks))
  else begin
    let owner = Array.copy owner in
    let load = rank_loads ~costs ~owner ~nranks in
    let count = Array.make nranks 0 in
    Array.iter (fun r -> count.(r) <- count.(r) + 1) owner;
    let before = imbalance_live ~alive load in
    let moves = ref [] in
    let nmoves = ref 0 in
    let continue_ = ref (before > threshold) in
    while !continue_ && !nmoves < max_moves do
      let src = argmax ~alive load in
      let dst = argmin ~alive load in
      if src = dst || count.(src) <= 1 then continue_ := false
      else begin
        (* block of [src] minimising the donor pair's post-move spread;
           ties break toward the lowest block id *)
        let best = ref (-1) in
        let best_gap = ref infinity in
        Array.iteri
          (fun b r ->
            if r = src then begin
              let gap =
                Float.abs (load.(src) -. costs.(b) -. (load.(dst) +. costs.(b)))
              in
              if gap < !best_gap then begin
                best := b;
                best_gap := gap
              end
            end)
          owner;
        let b = !best in
        let new_src = load.(src) -. costs.(b) in
        let new_dst = load.(dst) +. costs.(b) in
        (* refuse moves that only swap the imbalance to the receiver *)
        if b < 0 || costs.(b) <= 0. || new_dst >= load.(src) then
          continue_ := false
        else begin
          owner.(b) <- dst;
          count.(src) <- count.(src) - 1;
          count.(dst) <- count.(dst) + 1;
          load.(src) <- new_src;
          load.(dst) <- new_dst;
          moves := (b, dst) :: !moves;
          incr nmoves;
          continue_ := imbalance_live ~alive load > threshold
        end
      end
    done;
    { moves = List.rev !moves; imbalance_before = before;
      imbalance_after = imbalance_live ~alive load }
  end

(* ----------------------------------------------------- shrunken world ---- *)

(* Post-failure re-plan: blocks whose checkpoint-time owner survives stay
   put; orphaned blocks (owner dead, out of range, or negative) are
   adopted heaviest-first by the least-loaded live rank.  Pure function
   of (costs, prev_owner, alive) with total deterministic tie-breaks, so
   every survivor derives the same table from shared on-disk data — the
   rebalance-planner property, extended to a shrunken rank set.  Dead
   ranks can never be targets: only [alive] indices receive blocks. *)
let adopt ~costs ~prev_owner ~alive =
  let nranks = Array.length alive in
  let nblocks = Array.length prev_owner in
  assert (Array.length costs = nblocks);
  assert (Array.exists (fun a -> a) alive);
  let owner = Array.copy prev_owner in
  let load = Array.make nranks 0. in
  let orphans = ref [] in
  Array.iteri
    (fun b r ->
      if r >= 0 && r < nranks && alive.(r) then
        load.(r) <- load.(r) +. costs.(b)
      else orphans := b :: !orphans)
    owner;
  let orphans =
    List.sort
      (fun a b ->
        match compare costs.(b) costs.(a) with 0 -> compare a b | c -> c)
      !orphans
  in
  List.iter
    (fun b ->
      (* least-loaded live rank; ties toward the lowest rank id *)
      let best = ref (-1) in
      Array.iteri
        (fun r a -> if a && (!best < 0 || load.(r) < load.(!best)) then best := r)
        alive;
      owner.(b) <- !best;
      load.(!best) <- load.(!best) +. costs.(b))
    orphans;
  owner

(* ------------------------------------------------------------- wire ---- *)

(* A shipped block travels as its checkpoint encoding in one float
   allgather round: 2 payload bytes per float (every value in 0..65535 is exact
   in f32/f64), with the byte length in slot 0.  Chunky but simple, and
   rebalances are rare events. *)

let floats_of_bytes b =
  let n = Bytes.length b in
  let out = Array.make (1 + ((n + 1) / 2)) 0. in
  out.(0) <- float_of_int n;
  for i = 0 to ((n + 1) / 2) - 1 do
    let lo = Char.code (Bytes.get b (2 * i)) in
    let hi = if (2 * i) + 1 < n then Char.code (Bytes.get b ((2 * i) + 1)) else 0 in
    out.(i + 1) <- float_of_int (lo lor (hi lsl 8))
  done;
  out

let bytes_of_floats a =
  let n = int_of_float a.(0) in
  let out = Bytes.create n in
  for i = 0 to ((n + 1) / 2) - 1 do
    let v = int_of_float a.(i + 1) in
    Bytes.set out (2 * i) (Char.chr (v land 0xff));
    if (2 * i) + 1 < n then Bytes.set out ((2 * i) + 1) (Char.chr ((v lsr 8) land 0xff))
  done;
  out

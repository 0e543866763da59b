(* Allocation suite: a steady step's minor-heap allocation must not grow
   with the particle or voxel count.

   Without flambda, and under dune's -opaque dev profile, ocamlopt boxes
   every float passed to or returned from a call it does not inline, and
   every float a closure captures.  One such call left in a per-particle
   or per-voxel loop costs words per particle-step, and in OCaml 5 every
   minor collection stops all domains, so one rank's garbage stalls the
   others.  [Gc.minor_words] counts the calling domain only, so each
   deck runs where every kernel executes on this domain: a serial pool,
   or a 1-lane team whose lane 0 is the caller. *)

module Deck = Vpic_lpi.Deck
module Simulation = Vpic.Simulation
module Team = Vpic_parallel.Team
module Pool = Vpic_util.Pool
module Sort = Vpic_particle.Sort
open Helpers

(* Fixed per-step work (span bookkeeping, fill and reduction plumbing,
   per-call ledgers) allocates a few thousand words at most; one boxed
   float per particle would put the push deck past 40k. *)
let ceiling = 4096.

(* 25 warm steps, then a 50-step window (steps 26..75) that holds the
   sorts of steps 50 and 75 and the Marder clean of step 50. *)
let warm = 25
let window = 50

let words_per_step sim =
  check_true "the window holds a sort"
    (sim.Simulation.sort_interval = 25);
  check_true "the window holds a Marder clean"
    (sim.Simulation.clean_div_interval = 50);
  for _ = 1 to warm do
    Simulation.step sim
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to window do
    Simulation.step sim
  done;
  (Gc.minor_words () -. w0) /. float_of_int window

let build config =
  (Deck.build ~push_backend:(Simulation.Host_block { width = 8 }) config)
    .Deck.sim

(* The srs_push deck: push-bound, 12 particles per cell. *)
let push_deck =
  { Deck.default with Deck.nx = 128; ny = 8; nz = 8; ppc = 12 }

(* The srs_team deck: a hot plasma whose 16-tile team push, slab reduce
   and walk tail carry the step. *)
let team_deck =
  { Deck.default with
    Deck.nx = 160;
    ny = 4;
    nz = 4;
    l_transverse = 1.;
    ppc = 16;
    te_kev = 20. }

let test_steady_step () =
  let push = words_per_step (build push_deck) in
  let push2 =
    words_per_step (build { push_deck with Deck.ppc = 2 * push_deck.Deck.ppc })
  in
  let team =
    Team.with_team ~workers:1 (fun tm ->
        let sim = build team_deck in
        Simulation.set_pool sim (Team.pool tm);
        words_per_step sim)
  in
  if not (push <= ceiling && push2 <= ceiling && team <= ceiling) then
    Alcotest.failf
      "minor words per step (ceiling %.0f): srs_push deck %.0f, at twice \
       the ppc %.0f, srs_team deck on a 1-lane team %.0f"
      ceiling push push2 team

(* Minor words per [Push.advance_team] call on one sorted species, with
   the interior pass cut into [tiles] chunks on this domain. *)
let team_push_words ~tiles =
  let g = small_grid ~n:8 ~l:8. () in
  let f = Em_field.create g in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian (Rng.of_int 5) s ~ppc:8 ~uth:0.1 ());
  Sort.by_voxel s;
  let interp = loaded_interp f and accum = Accumulator.create g in
  let pool = { Pool.serial with Pool.tiles } in
  let scratch = Push.Team_scratch.create () and defer = Push.Defer.create () in
  let perf = Vpic_util.Perf.create () in
  let call () =
    Push.Defer.clear defer;
    ignore
      (Push.advance_team ~perf ~interp ~accum ~pool ~scratch ~defer s f
         Bc.periodic)
  in
  for _ = 1 to 3 do
    call ()
  done;
  let calls = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    call ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* A tile's workspace, defer list and slab live on the scratch and the
   accumulator, and the call sums the tiles' counters in place: cutting
   the pass into 16 tiles allocates no more than running it whole. *)
let test_team_push_per_tile () =
  let one = team_push_words ~tiles:1 in
  let sixteen = team_push_words ~tiles:16 in
  if sixteen > one then
    Alcotest.failf
      "minor words per team push call: %.1f at 1 tile, %.1f at 16 tiles" one
      sixteen

let suite =
  [ slow_case "alloc: a steady step allocates nothing per particle or voxel"
      test_steady_step;
    case "alloc: the team push allocates nothing per tile"
      test_team_push_per_tile ]

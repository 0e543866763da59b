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

let suite =
  [ slow_case "alloc: a steady step allocates nothing per particle or voxel"
      test_steady_step ]

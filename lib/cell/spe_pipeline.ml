module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Bc = Vpic_grid.Bc
module Perf = Vpic_util.Perf

type ledger = {
  mutable blocks : int;
  mutable particles : int;
  mutable bytes_in : float;
  mutable bytes_out : float;
  mutable t_compute : float;
  mutable t_dma : float;
  mutable t_exposed : float;
}

let ledger_create () =
  { blocks = 0;
    particles = 0;
    bytes_in = 0.;
    bytes_out = 0.;
    t_compute = 0.;
    t_dma = 0.;
    t_exposed = 0. }

let ledger_reset l =
  l.blocks <- 0;
  l.particles <- 0;
  l.bytes_in <- 0.;
  l.bytes_out <- 0.;
  l.t_compute <- 0.;
  l.t_dma <- 0.;
  l.t_exposed <- 0.

(* VPIC's single-precision particle is 32 bytes (dx dy dz i, ux uy uz q). *)
let particle_bytes = 32.

(* Gather needs the voxel's interpolator block — the same 18 f32
   coefficients [Vpic_particle.Interpolator] builds (72 B, see
   [Interpolator.bytes_per_voxel]), which VPIC rounds to 80 with padding
   for SPE DMA alignment; scatter pushes the 12-slot accumulator block
   of [Vpic_particle.Accumulator], f32 on the wire in VPIC (48 B; our
   host-side accumulator keeps the slots in f64 to match direct-deposit
   precision). *)
let interpolator_bytes = 80.
let accumulator_bytes = 48.

type t = {
  machine : Roadrunner.t;
  block_size : int;
  led : ledger;
  work : Push.Work.t;  (* every block's push workspace *)
}

let create ?(block_size = 512) machine =
  assert (block_size > 0);
  { machine; block_size; led = ledger_create (); work = Push.Work.create () }

let ledger t = t.led

let average_ppc s =
  let occupied = Hashtbl.create 1024 in
  Species.iter s (fun n -> Hashtbl.replace occupied (Species.voxel s n) ());
  let nvox = Hashtbl.length occupied in
  if nvox = 0 then 1. else float_of_int (Species.count s) /. float_of_int nvox

let no_absorbing bc =
  let open Vpic_grid in
  List.for_all
    (fun k ->
      match k with Bc.Absorbing | Bc.Refluxing _ -> false | _ -> true)
    [ bc.Bc.xlo; bc.Bc.xhi; bc.Bc.ylo; bc.Bc.yhi; bc.Bc.zlo; bc.Bc.zhi ]

let advance_species ?(perf = Perf.global) ?ppc_hint ~interp ~accum ?width t
    s f bc =
  (* Absorbing walls would delete particles mid-stream, breaking the
     fixed-count DMA block accounting. *)
  if not (no_absorbing bc) then
    invalid_arg
      "Spe_pipeline.advance_species: absorbing boundaries unsupported";
  let ppc =
    match ppc_hint with Some p -> Float.max 1. p | None -> average_ppc s
  in
  let np = Species.count s in
  let flops_pp =
    Vpic_particle.Interpolator.flops_per_gather +. Push.flops_per_push
    +. Push.flops_per_segment
  in
  let spe_flops =
    t.machine.Roadrunner.spe_clock_hz
    *. t.machine.Roadrunner.spe_flops_per_cycle_sp
  in
  let bw = Roadrunner.bw_per_spe t.machine in
  let totals = ref Push.zero_stats in
  let first = ref 0 in
  while !first < np do
    let count = min t.block_size (np - !first) in
    let st =
      Push.advance ~perf ~first:!first ~count ~interp ~accum ?width
        ~work:t.work s f bc
    in
    assert (st.Push.absorbed = 0);
    totals := Push.sum_stats !totals st;
    (* DMA ledger for this block.  Interpolator/accumulator traffic is
       amortised over the ppc particles sharing each voxel (the benefit of
       voxel sorting the paper depends on). *)
    let fcount = float_of_int count in
    let bin =
      fcount *. (particle_bytes +. (interpolator_bytes /. ppc))
    in
    let bout =
      fcount *. (particle_bytes +. (accumulator_bytes /. ppc))
    in
    let l = t.led in
    l.blocks <- l.blocks + 1;
    l.particles <- l.particles + count;
    l.bytes_in <- l.bytes_in +. bin;
    l.bytes_out <- l.bytes_out +. bout;
    (* SPE-efficiency: scalar bookkeeping caps useful SIMD issue; VPIC's
       hand-tuned SPU code reached roughly half of ideal on the push. *)
    let spu_efficiency = 0.5 in
    let tc = fcount *. flops_pp /. (spe_flops *. spu_efficiency) in
    let td = (bin +. bout) /. bw in
    l.t_compute <- l.t_compute +. tc;
    l.t_dma <- l.t_dma +. td;
    (* Double buffering overlaps compute and DMA: exposed time is the
       max of the two streams, per block. *)
    l.t_exposed <- l.t_exposed +. Float.max tc td;
    first := !first + count
  done;
  !totals

let spe_particle_rate t =
  let l = t.led in
  if l.t_exposed <= 0. then 0. else float_of_int l.particles /. l.t_exposed

let machine_particle_rate t =
  spe_particle_rate t *. float_of_int (Roadrunner.total_spes t.machine)

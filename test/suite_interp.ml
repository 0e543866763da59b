open Helpers
module Interp = Vpic_particle.Interp
module Interpolator = Vpic_particle.Interpolator
module Accumulator = Vpic_particle.Accumulator
module Sort = Vpic_particle.Sort
module Decomp = Vpic_grid.Decomp
module Comm = Vpic_parallel.Comm
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler

(* A small periodic grid with smooth-ish random fields and valid ghosts. *)
let random_field ?(seed = 7) g =
  let f = Em_field.create g in
  let rng = Rng.of_int seed in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.1 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em Bc.periodic f;
  f

(* --- Interpolator: the published VPIC expansion ------------------------- *)

(* The interpolator holds each component at the staggered midpoint along
   its own axis and bilinear in the transverse axes, so it must coincide
   with the direct staggered gather exactly at those midpoints (the
   coefficients are a polynomial rearrangement of the same mesh values,
   rounded once to f32). *)
let test_gather_matches_direct_at_midpoints () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = random_field g in
  let ip = Interpolator.create g in
  Interpolator.load ip f;
  let rng = Rng.of_int 99 in
  let out_i = Array.make 6 0. and out_d = Array.make 6 0. in
  for _ = 1 to 500 do
    let i = 1 + Rng.int rng g.Grid.nx
    and j = 1 + Rng.int rng g.Grid.ny
    and k = 1 + Rng.int rng g.Grid.nz in
    let fx = Rng.uniform rng
    and fy = Rng.uniform rng
    and fz = Rng.uniform rng in
    let v = Grid.voxel g i j k in
    Interpolator.gather_into ip ~voxel:v ~fx ~fy ~fz ~out:out_i;
    (* each component's own axis pinned to the staggered midpoint *)
    let direct ~fx ~fy ~fz q =
      Interp.gather_into f ~i ~j ~k ~fx ~fy ~fz ~out:out_d;
      out_d.(q)
    in
    check_close ~atol:1e-5 "ex" (direct ~fx:0.5 ~fy ~fz 0) out_i.(0);
    check_close ~atol:1e-5 "ey" (direct ~fx ~fy:0.5 ~fz 1) out_i.(1);
    check_close ~atol:1e-5 "ez" (direct ~fx ~fy ~fz:0.5 2) out_i.(2);
    check_close ~atol:1e-5 "bx" (direct ~fx ~fy:0.5 ~fz:0.5 3) out_i.(3);
    check_close ~atol:1e-5 "by" (direct ~fx:0.5 ~fy ~fz:0.5 4) out_i.(4);
    check_close ~atol:1e-5 "bz" (direct ~fx:0.5 ~fy:0.5 ~fz 5) out_i.(5)
  done

(* load_interior + load_boundary must tile the interior exactly like one
   full load: same coefficients, each voxel written once. *)
let test_load_split_equals_full () =
  let g = small_grid ~n:5 ~l:2.5 () in
  let f = random_field ~seed:11 g in
  let full = Interpolator.create g in
  Interpolator.load full f;
  let split = Interpolator.create g in
  Interpolator.load_interior split f;
  Interpolator.load_boundary split f;
  let a = Interpolator.data full and b = Interpolator.data split in
  let open Bigarray.Array1 in
  Alcotest.(check int) "same size" (dim a) (dim b);
  for q = 0 to dim a - 1 do
    if get a q <> get b q then
      Alcotest.failf "coefficient %d differs: %g vs %g" q (get a q) (get b q)
  done

(* --- Accumulator: block scatter vs direct mesh deposit ------------------ *)

let load_particles s ~ppc ~seed =
  let g = s.Species.grid in
  let rng = Rng.of_int seed in
  Grid.iter_interior g (fun i j k ->
      for _ = 1 to ppc do
        Species.append s
          { i; j; k;
            fx = Rng.uniform rng;
            fy = Rng.uniform rng;
            fz = Rng.uniform rng;
            ux = 0.2 *. Rng.normal rng;
            uy = 0.2 *. Rng.normal rng;
            uz = 0.2 *. Rng.normal rng;
            w = 1. /. float_of_int ppc }
      done)

(* The J-mesh deposit the accumulator replaced, kept as the oracle of
   its unload: one Villasenor-Buneman segment (in-cell endpoints,
   per-axis current coefficients) scattered straight into the three J
   meshes around the cell at flat voxel [v]. *)
let deposit_segment (jx : Sf.data) (jy : Sf.data) (jz : Sf.data) ~gx ~gxy v
    ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz =
  let add (a : Sf.data) o x =
    Bigarray.Array1.set a o (Bigarray.Array1.get a o +. x)
  in
  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
  let xb = 0.5 *. (x1 +. x2)
  and yb = 0.5 *. (y1 +. y2)
  and zb = 0.5 *. (z1 +. z2) in
  let qx = cx *. dx and corr = dy *. dz /. 12. in
  add jx v (qx *. (((1. -. yb) *. (1. -. zb)) +. corr));
  add jx (v + gx) (qx *. ((yb *. (1. -. zb)) -. corr));
  add jx (v + gxy) (qx *. (((1. -. yb) *. zb) -. corr));
  add jx (v + gx + gxy) (qx *. ((yb *. zb) +. corr));
  let qy = cy *. dy and corr = dz *. dx /. 12. in
  add jy v (qy *. (((1. -. zb) *. (1. -. xb)) +. corr));
  add jy (v + gxy) (qy *. ((zb *. (1. -. xb)) -. corr));
  add jy (v + 1) (qy *. (((1. -. zb) *. xb) -. corr));
  add jy (v + gxy + 1) (qy *. ((zb *. xb) +. corr));
  let qz = cz *. dz and corr = dx *. dy /. 12. in
  add jz v (qz *. (((1. -. xb) *. (1. -. yb)) +. corr));
  add jz (v + 1) (qz *. ((xb *. (1. -. yb)) -. corr));
  add jz (v + gx) (qz *. (((1. -. xb) *. yb) -. corr));
  add jz (v + gx + 1) (qz *. ((xb *. yb) +. corr))

(* Particles parked mid-cell with small momenta cross no face, so each
   walks one segment: from its stored offsets before the push to those
   after it.  Depositing those segments with the oracle must give the J
   meshes the accumulator unloads, up to f64 addition order. *)
let test_accumulator_unload_matches_direct_deposit () =
  let g = small_grid ~n:6 ~l:3. () in
  let f = random_field ~seed:5 g in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let rng = Rng.of_int 17 in
  Grid.iter_interior g (fun i j k ->
      for _ = 1 to 6 do
        let mid () = 0.25 +. (0.5 *. Rng.uniform rng) in
        let fx = mid () in
        let fy = mid () in
        let fz = mid () in
        let ux = 0.05 *. Rng.normal rng in
        let uy = 0.05 *. Rng.normal rng in
        let uz = 0.05 *. Rng.normal rng in
        Species.append s
          { i; j; k; fx; fy; fz; ux; uy; uz; w = 0.5 +. Rng.uniform rng }
      done);
  let before = Array.init (Species.count s) (Species.get s) in
  let ac = Accumulator.create g in
  let st = push ~accum:ac s f Bc.periodic in
  Alcotest.(check int) "no particle crossed a face" 0 st.Push.block_cleanup;
  Alcotest.(check int) "one segment each" (Array.length before)
    st.Push.segments;
  Accumulator.unload ac f;
  let oracle = Em_field.create g in
  let jx = Sf.data oracle.Em_field.jx
  and jy = Sf.data oracle.Em_field.jy
  and jz = Sf.data oracle.Em_field.jz in
  let dt = g.Grid.dt in
  let kx = 1. /. (g.Grid.dy *. g.Grid.dz *. dt)
  and ky = 1. /. (g.Grid.dz *. g.Grid.dx *. dt)
  and kz = 1. /. (g.Grid.dx *. g.Grid.dy *. dt) in
  Array.iteri
    (fun n (p : Particle.t) ->
      let q = Species.get s n in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "particle %d stays in its cell" n)
        (p.Particle.i, p.Particle.j, p.Particle.k)
        (q.Particle.i, q.Particle.j, q.Particle.k);
      let qw = s.Species.q *. p.Particle.w in
      deposit_segment jx jy jz ~gx:g.Grid.gx ~gxy:(g.Grid.gx * g.Grid.gy)
        (Grid.voxel g p.Particle.i p.Particle.j p.Particle.k)
        ~x1:p.Particle.fx ~y1:p.Particle.fy ~z1:p.Particle.fz
        ~x2:q.Particle.fx ~y2:q.Particle.fy ~z2:q.Particle.fz
        ~cx:(qw *. kx) ~cy:(qw *. ky) ~cz:(qw *. kz))
    before;
  let open Bigarray.Array1 in
  (* meshes match up to addition order (both sides accumulate in f64) *)
  let nonzero = ref 0 in
  List.iter2
    (fun (name, ja) jb ->
      let da = Sf.data ja and db = Sf.data jb in
      for q = 0 to dim da - 1 do
        if get da q <> 0. then incr nonzero;
        if not (Vpic_util.Approx.close ~rtol:1e-12 ~atol:1e-13 (get da q) (get db q))
        then
          Alcotest.failf "%s[%d]: direct %g vs accumulator %g" name q
            (get da q) (get db q)
      done)
    [ ("jx", oracle.Em_field.jx); ("jy", oracle.Em_field.jy);
      ("jz", oracle.Em_field.jz) ]
    [ f.Em_field.jx; f.Em_field.jy; f.Em_field.jz ];
  check_true "the push deposited current" (!nonzero > 0);
  (* the accumulator is left clean for the next step *)
  let d = Accumulator.data ac in
  for q = 0 to dim d - 1 do
    if get d q <> 0. then Alcotest.failf "accumulator slot %d not zeroed" q
  done

(* Charge conservation through the full step loop on the interp/accum
   path: the Gauss residual must stay at the deposition-roundoff floor,
   exactly as the single-push conservation tests demand.  The ions are
   loaded from the same stream as the electrons, so they sit under them
   and the box starts neutral with E = 0: the residual starts at
   round-off and only a current that breaks continuity can raise it. *)
let test_interp_accum_charge_conservation () =
  let g = small_grid ~n:6 ~l:3. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local Bc.periodic)
      ~clean_div_interval:0 ~sort_interval:4 ()
  in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  let i = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
  ignore (Loader.maxwellian (Rng.of_int 3) e ~ppc:16 ~uth:0.1 ());
  ignore (Loader.maxwellian (Rng.of_int 3) i ~ppc:16 ~uth:0.01 ());
  let r0 = Simulation.gauss_residual sim in
  Simulation.run sim ~steps:12 ();
  let r1 = Simulation.gauss_residual sim in
  check_true
    (Printf.sprintf "gauss residual stays at round-off (%.3g -> %.3g)" r0 r1)
    (r0 < 1e-14 && r1 < 1e-14)

(* --- Sort: zero-allocation double buffer + occupancy -------------------- *)

let test_sort_scratch_reused () =
  let g = small_grid ~n:5 ~l:2.5 () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  load_particles s ~ppc:7 ~seed:31;
  let sum_w st np =
    let acc = ref 0. in
    for m = 0 to np - 1 do
      acc := !acc +. Bigarray.Array1.get st.Store.w m
    done;
    !acc
  in
  let np = Species.count s in
  let w0 = sum_w s.Species.store np in
  Sort.by_voxel s;
  check_true "sorted after first sort" (Sort.is_sorted s);
  let scratch1 =
    match s.Species.store.Store.sort_buf with
    | Some sc -> sc
    | None -> Alcotest.fail "no sort scratch retained"
  in
  (* shuffle the population out of order, then sort again: the scratch
     record must be the very same one (steady state allocates nothing) *)
  let f = random_field ~seed:2 g in
  for _ = 1 to 3 do
    ignore (push s f Bc.periodic)
  done;
  Sort.by_voxel s;
  Sort.by_voxel s;
  check_true "still sorted" (Sort.is_sorted s);
  let scratch2 =
    match s.Species.store.Store.sort_buf with
    | Some sc -> sc
    | None -> Alcotest.fail "scratch dropped"
  in
  check_true "same scratch record reused" (scratch1 == scratch2);
  Alcotest.(check int) "population preserved" np (Species.count s);
  check_close ~rtol:1e-12 "weights preserved" w0
    (sum_w s.Species.store (Species.count s));
  (* sorted order leaves only the gaps between occupied-voxel runs *)
  check_true "locality high after sort" (Sort.locality_score s > 0.9)

let test_occupancy () =
  let g = small_grid ~n:4 ~l:2. () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let put i n =
    for _ = 1 to n do
      Species.append s
        { i; j = 1; k = 1; fx = 0.5; fy = 0.5; fz = 0.5; ux = 0.; uy = 0.;
          uz = 0.; w = 1. }
    done
  in
  put 2 3;
  put 1 1;
  put 4 2;
  Sort.by_voxel s;
  let mx, mean = Sort.occupancy s in
  Alcotest.(check int) "max run" 3 mx;
  check_close "mean run" 2. mean;
  let empty = Species.create ~name:"z" ~q:1. ~m:1. g in
  let mx0, mean0 = Sort.occupancy empty in
  Alcotest.(check int) "empty max" 0 mx0;
  check_close "empty mean" 0. mean0

(* --- Split push: interior + deferred shell ranges = one fused pass ------- *)

(* [`Interior d] then [`Deferred d] on one population against a single
   [`All] push of a copy: the shell pass replays the recorded index
   ranges through the same block kernel, so stores, movers and reflux
   draws match bit for bit and the stats sum to the fused ones.  Only the
   accumulator's per-slot addition order differs (interior crossers into
   shell voxels land before the shell's own particles), hence [close]. *)
let check_split_equals_fused ~label ?(steps = 3) ?(movers = false)
    ?(defer_capacity = 64) ~make_species ~bc f =
  let g = f.Em_field.grid in
  let interp = loaded_interp f in
  let sa = make_species () and sb = make_species () in
  let aa = Accumulator.create g and ab = Accumulator.create g in
  let ma = Push.Movers.create () and mb = Push.Movers.create () in
  let movers_of m = if movers then Some m else None in
  let defer = Push.Defer.create ~capacity:defer_capacity () in
  let total = ref Push.zero_stats in
  for step = 1 to steps do
    let label = Printf.sprintf "%s, step %d" label step in
    Push.Movers.clear ma;
    Push.Movers.clear mb;
    let fused =
      Push.advance ?movers:(movers_of ma) ~interp ~accum:aa sa f bc
    in
    Push.Defer.clear defer;
    let inner =
      Push.advance ?movers:(movers_of mb) ~interp ~accum:ab
        ~region:(`Interior defer) sb f bc
    in
    let shell =
      Push.advance ?movers:(movers_of mb) ~interp ~accum:ab
        ~region:(`Deferred defer) sb f bc
    in
    check_true (label ^ ": interior pass deletes nothing")
      (inner.Push.absorbed = 0 && inner.Push.outbound = 0);
    check_true (label ^ ": stats sum to the fused push")
      (Push.sum_stats inner shell = fused);
    check_true (label ^ ": both passes pushed particles")
      (inner.Push.advanced > 0 && shell.Push.advanced > 0);
    Alcotest.(check int) (label ^ ": population") (Species.count sa)
      (Species.count sb);
    check_stores_bitwise label sa.Species.store sb.Species.store
      ~count:(Species.count sa);
    Alcotest.(check int) (label ^ ": movers") (Push.Movers.count ma)
      (Push.Movers.count mb);
    for q = 0 to (Push.Movers.count ma * Push.Movers.stride) - 1 do
      let va = Bigarray.Array1.get ma.Push.Movers.buf q
      and vb = Bigarray.Array1.get mb.Push.Movers.buf q in
      if Int64.bits_of_float va <> Int64.bits_of_float vb then
        Alcotest.failf "%s: mover float %d: %.17e <> %.17e" label q va vb
    done;
    total := Push.sum_stats !total fused
  done;
  let da = Accumulator.data aa and db = Accumulator.data ab in
  for q = 0 to Bigarray.Array1.dim da - 1 do
    check_close (Printf.sprintf "%s: accumulator slot %d" label q)
      (Bigarray.Array1.get da q) (Bigarray.Array1.get db q)
  done;
  !total

(* Sorted population in a box with every wall kind: the shell pass
   reflects, absorbs (removing highest index first) and re-emits from the
   thermal bath exactly as the fused pass does. *)
let test_split_push_equals_fused () =
  let g = small_grid ~n:6 ~l:3. () in
  let bc =
    { Bc.periodic with
      Bc.xlo = Bc.Conducting;
      xhi = Bc.Conducting;
      ylo = Bc.Absorbing;
      zhi = Bc.Refluxing 0.1 }
  in
  let f = random_field ~seed:23 g in
  Boundary.fill_em bc f;
  let make_species () =
    let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
    load_particles s ~ppc:6 ~seed:29;
    Sort.by_voxel s;
    s
  in
  let st =
    check_split_equals_fused ~label:"walls" ~make_species ~bc f
  in
  check_true "walls were hit"
    (st.Push.reflected > 0 && st.Push.absorbed > 0 && st.Push.refluxed > 0)

(* Unsorted population on a rank with domain faces: shell and interior
   particles interleave, so the defer list records many short ranges and
   must grow from capacity 1; outbound particles become movers in the
   same order as the fused pass emits them. *)
let test_defer_grows_over_unsorted () =
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:12 ~gny:6 ~gnz:6 ~lx:6. ~ly:3. ~lz:3.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let g = Decomp.local_grid d ~dt ~rank:0 in
  let bc = Decomp.local_bc d ~global:Bc.periodic ~rank:0 in
  let f = random_field ~seed:37 g in
  Boundary.fill_em bc f;
  let make_species () =
    let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
    let rng = Rng.of_int 43 in
    for _ = 1 to 6 * g.Grid.nx * g.Grid.ny * g.Grid.nz do
      Species.append s
        { i = 1 + Rng.int rng g.Grid.nx;
          j = 1 + Rng.int rng g.Grid.ny;
          k = 1 + Rng.int rng g.Grid.nz;
          fx = Rng.uniform rng;
          fy = Rng.uniform rng;
          fz = Rng.uniform rng;
          ux = 0.3 *. Rng.normal rng;
          uy = 0.3 *. Rng.normal rng;
          uz = 0.3 *. Rng.normal rng;
          w = 1. }
    done;
    s
  in
  check_true "population is unsorted" (not (Sort.is_sorted (make_species ())));
  let st =
    check_split_equals_fused ~label:"unsorted" ~movers:true ~defer_capacity:1
      ~make_species ~bc f
  in
  check_true "particles left through the domain faces" (st.Push.outbound > 0)

(* --- Movers: growth from a tiny capacity preserves content -------------- *)

let test_movers_growth () =
  (* 2-rank x-split bc (built without any comm: Decomp is pure), so the
     x faces are Domain and outbound particles become movers. *)
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let g = Decomp.local_grid d ~dt ~rank:0 in
  let bc = Decomp.local_bc d ~global:Bc.periodic ~rank:0 in
  let f = Em_field.create g in
  Boundary.fill_em bc f;
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let nout = 40 in
  for m = 1 to nout do
    (* all pressed against the hi-x face, headed out fast *)
    Species.append s
      { i = g.Grid.nx; j = 1 + (m mod g.Grid.ny); k = 2; fx = 0.95;
        fy = 0.5; fz = 0.5; ux = 5.; uy = 0.; uz = 0.;
        w = float_of_int m }
  done;
  let movers = Push.Movers.create ~capacity:1 () in
  let st = push ~movers s f bc in
  Alcotest.(check int) "all outbound" nout st.Push.outbound;
  Alcotest.(check int) "all buffered" nout (Push.Movers.count movers);
  (* growth from capacity 1 went through several doublings; every
     mover's payload must have survived them (weights are unique ids) *)
  let stride = Push.Movers.stride in
  let seen = Array.make (nout + 1) false in
  for m = 0 to nout - 1 do
    let w =
      int_of_float (Bigarray.Array1.get movers.Push.Movers.buf ((m * stride) + 9))
    in
    check_true "weight id in range" (w >= 1 && w <= nout);
    check_true "weight id unique" (not seen.(w));
    seen.(w) <- true;
    let gi =
      int_of_float (Bigarray.Array1.get movers.Push.Movers.buf (m * stride))
    in
    Alcotest.(check int) "stopped in hi-x ghost" (g.Grid.nx + 1) gi
  done

(* --- Reflux draws: stateless, so order-free ----------------------------- *)

(* Both x walls reflux and y, z are periodic: no particle is ever removed,
   so every particle keeps its store index through a push. *)
let reflux_bc =
  Bc.with_face
    (Bc.with_face Bc.periodic Axis.X `Lo (Bc.Refluxing 0.1))
    Axis.X `Hi (Bc.Refluxing 0.1)

(* Heads into the hi-x wall this step (6-cell grid, 0.34-cell move). *)
let reflux_probe : Particle.t =
  { i = 6; j = 3; k = 2; fx = 0.97; fy = 0.31; fz = 0.77; ux = 0.8;
    uy = -0.2; uz = 0.1; w = 0.25 }

(* Particle [n]'s stored voxel and the bits of its seven f32 fields. *)
let particle_bits (s : Species.t) n =
  let st = s.Species.store in
  let open Bigarray.Array1 in
  Int32.to_int (get st.Store.voxel n)
  :: List.map
       (fun (a : Store.f32) -> Int32.to_int (Int32.bits_of_float (get a n)))
       Store.[ st.fx; st.fy; st.fz; st.ux; st.uy; st.uz; st.w ]

(* 999 thermal particles (many of them refluxing too) and the probe, in
   an order shuffled by [seed]; returns the probe's index. *)
let shuffled_crowd s ~seed =
  let g = s.Species.grid in
  let rng = Rng.of_int seed in
  let crowd =
    Array.init 1000 (fun m ->
        if m = 0 then reflux_probe
        else
          { Particle.i = 1 + Rng.int rng g.Grid.nx;
            j = 1 + Rng.int rng g.Grid.ny;
            k = 1 + Rng.int rng g.Grid.nz;
            fx = Rng.uniform rng;
            fy = Rng.uniform rng;
            fz = Rng.uniform rng;
            ux = 0.4 *. Rng.normal rng;
            uy = 0.4 *. Rng.normal rng;
            uz = 0.4 *. Rng.normal rng;
            w = 0.25 })
  in
  Rng.shuffle rng crowd;
  Array.iter (Species.append s) crowd;
  let at = ref (-1) in
  Array.iteri (fun n p -> if p == reflux_probe then at := n) crowd;
  !at

(* A refluxed particle's new momentum is a function of its own crossing
   alone: pushed alone, at any index of a shuffled crowd, through the
   fused or the split push, or after a checkpoint round-trip of the
   crowd, the probe lands on the same bits. *)
let test_reflux_draw_is_order_free () =
  let module Checkpoint = Vpic.Checkpoint in
  let g = small_grid ~n:6 ~l:3. () in
  let sim = Simulation.make ~grid:g ~coupler:(Coupler.local reflux_bc) () in
  let f = sim.Simulation.fields in
  let rng = Rng.of_int 5 in
  List.iter
    (fun sf -> Sf.map_inplace sf (fun _ -> 0.1 *. (Rng.uniform rng -. 0.5)))
    (Em_field.em_components f);
  Boundary.fill_em reflux_bc f;
  let interp = loaded_interp f in
  let fresh () = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  let alone = fresh () in
  Species.append alone reflux_probe;
  let st =
    Push.advance ~interp ~accum:(Accumulator.create g) alone f reflux_bc
  in
  Alcotest.(check int) "the probe refluxes" 1 st.Push.refluxed;
  check_true "re-emitted inward" ((Species.get alone 0).Particle.ux < 0.);
  let expected = particle_bits alone 0 in
  let same label s n =
    Alcotest.(check (list int)) label expected (particle_bits s n)
  in
  List.iter
    (fun seed ->
      let fused = fresh () in
      let at = shuffled_crowd fused ~seed in
      let st =
        Push.advance ~interp ~accum:(Accumulator.create g) fused f reflux_bc
      in
      check_true "the crowd refluxes too" (st.Push.refluxed > 1);
      same (Printf.sprintf "fused push, probe at %d" at) fused at;
      let split = fresh () in
      ignore (shuffled_crowd split ~seed);
      let accum = Accumulator.create g and defer = Push.Defer.create () in
      List.iter
        (fun region ->
          ignore (Push.advance ~interp ~accum ~region split f reflux_bc))
        [ `Interior defer; `Deferred defer ];
      same (Printf.sprintf "split push, probe at %d" at) split at)
    [ 1; 2; 3; 4 ];
  let at = shuffled_crowd (Simulation.add_species sim ~name:"e" ~q:(-1.) ~m:1.) ~seed:9 in
  let r =
    Checkpoint.decode ~coupler:(Coupler.local reflux_bc) (Checkpoint.encode sim)
  in
  let rf = r.Simulation.fields in
  let restored = List.hd (Simulation.species r) in
  ignore
    (Push.advance ~interp:(loaded_interp rf)
       ~accum:(Accumulator.create r.Simulation.grid) restored rf reflux_bc);
  same (Printf.sprintf "after a checkpoint round-trip, probe at %d" at)
    restored at

(* The same crossing finished by [Push.finish_movers] on the receiving
   block draws the same, whatever ids the blocks carry: block A (x in
   [0, 2)) ships the probe to block B (x in [2, 4)), where it crosses
   B's refluxing hi-y wall. *)
let test_mover_reflux_draw_ignores_block_id () =
  let module Exchange = Vpic_parallel.Exchange in
  let module Migrate = Vpic_parallel.Migrate in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let grid x0 = Grid.make ~nx:4 ~ny:4 ~nz:4 ~lx:2. ~ly:2. ~lz:2. ~dt ~x0 () in
  let walls = { Bc.periodic with Bc.ylo = Bc.Refluxing 0.1; yhi = Bc.Refluxing 0.1 } in
  let draw ~nblocks ~a ~b =
    let target id g bc =
      let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
      { Migrate.id; bc; species = s; fields = Em_field.create g;
        accum = Accumulator.create g; movers = Push.Movers.create () }
    in
    let ta =
      target a (grid 0.)
        { walls with Bc.xlo = Bc.Absorbing; xhi = Bc.Domain b }
    and tb =
      target b (grid 2.)
        { walls with Bc.xlo = Bc.Domain a; xhi = Bc.Absorbing }
    in
    (* crosses x first (0.005 from the face, against 0.01 in y), so it
       reaches B's y wall while B finishes its move *)
    Species.append ta.Migrate.species
      { i = 4; j = 4; k = 2; fx = 0.995; fy = 0.99; fz = 0.5; ux = 0.7;
        uy = 0.7; uz = 0.; w = 1. };
    let st =
      Push.advance ~movers:ta.Migrate.movers
        ~interp:(loaded_interp ta.Migrate.fields) ~accum:ta.Migrate.accum
        ta.Migrate.species ta.Migrate.fields ta.Migrate.bc
    in
    Alcotest.(check int) "the probe leaves A" 1 st.Push.outbound;
    let targets = Array.make nblocks None in
    targets.(a) <- Some ta;
    targets.(b) <- Some tb;
    let ports =
      Exchange.create ~nblocks ~owner:(Array.make nblocks 0)
        ~plane:(fun _ _ -> 0) ()
    in
    let mig = Migrate.exchange ports ~targets in
    Alcotest.(check int) "settled in B" 1 mig.Migrate.settled;
    let s = tb.Migrate.species in
    check_true "re-emitted from B's hi-y wall" ((Species.get s 0).Particle.uy < 0.);
    particle_bits s 0
  in
  let expected = draw ~nblocks:2 ~a:0 ~b:1 in
  List.iter
    (fun (nblocks, a, b) ->
      Alcotest.(check (list int))
        (Printf.sprintf "A = block %d, B = block %d of %d" a b nblocks)
        expected (draw ~nblocks ~a ~b))
    [ (2, 1, 0); (3, 0, 2); (3, 2, 1) ]

let suite =
  [ case "interpolator matches direct gather at staggered midpoints"
      test_gather_matches_direct_at_midpoints;
    case "split load equals full load" test_load_split_equals_full;
    case "accumulator unload matches direct deposit"
      test_accumulator_unload_matches_direct_deposit;
    case "charge conservation on the interp/accum path"
      test_interp_accum_charge_conservation;
    case "sort scratch is reused across sorts" test_sort_scratch_reused;
    case "occupancy max/mean" test_occupancy;
    case "split push equals the fused push at every wall kind"
      test_split_push_equals_fused;
    case "defer list grows over an unsorted population"
      test_defer_grows_over_unsorted;
    case "movers grow from capacity 1 without losing payload"
      test_movers_growth;
    case "push: a reflux draw is order-free" test_reflux_draw_is_order_free;
    case "push: a finished mover's reflux draw ignores the block ids"
      test_mover_reflux_draw_ignores_block_id ]

module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Perf = Vpic_util.Perf

let flops_per_push = 70.
let flops_per_segment = 57.

(* Per-lane flop split of the block kernel's fused passes.  gather is
   the interpolator expansion ([Interpolator.flops_per_gather]); rotate
   (Boris) plus advance (inverse gamma, displacement, crossing mask) sum
   to [flops_per_push] and deposit is one Villasenor-Buneman segment —
   so the Perf ledger is kernel-invariant by construction: scalar and
   block kernels account identical flops for identical work. *)
let block_flops_rotate = 47.
let block_flops_advance = 23.

let block_pass_flops () =
  [ ("gather", Interpolator.flops_per_gather);
    ("rotate", block_flops_rotate);
    ("advance", block_flops_advance);
    ("deposit", flops_per_segment) ]

(* Inner-loop kernel selection: [Scalar] advances one particle at a
   time; [Block] processes fixed-width lane blocks of a voxel run
   through fused gather/rotate/advance/deposit passes, with cell
   crossings masked out to the scalar path (bitwise-identical results,
   see [advance]). *)
type kernel = Scalar | Block of { width : int }

let kernel_to_string = function
  | Scalar -> "scalar"
  | Block { width } -> "block" ^ string_of_int width

let default_block_width = 8
let max_block_width = 16

(* Particles stopped at a Domain face, packed 13 Float32 values each in a
   Bigarray so the buffer IS the wire format of the comm layer's
   persistent migrate ports — posting a mover batch is a flat f32 copy,
   no boxing, no per-message array.  Layout per mover: cell i,j,k (exact
   small ints), in-cell position fx,fy,fz (f32-representable by
   construction), momentum ux,uy,uz and weight (f32 — exactly the
   precision the 32-byte store would keep after settling, so the wire
   loses nothing the store would have kept), remaining displacement
   rx,ry,rz in cell units (rounded to f32; the receiver's walk deposits
   from its own endpoints, so charge conservation is unaffected). *)
module Movers = struct
  type t = { mutable buf : Store.f32; mutable n : int }

  let stride = 13

  let create ?(capacity = 16) () =
    assert (capacity > 0);
    { buf = Store.f32_create (capacity * stride); n = 0 }

  let count t = t.n
  let clear t = t.n <- 0

  (* View [n] movers in a comm buffer in place (no copy; the view is only
     read while the buffer is valid). *)
  let of_wire buf n =
    assert (n >= 0 && n * stride <= Bigarray.Array1.dim buf);
    { buf; n }

  let push t ~cell ~wk ~u ~w =
    let open Bigarray.Array1 in
    if (t.n + 1) * stride > dim t.buf then begin
      let nbuf = Store.f32_create (2 * dim t.buf) in
      let live = t.n * stride in
      if live > 0 then blit (sub t.buf 0 live) (sub nbuf 0 live);
      t.buf <- nbuf
    end;
    let o = t.n * stride in
    let b = t.buf in
    unsafe_set b o (float_of_int cell.(0));
    unsafe_set b (o + 1) (float_of_int cell.(1));
    unsafe_set b (o + 2) (float_of_int cell.(2));
    unsafe_set b (o + 3) wk.(0);
    unsafe_set b (o + 4) wk.(1);
    unsafe_set b (o + 5) wk.(2);
    unsafe_set b (o + 6) u.(0);
    unsafe_set b (o + 7) u.(1);
    unsafe_set b (o + 8) u.(2);
    unsafe_set b (o + 9) w;
    unsafe_set b (o + 10) wk.(3);
    unsafe_set b (o + 11) wk.(4);
    unsafe_set b (o + 12) wk.(5);
    t.n <- t.n + 1
end

(* Reusable list of particle indices whose push is deferred to the
   boundary pass (their cell touches the ghost layer, so they need the
   ghost fill to have landed).  Lives across steps: zero steady-state
   allocation. *)
module Defer = struct
  type t = { mutable idx : Store.i32; mutable n : int }

  let create ?(capacity = 256) () =
    assert (capacity > 0);
    { idx = Store.i32_create capacity; n = 0 }

  let count t = t.n
  let clear t = t.n <- 0
  let get t m = Int32.to_int (Bigarray.Array1.unsafe_get t.idx m)

  let add t v =
    let open Bigarray.Array1 in
    if t.n >= dim t.idx then begin
      let nidx = Store.i32_create (2 * dim t.idx) in
      if t.n > 0 then blit (sub t.idx 0 t.n) (sub nidx 0 t.n);
      t.idx <- nidx
    end;
    unsafe_set t.idx t.n (Int32.of_int v);
    t.n <- t.n + 1

  (* Append [src]'s indices to [dst] — how the team push merges its
     per-tile defer lists back into the step's one, in tile order. *)
  let append dst src =
    let open Bigarray.Array1 in
    if src.n > 0 then begin
      let need = dst.n + src.n in
      if need > dim dst.idx then begin
        let cap = ref (2 * dim dst.idx) in
        while !cap < need do
          cap := 2 * !cap
        done;
        let nidx = Store.i32_create !cap in
        if dst.n > 0 then blit (sub dst.idx 0 dst.n) (sub nidx 0 dst.n);
        dst.idx <- nidx
      end;
      blit (sub src.idx 0 src.n) (sub dst.idx dst.n src.n);
      dst.n <- need
    end
end

type stats = {
  advanced : int;
  segments : int;
  absorbed : int;
  reflected : int;
  refluxed : int;
  outbound : int;
  block_lanes : int;
  block_cleanup : int;
}

let boris ~u ~ex ~ey ~ez ~bx ~by ~bz ~qdt_2m =
  let ux = u.(0) +. (qdt_2m *. ex) in
  let uy = u.(1) +. (qdt_2m *. ey) in
  let uz = u.(2) +. (qdt_2m *. ez) in
  let gamma_m = sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
  let f = qdt_2m /. gamma_m in
  let tx = f *. bx and ty = f *. by and tz = f *. bz in
  let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
  let sx = 2. *. tx /. (1. +. t2) in
  let sy = 2. *. ty /. (1. +. t2) in
  let sz = 2. *. tz /. (1. +. t2) in
  (* u' = u- + u- x t *)
  let px = ux +. ((uy *. tz) -. (uz *. ty)) in
  let py = uy +. ((uz *. tx) -. (ux *. tz)) in
  let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
  (* u+ = u- + u' x s *)
  let ux = ux +. ((py *. sz) -. (pz *. sy)) in
  let uy = uy +. ((pz *. sx) -. (px *. sz)) in
  let uz = uz +. ((px *. sy) -. (py *. sx)) in
  u.(0) <- ux +. (qdt_2m *. ex);
  u.(1) <- uy +. (qdt_2m *. ey);
  u.(2) <- uz +. (qdt_2m *. ez)

(* Deposit one straight segment (x1..x2 etc, in-cell coordinates in [0,1])
   of a particle with per-axis current coefficients (cx,cy,cz) into the
   J accumulators of the cell at flat voxel [v].  Villasenor-Buneman
   first-order, charge-conserving form. *)
let deposit_segment (jx : Sf.data) (jy : Sf.data) (jz : Sf.data) gx gxy v ~x1
    ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz =
  let open Bigarray.Array1 in
  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
  let xb = 0.5 *. (x1 +. x2) in
  let yb = 0.5 *. (y1 +. y2) in
  let zb = 0.5 *. (z1 +. z2) in
  let add a idx v' = unsafe_set a idx (unsafe_get a idx +. v') in
  (* Jx: transverse (y,z) *)
  let qx = cx *. dx in
  if qx <> 0. then begin
    let corr = dy *. dz /. 12. in
    add jx v (qx *. (((1. -. yb) *. (1. -. zb)) +. corr));
    add jx (v + gx) (qx *. ((yb *. (1. -. zb)) -. corr));
    add jx (v + gxy) (qx *. (((1. -. yb) *. zb) -. corr));
    add jx (v + gx + gxy) (qx *. ((yb *. zb) +. corr))
  end;
  (* Jy: transverse (z,x) *)
  let qy = cy *. dy in
  if qy <> 0. then begin
    let corr = dz *. dx /. 12. in
    add jy v (qy *. (((1. -. zb) *. (1. -. xb)) +. corr));
    add jy (v + gxy) (qy *. ((zb *. (1. -. xb)) -. corr));
    add jy (v + 1) (qy *. (((1. -. zb) *. xb) -. corr));
    add jy (v + gxy + 1) (qy *. ((zb *. xb) +. corr))
  end;
  (* Jz: transverse (x,y) *)
  let qz = cz *. dz in
  if qz <> 0. then begin
    let corr = dx *. dy /. 12. in
    add jz v (qz *. (((1. -. xb) *. (1. -. yb)) +. corr));
    add jz (v + 1) (qz *. ((xb *. (1. -. yb)) -. corr));
    add jz (v + gx) (qz *. (((1. -. xb) *. yb) -. corr));
    add jz (v + gx + 1) (qz *. ((xb *. yb) +. corr))
  end

(* Same segment, scattered into the cell's 12-slot accumulator block
   instead of the three J meshes: identical arithmetic, identical slot
   semantics (Accumulator.unload folds slot q of voxel v onto the mesh
   target deposit_segment would have written). *)
let deposit_segment_acc (acc : Sf.data) v ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz =
  let open Bigarray.Array1 in
  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
  let xb = 0.5 *. (x1 +. x2) in
  let yb = 0.5 *. (y1 +. y2) in
  let zb = 0.5 *. (z1 +. z2) in
  let o = v * 12 in
  let add q v' = unsafe_set acc (o + q) (unsafe_get acc (o + q) +. v') in
  let qx = cx *. dx in
  if qx <> 0. then begin
    let corr = dy *. dz /. 12. in
    add 0 (qx *. (((1. -. yb) *. (1. -. zb)) +. corr));
    add 1 (qx *. ((yb *. (1. -. zb)) -. corr));
    add 2 (qx *. (((1. -. yb) *. zb) -. corr));
    add 3 (qx *. ((yb *. zb) +. corr))
  end;
  let qy = cy *. dy in
  if qy <> 0. then begin
    let corr = dz *. dx /. 12. in
    add 4 (qy *. (((1. -. zb) *. (1. -. xb)) +. corr));
    add 5 (qy *. ((zb *. (1. -. xb)) -. corr));
    add 6 (qy *. (((1. -. zb) *. xb) -. corr));
    add 7 (qy *. ((zb *. xb) +. corr))
  end;
  let qz = cz *. dz in
  if qz <> 0. then begin
    let corr = dx *. dy /. 12. in
    add 8 (qz *. (((1. -. xb) *. (1. -. yb)) +. corr));
    add 9 (qz *. ((xb *. (1. -. yb)) -. corr));
    add 10 (qz *. (((1. -. xb) *. yb) -. corr));
    add 11 (qz *. ((xb *. yb) +. corr))
  end

type face_action = Wrap | Reflect | Absorb | Reflux of float | Stop

let face_action = function
  | Bc.Periodic -> Wrap
  | Bc.Conducting -> Reflect
  | Bc.Absorbing -> Absorb
  | Bc.Refluxing uth -> Reflux uth
  | Bc.Domain _ -> Stop

(* Everything the walk needs, prepared once per species push. *)
type walk_env = {
  g : Grid.t;
  jxa : Sf.data;
  jya : Sf.data;
  jza : Sf.data;
  gx : int;
  gxy : int;
  actions : face_action array; (* indexed 2*axis + (1 if hi side) *)
  extents : int array;
  segments : int ref;
  reflected : int ref;
  refluxed : int ref;
  rng : Vpic_util.Rng.t option; (* required for Refluxing faces *)
  s32 : Store.f32; (* 1-slot scratch: round to f32 without boxing Int32 *)
  acc : Sf.data option; (* accumulator slots; deposits bypass the J meshes *)
}

let make_env ?rng ?acc g f bc ~segments ~reflected ~refluxed =
  { g;
    jxa = Sf.data f.Vpic_field.Em_field.jx;
    jya = Sf.data f.Vpic_field.Em_field.jy;
    jza = Sf.data f.Vpic_field.Em_field.jz;
    gx = g.Grid.gx;
    gxy = g.Grid.gx * g.Grid.gy;
    actions =
      [| face_action bc.Bc.xlo; face_action bc.Bc.xhi;
         face_action bc.Bc.ylo; face_action bc.Bc.yhi;
         face_action bc.Bc.zlo; face_action bc.Bc.zhi |];
    extents = [| g.Grid.nx; g.Grid.ny; g.Grid.nz |];
    segments;
    reflected;
    refluxed;
    rng;
    s32 = Store.f32_create 1;
    acc }

let round32_env env x =
  Bigarray.Array1.unsafe_set env.s32 0 x;
  Bigarray.Array1.unsafe_get env.s32 0

type walk_status = Settled | Absorbed | Outbound

(* Walk a particle through its remaining displacement, splitting at face
   crossings and depositing each segment.  State arrays:
   wk.(0..2) in-cell position, wk.(3..5) remaining displacement (cell
   units, < 1 per axis), cell.(0..2) owning cell, u.(0..2) momentum
   (mutated by reflections).  On [Outbound], the cell sits in the first
   ghost layer at the entry face and wk.(3..5) holds what is left of the
   move -- the receiving rank completes it.

   f32 consistency: every deposited segment endpoint is a value the f32
   store can represent, and it is the value carried forward — so the
   current walked into J agrees bit-for-bit with the position the
   particle ends up stored at (discrete continuity survives the f32
   narrowing).  The crossing axis snaps to its exact face value (0.0 and
   1.0 are f32-exact); transverse axes round to nearest f32; the final
   segment rounds AND clamps into [0, pred 1.0f32] before depositing. *)
let walk env ~wk ~cell ~u ~cxc ~cyc ~czc =
  let status = ref Settled in
  let moving = ref true in
  let guard = ref 0 in
  while !moving && !status = Settled do
    incr guard;
    assert (!guard <= 16);
    (* Fraction [smin] of the remaining displacement until the first face
       crossing (crossing code: 2*axis + hi, or -1 for none); ties resolve
       to the later axis, the remainder handled next iteration as
       zero-length steps. *)
    let smin = ref 1.0 in
    let cross = ref (-1) in
    for a = 0 to 2 do
      let r = Array.unsafe_get wk (3 + a) in
      if r > 0. then begin
        let t = (1. -. Array.unsafe_get wk a) /. r in
        if t <= !smin then begin
          smin := (if t < 0. then 0. else t);
          cross := (2 * a) + 1
        end
      end
      else if r < 0. then begin
        let t = Array.unsafe_get wk a /. -.r in
        if t <= !smin then begin
          smin := (if t < 0. then 0. else t);
          cross := 2 * a
        end
      end
    done;
    let sfrac = !smin in
    let a_cross = if !cross >= 0 then !cross / 2 else -1 in
    let hi_cross = !cross >= 0 && !cross land 1 = 1 in
    let endpoint axis x1a r =
      if axis = a_cross then if hi_cross then 1. else 0.
      else if !cross >= 0 then round32_env env (x1a +. (sfrac *. r))
      else Store.clamp_offset (x1a +. (sfrac *. r))
    in
    let x1 = wk.(0) and y1 = wk.(1) and z1 = wk.(2) in
    let x2 = endpoint 0 x1 wk.(3) in
    let y2 = endpoint 1 y1 wk.(4) in
    let z2 = endpoint 2 z1 wk.(5) in
    let v = Grid.voxel env.g cell.(0) cell.(1) cell.(2) in
    (match env.acc with
    | Some a ->
        deposit_segment_acc a v ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx:cxc ~cy:cyc
          ~cz:czc
    | None ->
        deposit_segment env.jxa env.jya env.jza env.gx env.gxy v ~x1 ~y1 ~z1
          ~x2 ~y2 ~z2 ~cx:cxc ~cy:cyc ~cz:czc);
    incr env.segments;
    wk.(0) <- x2;
    wk.(1) <- y2;
    wk.(2) <- z2;
    wk.(3) <- (1. -. sfrac) *. wk.(3);
    wk.(4) <- (1. -. sfrac) *. wk.(4);
    wk.(5) <- (1. -. sfrac) *. wk.(5);
    if !cross < 0 then moving := false
    else begin
      let a = !cross / 2 in
      let hi = !cross land 1 = 1 in
      let n_axis = Array.unsafe_get env.extents a in
      let leaving = if hi then cell.(a) = n_axis else cell.(a) = 1 in
      let action = if leaving then env.actions.(!cross) else Wrap in
      match action with
      | Wrap ->
          cell.(a) <-
            (if not leaving then cell.(a) + (if hi then 1 else -1)
             else if hi then 1
             else n_axis);
          wk.(a) <- (if hi then 0. else 1.)
      | Stop ->
          (* Step into the ghost layer and stop: the neighbour finishes
             the move (keeps deposition within one ghost layer). *)
          cell.(a) <- (if hi then n_axis + 1 else 0);
          wk.(a) <- (if hi then 0. else 1.);
          status := Outbound
      | Reflect ->
          wk.(a) <- (if hi then 1. else 0.);
          wk.(3 + a) <- -.wk.(3 + a);
          u.(a) <- -.u.(a);
          incr env.reflected
      | Reflux uth -> begin
          match env.rng with
          | None ->
              invalid_arg
                "Push: refluxing face crossed without an rng (pass ~rng)"
          | Some rng ->
              (* Re-emit from a thermal bath at the wall: inward normal
                 momentum is flux-weighted (Rayleigh), tangentials are
                 Maxwellian; the rest of the step is forfeited (the wall
                 swallowed the outgoing particle). *)
              let inward = if hi then -1. else 1. in
              let un =
                inward *. uth
                *. sqrt (-2. *. log (Float.max 1e-300 (Vpic_util.Rng.uniform rng)))
              in
              wk.(a) <- (if hi then 1. else 0.);
              for b = 0 to 2 do
                if b = a then u.(b) <- un
                else u.(b) <- uth *. Vpic_util.Rng.normal rng;
                wk.(3 + b) <- 0.
              done;
              incr env.refluxed
        end
      | Absorb -> status := Absorbed
    end
  done;
  !status

let advance ?(perf = Perf.global) ?(first = 0) ?count ?movers ?interp ?accum
    ?rng ?(kernel = Scalar) ?(region = `All) (s : Species.t) f bc =
  (match kernel with
  | Scalar -> ()
  | Block { width } ->
      if width < 1 || width > max_block_width then
        invalid_arg
          (Printf.sprintf "Push.advance: block width must be in [1,%d]"
             max_block_width));
  let g = s.Species.grid in
  assert (g == f.Vpic_field.Em_field.grid);
  (match interp with
  | Some it -> assert (Interpolator.grid it == g)
  | None -> ());
  (match accum with
  | Some ac -> assert (Accumulator.grid ac == g)
  | None -> ());
  let dt = g.Grid.dt in
  let qdt_2m = 0.5 *. s.Species.q *. dt /. s.Species.m in
  let inv_dx = 1. /. g.Grid.dx
  and inv_dy = 1. /. g.Grid.dy
  and inv_dz = 1. /. g.Grid.dz in
  (* Per-axis current coefficients modulo the particle's q*w factor. *)
  let kx = inv_dy *. inv_dz /. dt in
  let ky = inv_dz *. inv_dx /. dt in
  let kz = inv_dx *. inv_dy /. dt in
  let segments = ref 0 in
  let reflected = ref 0 in
  let refluxed = ref 0 in
  let env =
    make_env ?rng
      ?acc:(Option.map Accumulator.data accum)
      g f bc ~segments ~reflected ~refluxed
  in
  let u = Array.make 3 0. in
  let wk = Array.make 6 0. in
  let cell = Array.make 3 0 in
  let absorbed = ref 0 in
  let outbound = ref 0 in
  let dead = ref [] in
  let np0 = Species.count s in
  let last =
    match count with
    | None -> np0 - 1
    | Some c ->
        assert (first >= 0 && first + c <= np0);
        first + c - 1
  in
  let st = s.Species.store in
  let svox = st.Store.voxel in
  let sfx = st.Store.fx and sfy = st.Store.fy and sfz = st.Store.fz in
  let sux = st.Store.ux and suy = st.Store.uy and suz = st.Store.uz in
  let sw = st.Store.w in
  let open Bigarray.Array1 in
  (* The gather and the Boris rotation are inlined as local unboxed
     arithmetic instead of cross-module calls (which box every float
     argument on this toolchain).  The formulas below are those of
     Interp.tri / Interp.gather_into / boris, in the same evaluation
     order, so results are bit-identical to those reference
     functions. *)
  let dex = Sf.data f.Vpic_field.Em_field.ex
  and dey = Sf.data f.Vpic_field.Em_field.ey
  and dez = Sf.data f.Vpic_field.Em_field.ez
  and dbx = Sf.data f.Vpic_field.Em_field.bx
  and dby = Sf.data f.Vpic_field.Em_field.by
  and dbz = Sf.data f.Vpic_field.Em_field.bz in
  let ggx = env.gx and ggxy = env.gxy in
  let tri8 (a : Sf.data) v tx ty tz =
    let sx0 = 1. -. tx and sy0 = 1. -. ty and sz0 = 1. -. tz in
    let c00 = (sx0 *. unsafe_get a v) +. (tx *. unsafe_get a (v + 1)) in
    let c10 =
      (sx0 *. unsafe_get a (v + ggx)) +. (tx *. unsafe_get a (v + ggx + 1))
    in
    let c01 =
      (sx0 *. unsafe_get a (v + ggxy)) +. (tx *. unsafe_get a (v + ggxy + 1))
    in
    let c11 =
      (sx0 *. unsafe_get a (v + ggxy + ggx))
      +. (tx *. unsafe_get a (v + ggxy + ggx + 1))
    in
    (sz0 *. ((sy0 *. c00) +. (ty *. c10)))
    +. (tz *. ((sy0 *. c01) +. (ty *. c11)))
  in
  (* Boundary shell: cells whose gather stencil or walk can touch the
     ghost layer.  The stencil reaches one cell out and the Courant bound
     keeps a step inside +-1 cell, so only shell particles depend on the
     ghost fill or can become movers — interior particles may be pushed
     while the fill is still in flight. *)
  let snx = g.Grid.nx and sny = g.Grid.ny and snz = g.Grid.nz in
  let skip_shell, defer =
    match region with
    | `All | `Deferred _ -> (false, None)
    | `Interior d -> (true, Some d)
  in
  let pushed = ref 0 in
  let idata =
    match interp with Some it -> Some (Interpolator.data it) | None -> None
  in
  (* Run-cached interpolator block: the voxel's 18 coefficients are
     copied into unboxed locals once per voxel run, so gathers within
     the run are pure register arithmetic on one 72-byte block. *)
  let icoef = Array.make Interpolator.coeffs_per_voxel 0. in
  let runs = ref 0 in
  (* Sorted populations visit long runs of the same voxel: cache the last
     decode so the two integer divisions in cell_of_voxel are paid once
     per run, not once per particle. *)
  let lvox = ref min_int and lci = ref 0 and lcj = ref 0 and lck = ref 0 in
  let lshell = ref false in
  (* Walk + settle/absorb/outbound tail of the scalar path: [cell], [u]
     and [wk] must already hold the run decode, the pushed momenta and
     the displacements.  Shared with the block kernel's cleanup lanes,
     which arrive with all of these precomputed (bit-identically, by the
     pass-1/2 expressions) and skip the redundant gather/rotate. *)
  let walk_one n =
    let w = unsafe_get sw n in
    let qw = s.Species.q *. w in
    let cxc = qw *. kx and cyc = qw *. ky and czc = qw *. kz in
    match walk env ~wk ~cell ~u ~cxc ~cyc ~czc with
    | Settled ->
        (* wk holds f32-representable values (the walk rounded them), so
           these stores are exact; u narrows to f32 here, once. *)
        unsafe_set svox n
          (Int32.of_int (Grid.voxel g cell.(0) cell.(1) cell.(2)));
        unsafe_set sfx n wk.(0);
        unsafe_set sfy n wk.(1);
        unsafe_set sfz n wk.(2);
        unsafe_set sux n u.(0);
        unsafe_set suy n u.(1);
        unsafe_set suz n u.(2)
    | Absorbed ->
        incr absorbed;
        dead := n :: !dead
    | Outbound -> begin
        match movers with
        | None ->
            invalid_arg
              "Push.advance: domain face crossed without a movers buffer"
        | Some buf ->
            Movers.push buf ~cell ~wk ~u ~w;
            incr outbound;
            dead := n :: !dead
      end
  in
  let push_one n =
    let vi = Int32.to_int (unsafe_get svox n) in
    if vi <> !lvox then begin
      let ci, cj, ck = Grid.cell_of_voxel g vi in
      lvox := vi;
      lci := ci;
      lcj := cj;
      lck := ck;
      lshell :=
        ci = 1 || ci = snx || cj = 1 || cj = sny || ck = 1 || ck = snz;
      incr runs;
      match idata with
      | Some d ->
          (* A skipped shell voxel's entry may not be loaded yet (the
             `Interior pass runs before load_boundary); its coefficients
             are copied but never evaluated. *)
          let o = vi * Interpolator.coeffs_per_voxel in
          for q = 0 to Interpolator.coeffs_per_voxel - 1 do
            Array.unsafe_set icoef q (unsafe_get d (o + q))
          done
      | None -> ()
    end;
    if skip_shell && !lshell then (
      match defer with Some d -> Defer.add d n | None -> ())
    else begin
    incr pushed;
    let ci = !lci and cj = !lcj and ck = !lck in
    cell.(0) <- ci;
    cell.(1) <- cj;
    cell.(2) <- ck;
    (* f32 reads widen to f64 losslessly; all arithmetic below is f64. *)
    (match idata with
    | Some _ ->
        (* Interpolator gather: evaluate the run-cached expansion — the
           same arithmetic as Interpolator.gather_into — then the Boris
           rotation exactly as in the direct arm below. *)
        let fx = unsafe_get sfx n
        and fy = unsafe_get sfy n
        and fz = unsafe_get sfz n in
        let c q = Array.unsafe_get icoef q in
        let ex = c 0 +. (fy *. c 1) +. (fz *. (c 2 +. (fy *. c 3))) in
        let ey = c 4 +. (fz *. c 5) +. (fx *. (c 6 +. (fz *. c 7))) in
        let ez = c 8 +. (fx *. c 9) +. (fy *. (c 10 +. (fx *. c 11))) in
        let bx = c 12 +. (fx *. c 13) in
        let by = c 14 +. (fy *. c 15) in
        let bz = c 16 +. (fz *. c 17) in
        let ux = unsafe_get sux n +. (qdt_2m *. ex) in
        let uy = unsafe_get suy n +. (qdt_2m *. ey) in
        let uz = unsafe_get suz n +. (qdt_2m *. ez) in
        let gamma_m = sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
        let f = qdt_2m /. gamma_m in
        let tx = f *. bx and ty = f *. by and tz = f *. bz in
        let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
        let sx = 2. *. tx /. (1. +. t2) in
        let sy = 2. *. ty /. (1. +. t2) in
        let sz = 2. *. tz /. (1. +. t2) in
        let px = ux +. ((uy *. tz) -. (uz *. ty)) in
        let py = uy +. ((uz *. tx) -. (ux *. tz)) in
        let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
        let ux = ux +. ((py *. sz) -. (pz *. sy)) in
        let uy = uy +. ((pz *. sx) -. (px *. sz)) in
        let uz = uz +. ((px *. sy) -. (py *. sx)) in
        u.(0) <- ux +. (qdt_2m *. ex);
        u.(1) <- uy +. (qdt_2m *. ey);
        u.(2) <- uz +. (qdt_2m *. ez)
    | None ->
        let fx = unsafe_get sfx n
        and fy = unsafe_get sfy n
        and fz = unsafe_get sfz n in
        let dxs = if fx >= 0.5 then 0 else -1 in
        let txs = if fx >= 0.5 then fx -. 0.5 else fx +. 0.5 in
        let dys = if fy >= 0.5 then 0 else -1 in
        let tys = if fy >= 0.5 then fy -. 0.5 else fy +. 0.5 in
        let dzs = if fz >= 0.5 then 0 else -1 in
        let tzs = if fz >= 0.5 then fz -. 0.5 else fz +. 0.5 in
        let oy = ggx * dys and oz = ggxy * dzs in
        let ex = tri8 dex (vi + dxs) txs fy fz in
        let ey = tri8 dey (vi + oy) fx tys fz in
        let ez = tri8 dez (vi + oz) fx fy tzs in
        let bx = tri8 dbx (vi + oy + oz) fx tys tzs in
        let by = tri8 dby (vi + dxs + oz) txs fy tzs in
        let bz = tri8 dbz (vi + dxs + oy) txs tys fz in
        let ux = unsafe_get sux n +. (qdt_2m *. ex) in
        let uy = unsafe_get suy n +. (qdt_2m *. ey) in
        let uz = unsafe_get suz n +. (qdt_2m *. ez) in
        let gamma_m = sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz)) in
        let f = qdt_2m /. gamma_m in
        let tx = f *. bx and ty = f *. by and tz = f *. bz in
        let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
        let sx = 2. *. tx /. (1. +. t2) in
        let sy = 2. *. ty /. (1. +. t2) in
        let sz = 2. *. tz /. (1. +. t2) in
        let px = ux +. ((uy *. tz) -. (uz *. ty)) in
        let py = uy +. ((uz *. tx) -. (ux *. tz)) in
        let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
        let ux = ux +. ((py *. sz) -. (pz *. sy)) in
        let uy = uy +. ((pz *. sx) -. (px *. sz)) in
        let uz = uz +. ((px *. sy) -. (py *. sx)) in
        u.(0) <- ux +. (qdt_2m *. ex);
        u.(1) <- uy +. (qdt_2m *. ey);
        u.(2) <- uz +. (qdt_2m *. ez));
    let inv_gamma =
      1. /. sqrt (1. +. (u.(0) *. u.(0)) +. (u.(1) *. u.(1)) +. (u.(2) *. u.(2)))
    in
    (* Remaining displacement in cell units; < 1 per axis under CFL. *)
    wk.(0) <- unsafe_get sfx n;
    wk.(1) <- unsafe_get sfy n;
    wk.(2) <- unsafe_get sfz n;
    wk.(3) <- u.(0) *. inv_gamma *. dt *. inv_dx;
    wk.(4) <- u.(1) *. inv_gamma *. dt *. inv_dy;
    wk.(5) <- u.(2) *. inv_gamma *. dt *. inv_dz;
    walk_one n
    end
  in
  (* ---- block kernel ----------------------------------------------------
     Voxel runs are scanned up front and processed in fixed-width lane
     blocks against the run-cached 72-byte interpolator block, in three
     fused passes: (1) gather + Boris rotate, (2) inverse gamma +
     displacement + a branch-free cell-crossing mask, (3) an in-order
     deposit/store pass whose unmasked lanes take one fused full-length
     segment and whose masked lanes fall out to the scalar walk tail
     ([walk_one]: the existing walk/mover machinery, unchanged), seeded
     from the scratch lanes so the gather/rotate is never redone.

     Bitwise contract with the scalar kernel: for a particle that
     crosses no face the walk uses sfrac = 1.0, and 1.0 *. r = r
     exactly, so the fused endpoint [clamp_offset (x1 +. r)] and the
     deposited segment are bit-identical; masked lanes run the scalar
     walk on the pass-1/2 values, which the scalar kernel's own
     expressions produced (same arithmetic, same order — same bits).
     The mask is a division-free over-approximation of the walk's
     crossing predicate (axis face time t <= 1): it can never miss a
     crossing, and a spurious flag only routes the lane through the
     (identical) scalar path.  Lane order equals particle order in
     pass 3, so f64 accumulator adds happen in the scalar kernel's
     exact sequence. *)
  let block_lanes = ref 0 and block_cleanup = ref 0 in
  let run_blocks width =
    let d = match idata with Some d -> d | None -> assert false in
    let bfx = Array.make width 0. and bfy = Array.make width 0.
    and bfz = Array.make width 0. in
    let bux = Array.make width 0. and buy = Array.make width 0.
    and buz = Array.make width 0. in
    let brx = Array.make width 0. and bry = Array.make width 0.
    and brz = Array.make width 0. in
    let sq = s.Species.q in
    let acc = env.acc in
    (* crossing-mask slack: any value >= 1 + 2^-50 works, see pass 2 *)
    let sl = 1. +. 1e-15 in
    let n = ref first in
    while !n <= last do
      let vi = Int32.to_int (unsafe_get svox !n) in
      (* Extent of the voxel run.  Safe to scan ahead: processing only
         mutates the store slots of already-processed indices, and this
         run's particles are read after the scan, before any of them is
         pushed — exactly the values the scalar kernel would read. *)
      let e = ref (!n + 1) in
      while !e <= last && Int32.to_int (unsafe_get svox !e) = vi do
        incr e
      done;
      if vi <> !lvox then begin
        let ci, cj, ck = Grid.cell_of_voxel g vi in
        lvox := vi;
        lci := ci;
        lcj := cj;
        lck := ck;
        lshell :=
          ci = 1 || ci = snx || cj = 1 || cj = sny || ck = 1 || ck = snz;
        incr runs;
        let o = vi * Interpolator.coeffs_per_voxel in
        for q = 0 to Interpolator.coeffs_per_voxel - 1 do
          Array.unsafe_set icoef q (unsafe_get d (o + q))
        done
      end;
      if skip_shell && !lshell then (
        match defer with
        | Some dl ->
            for m = !n to !e - 1 do
              Defer.add dl m
            done
        | None -> ())
      else begin
        (* hoist the run's coefficient block into unboxed locals *)
        let c0 = Array.unsafe_get icoef 0
        and c1 = Array.unsafe_get icoef 1
        and c2 = Array.unsafe_get icoef 2
        and c3 = Array.unsafe_get icoef 3
        and c4 = Array.unsafe_get icoef 4
        and c5 = Array.unsafe_get icoef 5
        and c6 = Array.unsafe_get icoef 6
        and c7 = Array.unsafe_get icoef 7
        and c8 = Array.unsafe_get icoef 8
        and c9 = Array.unsafe_get icoef 9
        and c10 = Array.unsafe_get icoef 10
        and c11 = Array.unsafe_get icoef 11
        and c12 = Array.unsafe_get icoef 12
        and c13 = Array.unsafe_get icoef 13
        and c14 = Array.unsafe_get icoef 14
        and c15 = Array.unsafe_get icoef 15
        and c16 = Array.unsafe_get icoef 16
        and c17 = Array.unsafe_get icoef 17 in
        let o12 = vi * 12 in
        let m0 = ref !n in
        while !m0 < !e do
          let len = if !e - !m0 < width then !e - !m0 else width in
          let n0 = !m0 in
          (* pass 1: gather E/B from the run's block and rotate (Boris);
             same expressions, same order as the scalar fast path *)
          for lane = 0 to len - 1 do
            let p = n0 + lane in
            let fx = unsafe_get sfx p
            and fy = unsafe_get sfy p
            and fz = unsafe_get sfz p in
            let ex = c0 +. (fy *. c1) +. (fz *. (c2 +. (fy *. c3))) in
            let ey = c4 +. (fz *. c5) +. (fx *. (c6 +. (fz *. c7))) in
            let ez = c8 +. (fx *. c9) +. (fy *. (c10 +. (fx *. c11))) in
            let bx = c12 +. (fx *. c13) in
            let by = c14 +. (fy *. c15) in
            let bz = c16 +. (fz *. c17) in
            let ux = unsafe_get sux p +. (qdt_2m *. ex) in
            let uy = unsafe_get suy p +. (qdt_2m *. ey) in
            let uz = unsafe_get suz p +. (qdt_2m *. ez) in
            let gamma_m =
              sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz))
            in
            let f = qdt_2m /. gamma_m in
            let tx = f *. bx and ty = f *. by and tz = f *. bz in
            let t2 = (tx *. tx) +. (ty *. ty) +. (tz *. tz) in
            let sx = 2. *. tx /. (1. +. t2) in
            let sy = 2. *. ty /. (1. +. t2) in
            let sz = 2. *. tz /. (1. +. t2) in
            let px = ux +. ((uy *. tz) -. (uz *. ty)) in
            let py = uy +. ((uz *. tx) -. (ux *. tz)) in
            let pz = uz +. ((ux *. ty) -. (uy *. tx)) in
            let ux = ux +. ((py *. sz) -. (pz *. sy)) in
            let uy = uy +. ((pz *. sx) -. (px *. sz)) in
            let uz = uz +. ((px *. sy) -. (py *. sx)) in
            Array.unsafe_set bfx lane fx;
            Array.unsafe_set bfy lane fy;
            Array.unsafe_set bfz lane fz;
            Array.unsafe_set bux lane (ux +. (qdt_2m *. ex));
            Array.unsafe_set buy lane (uy +. (qdt_2m *. ey));
            Array.unsafe_set buz lane (uz +. (qdt_2m *. ez))
          done;
          (* pass 2: displacement + branch-free crossing mask (the
             walk's predicate: some axis has face time t <= 1) *)
          let mask = ref 0 in
          for lane = 0 to len - 1 do
            let ux = Array.unsafe_get bux lane
            and uy = Array.unsafe_get buy lane
            and uz = Array.unsafe_get buz lane in
            let inv_gamma =
              1. /. sqrt (1. +. (ux *. ux) +. (uy *. uy) +. (uz *. uz))
            in
            let rx = ux *. inv_gamma *. dt *. inv_dx in
            let ry = uy *. inv_gamma *. dt *. inv_dy in
            let rz = uz *. inv_gamma *. dt *. inv_dz in
            Array.unsafe_set brx lane rx;
            Array.unsafe_set bry lane ry;
            Array.unsafe_set brz lane rz;
            let x = Array.unsafe_get bfx lane
            and y = Array.unsafe_get bfy lane
            and z = Array.unsafe_get bfz lane in
            (* Division-free over-approximation of the walk's crossing
               predicate (axis face time a /. b <= 1, a >= 0, b > 0):
               a rounded quotient <= 1 implies exactly a < b*(1+2^-53),
               and b*(1+2^-53) < fl(b *. sl) for sl >= 1+2^-50, so
               `a <= b *. sl` can never miss a crossing the walk would
               take.  The sliver it over-flags (a/b in (1, 1+eps])
               only routes those lanes through the identical scalar
               path.  Positions sit in [0, pred 1.0f32], so the
               numerators are non-negative. *)
            let c =
              Bool.to_int (rx > 0.)
              land Bool.to_int (1. -. x <= rx *. sl)
              lor (Bool.to_int (rx < 0.)
                  land Bool.to_int (x <= (-.rx) *. sl))
              lor (Bool.to_int (ry > 0.)
                  land Bool.to_int (1. -. y <= ry *. sl))
              lor (Bool.to_int (ry < 0.)
                  land Bool.to_int (y <= (-.ry) *. sl))
              lor (Bool.to_int (rz > 0.)
                  land Bool.to_int (1. -. z <= rz *. sl))
              lor (Bool.to_int (rz < 0.)
                  land Bool.to_int (z <= (-.rz) *. sl))
            in
            mask := !mask lor (c lsl lane)
          done;
          block_lanes := !block_lanes + len;
          (* pass 3: deposit + store, lane order = particle order *)
          let mk = !mask in
          for lane = 0 to len - 1 do
            if (mk lsr lane) land 1 <> 0 then begin
              (* Cleanup lane: pass 1/2 already computed the pushed
                 momenta and displacements with the scalar kernel's
                 exact expressions, so seed the walk state from the
                 scratch lanes and run only the walk tail — no
                 redundant gather/rotate.  cell must be re-seeded per
                 lane (a previous lane's walk mutates it). *)
              incr block_cleanup;
              incr pushed;
              cell.(0) <- !lci;
              cell.(1) <- !lcj;
              cell.(2) <- !lck;
              u.(0) <- Array.unsafe_get bux lane;
              u.(1) <- Array.unsafe_get buy lane;
              u.(2) <- Array.unsafe_get buz lane;
              wk.(0) <- Array.unsafe_get bfx lane;
              wk.(1) <- Array.unsafe_get bfy lane;
              wk.(2) <- Array.unsafe_get bfz lane;
              wk.(3) <- Array.unsafe_get brx lane;
              wk.(4) <- Array.unsafe_get bry lane;
              wk.(5) <- Array.unsafe_get brz lane;
              walk_one (n0 + lane)
            end
            else begin
              let p = n0 + lane in
              incr pushed;
              let x1 = Array.unsafe_get bfx lane
              and y1 = Array.unsafe_get bfy lane
              and z1 = Array.unsafe_get bfz lane in
              let x2 = Store.clamp_offset (x1 +. Array.unsafe_get brx lane) in
              let y2 = Store.clamp_offset (y1 +. Array.unsafe_get bry lane) in
              let z2 = Store.clamp_offset (z1 +. Array.unsafe_get brz lane) in
              let w = unsafe_get sw p in
              let qw = sq *. w in
              let cx = qw *. kx and cy = qw *. ky and cz = qw *. kz in
              (match acc with
              | Some a ->
                  (* the single full-length segment, inlined with
                     deposit_segment_acc's exact arithmetic (the zero
                     guards matter bitwise: they keep -0. slots) *)
                  let dx = x2 -. x1 and dy = y2 -. y1 and dz = z2 -. z1 in
                  let xb = 0.5 *. (x1 +. x2) in
                  let yb = 0.5 *. (y1 +. y2) in
                  let zb = 0.5 *. (z1 +. z2) in
                  (* direct read-modify-write sets (no add closure:
                     a per-lane allocation and 12 indirect calls) *)
                  let qx = cx *. dx in
                  if qx <> 0. then begin
                    let corr = dy *. dz /. 12. in
                    unsafe_set a o12
                      (unsafe_get a o12
                      +. (qx *. (((1. -. yb) *. (1. -. zb)) +. corr)));
                    unsafe_set a (o12 + 1)
                      (unsafe_get a (o12 + 1)
                      +. (qx *. ((yb *. (1. -. zb)) -. corr)));
                    unsafe_set a (o12 + 2)
                      (unsafe_get a (o12 + 2)
                      +. (qx *. (((1. -. yb) *. zb) -. corr)));
                    unsafe_set a (o12 + 3)
                      (unsafe_get a (o12 + 3)
                      +. (qx *. ((yb *. zb) +. corr)))
                  end;
                  let qy = cy *. dy in
                  if qy <> 0. then begin
                    let corr = dz *. dx /. 12. in
                    unsafe_set a (o12 + 4)
                      (unsafe_get a (o12 + 4)
                      +. (qy *. (((1. -. zb) *. (1. -. xb)) +. corr)));
                    unsafe_set a (o12 + 5)
                      (unsafe_get a (o12 + 5)
                      +. (qy *. ((zb *. (1. -. xb)) -. corr)));
                    unsafe_set a (o12 + 6)
                      (unsafe_get a (o12 + 6)
                      +. (qy *. (((1. -. zb) *. xb) -. corr)));
                    unsafe_set a (o12 + 7)
                      (unsafe_get a (o12 + 7)
                      +. (qy *. ((zb *. xb) +. corr)))
                  end;
                  let qz = cz *. dz in
                  if qz <> 0. then begin
                    let corr = dx *. dy /. 12. in
                    unsafe_set a (o12 + 8)
                      (unsafe_get a (o12 + 8)
                      +. (qz *. (((1. -. xb) *. (1. -. yb)) +. corr)));
                    unsafe_set a (o12 + 9)
                      (unsafe_get a (o12 + 9)
                      +. (qz *. ((xb *. (1. -. yb)) -. corr)));
                    unsafe_set a (o12 + 10)
                      (unsafe_get a (o12 + 10)
                      +. (qz *. (((1. -. xb) *. yb) -. corr)));
                    unsafe_set a (o12 + 11)
                      (unsafe_get a (o12 + 11)
                      +. (qz *. ((xb *. yb) +. corr)))
                  end
              | None ->
                  deposit_segment env.jxa env.jya env.jza env.gx env.gxy vi
                    ~x1 ~y1 ~z1 ~x2 ~y2 ~z2 ~cx ~cy ~cz);
              incr segments;
              (* voxel unchanged; wk-equivalents are f32-representable
                 (clamp_offset rounded them), u narrows once, as in the
                 scalar Settled arm *)
              unsafe_set sfx p x2;
              unsafe_set sfy p y2;
              unsafe_set sfz p z2;
              unsafe_set sux p (Array.unsafe_get bux lane);
              unsafe_set suy p (Array.unsafe_get buy lane);
              unsafe_set suz p (Array.unsafe_get buz lane)
            end
          done;
          m0 := !m0 + len
        done
      end;
      n := !e
    done
  in
  (* An `Interior pass never removes particles (movers and walls need a
     shell cell), so the indices it defers stay valid for the `Deferred
     pass that follows.  The block kernel needs the interpolator; without
     one the scalar loop runs, and the `Deferred boundary pass is always
     scalar (its indices are not contiguous, so there are no runs to
     block over). *)
  (match region with
  | `Deferred d ->
      for m = 0 to Defer.count d - 1 do
        push_one (Defer.get d m)
      done
  | `All | `Interior _ -> (
      match (kernel, idata) with
      | Block { width }, Some _ -> run_blocks width
      | _ ->
          for n = first to last do
            push_one n
          done));
  (* Remove absorbed/outbound particles, highest index first so the
     swap-with-last removals stay valid (dead is in descending order). *)
  List.iter (fun n -> Species.remove s n) !dead;
  let advanced = !pushed in
  Perf.add_particle_steps perf (float_of_int advanced);
  let gather_flops =
    match interp with
    | Some _ -> Interpolator.flops_per_gather
    | None -> Interp.flops_per_gather
  in
  Perf.add_flops perf
    ((float_of_int advanced *. (gather_flops +. flops_per_push))
    +. (float_of_int !segments *. flops_per_segment));
  (* Per particle: 32 B read + 32 B written (the store) plus ~96 B of
     current scatter (J meshes or accumulator slots).  The gather reads
     either the ~192 B direct stencil per particle or, on the
     interpolator path, one 72 B coefficient block per voxel run. *)
  Perf.add_bytes perf
    (float_of_int advanced *. (2. *. float_of_int Store.bytes_per_particle));
  (match interp with
  | Some _ ->
      Perf.add_bytes perf
        ((float_of_int advanced *. 96.)
        +. (float_of_int !runs *. Interpolator.bytes_per_voxel))
  | None -> Perf.add_bytes perf (float_of_int advanced *. (192. +. 96.)));
  { advanced;
    segments = !segments;
    absorbed = !absorbed;
    reflected = !reflected;
    refluxed = !refluxed;
    outbound = !outbound;
    block_lanes = !block_lanes;
    block_cleanup = !block_cleanup }

(* ------------------------------------------------------- team driver ---- *)

(* Reusable per-tile workspace of the team interior push: one defer
   list and one flop ledger per tile, sized on first use to the pool's
   tile count and kept across steps. *)
module Team_scratch = struct
  type t = {
    mutable defers : Defer.t array;
    mutable perfs : Perf.counters array;
  }

  let create () = { defers = [||]; perfs = [||] }

  let sized t tiles =
    if Array.length t.defers <> tiles then begin
      t.defers <- Array.init tiles (fun _ -> Defer.create ());
      t.perfs <- Array.init tiles (fun _ -> Perf.create ())
    end;
    Array.iter Defer.clear t.defers
end

let zero_stats =
  { advanced = 0;
    segments = 0;
    absorbed = 0;
    reflected = 0;
    refluxed = 0;
    outbound = 0;
    block_lanes = 0;
    block_cleanup = 0 }

let sum_stats a b =
  { advanced = a.advanced + b.advanced;
    segments = a.segments + b.segments;
    absorbed = a.absorbed + b.absorbed;
    reflected = a.reflected + b.reflected;
    refluxed = a.refluxed + b.refluxed;
    outbound = a.outbound + b.outbound;
    block_lanes = a.block_lanes + b.block_lanes;
    block_cleanup = a.block_cleanup + b.block_cleanup }

(* The `Interior pass over [pool.tiles] contiguous particle chunks.
   Safe to fan out: an interior particle cannot reach a wall or a
   domain face (the shell is deferred before walking), so no tile
   removes particles, consumes the RNG or needs a mover buffer; store
   writes are disjoint per tile and each tile scatters currents into
   its private accumulator slab.  Determinism: the chunk decomposition
   is a function of the tile count alone and every merge below (defer
   lists, perf ledgers, stats, slab reduction at unload) runs in
   ascending tile order, so results are bitwise invariant in the lane
   count.  Without an accumulator the tiles would share the J meshes,
   so that configuration (and a 1-tile pool) takes the fused serial
   path. *)
let advance_team ?(perf = Perf.global) ?interp ?accum ?rng ?(kernel = Scalar)
    ~pool ~scratch ~defer (s : Species.t) f bc =
  let module P = Vpic_util.Pool in
  let tiles = pool.P.tiles in
  match accum with
  | _ when tiles <= 1 ->
      advance ~perf ?interp ?accum ?rng ~kernel ~region:(`Interior defer) s f
        bc
  | None ->
      advance ~perf ?interp ?rng ~kernel ~region:(`Interior defer) s f bc
  | Some acc ->
      Team_scratch.sized scratch tiles;
      (* allocate all slabs before the fork: [slab] caches the array on
         first use and concurrent first calls would race *)
      ignore (Accumulator.slab acc ~n:tiles ~tile:0);
      let np = Species.count s in
      let stats = Array.make tiles zero_stats in
      pool.P.run ~label:"push.interior" ~tiles (fun ~lane:_ ~tile ->
          let lo, hi = P.split ~total:np ~tiles ~tile in
          if hi > lo then
            stats.(tile) <-
              advance
                ~perf:scratch.Team_scratch.perfs.(tile)
                ~first:lo ~count:(hi - lo) ?interp
                ~accum:(Accumulator.slab acc ~n:tiles ~tile)
                ?rng ~kernel
                ~region:(`Interior scratch.Team_scratch.defers.(tile))
                s f bc);
      let total = ref zero_stats in
      for tile = 0 to tiles - 1 do
        Defer.append defer scratch.Team_scratch.defers.(tile);
        let c = scratch.Team_scratch.perfs.(tile) in
        Perf.merge_into ~dst:perf c;
        Perf.reset c;
        total := sum_stats !total stats.(tile)
      done;
      !total

let finish_movers ?(perf = Perf.global) ?movers_out ?accum ?rng
    (s : Species.t) f bc (incoming : Movers.t) =
  let g = s.Species.grid in
  assert (g == f.Vpic_field.Em_field.grid);
  (match accum with
  | Some ac -> assert (Accumulator.grid ac == g)
  | None -> ());
  let dt = g.Grid.dt in
  let kx = 1. /. (g.Grid.dy *. g.Grid.dz *. dt) in
  let ky = 1. /. (g.Grid.dz *. g.Grid.dx *. dt) in
  let kz = 1. /. (g.Grid.dx *. g.Grid.dy *. dt) in
  let segments = ref 0 in
  let reflected = ref 0 in
  let refluxed = ref 0 in
  let env =
    make_env ?rng
      ?acc:(Option.map Accumulator.data accum)
      g f bc ~segments ~reflected ~refluxed
  in
  let u = Array.make 3 0. in
  let wk = Array.make 6 0. in
  let cell = Array.make 3 0 in
  let settled = ref 0 and absorbed = ref 0 and reemitted = ref 0 in
  let b = incoming.Movers.buf in
  let bget o = Bigarray.Array1.unsafe_get b o in
  for idx = 0 to incoming.Movers.n - 1 do
    let o = idx * Movers.stride in
    cell.(0) <- int_of_float (bget o);
    cell.(1) <- int_of_float (bget (o + 1));
    cell.(2) <- int_of_float (bget (o + 2));
    assert (Grid.is_interior g cell.(0) cell.(1) cell.(2));
    wk.(0) <- bget (o + 3);
    wk.(1) <- bget (o + 4);
    wk.(2) <- bget (o + 5);
    wk.(3) <- bget (o + 10);
    wk.(4) <- bget (o + 11);
    wk.(5) <- bget (o + 12);
    u.(0) <- bget (o + 6);
    u.(1) <- bget (o + 7);
    u.(2) <- bget (o + 8);
    let w = bget (o + 9) in
    let qw = s.Species.q *. w in
    match
      walk env ~wk ~cell ~u ~cxc:(qw *. kx) ~cyc:(qw *. ky) ~czc:(qw *. kz)
    with
    | Settled ->
        incr settled;
        Species.append s
          { i = cell.(0);
            j = cell.(1);
            k = cell.(2);
            fx = wk.(0);
            fy = wk.(1);
            fz = wk.(2);
            ux = u.(0);
            uy = u.(1);
            uz = u.(2);
            w }
    | Absorbed -> incr absorbed
    | Outbound -> begin
        match movers_out with
        | None ->
            invalid_arg
              "Push.finish_movers: further domain crossing without a buffer"
        | Some buf ->
            incr reemitted;
            Movers.push buf ~cell ~wk ~u ~w
      end
  done;
  Perf.add_flops perf (float_of_int !segments *. flops_per_segment);
  (!settled, !absorbed, !reemitted)

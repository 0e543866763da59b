module Grid = Vpic_grid.Grid
module Perf = Vpic_util.Perf

let voxel_of (s : Species.t) n =
  Int32.to_int (Bigarray.Array1.unsafe_get s.Species.store.Store.voxel n)

(* Two-pass tiled counting sort: contiguous particle chunks histogram
   in parallel into private per-tile counts; a serial voxel-major,
   tile-minor exclusive scan turns them into per-(tile, voxel) write
   offsets; then each tile walks its chunk in order and scatters all
   eight attributes to disjoint slots.  A particle's slot is
   #(voxel' < voxel) + #(same voxel in earlier tiles) + #(same voxel
   earlier in this tile) — its stable slot, whatever the tile count, so
   the output is the same for any tile or worker count and a 1-tile
   pool is the serial sort.  All workspace lives on the store and is
   reused: steady-state sorting allocates nothing. *)
let by_voxel ?(perf = Perf.global) ?(pool = Vpic_util.Pool.serial)
    (s : Species.t) =
  let module P = Vpic_util.Pool in
  let np = Species.count s in
  if np > 1 then begin
    let st = s.Species.store in
    let nv = s.Species.grid.Grid.nv in
    let tiles = pool.P.tiles in
    let tc =
      let ok =
        Array.length st.Store.sort_tile_counts = tiles
        && Array.length st.Store.sort_tile_counts.(0) >= nv + 1
      in
      if ok then st.Store.sort_tile_counts
      else begin
        let c = Array.init tiles (fun _ -> Array.make (nv + 1) 0) in
        st.Store.sort_tile_counts <- c;
        c
      end
    in
    pool.P.run ~label:"sort" ~tiles (fun ~lane:_ ~tile ->
        let counts = tc.(tile) in
        Array.fill counts 0 (nv + 1) 0;
        let lo, hi = P.split ~total:np ~tiles ~tile in
        for n = lo to hi - 1 do
          let v = voxel_of s n in
          counts.(v) <- counts.(v) + 1
        done);
    let running = ref 0 in
    for v = 0 to nv - 1 do
      for t = 0 to tiles - 1 do
        let c = Array.unsafe_get tc t in
        let k = Array.unsafe_get c v in
        Array.unsafe_set c v !running;
        running := !running + k
      done
    done;
    let sc = Store.sort_scratch st in
    pool.P.run ~label:"sort" ~tiles (fun ~lane:_ ~tile ->
        let off = tc.(tile) in
        let lo, hi = P.split ~total:np ~tiles ~tile in
        let open Bigarray.Array1 in
        for n = lo to hi - 1 do
          let v = voxel_of s n in
          let d = Array.unsafe_get off v in
          Array.unsafe_set off v (d + 1);
          unsafe_set sc.Store.voxel d (unsafe_get st.Store.voxel n);
          unsafe_set sc.Store.fx d (unsafe_get st.Store.fx n);
          unsafe_set sc.Store.fy d (unsafe_get st.Store.fy n);
          unsafe_set sc.Store.fz d (unsafe_get st.Store.fz n);
          unsafe_set sc.Store.ux d (unsafe_get st.Store.ux n);
          unsafe_set sc.Store.uy d (unsafe_get st.Store.uy n);
          unsafe_set sc.Store.uz d (unsafe_get st.Store.uz n);
          unsafe_set sc.Store.w d (unsafe_get st.Store.w n)
        done);
    (* The permuted copy becomes the live data by pointer swap; the old
       buffers become the next sort's scratch. *)
    Store.swap_buffers st sc;
    Perf.add_bytes perf
      (float_of_int np *. float_of_int Store.bytes_per_particle *. 2.)
  end

let is_sorted s =
  let np = Species.count s in
  let rec check n = n >= np || (voxel_of s (n - 1) <= voxel_of s n && check (n + 1)) in
  check 1

let locality_score s =
  let np = Species.count s in
  if np < 2 then 1.
  else begin
    let near = ref 0 in
    for n = 1 to np - 1 do
      if abs (voxel_of s n - voxel_of s (n - 1)) <= 1 then incr near
    done;
    float_of_int !near /. float_of_int (np - 1)
  end

let occupancy s =
  let np = Species.count s in
  if np = 0 then (0, 0.)
  else begin
    let maxr = ref 1 and nruns = ref 1 and cur = ref 1 in
    for n = 1 to np - 1 do
      if voxel_of s n = voxel_of s (n - 1) then begin
        incr cur;
        if !cur > !maxr then maxr := !cur
      end
      else begin
        incr nruns;
        cur := 1
      end
    done;
    (!maxr, float_of_int np /. float_of_int !nruns)
  end

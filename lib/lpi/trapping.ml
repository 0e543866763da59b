module Species = Vpic_particle.Species
module Moments = Vpic_particle.Moments
module Axis = Vpic_grid.Axis

type fv = { centers : float array; f : float array }

let fv_of_histogram ~lo ~hi ~bins h =
  let total = Array.fold_left ( +. ) 0. h in
  let f = if total > 0. then Array.map (fun x -> x /. total) h else h in
  let db = (hi -. lo) /. float_of_int bins in
  let centers =
    Array.init bins (fun b -> lo +. ((float_of_int b +. 0.5) *. db))
  in
  { centers; f }

let distribution ?(lo = -0.6) ?(hi = 0.6) ?(bins = 240) s =
  fv_of_histogram ~lo ~hi ~bins
    (Moments.velocity_histogram s ~component:Axis.X ~lo ~hi ~bins)

let slope_at fv ~v ~width =
  (* least-squares slope of ln f over the window; empty bins skipped *)
  let xs = ref [] and ys = ref [] in
  Array.iteri
    (fun i c ->
      if Float.abs (c -. v) <= width && fv.f.(i) > 0. then begin
        xs := c :: !xs;
        ys := log fv.f.(i) :: !ys
      end)
    fv.centers;
  let xs = Array.of_list !xs and ys = Array.of_list !ys in
  if Array.length xs < 3 then 0.
  else begin
    let _, slope, _ = Vpic_util.Stats.linear_fit xs ys in
    slope
  end

let flattening fv ~v_phase ~uth ~width =
  let measured = slope_at fv ~v:v_phase ~width in
  let maxwellian = -.v_phase /. (uth *. uth) in
  if maxwellian = 0. then 1. else measured /. maxwellian

let hot_fraction s ~threshold_kev = Moments.hot_fraction s ~threshold_kev

(* Sum the raw weights block by block, in list order, then across the
   ranks, and normalise only once: [hot_weight; total_weight; f(v) bins].
   On one block with the identity reduce every value is bitwise what
   [hot_fraction] and [distribution] give. *)
let world_lines ?(reduce_sum_array = Fun.id) electrons ~threshold_kev ~v_phase
    ~uth =
  let lo = -0.6 and hi = 0.6 and bins = 240 in
  let sums = Array.make (2 + bins) 0. in
  List.iter
    (fun s ->
      let whot, wtot = Moments.hot_weights s ~threshold_kev in
      sums.(0) <- sums.(0) +. whot;
      sums.(1) <- sums.(1) +. wtot;
      Array.iteri
        (fun b w -> sums.(2 + b) <- sums.(2 + b) +. w)
        (Moments.velocity_histogram s ~component:Axis.X ~lo ~hi ~bins))
    electrons;
  let sums = reduce_sum_array sums in
  let hot = if sums.(1) = 0. then 0. else sums.(0) /. sums.(1) in
  let fv = fv_of_histogram ~lo ~hi ~bins (Array.sub sums 2 bins) in
  (hot, flattening fv ~v_phase ~uth ~width:0.05)

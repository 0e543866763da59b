module Sf = Vpic_grid.Scalar_field
module Grid = Vpic_grid.Grid
module Em_field = Vpic_field.Em_field

type t = {
  plane_i : int;
  e0 : float;
  window : int;
  back : float Queue.t;
  fwd : float Queue.t;
  mutable back_sum : float;
  mutable fwd_sum : float;
  mutable count : int;
  mutable peak_back : float;
}

let create ?(window = 400) ~plane_i ~e0 () =
  assert (window > 0 && plane_i >= 1 && e0 > 0.);
  { plane_i;
    e0;
    window;
    back = Queue.create ();
    fwd = Queue.create ();
    back_sum = 0.;
    fwd_sum = 0.;
    count = 0;
    peak_back = 0. }

(* Unnormalised plane sums of F-^2 and F+^2 at x-slot [i], and the
   number of nodes they cover. *)
let plane_sums f ~i =
  let g = f.Em_field.grid in
  let acc_b = ref 0. and acc_f = ref 0. in
  for k = 1 to g.Grid.nz do
    for j = 1 to g.Grid.ny do
      let ey = Sf.get f.Em_field.ey i j k in
      (* bz lives at i+1/2: centre it onto the ey node, otherwise the
         half-cell phase offset leaks O(k dx / 2) of the forward wave
         into the backward characteristic *)
      let bz =
        0.5 *. (Sf.get f.Em_field.bz (i - 1) j k +. Sf.get f.Em_field.bz i j k)
      in
      let fm = 0.5 *. (ey -. bz) in
      let fp = 0.5 *. (ey +. bz) in
      acc_b := !acc_b +. (fm *. fm);
      acc_f := !acc_f +. (fp *. fp)
    done
  done;
  (!acc_b, !acc_f, float_of_int (g.Grid.ny * g.Grid.nz))

let record t b fw =
  Queue.push b t.back;
  Queue.push fw t.fwd;
  t.back_sum <- t.back_sum +. b;
  t.fwd_sum <- t.fwd_sum +. fw;
  t.count <- t.count + 1;
  if Queue.length t.back > t.window then begin
    t.back_sum <- t.back_sum -. Queue.pop t.back;
    t.fwd_sum <- t.fwd_sum -. Queue.pop t.fwd;
    (* track the burst peak once the window is full *)
    t.peak_back <- Float.max t.peak_back (t.back_sum /. float_of_int t.window)
  end

(* One sample from the blocks holding the measurement plane: their
   plane sums add up to the plane average over the union.  One block
   (or one domain) records exactly its own plane average. *)
let sample_many t fs =
  let b, fw, n =
    List.fold_left
      (fun (b, fw, n) f ->
        let bb, ff, nn = plane_sums f ~i:t.plane_i in
        (b +. bb, fw +. ff, n +. nn))
      (0., 0., 0.) fs
  in
  if n > 0. then record t (b /. n) (fw /. n)

let sample t f = sample_many t [ f ]

let n_avg t = Queue.length t.back

let backscatter_intensity t =
  if n_avg t = 0 then 0. else t.back_sum /. float_of_int (n_avg t)

let forward_intensity t =
  if n_avg t = 0 then 0. else t.fwd_sum /. float_of_int (n_avg t)

let reflectivity t = backscatter_intensity t /. (0.5 *. t.e0 *. t.e0)
let peak_reflectivity t = t.peak_back /. (0.5 *. t.e0 *. t.e0)

(* ------------------------------------------------------------ encoding ---- *)

(* Little-endian 64-bit words: plane_i, window, count, the sample count
   n, then e0, back_sum, fwd_sum and peak_back as IEEE-754 bits, then
   the n backward and the n forward samples, oldest first.  Every float
   comes back from its bits, so a decoded probe continues bitwise. *)
let encode t =
  let n = Queue.length t.back in
  let floats =
    [ t.e0; t.back_sum; t.fwd_sum; t.peak_back ]
    @ List.of_seq (Queue.to_seq t.back)
    @ List.of_seq (Queue.to_seq t.fwd)
  in
  let words =
    List.map Int64.of_int [ t.plane_i; t.window; t.count; n ]
    @ List.map Int64.bits_of_float floats
  in
  let b = Bytes.create (8 * List.length words) in
  List.iteri (fun i w -> Bytes.set_int64_le b (8 * i) w) words;
  Bytes.to_string b

let decode s =
  let len = String.length s in
  let word i = String.get_int64_le s (8 * i) in
  let int i = Int64.to_int (word i) and float i = Int64.float_of_bits (word i) in
  if len < 64 || len mod 16 <> 0 then None
  else
    let plane_i = int 0 and window = int 1 and count = int 2 and n = int 3 in
    let e0 = float 4 in
    if
      n < 0 || n > len / 16
      || len <> 64 + (16 * n)
      || plane_i < 1 || window < 1 || n > window || n > count
      || not (Float.is_finite e0 && e0 > 0.)
    then None
    else
      let queue first = Queue.of_seq (Seq.init n (fun i -> float (first + i))) in
      Some
        { plane_i;
          e0;
          window;
          back = queue 8;
          fwd = queue (8 + n);
          back_sum = float 5;
          fwd_sum = float 6;
          count;
          peak_back = float 7 }

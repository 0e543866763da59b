type t = { mutable state : int64; mutable spare : float; mutable has_spare : bool }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed; spare = 0.; has_spare = false }
let of_int i = create (Int64.of_int i)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t i =
  (* Mix the stream index into a fresh state so sibling streams are
     decorrelated even for consecutive [i]. *)
  let s = mix64 (Int64.add (bits64 t) (mix64 (Int64.of_int i))) in
  create s

let uniform t =
  (* 53 high-quality mantissa bits. *)
  let b = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float b *. 0x1.0p-53

(* What [uniform] returns on the [i+1]th draw of [create key], without
   the stream. *)
let uniform_at key i =
  let z = mix64 (Int64.add key (Int64.mul (Int64.of_int (i + 1)) golden_gamma)) in
  Int64.to_float (Int64.shift_right_logical z 11) *. 0x1.0p-53

let uniform_in t a b = a +. ((b -. a) *. uniform t)

let int t n =
  assert (n > 0);
  (* Rejection-free for our purposes: modulo bias is negligible for n << 2^64,
     but use multiply-shift to avoid it entirely for small n. *)
  let u = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem u (Int64.of_int n))

let normal t =
  if t.has_spare then begin
    t.has_spare <- false;
    t.spare
  end
  else begin
    (* Box–Muller; guard against log 0. *)
    let u1 = ref (uniform t) in
    while !u1 <= 1e-300 do
      u1 := uniform t
    done;
    let u2 = uniform t in
    let r = sqrt (-2. *. log !u1) in
    let theta = 2. *. Float.pi *. u2 in
    t.spare <- r *. sin theta;
    t.has_spare <- true;
    r *. cos theta
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

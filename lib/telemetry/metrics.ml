module Comm = Vpic_parallel.Comm

(* Concurrency/ownership rule (audited for the worker-team refactor):
   a [t] is single-writer — all record fields mutate without locks, so a
   table belongs to exactly one domain.  The [default] registry is
   Domain.DLS-keyed: each domain (rank or team worker) that asks gets
   its own table, so a worker can never scribble on its rank's metrics
   by accident.  The consequence the team honours: everything a rank
   reports (including the per-worker busy gauges, fed from
   [Team.busy_seconds]'s plain-array snapshot taken after the fork-join
   barrier) is written by the rank's own domain, between parallel
   regions.  Worker domains do not record metrics of their own — their
   only telemetry is their Trace buffer. *)

(* Histogram geometry: 16 log buckets per decade over [1e-12, 1e12).
   Bucket width is 10^(1/16) ~ 1.155, so a mid-bucket quantile estimate
   is within ~7.5% of the true value. *)
let per_decade = 16
let decade_lo = -12.
let n_decades = 24
let n_buckets = n_decades * per_decade

let bucket_of v =
  if v <= 0. || not (Float.is_finite v) then 0
  else
    let b =
      int_of_float (Float.floor ((Float.log10 v -. decade_lo) *. float_of_int per_decade))
    in
    if b < 0 then 0 else if b >= n_buckets then n_buckets - 1 else b

let bucket_mid b =
  10. ** (decade_lo +. ((float_of_int b +. 0.5) /. float_of_int per_decade))

type kind = Kcounter | Kgauge | Khist

type metric = {
  mname : string;
  kind : kind;
  mutable v : float;          (* counter total / gauge value *)
  buckets : float array;      (* histograms only, else [||] *)
  mutable hsum : float;
  mutable hcount : float;
  mutable hmin : float;
  mutable hmax : float;
}

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

(* ---------------------------------------------- gate + default registry *)

let armed = Atomic.make false
let enable () = Atomic.set armed true
let disable () = Atomic.set armed false
let enabled () = Atomic.get armed

let default_key : t Domain.DLS.key = Domain.DLS.new_key create
let default () = Domain.DLS.get default_key
let reset_default () = Domain.DLS.set default_key (create ())

(* -------------------------------------------------------------- record *)

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khist -> "histogram"

let find t name kind =
  match Hashtbl.find_opt t.tbl name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s is a %s, used as a %s" name
             (kind_name m.kind) (kind_name kind));
      m
  | None ->
      let m =
        { mname = name;
          kind;
          v = 0.;
          buckets = (if kind = Khist then Array.make n_buckets 0. else [||]);
          hsum = 0.;
          hcount = 0.;
          hmin = Float.infinity;
          hmax = Float.neg_infinity }
      in
      Hashtbl.add t.tbl name m;
      m

let counter_add t name x =
  let m = find t name Kcounter in
  m.v <- m.v +. x

let gauge_set t name x =
  let m = find t name Kgauge in
  m.v <- x

let observe t name x =
  let m = find t name Khist in
  m.buckets.(bucket_of x) <- m.buckets.(bucket_of x) +. 1.;
  m.hsum <- m.hsum +. x;
  m.hcount <- m.hcount +. 1.;
  if x < m.hmin then m.hmin <- x;
  if x > m.hmax then m.hmax <- x

let value t name =
  match Hashtbl.find_opt t.tbl name with Some m -> m.v | None -> 0.

(* ----------------------------------------------------------- snapshots *)

type summary = {
  count : float;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
}

type value_kind = Counter of float | Gauge of float | Histogram of summary

type snapshot = (string * value_kind) list

let sorted_metrics t =
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tbl []
  |> List.sort (fun a b -> compare a.mname b.mname)

(* Quantile from reduced buckets: the mid-value of the bucket where the
   cumulative count crosses q * total, clamped into [min, max] (exact
   extremes survive reduction, so a tight distribution is not smeared
   out to bucket edges). *)
let quantile ~buckets ~count ~min_v ~max_v q =
  if count <= 0. then 0.
  else begin
    let target = q *. count in
    let cum = ref 0. and ans = ref max_v in
    (try
       for b = 0 to n_buckets - 1 do
         cum := !cum +. buckets.(b);
         if !cum >= target then begin
           ans := bucket_mid b;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min max_v (Float.max min_v !ans)
  end

(* Reduction packs every metric (sorted by name) into two flat vectors —
   one combined by sum, one by max — so a world snapshot costs two array
   collectives regardless of how many metrics exist.  Min reduces as the
   negated max. *)
let reduce ~sum_arrays ~max_arrays t =
  let ms = sorted_metrics t in
  let sums = ref [] and maxs = ref [] in
  List.iter
    (fun m ->
      match m.kind with
      | Kcounter -> sums := [ m.v ] :: !sums
      | Kgauge -> maxs := [ m.v ] :: !maxs
      | Khist ->
          sums := (Array.to_list m.buckets @ [ m.hsum; m.hcount ]) :: !sums;
          maxs := [ m.hmax; -.m.hmin ] :: !maxs)
    ms;
  let sum_vec = Array.of_list (List.concat (List.rev !sums)) in
  let max_vec = Array.of_list (List.concat (List.rev !maxs)) in
  let sum_vec = sum_arrays sum_vec and max_vec = max_arrays max_vec in
  let si = ref 0 and mi = ref 0 in
  let next_sum () =
    let v = sum_vec.(!si) in
    incr si;
    v
  and next_max () =
    let v = max_vec.(!mi) in
    incr mi;
    v
  in
  List.map
    (fun m ->
      match m.kind with
      | Kcounter -> (m.mname, Counter (next_sum ()))
      | Kgauge -> (m.mname, Gauge (next_max ()))
      | Khist ->
          let buckets = Array.init n_buckets (fun _ -> next_sum ()) in
          let sum = next_sum () in
          let count = next_sum () in
          let max_v = next_max () in
          let min_v = -.next_max () in
          let q = quantile ~buckets ~count ~min_v ~max_v in
          ( m.mname,
            Histogram
              { count; sum; min_v; max_v; p50 = q 0.5; p95 = q 0.95 } ))
    ms

let snapshot_local t = reduce ~sum_arrays:(fun a -> a) ~max_arrays:(fun a -> a) t

let reduce_comm c t =
  reduce
    ~sum_arrays:(fun a -> Comm.allreduce_sum_array c a)
    ~max_arrays:(fun a -> Comm.allreduce_max_array c a)
    t

(* ---------------------------------------------------------------- json *)

let value_to_json =
  let open Vpic_util.Json in
  function
  | Counter x -> Obj [ ("kind", Str "counter"); ("value", Num x) ]
  | Gauge x -> Obj [ ("kind", Str "gauge"); ("value", Num x) ]
  | Histogram h ->
      Obj
        [ ("kind", Str "histogram");
          ("count", Num h.count);
          ("sum", Num h.sum);
          ("min", Num h.min_v);
          ("max", Num h.max_v);
          ("p50", Num h.p50);
          ("p95", Num h.p95) ]

let snapshot_to_json ?step snap =
  let open Vpic_util.Json in
  let step =
    match step with Some s -> [ ("step", Num (float_of_int s)) ] | None -> []
  in
  to_string
    (Obj
       ((("type", Str "metrics") :: step)
       @ [ ( "metrics",
             Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap) )
         ]))

let install_comm_wait_observer () =
  let m = default () in
  Comm.set_wait_observer
    (Some
       { Comm.on_wait =
           (fun ~port:_ ~seconds ->
             counter_add m "comm.park_s" seconds;
             observe m "comm.park" seconds);
         on_timeout = (fun ~port:_ -> counter_add m "comm.timeouts" 1.) })

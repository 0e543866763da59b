module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Em_field = Vpic_field.Em_field
module Boundary = Vpic_field.Boundary
module Species = Vpic_particle.Species

type t = {
  bc : Bc.t;
  fill_em : Em_field.t -> unit;
  fill_em_begin : Em_field.t -> unit;
  fill_em_finish : Em_field.t -> unit;
  fill_e : Em_field.t -> unit;
  fill_list : Sf.t list -> unit;
  fold_currents : Em_field.t -> unit;
  fold_rho : Em_field.t -> unit;
  migrate :
    ?accum:Vpic_particle.Accumulator.t ->
    Species.t ->
    Em_field.t ->
    Vpic_particle.Push.Movers.t ->
    unit;
  reduce_sum : float -> float;
  reduce_max : float -> float;
  barrier : unit -> unit;
  comm_bytes : unit -> float;
  rank : int;
  nranks : int;
}

let local bc =
  { bc;
    fill_em = (fun f -> Boundary.fill_em bc f);
    (* Local ghosts are a plain copy: nothing to overlap, so the split
       fill degenerates to (no-op, full fill). *)
    fill_em_begin = (fun _ -> ());
    fill_em_finish = (fun f -> Boundary.fill_em bc f);
    fill_e = (fun f -> Boundary.fill_scalars bc (Em_field.e_components f));
    fill_list = (fun ss -> Boundary.fill_scalars bc ss);
    fold_currents = (fun f -> Boundary.fold_currents bc f);
    fold_rho = (fun f -> Boundary.fold_rho bc f);
    migrate =
      (fun ?accum:_ _ _ movers ->
        assert (Vpic_particle.Push.Movers.count movers = 0));
    reduce_sum = (fun x -> x);
    reduce_max = (fun x -> x);
    barrier = (fun () -> ());
    comm_bytes = (fun () -> 0.);
    rank = 0;
    nranks = 1 }

(* One-entry memo keyed on physical equality: the coupler is called with
   the same Em_field every step, so the component lists are built once,
   not once per exchange. *)
let memo1 build =
  let cache = ref None in
  fun f ->
    match !cache with
    | Some (f0, v) when f0 == f -> v
    | _ ->
        let v = build f in
        cache := Some (f, v);
        v

(* A classic rank is block [rank] of [nranks]: its coupler routes through
   a one-view world of the block exchanger. *)
let parallel comm bc ~grid =
  let module Comm = Vpic_parallel.Comm in
  let module Exchange = Vpic_parallel.Exchange in
  let module Migrate = Vpic_parallel.Migrate in
  let rank = Comm.rank comm and nranks = Comm.size comm in
  let ports =
    Exchange.create ~comm ~nblocks:nranks ~owner:(Array.init nranks Fun.id)
      ~plane:(fun b axis -> if b = rank then Sf.plane_size grid ~axis else 0)
      ()
  in
  let views = [ { Exchange.id = rank; bc; g = grid } ] in
  let fill scalars = Exchange.fill_ghosts ports ~views ~scalars in
  let fold scalars = Exchange.fold_ghosts ports ~views ~scalars in
  let only ss _ = ss in
  let ems = memo1 (fun f -> only (Em_field.em_components f)) in
  let es = memo1 (fun f -> only (Em_field.e_components f)) in
  let js = memo1 (fun f -> only (Em_field.j_components f)) in
  let targets = Array.make nranks None in
  { bc;
    fill_em = (fun f -> fill (ems f));
    fill_em_begin =
      (fun f -> Exchange.fill_begin ports ~views ~scalars:(ems f));
    fill_em_finish =
      (fun f -> Exchange.fill_finish ports ~views ~scalars:(ems f));
    fill_e = (fun f -> fill (es f));
    fill_list = (fun ss -> fill (only ss));
    fold_currents = (fun f -> fold (js f));
    fold_rho = (fun f -> fold (only [ f.Em_field.rho ]));
    migrate =
      (fun ?accum s f movers ->
        let accum =
          match accum with
          | Some ac -> ac
          | None -> invalid_arg "Coupler.parallel: migrate needs ~accum"
        in
        targets.(rank) <-
          Some
            { Migrate.id = rank; bc; species = s; fields = f; accum; movers };
        ignore (Migrate.exchange ports ~targets));
    reduce_sum = (fun x -> Comm.allreduce_sum comm x);
    reduce_max = (fun x -> Comm.allreduce_max comm x);
    barrier = (fun () -> Comm.barrier comm);
    comm_bytes =
      (fun () ->
        let f, fo, m = Exchange.byte_counts ports in
        f +. fo +. m);
    rank;
    nranks }

let marder_hooks t f =
  { Vpic_field.Marder.fill_e = (fun () -> t.fill_e f);
    fill_scalar = (fun s -> t.fill_list [ s ]) }

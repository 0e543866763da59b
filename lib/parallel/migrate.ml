module Grid = Vpic_grid.Grid
module Bc = Vpic_grid.Bc
module Axis = Vpic_grid.Axis
module Species = Vpic_particle.Species
module Push = Vpic_particle.Push
module Movers = Vpic_particle.Push.Movers

type stats = { sent : int; received : int; settled : int; absorbed : int }

type target = {
  id : int;
  bc : Bc.t;
  species : Species.t;
  fields : Vpic_field.Em_field.t;
  accum : Vpic_particle.Accumulator.t;
  movers : Movers.t;
}

let interior_extent (g : Grid.t) = function
  | Axis.X -> g.Grid.nx
  | Axis.Y -> g.Grid.ny
  | Axis.Z -> g.Grid.nz

(* A mover stops at its first Domain face, which can be any axis; after
   finishing on the neighbour it may need an axis the sweep already
   passed.  Each x->y->z sweep completes at least one crossing and a
   particle crosses at most three faces per step, so three sweeps always
   drain the buffers (every rank runs the same fixed count: collective).
   Within an axis, every owned block ships before any block drains its
   remote faces; movers bound for a co-resident block finish directly
   into it as they ship. *)
let exchange ports ~(targets : target option array) =
  let sent = ref 0 and received = ref 0 in
  let settled = ref 0 and absorbed = ref 0 in
  let stride = Movers.stride in
  let me = Exchange.my_rank ports in
  let open Bigarray.Array1 in
  (* Finish the movers in the first [len] floats of [buf] that
     travelled along [axis] in direction [dir] into block [d], after
     rebasing their axis cell to [d]'s grid: toward lo they enter its
     last cell, toward hi its first. *)
  let finish_into (d : target) ~axis ~dir buf len =
    let incoming = Movers.of_wire buf len in
    let ax = Axis.index axis in
    let cell =
      float_of_int (if dir = 0 then interior_extent d.species.Species.grid axis else 1)
    in
    for idx = 0 to incoming.Movers.n - 1 do
      unsafe_set buf ((idx * stride) + ax) cell
    done;
    received := !received + incoming.Movers.n;
    let st, ab, _re =
      Push.finish_movers ~movers_out:d.movers ~accum:d.accum
        ~work:(Exchange.mover_work ports) d.species d.fields d.bc incoming
    in
    settled := !settled + st;
    absorbed := !absorbed + ab
  in
  (* Partition [t]'s pending buffer in place: movers sitting in this
     axis ghost are copied into the staging buffer for block [nbr], the
     rest compact toward the front.  The staging buffer IS the packed
     Float32 mover format — posting it is one flat copy. *)
  let ship (t : target) axis side =
    match Bc.face t.bc axis side with
    | Bc.Domain nbr ->
        let ax = Axis.index axis in
        let ghost, dir =
          match side with
          | `Lo -> (0, 0)
          | `Hi -> (interior_extent t.species.Species.grid axis + 1, 1)
        in
        let pending = t.movers in
        let buf = pending.Movers.buf in
        let nsend = ref 0 in
        for idx = 0 to pending.Movers.n - 1 do
          if int_of_float (unsafe_get buf ((idx * stride) + ax)) = ghost then
            incr nsend
        done;
        let stg =
          Exchange.migrate_staging ports ~dest:nbr ~axis ~dir
            ~len:(!nsend * stride)
        in
        let so = ref 0 in
        let kept = ref 0 in
        for idx = 0 to pending.Movers.n - 1 do
          let o = idx * stride in
          if int_of_float (unsafe_get buf (o + ax)) = ghost then begin
            for q = 0 to stride - 1 do
              unsafe_set stg (!so + q) (unsafe_get buf (o + q))
            done;
            so := !so + stride
          end
          else begin
            if !kept <> idx then begin
              let d = !kept * stride in
              for q = 0 to stride - 1 do
                unsafe_set buf (d + q) (unsafe_get buf (o + q))
              done
            end;
            incr kept
          end
        done;
        pending.Movers.n <- !kept;
        sent := !sent + !nsend;
        if Exchange.owner_of ports nbr = me then begin
          match targets.(nbr) with
          | Some d -> finish_into d ~axis ~dir stg (!nsend * stride)
          | None -> assert false
        end
        else
          Exchange.migrate_post ports ~dest:nbr ~axis ~dir stg
            ~len:(!nsend * stride)
    | _ -> ()
  in
  let arrive (t : target) axis side =
    match Bc.face t.bc axis side with
    | Bc.Domain nbr when Exchange.owner_of ports nbr <> me ->
        (* Movers arriving across my lo face were sent by my lo
           neighbour toward its hi side (dir = 1). *)
        let dir = match side with `Lo -> 1 | `Hi -> 0 in
        Comm.port_wait
          (Exchange.migrate_recv ports ~block:t.id ~axis ~dir)
          ~f:(fun rbuf len -> finish_into t ~axis ~dir rbuf len)
    | _ -> ()
  in
  for _sweep = 1 to 3 do
    List.iter
      (fun axis ->
        Array.iter
          (Option.iter (fun t ->
               ship t axis `Lo;
               ship t axis `Hi))
          targets;
        Array.iter
          (Option.iter (fun t ->
               arrive t axis `Lo;
               arrive t axis `Hi))
          targets)
      Axis.all
  done;
  Array.iter (Option.iter (fun t -> assert (Movers.count t.movers = 0))) targets;
  { sent = !sent; received = !received; settled = !settled; absorbed = !absorbed }

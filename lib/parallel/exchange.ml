module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Bc = Vpic_grid.Bc
module Axis = Vpic_grid.Axis
module Boundary = Vpic_field.Boundary
module Movers = Vpic_particle.Push.Movers

let interior_extent g axis =
  match axis with
  | Axis.X -> g.Grid.nx
  | Axis.Y -> g.Grid.ny
  | Axis.Z -> g.Grid.nz

let sides = [ `Lo; `Hi ]

(* ------------------------------------------------------------ slots ---- *)

(* One receive slot per (block, purpose, axis, direction of travel) — the
   single wire-address helper shared by fill, fold and migrate.  dir: 0 =
   the message travels toward the lo neighbour, 1 = toward hi.  Keying
   slots on the direction of travel (not the sender's side) keeps the lo-
   and hi-face streams distinct even when both neighbours are the same
   block (a 2-wide periodic axis). *)

let purpose_fill = 0
let purpose_fold = 1
let purpose_migrate = 2
let nslots = 18

let slot ~purpose ~axis ~dir =
  assert (purpose >= purpose_fill && purpose <= purpose_migrate);
  assert (dir = 0 || dir = 1);
  (purpose * 6) + (Axis.index axis * 2) + dir

let axis_of_slot s = List.nth Axis.all (s mod 6 / 2)

(* Every rank registers [nblocks * nslots] slots up front (one collective
   handshake), so a message for block [b] can be addressed to whichever
   rank currently owns [b] — slot index [b * nslots + s] — without any
   re-registration when the ownership table changes mid-run. *)
let gslot ~block ~purpose ~axis ~dir = (block * nslots) + slot ~purpose ~axis ~dir

(* Up to the six EM components travel through one face as one message
   (latency dominates). *)
let max_scalars = 6

let purpose_name = function
  | 0 -> "fill"
  | 1 -> "fold"
  | _ -> "migrate"

(* Label for slot [gs]: the block it feeds, what travels through it and
   which way — the port name the wait observer reports. *)
let slot_name ~nblocks gs =
  let b = gs / nslots and s = gs mod nslots in
  Printf.sprintf "blk%d/%d %s %s->%s" b nblocks
    (purpose_name (s / 6))
    (String.lowercase_ascii (Axis.to_string (axis_of_slot s)))
    (if s mod 2 = 1 then "hi" else "lo")

(* ------------------------------------------------------------ ports ---- *)

type view = { id : int; bc : Bc.t; g : Grid.t }

type t = {
  comm : Comm.t option; (* None: single-rank world, all faces local *)
  nblocks : int;
  owner : int array;
  base : int;
  send_cache : Comm.port option array; (* per global slot; cleared on move *)
  recv_cache : Comm.port option array;
  staging : Comm.buf32 array; (* migrate staging per global slot *)
  mutable sibling_buf : Comm.buf32;
      (* f32 staging for co-resident faces: sibling plane exchange
         quantizes through the same Float32 wire format as remote faces,
         so the stepped physics is a function of the block decomposition
         only — never of where blocks happen to live. *)
  mutable fill_bytes : float;
  mutable fold_bytes : float;
  mutable migrate_bytes : float;
  mover_work : Vpic_particle.Push.Work.t;
      (* the workspace arriving movers finish their walks in; the sweep
         finishes them one target at a time on the rank's domain *)
}

let create ?comm ~nblocks ~owner ~plane () =
  assert (Array.length owner = nblocks);
  let total = nblocks * nslots in
  let cap gs =
    let s = gs mod nslots in
    if s / 6 = purpose_migrate then 64 * Movers.stride
    else max_scalars * plane (gs / nslots) (axis_of_slot s)
  in
  let base =
    match comm with
    | None -> 0
    | Some c ->
        Comm.port_register
          ~names:(Array.init total (slot_name ~nblocks))
          c ~capacities:(Array.init total cap)
  in
  { comm; nblocks;
    owner = Array.copy owner;
    base;
    send_cache = Array.make total None;
    recv_cache = Array.make total None;
    staging = Array.init total (fun _ -> Comm.buf32_create 1);
    sibling_buf = Comm.buf32_create 1;
    fill_bytes = 0.; fold_bytes = 0.; migrate_bytes = 0.;
    mover_work = Vpic_particle.Push.Work.create () }

let my_rank t = match t.comm with None -> 0 | Some c -> Comm.rank c
let owner_of t b = t.owner.(b)
let byte_counts t = (t.fill_bytes, t.fold_bytes, t.migrate_bytes)

let set_owners t owner =
  assert (Array.length owner = t.nblocks);
  Array.blit owner 0 t.owner 0 t.nblocks;
  Array.fill t.send_cache 0 (Array.length t.send_cache) None

let comm_exn t =
  match t.comm with
  | Some c -> c
  | None -> invalid_arg "Exchange: remote face in a single-rank world"

let sibling_scratch t ~len =
  if Bigarray.Array1.dim t.sibling_buf < len then
    t.sibling_buf <- Comm.buf32_create len;
  t.sibling_buf

(* Port a message for [block] is posted into, wherever it lives now. *)
let send_to t ~block gs =
  match t.send_cache.(gs) with
  | Some p -> p
  | None ->
      let p = Comm.port (comm_exn t) ~rank:t.owner.(block) ~index:(t.base + gs) in
      t.send_cache.(gs) <- Some p;
      p

(* My own receive slot for [block] (valid whenever I own [block]). *)
let recv_of t gs =
  match t.recv_cache.(gs) with
  | Some p -> p
  | None ->
      let c = comm_exn t in
      let p = Comm.port c ~rank:(Comm.rank c) ~index:(t.base + gs) in
      t.recv_cache.(gs) <- Some p;
      p

(* A co-resident neighbour's interior extent along [axis], read off its
   own scalars (blocks differ under remainder-safe decomposition). *)
let extent_of scalars axis =
  match scalars with [] -> 0 | f :: _ -> interior_extent (Sf.grid f) axis

(* ------------------------------------------------------ fill / fold ---- *)

(* Axes complete globally in x, y, z order — a block's y plane spans its
   x ghosts, so every block must finish x before any block packs y.
   Within an axis all reads come from interior-index planes and all
   writes go to ghost planes (fill) or interior planes disjoint from the
   reads (fold), so post / copy / recv order between co-resident blocks
   is free. *)

(* Pack one plane per scalar straight into the destination port's ring
   buffer (reserve / pack / commit — no staging copy).  Returns the
   payload length in floats. *)
let post_planes t ~purpose ~dest scalars ~axis ~index ~dir =
  assert (List.length scalars <= max_scalars);
  let gs = gslot ~block:dest ~purpose ~axis ~dir in
  let port = send_to t ~block:dest gs in
  let psize =
    match scalars with [] -> 0 | f :: _ -> Sf.plane_size (Sf.grid f) ~axis
  in
  let len = List.length scalars * psize in
  let buf = Comm.port_reserve port ~len in
  List.iteri
    (fun si f -> Sf.pack_plane f ~axis ~index ~buf ~off:(si * psize))
    scalars;
  Comm.port_commit port ~len;
  len

(* Fill, first half of an axis: every view's remote faces go out (the hi
   neighbour needs my interior hi plane for its lo ghost, and vice
   versa). *)
let fill_post t ~views ~scalars axis =
  let me = my_rank t in
  List.iter
    (fun v ->
      let sc = scalars v.id in
      let n = interior_extent v.g axis in
      List.iter
        (fun side ->
          match Bc.face v.bc axis side with
          | Bc.Domain nbr when t.owner.(nbr) <> me ->
              let index, dir = match side with `Hi -> (n, 1) | `Lo -> (1, 0) in
              let len =
                post_planes t ~purpose:purpose_fill ~dest:nbr sc ~axis ~index
                  ~dir
              in
              t.fill_bytes <- t.fill_bytes +. float_of_int (4 * len)
          | _ -> ())
        sides)
    views

(* Fill, second half of an axis: sibling copies, inbound planes and local
   faces. *)
let fill_complete t ~views ~scalars axis =
  let me = my_rank t in
  List.iter
    (fun v ->
      let sc = scalars v.id in
      let n = interior_extent v.g axis in
      let psize = Sf.plane_size v.g ~axis in
      let nscal = List.length sc in
      List.iter
        (fun side ->
          match Bc.face v.bc axis side with
          | Bc.Domain nbr when t.owner.(nbr) = me ->
              (* sibling: my ghost <- its facing interior plane,
                 round-tripped through the f32 wire format so the result
                 is bitwise what the remote path delivers *)
              let nsc = scalars nbr in
              let dst_index, src_index =
                match side with
                | `Lo -> (0, extent_of nsc axis)
                | `Hi -> (n + 1, 1)
              in
              let buf = sibling_scratch t ~len:(nscal * psize) in
              List.iteri
                (fun si srcf ->
                  Sf.pack_plane srcf ~axis ~index:src_index ~buf
                    ~off:(si * psize))
                nsc;
              List.iteri
                (fun si dstf ->
                  Sf.unpack_plane dstf ~axis ~index:dst_index ~buf
                    ~off:(si * psize))
                sc
          | Bc.Domain _ ->
              (* My lo ghost was sent by my lo neighbour travelling toward
                 hi (dir=1); my hi ghost travels toward lo. *)
              let index, dir = match side with `Lo -> (0, 1) | `Hi -> (n + 1, 0) in
              Comm.port_wait
                (recv_of t (gslot ~block:v.id ~purpose:purpose_fill ~axis ~dir))
                ~f:(fun buf len ->
                  assert (len = nscal * psize);
                  List.iteri
                    (fun si f ->
                      Sf.unpack_plane f ~axis ~index ~buf ~off:(si * psize))
                    sc)
          | kind -> List.iter (fun f -> Boundary.fill_face kind f ~axis ~side) sc)
        sides)
    views

(* Only x can be posted early — y planes span the full x extent including
   the x ghosts, so they cannot be packed until x has landed. *)
let fill_begin t ~views ~scalars = fill_post t ~views ~scalars Axis.X

let fill_finish t ~views ~scalars =
  fill_complete t ~views ~scalars Axis.X;
  List.iter
    (fun axis ->
      fill_post t ~views ~scalars axis;
      fill_complete t ~views ~scalars axis)
    [ Axis.Y; Axis.Z ]

let fill_ghosts t ~views ~scalars =
  fill_begin t ~views ~scalars;
  fill_finish t ~views ~scalars

let fold_ghosts t ~views ~scalars =
  let me = my_rank t in
  List.iter
    (fun axis ->
      (* 1. ship my ghost planes out (wire or direct), then zero them so
         nothing is counted twice *)
      List.iter
        (fun v ->
          let sc = scalars v.id in
          let n = interior_extent v.g axis in
          List.iter
            (fun side ->
              match Bc.face v.bc axis side with
              | Bc.Domain nbr ->
                  let index = match side with `Lo -> 0 | `Hi -> n + 1 in
                  (if t.owner.(nbr) = me then begin
                     (* sibling: add my ghost into its facing interior,
                        f32-quantized exactly like the remote path *)
                     let nsc = scalars nbr in
                     let dst_index =
                       match side with `Lo -> extent_of nsc axis | `Hi -> 1
                     in
                     let psize = Sf.plane_size v.g ~axis in
                     let buf = sibling_scratch t ~len:(List.length sc * psize) in
                     List.iteri
                       (fun si srcf ->
                         Sf.pack_plane srcf ~axis ~index ~buf ~off:(si * psize))
                       sc;
                     List.iteri
                       (fun si dstf ->
                         Sf.unpack_plane_add dstf ~axis ~index:dst_index ~buf
                           ~off:(si * psize))
                       nsc
                   end
                   else begin
                     let dir = match side with `Lo -> 0 | `Hi -> 1 in
                     let len =
                       post_planes t ~purpose:purpose_fold ~dest:nbr sc ~axis
                         ~index ~dir
                     in
                     t.fold_bytes <- t.fold_bytes +. float_of_int (4 * len)
                   end);
                  List.iter (fun f -> Sf.fill_plane f ~axis ~index 0.) sc
              | _ -> ())
            sides)
        views;
      (* 2. local boundary folds and inbound accumulations *)
      List.iter
        (fun v ->
          let sc = scalars v.id in
          let n = interior_extent v.g axis in
          let psize = Sf.plane_size v.g ~axis in
          let nscal = List.length sc in
          List.iter
            (fun side ->
              match Bc.face v.bc axis side with
              | Bc.Domain nbr when t.owner.(nbr) = me -> ()
              | Bc.Domain _ ->
                  (* Data arriving from my hi neighbour was its lo ghost
                     (dir=0): it lands in my interior hi plane. *)
                  let index, dir = match side with `Hi -> (n, 0) | `Lo -> (1, 1) in
                  Comm.port_wait
                    (recv_of t (gslot ~block:v.id ~purpose:purpose_fold ~axis ~dir))
                    ~f:(fun buf len ->
                      assert (len = nscal * psize);
                      List.iteri
                        (fun si f ->
                          Sf.unpack_plane_add f ~axis ~index ~buf
                            ~off:(si * psize))
                        sc)
              | kind -> List.iter (fun f -> Boundary.fold_face kind f ~axis ~side) sc)
            sides)
        views)
    Axis.all

(* -------------------------------------------------- migration wire ---- *)

(* [Migrate] drives the sweep; this module owns the wire resources. *)

let migrate_staging t ~dest ~axis ~dir ~len =
  let gs = gslot ~block:dest ~purpose:purpose_migrate ~axis ~dir in
  if Bigarray.Array1.dim t.staging.(gs) < len then begin
    let cap = ref (max 1 (Bigarray.Array1.dim t.staging.(gs))) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.staging.(gs) <- Comm.buf32_create !cap
  end;
  t.staging.(gs)

let migrate_post t ~dest ~axis ~dir stg ~len =
  let gs = gslot ~block:dest ~purpose:purpose_migrate ~axis ~dir in
  Comm.port_post (send_to t ~block:dest gs) stg ~len;
  t.migrate_bytes <- t.migrate_bytes +. float_of_int (4 * len)

let migrate_recv t ~block ~axis ~dir =
  recv_of t (gslot ~block ~purpose:purpose_migrate ~axis ~dir)

let mover_work t = t.mover_work

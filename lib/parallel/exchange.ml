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

(* One receive slot per (purpose, axis, direction of travel) — the single
   wire-address helper shared by fill, fold and migrate.  dir: 0 = the
   message travels toward the lo neighbour, 1 = toward hi.  Keying slots on
   the direction of travel (not the sender's side) keeps the lo- and
   hi-face streams distinct even when both neighbours are the same rank
   (a 2-wide periodic axis). *)

let purpose_fill = 0
let purpose_fold = 1
let purpose_migrate = 2
let nslots = 18

let slot ~purpose ~axis ~dir =
  assert (purpose >= purpose_fill && purpose <= purpose_migrate);
  assert (dir = 0 || dir = 1);
  (purpose * 6) + (Axis.index axis * 2) + dir

let axis_of_slot s = List.nth Axis.all (s mod 6 / 2)

(* Up to the six EM components travel through one face as one message
   (latency dominates; fill_list asserts the bound). *)
let max_scalars = 6

(* ------------------------------------------------------------ ports ---- *)

type t = {
  comm : Comm.t;
  bc : Bc.t;
  g : Grid.t;
  (* Resolved once at creation: destination slots we post into, own slots
     we consume from; [None] on non-Domain faces. *)
  send_ports : Comm.port option array; (* indexed by [slot] *)
  recv_ports : Comm.port option array;
  staging : Comm.buf32 array;
  (* Send-side packing buffers, used only by the migrate slots (fill and
     fold pack straight into the destination ring via port_reserve). *)
  mutable fill_in_flight : bool;
  (* Optional bound (seconds) on every ghost/migrate receive; None (the
     default) keeps the allocation-free condvar wait. *)
  mutable deadline : float option;
  mutable fill_bytes : float;
  mutable fold_bytes : float;
  mutable migrate_bytes : float;
}

let comm t = t.comm
let bc t = t.bc
let grid t = t.g
let byte_counts t = (t.fill_bytes, t.fold_bytes, t.migrate_bytes)
let bytes_moved t = t.fill_bytes +. t.fold_bytes +. t.migrate_bytes

(* Collective: every rank must create its ports in the same order (slot
   indices are matched positionally across ranks).  Resolving a
   neighbour's port blocks until that rank registers, so construction
   doubles as the handshake. *)
let purpose_name = function
  | 0 -> "fill"
  | 1 -> "fold"
  | _ -> "migrate"

(* Label for my receive slot [s]: what travels through it and which rank
   feeds it — the diagnosis [Comm_timeout] carries when that rank stalls.
   Messages with direction of travel 1 (toward hi) arrive from my lo
   neighbour. *)
let slot_name bc ~me s =
  let axis = axis_of_slot s in
  let dir = s mod 2 in
  let side = if dir = 1 then `Lo else `Hi in
  let peer =
    match Bc.face bc axis side with
    | Bc.Domain nbr -> Printf.sprintf "from rank %d" nbr
    | _ -> "(no domain neighbour)"
  in
  Printf.sprintf "%s %s->%s at rank %d %s"
    (purpose_name (s / 6))
    (String.lowercase_ascii (Axis.to_string axis))
    (if dir = 1 then "hi" else "lo")
    me peer

let create comm bc g =
  let cap s =
    if s / 6 = purpose_migrate then 64 * Movers.stride
    else max_scalars * Sf.plane_size g ~axis:(axis_of_slot s)
  in
  let capacities = Array.init nslots cap in
  let me = Comm.rank comm in
  let names = Array.init nslots (slot_name bc ~me) in
  let base = Comm.port_register ~names comm ~capacities in
  let send_ports = Array.make nslots None in
  let recv_ports = Array.make nslots None in
  List.iter
    (fun axis ->
      List.iter
        (fun side ->
          match Bc.face bc axis side with
          | Bc.Domain nbr ->
              let dir_out = match side with `Lo -> 0 | `Hi -> 1 in
              let dir_in = 1 - dir_out in
              for purpose = purpose_fill to purpose_migrate do
                let s_out = slot ~purpose ~axis ~dir:dir_out in
                let s_in = slot ~purpose ~axis ~dir:dir_in in
                send_ports.(s_out) <-
                  Some (Comm.port comm ~rank:nbr ~index:(base + s_out));
                recv_ports.(s_in) <-
                  Some (Comm.port comm ~rank:me ~index:(base + s_in))
              done
          | _ -> ())
        sides)
    Axis.all;
  { comm; bc; g;
    send_ports; recv_ports;
    staging =
      Array.init nslots (fun s ->
          Comm.buf32_create (if s / 6 = purpose_migrate then cap s else 1));
    fill_in_flight = false;
    deadline = None;
    fill_bytes = 0.; fold_bytes = 0.; migrate_bytes = 0. }

let set_deadline t d = t.deadline <- d
let deadline t = t.deadline

let send_port t s =
  match t.send_ports.(s) with
  | Some p -> p
  | None -> invalid_arg "Exchange: no domain neighbour on that face"

let recv_port t s =
  match t.recv_ports.(s) with
  | Some p -> p
  | None -> invalid_arg "Exchange: no domain neighbour on that face"

(* ------------------------------------------------- fill (ghost copy) ---- *)

(* Pack one plane per scalar straight into the destination port's ring
   buffer (reserve / pack / commit — no staging copy).  Returns the
   payload length in floats. *)
let post_planes t ~purpose scalars ~axis ~index ~dir =
  let s = slot ~purpose ~axis ~dir in
  let psize = Sf.plane_size t.g ~axis in
  let len = List.length scalars * psize in
  let port = send_port t s in
  let buf = Comm.port_reserve port ~len in
  List.iteri
    (fun si f -> Sf.pack_plane f ~axis ~index ~buf ~off:(si * psize))
    scalars;
  Comm.port_commit port ~len;
  len

let fill_post t scalars axis =
  let n = interior_extent t.g axis in
  List.iter
    (fun side ->
      match Bc.face t.bc axis side with
      | Bc.Domain _ ->
          (* hi neighbour needs my interior hi plane for its lo ghost; lo
             neighbour needs my interior lo plane. *)
          let index, dir = match side with `Hi -> (n, 1) | `Lo -> (1, 0) in
          let len =
            post_planes t ~purpose:purpose_fill scalars ~axis ~index ~dir
          in
          t.fill_bytes <- t.fill_bytes +. float_of_int (4 * len)
      | _ -> ())
    sides

let fill_recv t scalars axis =
  let n = interior_extent t.g axis in
  let psize = Sf.plane_size t.g ~axis in
  let nscal = List.length scalars in
  List.iter
    (fun side ->
      match Bc.face t.bc axis side with
      | Bc.Domain _ ->
          (* My lo ghost was sent by my lo neighbour travelling toward hi
             (dir=1); my hi ghost travels toward lo. *)
          let index, dir = match side with `Lo -> (0, 1) | `Hi -> (n + 1, 0) in
          Comm.port_wait ?deadline:t.deadline
            (recv_port t (slot ~purpose:purpose_fill ~axis ~dir))
            ~f:(fun buf len ->
              assert (len = nscal * psize);
              List.iteri
                (fun si f ->
                  Sf.unpack_plane f ~axis ~index ~buf ~off:(si * psize))
                scalars)
      | kind ->
          List.iter (fun f -> Boundary.fill_face kind f ~axis ~side) scalars)
    sides

(* Split fill: [fill_begin] posts the x-axis faces and returns with the
   messages in flight; [fill_finish] completes x, then runs y and z.
   Only x can be posted early — y planes span the full x extent including
   the x ghosts, so they cannot be packed until x has landed.  The caller
   may overlap any work that touches neither ghosts nor the staged x
   planes between the two calls (the interior particle push). *)

let fill_begin t scalars =
  assert (not t.fill_in_flight);
  if scalars <> [] then begin
    assert (List.length scalars <= max_scalars);
    fill_post t scalars Axis.X;
    t.fill_in_flight <- true
  end

let fill_finish t scalars =
  if t.fill_in_flight then begin
    t.fill_in_flight <- false;
    fill_recv t scalars Axis.X;
    List.iter
      (fun axis ->
        fill_post t scalars axis;
        fill_recv t scalars axis)
      [ Axis.Y; Axis.Z ]
  end

let fill_ghosts t scalars =
  fill_begin t scalars;
  fill_finish t scalars

(* ------------------------------------------- fold (ghost accumulate) ---- *)

let fold_ghosts t scalars =
  match scalars with
  | [] -> ()
  | _ ->
      assert (List.length scalars <= max_scalars);
      List.iter
        (fun axis ->
          let n = interior_extent t.g axis in
          let psize = Sf.plane_size t.g ~axis in
          let nscal = List.length scalars in
          List.iter
            (fun side ->
              match Bc.face t.bc axis side with
              | Bc.Domain _ ->
                  let index, dir =
                    match side with `Lo -> (0, 0) | `Hi -> (n + 1, 1)
                  in
                  let len =
                    post_planes t ~purpose:purpose_fold scalars ~axis ~index
                      ~dir
                  in
                  t.fold_bytes <- t.fold_bytes +. float_of_int (4 * len);
                  (* Zero the shipped planes so nothing is counted twice. *)
                  List.iter
                    (fun f -> Sf.fill_plane f ~axis ~index 0.)
                    scalars
              | _ -> ())
            sides;
          List.iter
            (fun side ->
              match Bc.face t.bc axis side with
              | Bc.Domain _ ->
                  (* Data arriving from my hi neighbour was its lo ghost
                     (dir=0): it lands in my interior hi plane. *)
                  let index, dir =
                    match side with `Hi -> (n, 0) | `Lo -> (1, 1)
                  in
                  Comm.port_wait ?deadline:t.deadline
                    (recv_port t (slot ~purpose:purpose_fold ~axis ~dir))
                    ~f:(fun buf len ->
                      assert (len = nscal * psize);
                      List.iteri
                        (fun si f ->
                          Sf.unpack_plane_add f ~axis ~index ~buf
                            ~off:(si * psize))
                        scalars)
              | kind ->
                  List.iter
                    (fun f -> Boundary.fold_face kind f ~axis ~side)
                    scalars)
            sides)
        Axis.all

(* -------------------------------------------------- migration hooks ---- *)

(* [Migrate] drives the sweep; this module owns the wire resources. *)

let migrate_send t ~axis ~dir =
  let s = slot ~purpose:purpose_migrate ~axis ~dir in
  (send_port t s, t.staging.(s))

let migrate_staging_grow t ~axis ~dir len =
  let s = slot ~purpose:purpose_migrate ~axis ~dir in
  if Bigarray.Array1.dim t.staging.(s) < len then begin
    let cap = ref (max 1 (Bigarray.Array1.dim t.staging.(s))) in
    while !cap < len do
      cap := 2 * !cap
    done;
    t.staging.(s) <- Comm.buf32_create !cap
  end;
  t.staging.(s)

let migrate_recv t ~axis ~dir =
  recv_port t (slot ~purpose:purpose_migrate ~axis ~dir)

let add_migrate_bytes t floats =
  t.migrate_bytes <- t.migrate_bytes +. float_of_int (4 * floats)

(* ------------------------------------------------------ block world ---- *)

(* Over-decomposition routing: every rank registers the full
   [nblocks * nslots] slot matrix up front (one collective handshake), so
   a message for block [b] can be addressed to whichever rank currently
   owns [b] — slot index [b * nslots + s] — without any re-registration
   when the ownership table changes mid-run.  [Bc.Domain n] faces of a
   block carry the neighbour {e block} id; faces whose neighbour block is
   co-resident are exchanged by direct plane copies instead of the wire,
   quantized through the same f32 format. *)
module Blocks = struct
  type view = { id : int; bc : Bc.t; g : Grid.t }

  type t = {
    comm : Comm.t option; (* None: single-rank world, all faces local *)
    nblocks : int;
    mutable owner : int array;
    base : int;
    send_cache : Comm.port option array; (* per global slot; cleared on move *)
    recv_cache : Comm.port option array;
    staging : Comm.buf32 array; (* migrate staging per global slot *)
    mutable sibling_buf : Comm.buf32;
        (* f32 staging for co-resident faces: sibling plane exchange
           quantizes through the same Float32 wire format as remote
           faces, so the stepped physics is a function of the block
           decomposition only — never of where blocks happen to live.
           That placement invariance is what lets a recovered (shrunken)
           world and a rebalanced world reproduce the static trajectory
           to reduction round-off. *)
    mutable deadline : float option;
    mutable fill_bytes : float;
    mutable fold_bytes : float;
    mutable migrate_bytes : float;
  }

  let gslot ~block ~purpose ~axis ~dir = (block * nslots) + slot ~purpose ~axis ~dir

  let block_slot_name ~nblocks gs =
    let b = gs / nslots and s = gs mod nslots in
    let axis = axis_of_slot s in
    Printf.sprintf "blk%d/%d %s %s->%s" b nblocks
      (purpose_name (s / 6))
      (String.lowercase_ascii (Axis.to_string axis))
      (if s mod 2 = 1 then "hi" else "lo")

  let create ?comm ~nblocks ~owner ~max_plane () =
    assert (Array.length owner = nblocks);
    let total = nblocks * nslots in
    let cap s =
      if s mod nslots / 6 = purpose_migrate then 64 * Movers.stride
      else max_scalars * max_plane
    in
    let base =
      match comm with
      | None -> 0
      | Some c ->
          let capacities = Array.init total cap in
          let names = Array.init total (block_slot_name ~nblocks) in
          Comm.port_register ~names c ~capacities
    in
    { comm; nblocks;
      owner = Array.copy owner;
      base;
      send_cache = Array.make total None;
      recv_cache = Array.make total None;
      staging = Array.init total (fun _ -> Comm.buf32_create 1);
      sibling_buf = Comm.buf32_create 1;
      deadline = None;
      fill_bytes = 0.; fold_bytes = 0.; migrate_bytes = 0. }

  let my_rank t = match t.comm with None -> 0 | Some c -> Comm.rank c
  let owner_of t b = t.owner.(b)
  let owners t = Array.copy t.owner
  let set_deadline t d = t.deadline <- d
  let byte_counts t = (t.fill_bytes, t.fold_bytes, t.migrate_bytes)

  let set_owners t owner =
    assert (Array.length owner = t.nblocks);
    Array.blit owner 0 t.owner 0 t.nblocks;
    Array.fill t.send_cache 0 (Array.length t.send_cache) None

  let comm_exn t =
    match t.comm with
    | Some c -> c
    | None -> invalid_arg "Exchange.Blocks: remote face in a single-rank world"

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

  (* Fill/fold over the owned [views].  Axes complete globally in x, y, z
     order — a sibling's y plane spans its x ghosts, so every block must
     finish x before any block packs y.  Within an axis all reads come
     from interior-index planes and all writes go to ghost planes (fill)
     or interior planes disjoint from the reads (fold), so post / copy /
     recv order between co-resident blocks is free. *)

  let post_planes t ~purpose ~dest scalars ~axis ~index ~dir =
    let gs = gslot ~block:dest ~purpose ~axis ~dir in
    let port = send_to t ~block:dest gs in
    let psize =
      match scalars with
      | [] -> 0
      | f :: _ -> Sf.plane_size (Sf.grid f) ~axis
    in
    let len = List.length scalars * psize in
    let buf = Comm.port_reserve port ~len in
    List.iteri
      (fun si f -> Sf.pack_plane f ~axis ~index ~buf ~off:(si * psize))
      scalars;
    Comm.port_commit port ~len;
    len

  let fill_ghosts t ~views ~scalars =
    let me = my_rank t in
    List.iter
      (fun axis ->
        (* 1. everything outbound for this axis *)
        List.iter
          (fun v ->
            let sc = scalars v.id in
            let n = interior_extent v.g axis in
            List.iter
              (fun side ->
                match Bc.face v.bc axis side with
                | Bc.Domain nbr when t.owner.(nbr) <> me ->
                    let index, dir =
                      match side with `Hi -> (n, 1) | `Lo -> (1, 0)
                    in
                    let len =
                      post_planes t ~purpose:purpose_fill ~dest:nbr sc ~axis
                        ~index ~dir
                    in
                    t.fill_bytes <- t.fill_bytes +. float_of_int (4 * len)
                | _ -> ())
              sides)
          views;
        (* 2. local faces and inbound *)
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
                       round-tripped through the f32 wire format so the
                       result is bitwise what the remote path delivers *)
                    let nsc = scalars nbr in
                    let nbr_n =
                      match nsc with
                      | [] -> 0
                      | f :: _ -> interior_extent (Sf.grid f) axis
                    in
                    let dst_index, src_index =
                      match side with
                      | `Lo -> (0, nbr_n)
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
                    let index, dir =
                      match side with `Lo -> (0, 1) | `Hi -> (n + 1, 0)
                    in
                    let gs =
                      gslot ~block:v.id ~purpose:purpose_fill ~axis ~dir
                    in
                    Comm.port_wait ?deadline:t.deadline (recv_of t gs)
                      ~f:(fun buf len ->
                        assert (len = nscal * psize);
                        List.iteri
                          (fun si f ->
                            Sf.unpack_plane f ~axis ~index ~buf
                              ~off:(si * psize))
                          sc)
                | kind ->
                    List.iter (fun f -> Boundary.fill_face kind f ~axis ~side) sc)
              sides)
          views)
      Axis.all

  let fold_ghosts t ~views ~scalars =
    let me = my_rank t in
    List.iter
      (fun axis ->
        (* 1. ship my ghost planes out (wire or direct), then zero them *)
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
                       let nbr_n =
                         match nsc with
                         | [] -> 0
                         | f :: _ -> interior_extent (Sf.grid f) axis
                       in
                       let dst_index =
                         match side with `Lo -> nbr_n | `Hi -> 1
                       in
                       let psize = Sf.plane_size v.g ~axis in
                       let buf =
                         sibling_scratch t ~len:(List.length sc * psize)
                       in
                       List.iteri
                         (fun si srcf ->
                           Sf.pack_plane srcf ~axis ~index ~buf
                             ~off:(si * psize))
                         sc;
                       List.iteri
                         (fun si dstf ->
                           Sf.unpack_plane_add dstf ~axis ~index:dst_index
                             ~buf ~off:(si * psize))
                         nsc
                     end
                     else begin
                       let dir = match side with `Lo -> 0 | `Hi -> 1 in
                       let len =
                         post_planes t ~purpose:purpose_fold ~dest:nbr sc
                           ~axis ~index ~dir
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
                    let index, dir =
                      match side with `Hi -> (n, 0) | `Lo -> (1, 1)
                    in
                    let gs =
                      gslot ~block:v.id ~purpose:purpose_fold ~axis ~dir
                    in
                    Comm.port_wait ?deadline:t.deadline (recv_of t gs)
                      ~f:(fun buf len ->
                        assert (len = nscal * psize);
                        List.iteri
                          (fun si f ->
                            Sf.unpack_plane_add f ~axis ~index ~buf
                              ~off:(si * psize))
                          sc)
                | kind ->
                    List.iter (fun f -> Boundary.fold_face kind f ~axis ~side) sc)
              sides)
          views)
      Axis.all

  (* ------------------------------------------------ migration wire ---- *)

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

  let deadline t = t.deadline
end

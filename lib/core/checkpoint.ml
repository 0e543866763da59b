module Grid = Vpic_grid.Grid
module Sf = Vpic_grid.Scalar_field
module Em_field = Vpic_field.Em_field
module Species = Vpic_particle.Species
module Store = Vpic_particle.Store
module Crc32 = Vpic_util.Crc32
module Rng = Vpic_util.Rng
module Fault = Vpic_util.Fault
module A1 = Bigarray.Array1

let format_version = 9

exception Corrupt of { path : string; reason : string }
exception Version_mismatch of { path : string; found : int; expected : int }

let corrupt path fmt = Printf.ksprintf (fun reason -> raise (Corrupt { path; reason })) fmt

type grid_snap = {
  nx : int;
  ny : int;
  nz : int;
  lx : float;
  ly : float;
  lz : float;
  dt : float;
  x0 : float;
  y0 : float;
  z0 : float;
}

(* Everything needed to rebuild an identical [Simulation.make] call plus
   the step counter and both RNG streams, so a restored run continues
   bitwise — including [Refluxing]-face re-emission, whose draws come
   from [push_rng] (serial and local crossings) and [migrate_rng]
   (crossings finished on the neighbour rank). *)
type meta_snap = {
  nstep : int;
  grid : grid_snap;
  sort_interval : int;
  clean_div_interval : int;
  marder_passes : int;
  current_filter_passes : int;
  absorber_thickness : int;
  absorber_strength : float;
  interp_accum : bool;
  push_rng : Rng.state;
  migrate_rng : Rng.state option;
  (* Over-decomposition identity.  Classic per-rank checkpoints carry
     (0, 1); a per-block file records which of how many blocks it holds,
     so a restore (or a rebalance receive) can sanity-check the wire
     bytes against the slot they are about to fill. *)
  block_id : int;
  nblocks : int;
  (* Worker-team lanes of the saving rank — informational (the team
     never affects physics: results are worker-count invariant).  A
     restore does NOT recreate the team from this; the restoring driver
     installs its own live pool via [Simulation.set_pool]. *)
  workers : int;
}

(* ------------------------------------------------------- wire format ---- *)

(* Layout: an 8-byte magic, a 4-byte big-endian format version, then
   three sections (meta, fields, species), each a 4-byte big-endian
   length, a 4-byte big-endian CRC-32 and that many payload bytes.  The
   payloads are explicit little-endian encodings — ints as int64, floats
   as their IEEE-754 bits, names as an int32 length and the bytes:

     meta     nstep; nx ny nz; lx ly lz dt x0 y0 z0; sort_interval;
              clean_div_interval; marder_passes; current_filter_passes;
              absorber_thickness; absorber_strength; interp_accum (u8);
              push RNG {st; sp; has_sp (u8)};
              migrate RNG presence byte, then its state if present;
              block_id; nblocks; workers
     fields   component count (int32), then per component its name, its
              voxel count and that many float64 values
     species  species count (int32), then per species its name, q, m,
              np, the np int32 voxels and the seven float32 arrays
              fx fy fz ux uy uz w, np values each

   Bulk arrays are read straight out of (and back into) the field and
   particle-store bigarrays: the image is the only copy.  Checksums are
   verified before any payload byte is interpreted, and every length and
   count is bounds-checked against the bytes that remain, so a damaged
   image is a typed {!Corrupt}, never a crash or a huge allocation. *)

let magic = "VPICCKPT"
let header_bytes = String.length magic + 4
let section_header_bytes = 8
let rng_bytes = 8 + 8 + 1

(* Unchecked native-order accesses for the bulk arrays (see [bulk]);
   [le32]/[le64] make them little-endian.  The checked
   [Bytes.{get,set}_int{32,64}_le] cost about 0.5 ms more per
   srs_checkpoint save (834 KB image, 3.5 ms instead of 3.0 ms, median
   of six paired traced runs on a 2-core x86-64 host). *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let le32 v = if Sys.big_endian then swap32 v else v
let le64 v = if Sys.big_endian then swap64 v else v

(* The framing words (version, section length and CRC) stay big-endian
   u32, as in every earlier version, so an old file still parses far
   enough to report its version. *)
let set_u32_be b pos v =
  Bytes.set_int32_be b pos (Int32.of_int v)

let get_u32_be ~path data pos =
  if pos < 0 || pos + 4 > Bytes.length data then corrupt path "truncated header";
  Int32.to_int (Bytes.get_int32_be data pos) land 0xFFFFFFFF

(* A position in an image: [lim] bounds the section being read. *)
type cursor = { buf : Bytes.t; mutable pos : int; lim : int; path : string }

(* --------------------------------------------------------- encoding ---- *)

let put_u8 w v =
  Bytes.set w.buf w.pos (Char.chr v);
  w.pos <- w.pos + 1

let put_i32 w v =
  Bytes.set_int32_le w.buf w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let put_int64 w v =
  Bytes.set_int64_le w.buf w.pos v;
  w.pos <- w.pos + 8

let put_i64 w v = put_int64 w (Int64.of_int v)
let put_f64 w x = put_int64 w (Int64.bits_of_float x)

let put_bool w b = put_u8 w (if b then 1 else 0)

let put_name w s =
  put_i32 w (String.length s);
  Bytes.blit_string s 0 w.buf w.pos (String.length s);
  w.pos <- w.pos + String.length s

let name_bytes s = 4 + String.length s

let put_rng w (s : Rng.state) =
  put_int64 w s.Rng.st;
  put_f64 w s.Rng.sp;
  put_bool w s.Rng.has_sp

(* Bulk arrays: a run of [n] elements of [size] bytes is bounds-checked
   once, against the section and the bigarray's [dim], and then copied
   with unchecked accesses.  Returns the run's first byte. *)
let bulk c ~n ~dim ~size =
  if n < 0 || n > dim || n > (c.lim - c.pos) / size then
    invalid_arg "Checkpoint: bulk run out of bounds";
  let p = c.pos in
  c.pos <- p + (size * n);
  p

let put_f64s w (d : Sf.data) n =
  let b = w.buf and p = bulk w ~n ~dim:(A1.dim d) ~size:8 in
  for i = 0 to n - 1 do
    set64u b (p + (8 * i)) (le64 (Int64.bits_of_float (A1.unsafe_get d i)))
  done

let put_f32s w (a : Store.f32) n =
  let b = w.buf and p = bulk w ~n ~dim:(A1.dim a) ~size:4 in
  for i = 0 to n - 1 do
    set32u b (p + (4 * i)) (le32 (Int32.bits_of_float (A1.unsafe_get a i)))
  done

let put_i32s w (a : Store.i32) n =
  let b = w.buf and p = bulk w ~n ~dim:(A1.dim a) ~size:4 in
  for i = 0 to n - 1 do
    set32u b (p + (4 * i)) (le32 (A1.unsafe_get a i))
  done

let snap_meta ~block_id ~nblocks (t : Simulation.t) =
  let g = t.Simulation.grid in
  let lx, ly, lz = Grid.extent g in
  { nstep = t.Simulation.nstep;
    grid =
      { nx = g.Grid.nx;
        ny = g.Grid.ny;
        nz = g.Grid.nz;
        lx;
        ly;
        lz;
        dt = g.Grid.dt;
        x0 = g.Grid.x0;
        y0 = g.Grid.y0;
        z0 = g.Grid.z0 };
    sort_interval = t.Simulation.sort_interval;
    clean_div_interval = t.Simulation.clean_div_interval;
    marder_passes = t.Simulation.marder_passes;
    current_filter_passes = t.Simulation.current_filter_passes;
    absorber_thickness = t.Simulation.absorber_thickness;
    absorber_strength = t.Simulation.absorber_strength;
    interp_accum = t.Simulation.interp_accum <> None;
    push_rng = Rng.state t.Simulation.push_rng;
    migrate_rng =
      Option.map Rng.state t.Simulation.coupler.Coupler.migrate_rng;
    block_id;
    nblocks;
    workers = (Simulation.pool t).Vpic_util.Pool.lanes }

let meta_bytes m =
  (* 12 ints, 7 grid floats + absorber_strength, 2 flag bytes *)
  (12 * 8) + (8 * 8) + 2 + rng_bytes
  + (match m.migrate_rng with Some _ -> rng_bytes | None -> 0)

let put_meta w m =
  let g = m.grid in
  put_i64 w m.nstep;
  List.iter (put_i64 w) [ g.nx; g.ny; g.nz ];
  List.iter (put_f64 w) [ g.lx; g.ly; g.lz; g.dt; g.x0; g.y0; g.z0 ];
  List.iter (put_i64 w)
    [ m.sort_interval; m.clean_div_interval; m.marder_passes;
      m.current_filter_passes; m.absorber_thickness ];
  put_f64 w m.absorber_strength;
  put_bool w m.interp_accum;
  put_rng w m.push_rng;
  (match m.migrate_rng with
  | Some s ->
      put_bool w true;
      put_rng w s
  | None -> put_bool w false);
  List.iter (put_i64 w) [ m.block_id; m.nblocks; m.workers ]

let fields_bytes comps =
  List.fold_left
    (fun acc (name, sf) -> acc + name_bytes name + 8 + (8 * A1.dim (Sf.data sf)))
    4 comps

let put_fields w comps =
  put_i32 w (List.length comps);
  List.iter
    (fun (name, sf) ->
      let d = Sf.data sf in
      put_name w name;
      put_i64 w (A1.dim d);
      put_f64s w d (A1.dim d))
    comps

let species_bytes species =
  List.fold_left
    (fun acc (s : Species.t) ->
      acc + name_bytes s.Species.name + 24
      + (Store.bytes_per_particle * Species.count s))
    4 species

let put_species w species =
  put_i32 w (List.length species);
  List.iter
    (fun (s : Species.t) ->
      let st = s.Species.store in
      let np = Store.count st in
      put_name w s.Species.name;
      put_f64 w s.Species.q;
      put_f64 w s.Species.m;
      put_i64 w np;
      put_i32s w st.Store.voxel np;
      List.iter
        (fun a -> put_f32s w a np)
        Store.[ st.fx; st.fy; st.fz; st.ux; st.uy; st.uz; st.w ])
    species

(* Frame one section of [len] payload bytes at the cursor: [write] fills
   the payload in place, then its CRC is taken in place. *)
let put_section w len write =
  let start = w.pos + section_header_bytes in
  set_u32_be w.buf w.pos len;
  w.pos <- start;
  write ();
  assert (w.pos = start + len);
  set_u32_be w.buf (start - 4)
    (Int32.to_int (Crc32.bytes ~pos:start ~len w.buf) land 0xFFFFFFFF)

(* The wire image is built and parsed in memory ([bytes]): the same
   encoding lands on disk through [save] and on the rebalance mailbox
   when a live block relocates mid-run.  It is sized exactly and
   allocated once. *)
let encode ?(block_id = 0) ?(nblocks = 1) (t : Simulation.t) =
  let meta = snap_meta ~block_id ~nblocks t in
  let comps = Em_field.named_components t.Simulation.fields in
  let species = Simulation.species t in
  let meta_len = meta_bytes meta
  and fields_len = fields_bytes comps
  and species_len = species_bytes species in
  let total =
    header_bytes + (3 * section_header_bytes) + meta_len + fields_len
    + species_len
  in
  let w =
    { buf = Bytes.create total; pos = header_bytes; lim = total; path = "<wire>" }
  in
  Bytes.blit_string magic 0 w.buf 0 (String.length magic);
  set_u32_be w.buf (String.length magic) format_version;
  put_section w meta_len (fun () -> put_meta w meta);
  put_section w fields_len (fun () -> put_fields w comps);
  put_section w species_len (fun () -> put_species w species);
  w.buf

(* Atomic: land the complete file under a temporary name in the same
   directory, then rename over [path].  A crash mid-write leaves the
   previous checkpoint (or nothing) — never a short file under the
   committed name; the temp file is unlinked on every failure. *)
let write_image image path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc image)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let save ?block_id ?nblocks (t : Simulation.t) path =
  write_image (encode ?block_id ?nblocks t) path

let save_attempts = 3
let retry_backoff_base = 0.002

(* Bounded retry for transient checkpoint I/O: up to [save_attempts]
   tries with exponential backoff and seed-deterministic jitter (keyed
   on the path and the attempt number, so reruns sleep the same
   schedule).  [write_image] unlinks the temp file on every failed
   attempt, so retries never collide with debris.  The
   [Fault.io_failure] probe simulates a transient failure after the
   temp file has been written — exercising exactly the
   unlink-then-retry path. *)
let save_retrying ?block_id ?nblocks ~rank (t : Simulation.t) path =
  let image = encode ?block_id ?nblocks t in
  let attempt_once () =
    if Fault.io_failure ~rank ~path then begin
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_bytes oc image);
      (try Sys.remove tmp with Sys_error _ -> ());
      raise (Sys_error (path ^ ": injected transient I/O failure"))
    end
    else write_image image path
  in
  let rec go attempt =
    match attempt_once () with
    | () -> ()
    | exception (Sys_error _ as e) ->
        if attempt >= save_attempts then raise e
        else begin
          let r = Rng.of_int (Hashtbl.hash (path, attempt)) in
          let jitter = float_of_int (Rng.int r 1000) /. 1000. in
          Unix.sleepf
            (retry_backoff_base
            *. float_of_int (1 lsl (attempt - 1))
            *. (1. +. jitter));
          go (attempt + 1)
        end
  in
  go 1

(* --------------------------------------------------------- decoding ---- *)

(* Check the magic, the version and all three section checksums, in
   place; returns one cursor per section payload. *)
let open_sections ~path data =
  let mlen = String.length magic in
  if Bytes.length data < mlen || Bytes.sub_string data 0 mlen <> magic then
    corrupt path "bad magic (not a checkpoint)";
  let found = get_u32_be ~path data mlen in
  if found <> format_version then
    raise (Version_mismatch { path; found; expected = format_version });
  let section pos what =
    let len = get_u32_be ~path data pos in
    let crc = get_u32_be ~path data (pos + 4) in
    let start = pos + section_header_bytes in
    if len > Bytes.length data - start then
      corrupt path "%s section length %d exceeds file" what len;
    let found = Int32.to_int (Crc32.bytes ~pos:start ~len data) land 0xFFFFFFFF in
    if found <> crc then
      corrupt path "%s section checksum mismatch (%08x, expected %08x)" what
        found crc;
    { buf = data; pos = start; lim = start + len; path }
  in
  let meta = section header_bytes "meta" in
  let fields = section meta.lim "fields" in
  let species = section fields.lim "species" in
  if species.lim <> Bytes.length data then
    corrupt path "%d trailing bytes after the species section"
      (Bytes.length data - species.lim);
  (meta, fields, species)

let need r n what =
  if n < 0 || n > r.lim - r.pos then
    corrupt r.path "%s needs %d bytes, %d remain in the section" what n
      (r.lim - r.pos)

let get_u8 r what =
  need r 1 what;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let get_i32 r what =
  need r 4 what;
  let v = Int32.to_int (Bytes.get_int32_le r.buf r.pos) in
  r.pos <- r.pos + 4;
  v

let get_i64 r what =
  need r 8 what;
  let v = Bytes.get_int64_le r.buf r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r what =
  let v = get_i64 r what in
  if not (Int64.equal (Int64.of_int (Int64.to_int v)) v) then
    corrupt r.path "%s %Ld overflows" what v;
  Int64.to_int v

let get_f64 r what = Int64.float_of_bits (get_i64 r what)

let get_bool r what =
  match get_u8 r what with
  | 0 -> false
  | 1 -> true
  | v -> corrupt r.path "%s flag byte %d" what v

(* A count of items of [unit] bytes each that must all fit in what is
   left of the section. *)
let get_count r ~get ~unit what =
  let n = get r what in
  if n < 0 || n > (r.lim - r.pos) / unit then
    corrupt r.path "%s %d does not fit the %d remaining bytes" what n
      (r.lim - r.pos);
  n

let get_name r what =
  let n = get_count r ~get:get_i32 ~unit:1 (what ^ " name length") in
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_rng r what =
  let st = get_i64 r what in
  let sp = get_f64 r what in
  let has_sp = get_bool r what in
  { Rng.st; sp; has_sp }

let expect_end r what =
  if r.pos <> r.lim then
    corrupt r.path "%d unread bytes at the end of the %s section" (r.lim - r.pos)
      what

let get_meta r =
  let int what = get_int r what and flt what = get_f64 r what in
  let nstep = int "nstep" in
  let nx = int "nx" in
  let ny = int "ny" in
  let nz = int "nz" in
  let lx = flt "lx" in
  let ly = flt "ly" in
  let lz = flt "lz" in
  let dt = flt "dt" in
  let x0 = flt "x0" in
  let y0 = flt "y0" in
  let z0 = flt "z0" in
  let sort_interval = int "sort_interval" in
  let clean_div_interval = int "clean_div_interval" in
  let marder_passes = int "marder_passes" in
  let current_filter_passes = int "current_filter_passes" in
  let absorber_thickness = int "absorber_thickness" in
  let absorber_strength = flt "absorber_strength" in
  let interp_accum = get_bool r "interp_accum" in
  let push_rng = get_rng r "push_rng" in
  let migrate_rng =
    if get_bool r "migrate_rng" then Some (get_rng r "migrate_rng") else None
  in
  let block_id = int "block_id" in
  let nblocks = int "nblocks" in
  let workers = int "workers" in
  expect_end r "meta";
  let check ok what = if not ok then corrupt r.path "meta: invalid %s" what in
  let pos_finite x = Float.is_finite x && x > 0. in
  check (nstep >= 0) "nstep";
  check (nx >= 1 && ny >= 1 && nz >= 1) "grid shape";
  check (pos_finite lx && pos_finite ly && pos_finite lz) "grid extent";
  check (pos_finite dt) "dt";
  check (Float.is_finite x0 && Float.is_finite y0 && Float.is_finite z0) "grid origin";
  check
    (sort_interval >= 0 && clean_div_interval >= 0 && marder_passes >= 0
   && current_filter_passes >= 0)
    "step intervals";
  check
    (current_filter_passes = 0 || (clean_div_interval > 0 && interp_accum))
    "current filter";
  check (absorber_thickness >= 1) "absorber_thickness";
  check (absorber_strength > 0. && absorber_strength < 1.) "absorber_strength";
  check (nblocks >= 1 && block_id >= 0 && block_id < nblocks) "block identity";
  check (workers >= 1) "workers";
  { nstep;
    grid = { nx; ny; nz; lx; ly; lz; dt; x0; y0; z0 };
    sort_interval;
    clean_div_interval;
    marder_passes;
    current_filter_passes;
    absorber_thickness;
    absorber_strength;
    interp_accum;
    push_rng;
    migrate_rng;
    block_id;
    nblocks;
    workers }

(* The grid's voxel count (ghosts included), refused before anything is
   allocated unless one float64 component of that size fits the fields
   section: a damaged shape can never ask for more memory than the image
   holds.  Each extent is bounded before [n + 2] is formed, so neither
   the sum nor the product can overflow. *)
let check_grid_fits ~path (g : grid_snap) ~fields_len =
  let limit = fields_len / 8 in
  ignore
    (List.fold_left
       (fun acc n ->
         if n > limit - 2 || n + 2 > limit / acc then
           corrupt path "grid %dx%dx%d exceeds the fields section" g.nx g.ny g.nz;
         acc * (n + 2))
       1 [ g.nx; g.ny; g.nz ])

let get_fields r (t : Simulation.t) =
  let comps = Em_field.named_components t.Simulation.fields in
  let nv = t.Simulation.grid.Grid.nv in
  let ncomp = get_count r ~get:get_i32 ~unit:(4 + 8) "component count" in
  if ncomp <> List.length comps then
    corrupt r.path "%d field components, expected %d" ncomp (List.length comps);
  let seen = ref [] in
  for _ = 1 to ncomp do
    let name = get_name r "component" in
    let sf =
      match List.assoc_opt name comps with
      | Some sf when not (List.mem name !seen) -> sf
      | Some _ -> corrupt r.path "field component %s appears twice" name
      | None -> corrupt r.path "unknown field component %s" name
    in
    seen := name :: !seen;
    let n = get_count r ~get:get_int ~unit:8 (name ^ " voxel count") in
    if n <> nv then corrupt r.path "%s has %d voxels, the grid %d" name n nv;
    let d = Sf.data sf in
    let b = r.buf and p = bulk r ~n ~dim:(A1.dim d) ~size:8 in
    for i = 0 to n - 1 do
      A1.unsafe_set d i (Int64.float_of_bits (le64 (get64u b (p + (8 * i)))))
    done
  done;
  expect_end r "fields"

let get_f32s r (a : Store.f32) n =
  let b = r.buf and p = bulk r ~n ~dim:(A1.dim a) ~size:4 in
  for i = 0 to n - 1 do
    A1.unsafe_set a i (Int32.float_of_bits (le32 (get32u b (p + (4 * i)))))
  done

let get_species r (t : Simulation.t) =
  let nv = t.Simulation.grid.Grid.nv in
  let nspecies = get_count r ~get:get_i32 ~unit:(4 + 24) "species count" in
  for _ = 1 to nspecies do
    let name = get_name r "species" in
    let q = get_f64 r "q" in
    let m = get_f64 r "m" in
    if not (Float.is_finite q && Float.is_finite m && m > 0.) then
      corrupt r.path "species %s: invalid q/m %g/%g" name q m;
    if List.exists (fun s -> s.Species.name = name) (Simulation.species t) then
      corrupt r.path "species %s appears twice" name;
    let np =
      get_count r ~get:get_int ~unit:Store.bytes_per_particle (name ^ " np")
    in
    let s = Simulation.add_species t ~name ~q ~m in
    Species.reserve s np;
    let st = s.Species.store in
    let b = r.buf and p = bulk r ~n:np ~dim:(A1.dim st.Store.voxel) ~size:4 in
    for i = 0 to np - 1 do
      let v = Int32.to_int (le32 (get32u b (p + (4 * i)))) in
      if v < 0 || v >= nv then
        corrupt r.path "species %s particle %d: voxel %d outside [0, %d)" name i
          v nv;
      A1.unsafe_set st.Store.voxel i (Int32.of_int v)
    done;
    List.iter
      (fun a -> get_f32s r a np)
      Store.[ st.fx; st.fy; st.fz; st.ux; st.uy; st.uz; st.w ];
    st.Store.np <- np
  done;
  expect_end r "species"

(* Decode an image straight into the stores and fields of a fresh
   [Simulation.make]: every value comes back from its exact bits, so a
   restart is bitwise identical. *)
let decode_image ?expect_block ?perf ~coupler ~path data =
  let meta_r, fields_r, species_r = open_sections ~path data in
  let meta = get_meta meta_r in
  (match expect_block with
  | Some b when meta.block_id <> b ->
      corrupt path "encoded block %d arriving in slot %d" meta.block_id b
  | _ -> ());
  let gs = meta.grid in
  check_grid_fits ~path gs ~fields_len:(fields_r.lim - fields_r.pos);
  let grid =
    Grid.make ~nx:gs.nx ~ny:gs.ny ~nz:gs.nz ~lx:gs.lx ~ly:gs.ly ~lz:gs.lz
      ~dt:gs.dt ~x0:gs.x0 ~y0:gs.y0 ~z0:gs.z0 ()
  in
  let t =
    Simulation.make ~sort_interval:meta.sort_interval
      ~clean_div_interval:meta.clean_div_interval
      ~marder_passes:meta.marder_passes
      ~absorber_thickness:meta.absorber_thickness
      ~absorber_strength:meta.absorber_strength
      ~current_filter_passes:meta.current_filter_passes
      ~interp_accum:meta.interp_accum ?perf ~grid ~coupler ()
  in
  t.Simulation.nstep <- meta.nstep;
  (* meta.workers is a provenance note only — the restoring driver owns
     the live team (Simulation.set_pool); do not resurrect it here. *)
  Rng.set_state t.Simulation.push_rng meta.push_rng;
  (match (coupler.Coupler.migrate_rng, meta.migrate_rng) with
  | Some r, Some st -> Rng.set_state r st
  | _ -> ());
  get_fields fields_r t;
  get_species species_r t;
  t

let bytes_of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      let data = Bytes.create size in
      (try really_input ic data 0 size
       with End_of_file -> corrupt path "short read");
      data)

(* Checksum-verify [path] without decoding or building a simulation. *)
let verify path =
  match open_sections ~path (bytes_of_file path) with
  | _ -> Ok ()
  | exception Corrupt { reason; _ } -> Error reason
  | exception Version_mismatch { found; expected; _ } ->
      Error (Printf.sprintf "format version %d, expected %d" found expected)
  | exception Sys_error reason -> Error reason

let load ~coupler path = decode_image ~coupler ~path (bytes_of_file path)

let decode ?expect_block ?perf ~coupler data =
  decode_image ?expect_block ?perf ~coupler ~path:"<wire>" data

(* -------------------------------------------------------- generations ---- *)

(* A run directory holds one subdirectory per generation (one file per
   rank) plus a MANIFEST listing the generations whose every rank file
   has landed.  Commit protocol: all ranks write their file (atomically),
   barrier, then rank 0 rewrites the manifest (atomically) and prunes
   generations beyond the retention window.  A crash anywhere leaves the
   manifest pointing only at complete generations. *)

let manifest_path dir = Filename.concat dir "MANIFEST"
let manifest_magic = "vpic-checkpoint-manifest 1"
let generation_dir ~dir ~gen = Filename.concat dir (Printf.sprintf "gen%08d" gen)

let generation_path ~dir ~gen ~rank =
  Filename.concat (generation_dir ~dir ~gen) (Printf.sprintf "rank%04d.ckpt" rank)

(* Per-block files of an over-decomposed run: named by block id, not by
   rank, so any rank can restore any block under a fresh ownership. *)
let block_path ~dir ~gen ~block =
  Filename.concat (generation_dir ~dir ~gen) (Printf.sprintf "blk%05d.ckpt" block)

let mkdir_exist_ok d =
  try Unix.mkdir d 0o755
  with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let load_block ?expect_block ?perf ~coupler path =
  decode_image ?expect_block ?perf ~coupler ~path (bytes_of_file path)

(* ---------------------------------------------------- recovery manifest ---- *)

(* While a recovery is in progress the world has agreed to roll back to
   one specific generation; this side manifest records that agreement so
   (a) the retention pruner never deletes the generation out from under
   the rollback, and (b) a post-mortem can see what the world decided.
   Written atomically by the recovery root, cleared by the next
   successful checkpoint commit (at which point the newer generation
   supersedes the pinned one). *)

type recovery = { rollback_gen : int; epoch : int; dead : int list }

let recovery_manifest_path dir = Filename.concat dir "RECOVERY"
let recovery_magic = "vpic-recovery-manifest 1"

let write_recovery_manifest ~dir r =
  mkdir_exist_ok dir;
  let path = recovery_manifest_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (recovery_magic ^ "\n");
      Printf.fprintf oc "gen %d\n" r.rollback_gen;
      Printf.fprintf oc "epoch %d\n" r.epoch;
      List.iter (fun rk -> Printf.fprintf oc "dead %d\n" rk) r.dead);
  Sys.rename tmp path

let read_recovery_manifest ~dir =
  let path = recovery_manifest_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | hd :: rest when hd = recovery_magic ->
        let g = ref (-1) and ep = ref 0 and dead = ref [] in
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "gen"; n ] -> g := int_of_string n
            | [ "epoch"; n ] -> ep := int_of_string n
            | [ "dead"; n ] -> dead := int_of_string n :: !dead
            | [] | [ "" ] -> ()
            | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }))
          rest;
        Some { rollback_gen = !g; epoch = !ep; dead = List.sort compare !dead }
    | _ -> raise (Corrupt { path; reason = "bad recovery manifest header" })
  end

let clear_recovery_manifest ~dir =
  try Sys.remove (recovery_manifest_path dir) with Sys_error _ -> ()

(* keep-K retention partition, with the pruning-safety guard: the
   generation pinned by an in-progress recovery manifest is never
   dropped, whatever the retention window says. *)
let retention ~dir ~keep all =
  let drop = max 0 (List.length all - keep) in
  let dropped, kept =
    List.partition
      (let i = ref 0 in
       fun _ ->
         incr i;
         !i <= drop)
      all
  in
  match read_recovery_manifest ~dir with
  | Some r when List.mem r.rollback_gen dropped ->
      ( List.filter (fun g -> g <> r.rollback_gen) dropped,
        List.sort compare (r.rollback_gen :: kept) )
  | _ -> (dropped, kept)

(* ------------------------------------------------- generation ownership ---- *)

(* Each committed generation records the block -> rank ownership at save
   time ("b r" lines).  Recovery reads it back as the pre-failure
   baseline for {!Vpic_parallel.Rebalance.adopt}: runtime ownership may
   have diverged across ranks when a rank died mid-rebalance, but the
   checkpoint-time table is on shared disk and therefore agreed. *)

let owners_path ~dir ~gen =
  Filename.concat (generation_dir ~dir ~gen) "OWNERS"

let write_gen_owners ~dir ~gen owners =
  let path = owners_path ~dir ~gen in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Array.iteri (fun b r -> Printf.fprintf oc "%d %d\n" b r) owners);
  Sys.rename tmp path

let read_gen_owners ~dir ~gen ~nblocks =
  let path = owners_path ~dir ~gen in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let owners = Array.make nblocks (-1) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | l ->
              (match String.split_on_char ' ' l with
              | [ b; r ] ->
                  let b = int_of_string b in
                  if b >= 0 && b < nblocks then owners.(b) <- int_of_string r
              | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }));
              go ()
          | exception End_of_file -> ()
        in
        go ());
    Some owners
  end

(* Per-block checkpoint file sizes of a generation: the deterministic
   shared-disk cost vector recovery feeds to the adoption planner (file
   size is dominated by particle count, i.e. push cost).  Missing files
   cost 0. *)
let block_file_sizes ~dir ~gen ~nblocks =
  Array.init nblocks (fun b ->
      match Unix.stat (block_path ~dir ~gen ~block:b) with
      | s -> float_of_int s.Unix.st_size
      | exception Unix.Unix_error _ -> 0.)

(* [nblocks] = 0 marks a classic one-file-per-rank run; > 0 an
   over-decomposed one-file-per-block run (whose [nranks] is 0: block
   files are rank-agnostic). *)
type manifest = {
  nranks : int;
  nblocks : int;
  generations : int list; (* ascending *)
}

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go [])
    in
    match lines with
    | hd :: rest when hd = manifest_magic ->
        let nranks = ref 0 and nblocks = ref 0 and gens = ref [] in
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "nranks"; n ] -> nranks := int_of_string n
            | [ "nblocks"; n ] -> nblocks := int_of_string n
            | [ "gen"; g ] -> gens := int_of_string g :: !gens
            | [] | [ "" ] -> ()
            | _ -> raise (Corrupt { path; reason = "malformed line: " ^ l }))
          rest;
        Some
          { nranks = !nranks;
            nblocks = !nblocks;
            generations = List.sort compare !gens }
    | _ -> raise (Corrupt { path; reason = "bad manifest header" })
  end

let write_manifest dir m =
  let path = manifest_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (manifest_magic ^ "\n");
      Printf.fprintf oc "nranks %d\n" m.nranks;
      if m.nblocks > 0 then Printf.fprintf oc "nblocks %d\n" m.nblocks;
      List.iter (fun g -> Printf.fprintf oc "gen %d\n" g) m.generations);
  Sys.rename tmp path

let rm_rf_generation ~dir ~gen =
  let d = generation_dir ~dir ~gen in
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Unix.rmdir d with Unix.Unix_error _ -> ()
  end

let sid_checkpoint = Vpic_telemetry.Trace.intern "checkpoint"

let save_generation (t : Simulation.t) ~dir ~gen ~keep =
  Vpic_telemetry.Trace.with_span sid_checkpoint @@ fun () ->
  assert (keep >= 1);
  let c = t.Simulation.coupler in
  let rank = c.Coupler.rank in
  if rank = 0 then begin
    mkdir_exist_ok dir;
    mkdir_exist_ok (generation_dir ~dir ~gen)
  end;
  (* Directories exist before any rank writes. *)
  c.Coupler.barrier ();
  let path = generation_path ~dir ~gen ~rank in
  save t path;
  Fault.checkpoint_written ~rank ~gen ~path;
  (* Every rank's file is on disk before the generation is committed. *)
  c.Coupler.barrier ();
  if rank = 0 then begin
    let prev =
      match read_manifest dir with
      | Some m ->
          if m.nblocks <> 0 then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason = "manifest is for a per-block run" });
          if m.nranks <> 0 && m.nranks <> c.Coupler.nranks then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason =
                     Printf.sprintf "manifest is for %d ranks, running %d"
                       m.nranks c.Coupler.nranks });
          List.filter (fun g -> g <> gen) m.generations
      | None -> []
    in
    let all = List.sort compare (gen :: prev) in
    let dropped, kept = retention ~dir ~keep all in
    write_manifest dir
      { nranks = c.Coupler.nranks; nblocks = 0; generations = kept };
    List.iter (fun g -> rm_rf_generation ~dir ~gen:g) dropped
  end

let committed_generations ~dir =
  match read_manifest dir with None -> [] | Some m -> m.generations

let load_latest_valid ~coupler ~dir =
  let c = coupler in
  let gens =
    match read_manifest dir with
    | None -> []
    | Some m ->
        if m.nranks <> 0 && m.nranks <> c.Coupler.nranks then
          raise
            (Corrupt
               { path = manifest_path dir;
                 reason =
                   Printf.sprintf "manifest is for %d ranks, running %d"
                     m.nranks c.Coupler.nranks });
        List.rev m.generations (* newest first *)
  in
  (* Collective: every rank walks the same generation list; a generation
     is usable only when every rank's file verifies, so the fallback
     decision is taken in lockstep (1.0 per valid rank, summed). *)
  let rec pick = function
    | [] -> None
    | g :: rest ->
        let mine =
          match verify (generation_path ~dir ~gen:g ~rank:c.Coupler.rank) with
          | Ok () -> 1.
          | Error _ -> 0.
        in
        let valid = c.Coupler.reduce_sum mine in
        if int_of_float valid = c.Coupler.nranks then Some g else pick rest
  in
  match pick gens with
  | None -> None
  | Some g ->
      Some (load ~coupler (generation_path ~dir ~gen:g ~rank:c.Coupler.rank), g)

(* ------------------------------------------------- block generations ---- *)

(* The over-decomposed analogue of [save_generation]: one file per
   {e block}, written by whichever rank owns it at checkpoint time.  The
   commit protocol is unchanged (write all, barrier, rank 0 manifests),
   but the manifest records [nblocks] instead of a rank count — the
   files are rank-agnostic, so a restore may run on any rank count and
   any ownership. *)
let save_generation_blocks ?(root = 0) ?owners ~dir ~gen ~keep ~rank ~nranks:_
    ~nblocks ~barrier ~owned () =
  Vpic_telemetry.Trace.with_span sid_checkpoint @@ fun () ->
  assert (keep >= 1);
  if rank = root then begin
    mkdir_exist_ok dir;
    mkdir_exist_ok (generation_dir ~dir ~gen)
  end;
  barrier ();
  List.iter
    (fun (b, sim) ->
      let path = block_path ~dir ~gen ~block:b in
      save_retrying ~block_id:b ~nblocks ~rank sim path;
      Fault.checkpoint_written ~rank ~gen ~path)
    owned;
  (* Die-during-checkpoint window: block files are on disk but the
     generation is not yet committed.  A recovery started here must not
     see this generation in the manifest. *)
  Fault.checkpoint_kill_point ~rank ~gen;
  barrier ();
  if rank = root then begin
    let prev =
      match read_manifest dir with
      | Some m ->
          if m.nblocks <> 0 && m.nblocks <> nblocks then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason =
                     Printf.sprintf "manifest is for %d blocks, running %d"
                       m.nblocks nblocks });
          if m.nblocks = 0 && m.generations <> [] then
            raise
              (Corrupt
                 { path = manifest_path dir;
                   reason = "manifest is for a per-rank run" });
          List.filter (fun g -> g <> gen) m.generations
      | None -> []
    in
    let all = List.sort compare (gen :: prev) in
    let dropped, kept = retention ~dir ~keep all in
    (* Ownership-at-save lands next to the block files, then the
       manifest commits both atomically (the manifest is the commit
       point; an OWNERS file without a manifest entry is inert). *)
    Option.iter (fun o -> write_gen_owners ~dir ~gen o) owners;
    write_manifest dir { nranks = 0; nblocks; generations = kept };
    List.iter (fun g -> rm_rf_generation ~dir ~gen:g) dropped;
    (* A freshly committed generation supersedes any rollback target an
       earlier recovery pinned. *)
    clear_recovery_manifest ~dir
  end

(* Collective pick of the newest manifest generation whose every block
   file verifies.  [mine] is this rank's verification slice — callers
   split the [nblocks] files so each is checked exactly once across the
   world — and the pass/fail decision is taken in lockstep through
   [reduce_sum] (1.0 per valid file, summed).  Recovery reuses this with
   a mod-slice over the {e live} rank list, so a shrunken world agrees
   on the rollback target the same way a restart agrees on its restore
   point. *)
let pick_latest_valid_gen ~dir ~nblocks ~mine ~reduce_sum =
  let gens =
    match read_manifest dir with
    | None -> []
    | Some m ->
        if m.nblocks <> nblocks then
          raise
            (Corrupt
               { path = manifest_path dir;
                 reason =
                   Printf.sprintf "manifest is for %d blocks, running %d"
                     m.nblocks nblocks });
        List.rev m.generations (* newest first *)
  in
  let rec pick = function
    | [] -> None
    | g :: rest ->
        let ok =
          List.fold_left
            (fun acc b ->
              match verify (block_path ~dir ~gen:g ~block:b) with
              | Ok () -> acc +. 1.
              | Error _ -> acc)
            0. mine
        in
        if int_of_float (reduce_sum ok) = nblocks then Some g else pick rest
  in
  pick gens

(* Pick the newest valid generation, then each rank loads the blocks
   [owner] assigns to it ([coupler_of b] supplies block [b]'s coupler;
   [perf] is shared).  Verification is split by the restoring ownership. *)
let load_latest_valid_blocks ?perf ~dir ~rank ~nranks ~nblocks ~reduce_sum
    ~owner ~coupler_of () =
  ignore nranks;
  let mine = List.filter (fun b -> owner.(b) = rank) (List.init nblocks Fun.id) in
  match pick_latest_valid_gen ~dir ~nblocks ~mine ~reduce_sum with
  | None -> None
  | Some g ->
      let blocks =
        List.map
          (fun b ->
            let path = block_path ~dir ~gen:g ~block:b in
            (b, load_block ~expect_block:b ?perf ~coupler:(coupler_of b) path))
          mine
      in
      Some (blocks, g)

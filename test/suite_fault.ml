(* Fault-tolerance suite: CRC integrity, durable generations with
   corruption fallback, bitwise resume (refluxing walls included),
   decoder fuzz (checkpoint images and the mover wire), fault injection
   and the health sentinel. *)

open Helpers
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
module Multiblock = Vpic.Multiblock
module Sentinel = Vpic.Sentinel
module Crc32 = Vpic_util.Crc32
module Fault = Vpic_util.Fault
module Comm = Vpic_parallel.Comm
module Decomp = Vpic_grid.Decomp
module Laser = Vpic_field.Laser

let load_plasma sim ~ppc ~uth ~seed =
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int seed) e ~ppc ~uth ());
  let ions = Simulation.add_species sim ~name:"ion" ~q:1. ~m:100. in
  ignore (Loader.maxwellian (Rng.of_int (seed + 1)) ions ~ppc ~uth:(uth /. 3.) ())

let build_sim ?(bc = Bc.periodic) ?(seed = 11) () =
  let g = small_grid ~n:6 ~l:3. () in
  let sim =
    Simulation.make ~grid:g ~coupler:(Coupler.local bc) ~clean_div_interval:7
      ~sort_interval:5 ()
  in
  load_plasma sim ~ppc:8 ~uth:0.05 ~seed;
  sim

(* [build_sim]'s plasma cut along y into [blocks] blocks of a world
   ([ny] cells in all, 0.5 apart), each block loaded from a stream
   salted by its id.  One block of 6 cells is [build_sim]'s box. *)
let block_world ?comm ?(bc = Bc.periodic) ?(seed = 11) ~blocks ~ny () =
  let layout =
    Vpic_grid.Block.over
      (Decomp.make ~px:1 ~py:blocks ~pz:1 ~gnx:6 ~gny:ny ~gnz:6 ~lx:3.
         ~ly:(0.5 *. float_of_int ny) ~lz:3.)
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  Multiblock.create ?comm ~layout ~global_bc:bc
    ~build:(fun ~id ~coupler ~perf ->
      let sim =
        Simulation.make ~grid:(Vpic_grid.Block.grid layout ~dt ~id) ~coupler
          ~perf ~clean_div_interval:7 ~sort_interval:5 ()
      in
      load_plasma sim ~ppc:8 ~uth:0.05 ~seed:(seed + (101 * id));
      sim)
    ()

let build_world ?bc () = block_world ?bc ~blocks:1 ~ny:6 ()

(* Copies of the fields of every block this rank owns, ascending id. *)
let owned_fields mb =
  List.map
    (fun (_, sim) -> Em_field.copy sim.Simulation.fields)
    (Multiblock.owned_sims mb)

let check_fields_bitwise label a b =
  List.iter2
    (fun fa fb ->
      check_close ~atol:0. ~rtol:0. label 0. (Em_field.max_component_diff fa fb))
    a b

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    let rec go p =
      if Sys.is_directory p then begin
        Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
    in
    go dir
  end

let flip_bytes path ~pos =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 4 '\xA5') 0 4))

(* ------------------------------------------------------------- crc32 ---- *)

let test_crc32_known_answer () =
  (* The standard zlib check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l
    (Crc32.string "123456789");
  Alcotest.(check int32) "crc32(empty)" 0l (Crc32.string "");
  (* Streaming agrees with one-shot. *)
  let s = "the quick brown fox jumps over the lazy dog" in
  let half = String.length s / 2 in
  let b = Bytes.of_string s in
  let streamed =
    Crc32.finish
      (Crc32.update
         (Crc32.update Crc32.init b 0 half)
         b half (String.length s - half))
  in
  Alcotest.(check int32) "streamed = one-shot" (Crc32.string s) streamed

(* Bit-at-a-time CRC-32 straight from the definition (reflected
   polynomial, pre- and post-inverted): the oracle for the table-driven
   implementation. *)
let crc32_reference b pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let test_crc32_matches_reference () =
  let rng = Rng.of_int 2024 in
  let buf = Bytes.create (4096 + 8) in
  for round = 1 to 200 do
    Bytes.iteri (fun i _ -> Bytes.set buf i (Char.chr (Rng.int rng 256))) buf;
    (* every short length (the tail loop alone), then random ones *)
    let len = if round <= 64 then round - 1 else Rng.int rng 4097 in
    let pos = Rng.int rng 8 in
    let expect = crc32_reference buf pos len in
    let got = Crc32.bytes ~pos ~len buf in
    if got <> expect then
      Alcotest.failf "len %d at offset %d: %08lx, reference %08lx" len pos got
        expect;
    (* streamed over random split points equals one-shot *)
    let cuts =
      List.sort compare (List.init (Rng.int rng 5) (fun _ -> Rng.int rng (len + 1)))
    in
    let crc, last =
      List.fold_left
        (fun (crc, from) cut -> (Crc32.update crc buf (pos + from) (cut - from), cut))
        (Crc32.init, 0) cuts
    in
    let streamed = Crc32.finish (Crc32.update crc buf (pos + last) (len - last)) in
    if streamed <> expect then
      Alcotest.failf "len %d at offset %d streamed over %d cuts: %08lx, one-shot %08lx"
        len pos (List.length cuts) streamed expect
  done

(* -------------------------------------------------- corruption/verify ---- *)

let test_verify_detects_corruption () =
  let path = Filename.temp_file "vpic_crc" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sim = build_sim () in
      Simulation.run sim ~steps:3 ();
      Checkpoint.save sim path;
      check_true "pristine file verifies"
        (Checkpoint.verify path = Ok ());
      (* Corrupt the particle payload (well past the headers). *)
      let size = (Unix.stat path).Unix.st_size in
      flip_bytes path ~pos:(size / 2);
      check_true "corrupt file fails verify"
        (match Checkpoint.verify path with Error _ -> true | Ok () -> false);
      check_true "load raises typed Corrupt"
        (try
           ignore (Checkpoint.load ~coupler:(Coupler.local Bc.periodic) path);
           false
         with Checkpoint.Corrupt _ -> true))

let test_version_mismatch_typed () =
  let path = Filename.temp_file "vpic_ver" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "VPICCKPT";
      (* format version 1, big-endian *)
      output_string oc "\x00\x00\x00\x01";
      output_string oc "rest does not matter";
      close_out oc;
      check_true "typed version mismatch"
        (try
           ignore (Checkpoint.load ~coupler:(Coupler.local Bc.periodic) path);
           false
         with Checkpoint.Version_mismatch { found; expected; _ } ->
           found = 1 && expected = Checkpoint.format_version))

(* -------------------------------------------------------- decoder fuzz ---- *)

(* A small srs deck (lasers, absorbing walls, electrons and ions) a few
   steps in: every meta, field and species path of the codec is live. *)
let srs_image () =
  let setup =
    Vpic_lpi.Deck.build
      { Vpic_lpi.Deck.default with nx = 72; ppc = 4; vacuum = 2. }
  in
  Simulation.run setup.Vpic_lpi.Deck.sim ~steps:5 ();
  Checkpoint.encode setup.Vpic_lpi.Deck.sim

(* (name, first byte, end) of the header and of each framed section
   (its length and CRC words included). *)
let image_regions image =
  let section name start =
    (name, start, start + 8 + Int32.to_int (Bytes.get_int32_be image start))
  in
  let (_, _, e1) as meta = section "meta" 12 in
  let (_, _, e2) as fields = section "fields" e1 in
  [ ("header", 0, 12); meta; fields; section "species" e2 ]

(* Only the typed errors may escape a decoder; anything else propagates
   and fails the test.  [true] = rejected, [false] = accepted. *)
let rejected f =
  match f () with
  | _ -> false
  | exception (Checkpoint.Corrupt _ | Checkpoint.Version_mismatch _) -> true

let local = Coupler.local Bc.periodic

let flip_bit img bit =
  let at = bit / 8 in
  Bytes.set img at (Char.chr (Char.code (Bytes.get img at) lxor (1 lsl (bit mod 8))))

let check_rejected_everywhere label image =
  check_true (label ^ ": decode rejects")
    (rejected (fun () -> Checkpoint.decode ~coupler:local image));
  let path = Filename.temp_file "vpic_fuzz" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_bytes oc image;
      close_out oc;
      check_true (label ^ ": verify errs")
        (match Checkpoint.verify path with Error _ -> true | Ok () -> false);
      check_true (label ^ ": load rejects")
        (rejected (fun () -> Checkpoint.load ~coupler:local path)))

let test_decoder_fuzz () =
  let image = srs_image () in
  let n = Bytes.length image in
  check_true "pristine image decodes"
    (not (rejected (fun () -> Checkpoint.decode ~coupler:local image)));
  let rng = Rng.of_int 8 in
  (* seeded single-bit flips in every region: CRC-32 catches them all *)
  List.iter
    (fun (name, lo, hi) ->
      for _ = 1 to 12 do
        let bit = (8 * lo) + Rng.int rng (8 * (hi - lo)) in
        let img = Bytes.copy image in
        flip_bit img bit;
        check_rejected_everywhere (Printf.sprintf "%s bit %d" name bit) img
      done)
    (image_regions image);
  (* truncations: every short length, a stride through the image and
     either side of each section boundary *)
  let boundaries =
    List.concat_map (fun (_, lo, hi) -> [ lo - 1; lo; lo + 1; hi - 1; hi + 1 ])
      (image_regions image)
  in
  List.iter
    (fun len ->
      if len >= 0 && len < n then
        check_rejected_everywhere (Printf.sprintf "truncated to %d" len)
          (Bytes.sub image 0 len))
    (List.init 24 Fun.id @ List.init 40 (fun i -> i * (n / 40)) @ boundaries);
  (* flips behind a re-stamped CRC reach the payload decoder itself:
     every meta bit, a sample of the bulk sections — each image either
     decodes or raises Corrupt, never anything else *)
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun (name, lo, hi) ->
      if name <> "header" then begin
        let payload = lo + 8 and len = hi - lo - 8 in
        let bits =
          if name = "meta" then List.init (8 * len) Fun.id
          else List.init 200 (fun _ -> Rng.int rng (8 * len))
        in
        List.iter
          (fun bit ->
            let img = Bytes.copy image in
            flip_bit img ((8 * payload) + bit);
            Bytes.set_int32_be img (lo + 4) (Crc32.bytes ~pos:payload ~len img);
            match Checkpoint.decode ~coupler:local img with
            | _ -> incr accepted
            | exception Checkpoint.Corrupt _ -> incr refused)
          bits
      end)
    (image_regions image);
  (* both outcomes occur, so the re-stamped images do reach the decoder *)
  check_true "some payload flips still decode" (!accepted > 0);
  check_true "some payload flips are refused" (!refused > 0);
  (* crafted meta behind a valid CRC.  Grid extents of max_int would
     wrap the voxel-count product, and must be refused before any
     allocation.  A current filter without the Marder clean would let
     the filtered J break continuity unchecked, a combination
     [Simulation.make] also refuses. *)
  let _, meta_lo, meta_hi = List.nth (image_regions image) 1 in
  let payload = meta_lo + 8 in
  (* meta byte offsets: nstep, nx ny nz, seven grid floats, then
     sort_interval, clean_div_interval, marder_passes and
     current_filter_passes *)
  let int_at off n img = Bytes.set_int64_le img (payload + off) (Int64.of_int n) in
  let extent axis n = int_at (8 + (8 * axis)) n in
  let no_clean = int_at 96 0 in
  let filter_passes n = int_at 112 n in
  let decodes patches =
    let img = Bytes.copy image in
    List.iter (fun patch -> patch img) patches;
    Bytes.set_int32_be img (meta_lo + 4)
      (Crc32.bytes ~pos:payload ~len:(meta_hi - payload) img);
    match Checkpoint.decode ~coupler:local img with
    | _ -> true
    | exception Checkpoint.Corrupt _ -> false
  in
  List.iter
    (fun (label, patches) -> check_true label (not (decodes patches)))
    [ ("nx = ny = max_int is refused", [ extent 0 max_int; extent 1 max_int ]);
      ( "nx = ny = nz = max_int is refused",
        [ extent 0 max_int; extent 1 max_int; extent 2 max_int ] );
      ("nx = max_int - 1 is refused", [ extent 0 (max_int - 1) ]);
      ( "current filter without the Marder clean is refused",
        [ filter_passes 1; no_clean ] ) ];
  check_true "current filter with the Marder clean decodes"
    (decodes [ filter_passes 1 ])

(* ------------------------------------------------------- mover wire fuzz ---- *)

(* A mover batch as it arrives: the movers a push stopped at the six
   domain faces of a 6-cell block, each ghost cell rebased into the
   block as a periodic neighbour would (ghost 0 -> n, ghost n+1 -> 1). *)
let arriving_movers () =
  let g = small_grid ~n:6 ~l:3. () in
  let domain = Bc.Domain 0 in
  let bc =
    { Bc.xlo = domain; xhi = domain; ylo = domain; yhi = domain;
      zlo = domain; zhi = domain }
  in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  ignore (Loader.maxwellian (Rng.of_int 3) s ~ppc:4 ~uth:0.4 ());
  let movers = Push.Movers.create () in
  ignore (push ~movers s (Em_field.create g) bc);
  let n = Push.Movers.count movers in
  let wire = Bigarray.Array1.sub movers.Push.Movers.buf 0 (n * Push.Movers.stride) in
  for m = 0 to n - 1 do
    for q = 0 to 2 do
      let o = (m * Push.Movers.stride) + q in
      let c = int_of_float wire.{o} in
      if c = 0 then wire.{o} <- 6. else if c = 7 then wire.{o} <- 1.
    done
  done;
  (g, wire)

(* Only [Push.Movers.Corrupt] may escape the mover decoder; anything
   else propagates and fails the test.  [true] = rejected. *)
let mover_rejected g wire len =
  let bc = { Bc.periodic with Bc.ylo = Bc.Refluxing 0.1; zhi = Bc.Absorbing } in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  match
    Push.finish_movers ~movers_out:(Push.Movers.create ())
      ~accum:(Accumulator.create g) s (Em_field.create g) bc
      (Push.Movers.of_wire wire len)
  with
  | _ -> false
  | exception Push.Movers.Corrupt _ -> true

let test_mover_wire_fuzz () =
  let g, wire = arriving_movers () in
  let len = Bigarray.Array1.dim wire and stride = Push.Movers.stride in
  check_true "a batch arrived" (len >= 8 * stride);
  check_true "the pristine batch finishes" (not (mover_rejected g wire len));
  (* truncations: a whole number of movers decodes, any other length is
     refused, and so is a length past the buffer *)
  for cut = 0 to len do
    let short = Bigarray.Array1.sub wire 0 cut in
    Alcotest.(check bool)
      (Printf.sprintf "truncated to %d floats" cut)
      (cut mod stride <> 0) (mover_rejected g short cut)
  done;
  check_true "a length past the buffer is refused"
    (mover_rejected g wire (len + stride));
  (* single-bit flips: every bit of the first three movers and a seeded
     sample of the rest; each batch finishes or is refused *)
  let rng = Rng.of_int 12 in
  let bits =
    List.init (3 * stride * 32) Fun.id
    @ List.init 400 (fun _ -> Rng.int rng (32 * len))
  in
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun bit ->
      let img = Store.f32_create len in
      Bigarray.Array1.blit wire img;
      let o = bit / 32 in
      img.{o} <-
        Int32.float_of_bits
          (Int32.logxor (Int32.bits_of_float img.{o})
             (Int32.shift_left 1l (bit mod 32)));
      if mover_rejected g img len then incr refused else incr accepted)
    bits;
  check_true "some flips still decode" (!accepted > 0);
  check_true "some flips are refused" (!refused > 0)

let test_v7_header_is_version_mismatch () =
  let image = srs_image () in
  let previous = Checkpoint.format_version - 1 in
  Bytes.set_int32_be image 8 (Int32.of_int previous);
  check_true "previous-version header"
    (match Checkpoint.decode ~coupler:local image with
    | _ -> false
    | exception Checkpoint.Version_mismatch { found; expected; _ } ->
        found = previous && expected = Checkpoint.format_version)

(* -------------------------------------------------------- generations ---- *)

let test_generation_retention () =
  let dir = temp_dir "vpic_gens" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sim = build_sim () in
      for gen = 1 to 5 do
        Simulation.run sim ~steps:1 ();
        Checkpoint.save_generation sim ~dir ~gen ~keep:2
      done;
      Alcotest.(check (list int)) "manifest keeps last two" [ 4; 5 ]
        (Checkpoint.committed_generations ~dir);
      check_true "pruned generation removed from disk"
        (not (Sys.file_exists (Filename.dirname
                                 (Checkpoint.generation_path ~dir ~gen:1 ~rank:0))));
      check_true "kept generation present"
        (Sys.file_exists (Checkpoint.generation_path ~dir ~gen:5 ~rank:0));
      Alcotest.(check string) "a classic rank's file is its block's file"
        (Checkpoint.block_path ~dir ~gen:5 ~block:0)
        (Checkpoint.generation_path ~dir ~gen:5 ~rank:0))

let test_fallback_and_resume_equivalence () =
  (* Reference run: 30 uninterrupted steps, checkpointing at 10 and 20.
     A resume from generation 20 must continue bitwise; after corrupting
     generation 20, Multiblock.resume must fall back to 10 and the
     replayed run must still match bitwise. *)
  let dir = temp_dir "vpic_resume" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let mb = build_world () in
      Multiblock.run mb ~steps:10 ();
      Multiblock.save_generation mb ~dir ~gen:10 ~keep:3;
      Multiblock.run mb ~steps:10 ();
      Multiblock.save_generation mb ~dir ~gen:20 ~keep:3;
      Multiblock.run mb ~steps:10 ();
      let r = build_world () in
      (match Multiblock.resume r ~dir with
      | Some 20 ->
          Multiblock.run r ~steps:10 ();
          check_fields_bitwise "resume from newest is bitwise"
            (owned_fields mb) (owned_fields r)
      | _ -> Alcotest.fail "expected generation 20");
      flip_bytes (Checkpoint.block_path ~dir ~gen:20 ~block:0) ~pos:600;
      let r = build_world () in
      match Multiblock.resume r ~dir with
      | Some 10 ->
          Multiblock.run r ~steps:20 ();
          check_fields_bitwise "fallback resume is bitwise" (owned_fields mb)
            (owned_fields r);
          Alcotest.(check int) "step counter" 30 (Multiblock.nstep r);
          Alcotest.(check int) "particles"
            (Multiblock.total_particles mb)
            (Multiblock.total_particles r)
      | _ -> Alcotest.fail "expected fallback to generation 10")

let test_refluxing_rng_resumes_bitwise () =
  (* Refluxing walls re-emit with a draw that is a pure function of the
     crossing particle's bits; a resumed run matches bitwise with no
     generator state in the image. *)
  let bc =
    Bc.with_face
      (Bc.with_face Bc.periodic Axis.X `Lo (Bc.Refluxing 0.08))
      Axis.X `Hi (Bc.Refluxing 0.08)
  in
  let path = Filename.temp_file "vpic_reflux" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sim = build_sim ~bc ~seed:17 () in
      Simulation.run sim ~steps:30 ();
      Checkpoint.save sim path;
      Simulation.run sim ~steps:30 ();
      check_true "refluxes happened"
        (sim.Simulation.push_stats.Vpic_particle.Push.refluxed > 0);
      let r = Checkpoint.load ~coupler:(Coupler.local bc) path in
      Simulation.run r ~steps:30 ();
      check_close ~atol:0. ~rtol:0. "refluxing continuation is bitwise" 0.
        (Em_field.max_component_diff sim.Simulation.fields r.Simulation.fields))

(* ----------------------------------------------------- fault injection ---- *)

let build_rank_sim c d ~dt =
  let rank = Comm.rank c in
  let grid = Decomp.local_grid d ~dt ~rank in
  let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
  let coupler = Coupler.parallel c bc ~grid in
  let sim = Simulation.make ~grid ~coupler ~clean_div_interval:5 () in
  let e = Simulation.add_species sim ~name:"electron" ~q:(-1.) ~m:1. in
  ignore (Loader.maxwellian (Rng.of_int (3 + rank)) e ~ppc:6 ~uth:0.15 ());
  sim

let test_kill_rank_propagates () =
  (* Rank 1 dies mid-step (after push, before migration); rank 0 is
     parked in a collective and must be released by world poisoning, and
     Comm.run must re-raise the root cause — not hang, not mask it with
     the secondary Rank_failed. *)
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  Fault.enable ~seed:7;
  Fault.arm (Fault.Kill_rank { rank = 1; step = 3 });
  Fun.protect
    ~finally:(fun () -> Fault.disable ())
    (fun () ->
      check_true "Injected_kill is the root cause"
        (try
           ignore
             (Comm.run ~ranks:2 (fun c ->
                  let sim = build_rank_sim c d ~dt in
                  Simulation.run sim ~steps:10 ()));
           false
         with Fault.Injected_kill { rank = 1; step = 3 } -> true))

let test_corrupt_checkpoint_injection () =
  (* The Corrupt_checkpoint injection must produce a file that fails
     verification — it is what the CI smoke job and the fallback test
     above rely on. *)
  let dir = temp_dir "vpic_corrupt" in
  Fault.enable ~seed:42;
  Fault.arm (Fault.Corrupt_checkpoint { rank = 0; gen = 2 });
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let mb = build_world () in
      Multiblock.run mb ~steps:1 ();
      Multiblock.save_generation mb ~dir ~gen:1 ~keep:3;
      Multiblock.run mb ~steps:1 ();
      Multiblock.save_generation mb ~dir ~gen:2 ~keep:3;
      check_true "injected corruption detected"
        (Checkpoint.verify (Checkpoint.block_path ~dir ~gen:2 ~block:0)
        <> Ok ());
      match Multiblock.resume (build_world ()) ~dir with
      | Some 1 -> ()
      | _ -> Alcotest.fail "expected fallback to generation 1")

let test_two_rank_kill_resume_energy () =
  (* The full acceptance chain on 2 ranks: periodic generations, rank 1
     killed mid-step between commits, resume from the latest valid
     generation, final energies within f32 round-off of an uninterrupted
     run (bitwise, in fact: the restart replays the same f32 ops). *)
  let dir = temp_dir "vpic_2rank" in
  let world c = block_world ~comm:c ~seed:3 ~blocks:2 ~ny:8 () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let reference =
        (Comm.run ~ranks:2 (fun c ->
             let mb = world c in
             Multiblock.run mb ~steps:24 ();
             (Multiblock.energies mb).Simulation.total)).(0)
      in
      Fault.enable ~seed:3;
      Fault.arm (Fault.Kill_rank { rank = 1; step = 20 });
      (try
         ignore
           (Comm.run ~ranks:2 (fun c ->
                let mb = world c in
                for step = 1 to 24 do
                  Multiblock.step mb;
                  if step mod 8 = 0 then
                    Multiblock.save_generation mb ~dir ~gen:step ~keep:2
                done));
         Alcotest.fail "kill did not fire"
       with Fault.Injected_kill { rank = 1; step = 20 } -> ());
      Fault.disable ();
      Alcotest.(check (list int)) "generations committed before the kill"
        [ 8; 16 ]
        (Checkpoint.committed_generations ~dir);
      let resumed =
        (Comm.run ~ranks:2 (fun c ->
             let mb = world c in
             (* the generation is checked on the calling domain:
                Alcotest is not domain-safe *)
             match Multiblock.resume mb ~dir with
             | Some gen ->
                 Multiblock.run mb ~steps:8 ();
                 Some (gen, (Multiblock.energies mb).Simulation.total)
             | None -> None)).(0)
      in
      match resumed with
      | Some (16, resumed) ->
          check_close ~rtol:1e-6 "kill/resume energy equivalence" reference
            resumed
      | _ -> Alcotest.fail "expected to resume from generation 16")

(* 4 blocks on 2 ranks, checkpointed every 10 steps, rank 0 killed in
   step 25: the resumed world restores generation 20 on both ranks and
   finishes bitwise equal to the uninterrupted run, energies and every
   block's fields. *)
let test_four_blocks_two_ranks_resume_bitwise () =
  let dir = temp_dir "vpic_4blk" in
  let world c = block_world ~comm:c ~blocks:4 ~ny:8 () in
  let finish mb = ((Multiblock.energies mb).Simulation.total, owned_fields mb) in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let reference =
        Comm.run ~ranks:2 (fun c ->
            let mb = world c in
            Multiblock.run mb ~steps:30 ();
            finish mb)
      in
      Fault.enable ~seed:4;
      Fault.arm (Fault.Kill_rank { rank = 0; step = 25 });
      (try
         ignore
           (Comm.run ~ranks:2 (fun c ->
                let mb = world c in
                for step = 1 to 30 do
                  Multiblock.step mb;
                  if step mod 10 = 0 then
                    Multiblock.save_generation mb ~dir ~gen:step ~keep:3
                done));
         Alcotest.fail "kill did not fire"
       with Fault.Injected_kill { rank = 0; step = 25 } -> ());
      Fault.disable ();
      Alcotest.(check (list int)) "generations committed before the kill"
        [ 10; 20 ]
        (Checkpoint.committed_generations ~dir);
      let resumed =
        Comm.run ~ranks:2 (fun c ->
            let mb = world c in
            let gen = Multiblock.resume mb ~dir in
            let restored_step = Multiblock.nstep mb in
            Multiblock.run mb ~steps:10 ();
            (gen, restored_step, finish mb))
      in
      Array.iteri
        (fun rank (gen, restored_step, (energy, fields)) ->
          let ref_energy, ref_fields = reference.(rank) in
          Alcotest.(check (option int))
            (Printf.sprintf "rank %d restored generation 20" rank)
            (Some 20) gen;
          Alcotest.(check int) "restored step counter" 20 restored_step;
          check_close ~atol:0. ~rtol:0. "energy bitwise" ref_energy energy;
          check_fields_bitwise
            (Printf.sprintf "rank %d block fields bitwise" rank)
            ref_fields fields)
        resumed)

(* A directory whose generations hold two files (two blocks, or two
   classic ranks) refuses a one-file world: committing to it and
   restoring from it are both typed errors, and the committed list is
   left as it was. *)
let test_file_count_guard () =
  let dir = temp_dir "vpic_count" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sim = build_sim () in
      Checkpoint.save_generation_blocks ~dir ~gen:1 ~keep:3 ~rank:0 ~nblocks:2
        ~barrier:ignore
        ~owned:[ (0, sim); (1, sim) ]
        ();
      let refused what f =
        check_true what
          (match f () with
          | _ -> false
          | exception Checkpoint.Corrupt _ -> true)
      in
      refused "a 1-file commit is refused" (fun () ->
          Checkpoint.save_generation sim ~dir ~gen:2 ~keep:3);
      refused "a 1-file restore is refused" (fun () ->
          ignore (Multiblock.resume (build_world ()) ~dir));
      Alcotest.(check (list int)) "manifest unchanged" [ 1 ]
        (Checkpoint.committed_generations ~dir))

(* A classic save goes through the bounded-retry writer: two transient
   write failures are absorbed, the generation commits and verifies. *)
let test_classic_save_retries () =
  let dir = temp_dir "vpic_classic_retry" in
  Fault.enable ~seed:1;
  Fault.arm
    (Fault.Fail_checkpoint_io
       { rank = 0; path_substring = "gen00000001"; times = 2 });
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let sim = build_sim () in
      let path = Checkpoint.generation_path ~dir ~gen:1 ~rank:0 in
      Checkpoint.save_generation sim ~dir ~gen:1 ~keep:3;
      check_true "both injected failures were hit"
        (not (Fault.io_failure ~rank:0 ~path));
      Alcotest.(check (list int)) "generation committed" [ 1 ]
        (Checkpoint.committed_generations ~dir);
      check_true "committed file verifies" (Checkpoint.verify path = Ok ());
      check_true "no temp debris" (not (Sys.file_exists (path ^ ".tmp"))))

(* MANIFEST, RECOVERY and OWNERS are text; a field that should be an
   integer and is not is a typed Corrupt naming the line, never a
   [Failure] from [int_of_string]. *)
let test_text_manifests_typed () =
  let dir = temp_dir "vpic_text" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sim = build_sim () in
      Checkpoint.save_generation sim ~dir ~gen:1 ~keep:3;
      let write name text =
        let oc = open_out (Filename.concat dir name) in
        output_string oc text;
        close_out oc
      in
      let malformed what line f =
        check_true what
          (match f () with
          | _ -> false
          | exception Checkpoint.Corrupt { reason; _ } ->
              reason = "malformed line: " ^ line)
      in
      write "MANIFEST" "vpic-checkpoint-manifest 2\nnblocks 1\ngen x\n";
      malformed "MANIFEST gen x" "gen x" (fun () ->
          Checkpoint.committed_generations ~dir);
      write "RECOVERY" "vpic-recovery-manifest 1\ngen 1\ndead r\n";
      malformed "RECOVERY dead r" "dead r" (fun () ->
          Checkpoint.read_recovery_manifest ~dir);
      write "gen00000001/OWNERS" "0 r\n";
      malformed "OWNERS 0 r" "0 r" (fun () ->
          Checkpoint.read_gen_owners ~dir ~gen:1 ~nblocks:1))

(* Rank 1 commits one message to rank 0's port and dies.  Rank 0 starts
   waiting only once the death is recorded: the committed message must
   still be delivered, and the next wait must raise [Rank_failed] naming
   rank 1 and carrying its error, instead of parking forever. *)
let test_port_wait_after_sender_death () =
  let results =
    Comm.run_recoverable ~ranks:2 (fun c ->
        let slot = Comm.port_register c ~capacities:[| 1 |] in
        let inbox = Comm.port c ~rank:0 ~index:slot in
        if Comm.rank c = 1 then begin
          let buf = Comm.port_reserve inbox ~len:1 in
          buf.{0} <- 7.;
          Comm.port_commit inbox ~len:1;
          failwith "boom"
        end;
        while Comm.alive c ~rank:1 do
          Unix.sleepf 1e-4
        done;
        let v = ref nan in
        Comm.port_wait inbox ~f:(fun buf len -> if len = 1 then v := buf.{0});
        let second =
          match Comm.port_wait inbox ~f:(fun _ _ -> ()) with
          | () -> None
          | exception Comm.Rank_failed { rank; error } -> Some (rank, error)
        in
        (!v, second))
  in
  check_true "the sender died of its own error"
    (match results.(1) with Error (Failure _) -> true | _ -> false);
  match results.(0) with
  | Ok (v, second) ->
      check_close ~atol:0. ~rtol:0. "committed message delivered" 7. v;
      check_true "the empty port names the dead sender"
        (match second with
        | Some (1, error) ->
            let n = String.length error in
            let rec has i =
              i + 4 <= n && (String.sub error i 4 = "boom" || has (i + 1))
            in
            has 0
        | _ -> false)
  | Error e -> Alcotest.failf "rank 0 failed: %s" (Printexc.to_string e)

(* ------------------------------------------------------------ sentinel ---- *)

let lax_tols =
  { Sentinel.energy_drift = 1e9; gauss = 1e9; max_gamma = 1e9 }

let first_fields mb =
  (snd (List.hd (Multiblock.owned_sims mb))).Simulation.fields

let test_sentinel_healthy_pass () =
  let mb = build_world () in
  Multiblock.run mb ~steps:3 ();
  let s = Sentinel.make ~interval:1 ~tols:lax_tols ~log:ignore () in
  Sentinel.check s mb;
  Alcotest.(check int) "no violations on a healthy run" 0
    (Sentinel.violations s)

let test_sentinel_detects_nan () =
  let mb = build_world () in
  Multiblock.run mb ~steps:2 ();
  Sf.set (first_fields mb).Em_field.ex 2 2 2 Float.nan;
  let s =
    Sentinel.make ~interval:1 ~tols:lax_tols ~policy:Sentinel.Force_clean
      ~log:ignore ()
  in
  check_true "non-finite field escalates"
    (try
       Sentinel.check s mb;
       false
     with Sentinel.Health_violation { kind = Sentinel.Non_finite_field "ex"; _ }
     -> true)

let test_sentinel_poison_injection_end_to_end () =
  (* Poison_field injection fires during step 2; the attached sentinel
     (interval 1, abort policy) must catch it at the end of that step
     and must NOT commit a poisoned generation. *)
  let dir = temp_dir "vpic_poison" in
  Fault.enable ~seed:5;
  Fault.arm (Fault.Poison_field { rank = 0; step = 2 });
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let mb = build_world () in
      let s =
        Sentinel.make ~interval:1 ~tols:lax_tols
          ~policy:(Sentinel.Checkpoint_abort { dir; keep = 2 })
          ~log:ignore ()
      in
      Sentinel.attach s mb;
      check_true "sentinel aborts the run"
        (try
           Multiblock.run mb ~steps:5 ();
           false
         with Sentinel.Health_violation { step = 2; kind = Sentinel.Non_finite_field _; _ }
         -> true);
      Alcotest.(check (list int)) "poisoned state not checkpointed" []
        (Checkpoint.committed_generations ~dir))

let test_sentinel_energy_drift_warns () =
  let mb = build_world () in
  Multiblock.run mb ~steps:2 ();
  let tols = { lax_tols with Sentinel.energy_drift = 0.5 } in
  let logged = ref [] in
  let s =
    Sentinel.make ~interval:1 ~tols ~log:(fun m -> logged := m :: !logged) ()
  in
  Sentinel.check s mb (* establishes the baseline *);
  Alcotest.(check int) "baseline check clean" 0 (Sentinel.violations s);
  (* Inflate the field energy far past 50% drift. *)
  let f = first_fields mb in
  Grid.iter_interior f.Em_field.grid (fun i j k ->
      Sf.set f.Em_field.ex i j k 10.);
  Sentinel.check s mb;
  check_true "drift warned" (Sentinel.violations s >= 1);
  check_true "log mentions drift"
    (List.exists
       (fun m ->
         List.exists
           (fun part -> part = "drift")
           (String.split_on_char ' ' m))
       !logged)

(* A NaN planted on rank 1 of a 4-block, 2-rank world aborts the whole
   world: both ranks raise at the poisoned step, and the abort policy
   commits nothing.  Within that step the NaN also crosses the rank face,
   so a second world plants it on rank 1 after a clean step, where no
   fill carries it over: rank 0 must then raise on the reduced verdict
   alone, naming a remote rank.  Each rank records its verdict and
   re-raises, so a rank that missed it meets a dead peer instead of
   waiting on it. *)
let test_sentinel_two_rank_world_aborts_both () =
  let dir = temp_dir "vpic_poison2" in
  Fault.enable ~seed:6;
  Fault.arm (Fault.Poison_field { rank = 1; step = 2 });
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let verdicts =
        Comm.run ~ranks:2 (fun c ->
            let mb = block_world ~comm:c ~blocks:4 ~ny:8 () in
            Sentinel.attach
              (Sentinel.make ~interval:1 ~tols:lax_tols
                 ~policy:(Sentinel.Checkpoint_abort { dir; keep = 2 })
                 ~log:ignore ())
              mb;
            match Multiblock.run mb ~steps:5 () with
            | () -> None
            | exception Sentinel.Health_violation d -> Some d)
      in
      Array.iteri
        (fun rank v ->
          check_true
            (Printf.sprintf "rank %d raises Health_violation at step 2" rank)
            (match v with
            | Some { Sentinel.step = 2; kind = Sentinel.Non_finite_field _; _ }
              ->
                true
            | _ -> false))
        verdicts;
      Alcotest.(check (list int)) "poisoned state not checkpointed" []
        (Checkpoint.committed_generations ~dir);
      Fault.disable ();
      let planted = Array.make 2 None in
      (match
         Comm.run ~ranks:2 (fun c ->
             let rank = Comm.rank c in
             let mb = block_world ~comm:c ~blocks:4 ~ny:8 () in
             Multiblock.run mb ~steps:2 ();
             if rank = 1 then Sf.set (first_fields mb).Em_field.ex 2 1 1 Float.nan;
             let s =
               Sentinel.make ~interval:1 ~tols:lax_tols
                 ~policy:Sentinel.Force_clean ~log:ignore ()
             in
             try Sentinel.check s mb
             with Sentinel.Health_violation d ->
               planted.(rank) <- Some d.Sentinel.kind;
               raise (Sentinel.Health_violation d))
       with
       | _ -> Alcotest.fail "the planted NaN went unnoticed"
       | exception Sentinel.Health_violation _ -> ());
      Alcotest.(check (array (option string))) "planted verdicts"
        [| Some "(remote rank)"; Some "ex" |]
        (Array.map
           (Option.map (function
             | Sentinel.Non_finite_field name -> name
             | k -> Sentinel.kind_to_string k))
           planted))

(* -------------------------------------------------------- input guards ---- *)

let test_loader_rejects_non_finite () =
  let g = small_grid ~n:4 ~l:2. () in
  let s = Species.create ~name:"e" ~q:(-1.) ~m:1. g in
  check_true "nan uth rejected, parameter named"
    (try
       ignore (Loader.maxwellian (Rng.of_int 1) s ~ppc:2 ~uth:Float.nan ());
       false
     with Invalid_argument m -> String.length m > 0 && String.sub m 0 6 = "Loader")

let test_laser_rejects_non_finite () =
  check_true "nan e0 rejected"
    (try
       ignore (Laser.make ~omega:1. ~e0:Float.nan ~plane_i:2 ());
       false
     with Invalid_argument _ -> true);
  check_true "inf omega rejected"
    (try
       ignore (Laser.make ~omega:Float.infinity ~e0:0.1 ~plane_i:2 ());
       false
     with Invalid_argument _ -> true)

let suite =
  [ case "fault: crc32 known answers" test_crc32_known_answer;
    case "fault: verify detects corruption" test_verify_detects_corruption;
    case "fault: version mismatch is typed" test_version_mismatch_typed;
    case "fault: generation retention" test_generation_retention;
    slow_case "fault: corrupted newest generation falls back, resume bitwise"
      test_fallback_and_resume_equivalence;
    case "fault: crc32 matches the bitwise reference, streamed or not"
      test_crc32_matches_reference;
    slow_case "fault: decoder fuzz raises only typed errors"
      test_decoder_fuzz;
    case "fault: a v7 image is a typed version mismatch"
      test_v7_header_is_version_mismatch;
    slow_case "fault: refluxing RNG stream resumes bitwise"
      test_refluxing_rng_resumes_bitwise;
    slow_case "fault: injected rank kill propagates, peers do not hang"
      test_kill_rank_propagates;
    case "fault: injected checkpoint corruption detected"
      test_corrupt_checkpoint_injection;
    slow_case "fault: 2-rank kill, resume, energy equivalence"
      test_two_rank_kill_resume_energy;
    case "fault: a port waiter gets committed data, then Rank_failed"
      test_port_wait_after_sender_death;
    case "fault: sentinel passes healthy run" test_sentinel_healthy_pass;
    case "fault: sentinel detects NaN field" test_sentinel_detects_nan;
    slow_case "fault: poison injection aborts via sentinel"
      test_sentinel_poison_injection_end_to_end;
    case "fault: sentinel warns on energy drift" test_sentinel_energy_drift_warns;
    case "fault: loader rejects non-finite input" test_loader_rejects_non_finite;
    case "fault: laser rejects non-finite input" test_laser_rejects_non_finite;
    case "fault: a generation's file count is enforced on commit and restore"
      test_file_count_guard;
    case "fault: a classic generation save retries transient I/O"
      test_classic_save_retries;
    case "fault: text manifests raise Corrupt on a non-integer field"
      test_text_manifests_typed;
    slow_case "fault: 4 blocks on 2 ranks, killed after generation 20, \
               resume bitwise"
      test_four_blocks_two_ranks_resume_bitwise;
    slow_case "fault: sentinel on a 2-rank world aborts both ranks"
      test_sentinel_two_rank_world_aborts_both;
    case "fault: mover wire fuzz raises only typed errors" test_mover_wire_fuzz ]

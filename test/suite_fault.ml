(* Fault-tolerance suite: CRC integrity, durable generations with
   corruption fallback, bitwise resume (including the refluxing RNG
   stream), fault injection, comm deadlines, and the health sentinel. *)

open Helpers
module Simulation = Vpic.Simulation
module Coupler = Vpic.Coupler
module Checkpoint = Vpic.Checkpoint
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
     allocation.  A current filter without the interpolator would gather
     unsmoothed forces, a combination [Simulation.make] also refuses. *)
  let _, meta_lo, meta_hi = List.nth (image_regions image) 1 in
  let payload = meta_lo + 8 in
  (* meta byte offsets: nstep, nx ny nz, seven grid floats, then
     sort_interval, clean_div_interval, marder_passes,
     current_filter_passes, absorber_thickness, absorber_strength and
     the interp_accum byte *)
  let int_at off n img = Bytes.set_int64_le img (payload + off) (Int64.of_int n) in
  let extent axis n = int_at (8 + (8 * axis)) n in
  let filter_passes n = int_at 112 n in
  let no_interp_accum img = Bytes.set img (payload + 136) '\000' in
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
      ( "current filter without interp_accum is refused",
        [ filter_passes 1; no_interp_accum ] ) ];
  check_true "current filter with interp_accum decodes"
    (decodes [ filter_passes 1 ])

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
        (Sys.file_exists (Checkpoint.generation_path ~dir ~gen:5 ~rank:0)))

let test_fallback_and_resume_equivalence () =
  (* Reference run: 30 uninterrupted steps, checkpointing at 10 and 20.
     A resume from generation 20 must continue bitwise; after corrupting
     generation 20, load_latest_valid must fall back to 10 and the
     replayed run must still match bitwise. *)
  let dir = temp_dir "vpic_resume" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sim = build_sim () in
      Simulation.run sim ~steps:10 ();
      Checkpoint.save_generation sim ~dir ~gen:10 ~keep:3;
      Simulation.run sim ~steps:10 ();
      Checkpoint.save_generation sim ~dir ~gen:20 ~keep:3;
      Simulation.run sim ~steps:10 ();
      let coupler = Coupler.local Bc.periodic in
      (match Checkpoint.load_latest_valid ~coupler ~dir with
      | Some (r, 20) ->
          Simulation.run r ~steps:10 ();
          check_close ~atol:0. ~rtol:0. "resume from newest is bitwise" 0.
            (Em_field.max_component_diff sim.Simulation.fields
               r.Simulation.fields)
      | _ -> Alcotest.fail "expected generation 20");
      flip_bytes (Checkpoint.generation_path ~dir ~gen:20 ~rank:0) ~pos:600;
      match Checkpoint.load_latest_valid ~coupler ~dir with
      | Some (r, 10) ->
          Simulation.run r ~steps:20 ();
          check_close ~atol:0. ~rtol:0. "fallback resume is bitwise" 0.
            (Em_field.max_component_diff sim.Simulation.fields
               r.Simulation.fields);
          Alcotest.(check int) "step counter" 30 r.Simulation.nstep;
          Alcotest.(check int) "particles"
            (Simulation.total_particles sim)
            (Simulation.total_particles r)
      | _ -> Alcotest.fail "expected fallback to generation 10")

let test_refluxing_rng_resumes_bitwise () =
  (* Refluxing walls draw from the push RNG on re-emission; a resumed
     run only matches bitwise if the stream state round-trips (the old
     format restarted it from the seed). *)
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
      let sim = build_sim () in
      Simulation.run sim ~steps:1 ();
      Checkpoint.save_generation sim ~dir ~gen:1 ~keep:3;
      Simulation.run sim ~steps:1 ();
      Checkpoint.save_generation sim ~dir ~gen:2 ~keep:3;
      check_true "injected corruption detected"
        (Checkpoint.verify (Checkpoint.generation_path ~dir ~gen:2 ~rank:0)
        <> Ok ());
      match Checkpoint.load_latest_valid ~coupler:(Coupler.local Bc.periodic) ~dir with
      | Some (_, 1) -> ()
      | _ -> Alcotest.fail "expected fallback to generation 1")

let test_two_rank_kill_resume_energy () =
  (* The full acceptance chain on 2 ranks: periodic generations, rank 1
     killed mid-step between commits, resume from the latest valid
     generation, final energies within f32 round-off of an uninterrupted
     run (bitwise, in fact: the restart replays the same f32 ops). *)
  let d =
    Decomp.make ~px:2 ~py:1 ~pz:1 ~gnx:8 ~gny:4 ~gnz:4 ~lx:4. ~ly:2. ~lz:2.
  in
  let dt = Grid.courant_dt ~dx:0.5 ~dy:0.5 ~dz:0.5 () in
  let dir = temp_dir "vpic_2rank" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm_rf dir)
    (fun () ->
      let reference =
        (Comm.run ~ranks:2 (fun c ->
             let sim = build_rank_sim c d ~dt in
             Simulation.run sim ~steps:24 ();
             (Simulation.energies sim).Simulation.total)).(0)
      in
      Fault.enable ~seed:3;
      Fault.arm (Fault.Kill_rank { rank = 1; step = 20 });
      (try
         ignore
           (Comm.run ~ranks:2 (fun c ->
                let sim = build_rank_sim c d ~dt in
                for step = 1 to 24 do
                  Simulation.step sim;
                  if step mod 8 = 0 then
                    Checkpoint.save_generation sim ~dir ~gen:step ~keep:2
                done));
         Alcotest.fail "kill did not fire"
       with Fault.Injected_kill { rank = 1; step = 20 } -> ());
      Fault.disable ();
      Alcotest.(check (list int)) "generations committed before the kill"
        [ 8; 16 ]
        (Checkpoint.committed_generations ~dir);
      let resumed =
        (Comm.run ~ranks:2 (fun c ->
             let rank = Comm.rank c in
             let grid = Decomp.local_grid d ~dt ~rank in
             let bc = Decomp.local_bc d ~global:Bc.periodic ~rank in
             let coupler = Coupler.parallel c bc ~grid in
             (* the generation is checked on the calling domain:
                Alcotest is not domain-safe *)
             match Checkpoint.load_latest_valid ~coupler ~dir with
             | Some (sim, gen) ->
                 Simulation.run sim ~steps:8 ();
                 Some (gen, (Simulation.energies sim).Simulation.total)
             | None -> None)).(0)
      in
      match resumed with
      | Some (16, resumed) ->
          check_close ~rtol:1e-6 "kill/resume energy equivalence" reference
            resumed
      | _ -> Alcotest.fail "expected to resume from generation 16")

let test_recv_deadline () =
  let results =
    Comm.run ~ranks:2 (fun c ->
        if Comm.rank c = 0 then (
          try
            ignore (Comm.recv ~deadline:0.1 c ~src:1 ~tag:5);
            false
          with Comm.Comm_timeout { waited; _ } -> waited >= 0.1)
        else true)
  in
  Array.iter (check_true "recv deadline fires") results

(* ------------------------------------------------------------ sentinel ---- *)

let lax_tols =
  { Sentinel.energy_drift = 1e9; gauss = 1e9; max_gamma = 1e9 }

let test_sentinel_healthy_pass () =
  let sim = build_sim () in
  Simulation.run sim ~steps:3 ();
  let s = Sentinel.make ~interval:1 ~tols:lax_tols ~log:ignore () in
  Sentinel.check s sim;
  Alcotest.(check int) "no violations on a healthy run" 0
    (Sentinel.violations s)

let test_sentinel_detects_nan () =
  let sim = build_sim () in
  Simulation.run sim ~steps:2 ();
  Sf.set sim.Simulation.fields.Em_field.ex 2 2 2 Float.nan;
  let s =
    Sentinel.make ~interval:1 ~tols:lax_tols ~policy:Sentinel.Force_clean
      ~log:ignore ()
  in
  check_true "non-finite field escalates"
    (try
       Sentinel.check s sim;
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
      let sim = build_sim () in
      let s =
        Sentinel.make ~interval:1 ~tols:lax_tols
          ~policy:(Sentinel.Checkpoint_abort { dir; keep = 2 })
          ~log:ignore ()
      in
      Sentinel.attach s sim;
      check_true "sentinel aborts the run"
        (try
           Simulation.run sim ~steps:5 ();
           false
         with Sentinel.Health_violation { step = 2; kind = Sentinel.Non_finite_field _; _ }
         -> true);
      Alcotest.(check (list int)) "poisoned state not checkpointed" []
        (Checkpoint.committed_generations ~dir))

let test_sentinel_energy_drift_warns () =
  let sim = build_sim () in
  Simulation.run sim ~steps:2 ();
  let tols = { lax_tols with Sentinel.energy_drift = 0.5 } in
  let logged = ref [] in
  let s =
    Sentinel.make ~interval:1 ~tols ~log:(fun m -> logged := m :: !logged) ()
  in
  Sentinel.check s sim (* establishes the baseline *);
  Alcotest.(check int) "baseline check clean" 0 (Sentinel.violations s);
  (* Inflate the field energy far past 50% drift. *)
  let g = sim.Simulation.grid in
  Grid.iter_interior g (fun i j k ->
      Sf.set sim.Simulation.fields.Em_field.ex i j k 10.);
  Sentinel.check s sim;
  check_true "drift warned" (Sentinel.violations s >= 1);
  check_true "log mentions drift"
    (List.exists
       (fun m ->
         List.exists
           (fun part -> part = "drift")
           (String.split_on_char ' ' m))
       !logged)

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
    case "fault: recv deadline raises Comm_timeout" test_recv_deadline;
    case "fault: sentinel passes healthy run" test_sentinel_healthy_pass;
    case "fault: sentinel detects NaN field" test_sentinel_detects_nan;
    slow_case "fault: poison injection aborts via sentinel"
      test_sentinel_poison_injection_end_to_end;
    case "fault: sentinel warns on energy drift" test_sentinel_energy_drift_warns;
    case "fault: loader rejects non-finite input" test_loader_rejects_non_finite;
    case "fault: laser rejects non-finite input" test_laser_rejects_non_finite ]

(* Campaign-service suite: the deck content-hash contract (pinned so
   field reordering or float-formatting drift fails CI instead of
   silently invalidating every cached result), grid expansion, the
   on-disk queue state machine (lease fencing, expiry reclaim, retry
   budget), the results store, and kill-a-worker preempt/resume parity
   against an uninterrupted campaign. *)

open Helpers
module Deck = Vpic_lpi.Deck
module Crc32 = Vpic_util.Crc32
module Fault = Vpic_util.Fault
module Team = Vpic_parallel.Team
module Job = Vpic_campaign.Job
module Spec = Vpic_campaign.Spec
module Queue = Vpic_campaign.Queue
module Store = Vpic_campaign.Store
module Service = Vpic_campaign.Service

let temp_root prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let with_root prefix f =
  let root = temp_root prefix in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

(* A deck small enough that a job is milliseconds: the geometry
   constraint is nx*dx > 2*vacuum + 2. *)
let tiny =
  { Deck.default with
    Deck.nx = 40;
    dx = 0.2;
    vacuum = 2.5;
    ppc = 4;
    rng_seed = 7 }

let quick_params =
  { Service.default_params with
    Service.workers = 2;
    lease_s = 5.;
    checkpoint_every = 0;
    sentinel_every = 0;
    poll_s = 0.01 }

(* ---------------------------------------------------- hash contract ---- *)

let test_canonical_hash_pinned () =
  (* Pinned against the current canonical serialization of
     [Deck.default].  If this fails, the deck hash contract changed:
     every campaign results cache in existence is invalidated.  Do not
     update the constants without meaning exactly that. *)
  let s = Deck.to_canonical_string Deck.default in
  Alcotest.(check int32) "crc32 of canonical default" 0x719c5711l
    (Crc32.string s);
  Alcotest.(check string) "job hash of default @ 100 steps"
    "4cdfa069d6c143732852d589"
    (Job.hash ~config:Deck.default ~steps:100)

let test_canonical_sensitivity () =
  let base = Deck.to_canonical_string Deck.default in
  check_true "a0 change changes canonical string"
    (base
    <> Deck.to_canonical_string { Deck.default with Deck.a0 = 0.0601 });
  check_true "steps change changes job hash"
    (Job.hash ~config:Deck.default ~steps:100
    <> Job.hash ~config:Deck.default ~steps:101);
  (* Negative zero folds into zero: the two configs run identically. *)
  Alcotest.(check string) "-0. and 0. hash equal"
    (Deck.to_canonical_string { Deck.default with Deck.y_skew = 0. })
    (Deck.to_canonical_string { Deck.default with Deck.y_skew = -0. })

let test_job_json_roundtrip () =
  let job = Job.make ~config:tiny ~steps:48 in
  (match Job.of_file_string (Job.to_file_string job) with
  | Ok j -> check_true "roundtrip equal" (j = job)
  | Error e -> Alcotest.fail e);
  (* A tampered file whose id no longer matches its contents is
     rejected, not trusted. *)
  let tampered =
    Job.to_file_string { job with Job.steps = job.Job.steps + 1 }
  in
  match Job.of_file_string tampered with
  | Ok _ -> Alcotest.fail "tampered job accepted"
  | Error e ->
      check_true "error names the hash mismatch"
        (String.length e > 0
        && String.exists (fun _ -> true) e
        &&
        match String.index_opt e ':' with
        | Some _ -> true
        | None -> String.length e > 0)

(* ----------------------------------------------------- grid expansion ---- *)

let test_grid_expansion () =
  let spec =
    Spec.make ~base:tiny ~a0s:[ 0.02; 0.05 ] ~seeds:[ 1; 2; 3 ]
      ~steps:[ 30 ] ()
  in
  Alcotest.(check int) "cardinality" 6 (Spec.cardinality spec);
  let jobs = Spec.expand spec in
  Alcotest.(check int) "expanded" 6 (List.length jobs);
  let ids = List.map (fun (j : Job.t) -> j.Job.id) jobs in
  Alcotest.(check int) "ids distinct" 6
    (List.length (List.sort_uniq compare ids))

let test_grid_dedup () =
  (* A repeated axis value collapses to one job: identity is the
     content hash, not the grid position. *)
  let spec =
    Spec.make ~base:tiny ~a0s:[ 0.02; 0.02; 0.05 ] ~steps:[ 30 ] ()
  in
  Alcotest.(check int) "duplicates collapse" 2
    (List.length (Spec.expand spec))

(* ------------------------------------------------------ queue machine ---- *)

let test_queue_transitions () =
  with_root "vpic_campq" @@ fun root ->
  let q = Queue.create ~root in
  let job = Job.make ~config:tiny ~steps:30 in
  (match Queue.submit q job with
  | `Submitted -> ()
  | `Already _ -> Alcotest.fail "fresh submit reported Already");
  (match Queue.submit q job with
  | `Already Queue.Pending -> ()
  | _ -> Alcotest.fail "duplicate submit not detected");
  let leased =
    match Queue.lease q ~worker:3 ~now:100. ~duration:10. with
    | Some j -> j
    | None -> Alcotest.fail "lease found nothing"
  in
  Alcotest.(check int) "attempts stamped" 1 leased.Job.attempts;
  Alcotest.(check int) "worker stamped" 3 leased.Job.worker;
  check_true "deadline stamped" (leased.Job.deadline = 110.);
  check_true "no second lease while held"
    (Queue.lease q ~worker:4 ~now:101. ~duration:10. = None);
  check_true "renew extends" (Queue.renew q leased ~now:105. ~duration:10.);
  check_true "complete moves to done" (Queue.complete q leased);
  (match Queue.submit q job with
  | `Already Queue.Done -> ()
  | _ -> Alcotest.fail "done submit not detected");
  check_true "reopen done job" (Queue.reopen q ~id:job.Job.id);
  let p, l, d, f = Queue.counts q in
  Alcotest.(check (list int)) "reopened counts" [ 1; 0; 0; 0 ] [ p; l; d; f ]

let test_lease_expiry_reclaim_and_fencing () =
  with_root "vpic_campq" @@ fun root ->
  let q = Queue.create ~root in
  let job = Job.make ~config:tiny ~steps:30 in
  ignore (Queue.submit q job);
  let first =
    Option.get (Queue.lease q ~worker:0 ~now:100. ~duration:10.)
  in
  (* Holder goes silent; deadline passes; the job is reclaimed... *)
  Alcotest.(check (pair int int)) "reclaimed" (1, 0)
    (Queue.reclaim_expired q ~now:111. ~retry_budget:3);
  (* ...and re-leased to someone else with a bumped generation. *)
  let second =
    Option.get (Queue.lease q ~worker:1 ~now:112. ~duration:10.)
  in
  Alcotest.(check int) "attempts counts both leases" 2 second.Job.attempts;
  check_true "generation bumped" (second.Job.lease_gen > first.Job.lease_gen);
  (* The resurrected first holder is fenced out everywhere. *)
  check_true "stale renew refused"
    (not (Queue.renew q first ~now:113. ~duration:10.));
  check_true "stale complete refused" (not (Queue.complete q first));
  check_true "stale fail refused"
    (Queue.fail q first ~retry_budget:3 = `Stale);
  (* The live holder still works. *)
  check_true "live complete lands" (Queue.complete q second)

let test_retry_budget_exhaustion () =
  with_root "vpic_campq" @@ fun root ->
  let q = Queue.create ~root in
  let job = Job.make ~config:tiny ~steps:30 in
  ignore (Queue.submit q job);
  let l1 = Option.get (Queue.lease q ~worker:0 ~now:0. ~duration:5.) in
  check_true "first failure requeues"
    (Queue.fail q l1 ~retry_budget:2 = `Requeued);
  let l2 = Option.get (Queue.lease q ~worker:0 ~now:1. ~duration:5.) in
  Alcotest.(check int) "second attempt" 2 l2.Job.attempts;
  check_true "budget exhausted" (Queue.fail q l2 ~retry_budget:2 = `Failed);
  let p, l, d, f = Queue.counts q in
  Alcotest.(check (list int)) "failed counts" [ 0; 0; 0; 1 ] [ p; l; d; f ];
  check_true "nothing left to lease"
    (Queue.lease q ~worker:0 ~now:2. ~duration:5. = None);
  (* Reopening a failed job restores a fresh budget. *)
  check_true "reopen failed job" (Queue.reopen q ~id:job.Job.id);
  let l3 = Option.get (Queue.lease q ~worker:0 ~now:3. ~duration:5.) in
  Alcotest.(check int) "attempts reset" 1 l3.Job.attempts

let test_fsck_resolves_double_state () =
  with_root "vpic_campq" @@ fun root ->
  let q = Queue.create ~root in
  let job = Job.make ~config:tiny ~steps:30 in
  ignore (Queue.submit q job);
  let leased = Option.get (Queue.lease q ~worker:0 ~now:0. ~duration:5.) in
  (* Simulate a crash between "write destination" and "remove source":
     plant a stale pending copy next to the leased file. *)
  let pending_path =
    Filename.concat (Queue.state_dir q Queue.Pending) (job.Job.id ^ ".json")
  in
  let oc = open_out pending_path in
  output_string oc (Job.to_file_string job);
  close_out oc;
  let q2 = Queue.create ~root in
  let p, l, d, f = Queue.counts q2 in
  Alcotest.(check (list int)) "fsck keeps most-advanced state"
    [ 0; 1; 0; 0 ] [ p; l; d; f ];
  ignore leased

(* -------------------------------------------------------------- store ---- *)

let row_of_hash hash =
  { Store.hash;
    a0 = 0.02;
    nr = 0.1;
    seed = 7;
    steps = 30;
    r_measured = 3.2e-4;
    r_peak = 4.1e-4;
    hot_fraction = 0.11;
    flattening = 0.7;
    elapsed_s = 0.25;
    resumed_gen = 0;
    worker = 1 }

let test_store_roundtrip () =
  with_root "vpic_camps" @@ fun root ->
  Unix.mkdir root 0o755;
  let store = Store.open_ ~root in
  check_true "empty store misses" (not (Store.mem store ~hash:"abc"));
  Store.append store (row_of_hash "abc");
  Store.append store (row_of_hash "def");
  (* A second handle (a different worker, or the next process) sees the
     appended rows through the file alone. *)
  let other = Store.open_ ~root in
  check_true "other handle hits" (Store.mem other ~hash:"abc");
  Alcotest.(check int) "two distinct hashes" 2 (Store.cached other);
  (match Store.find other ~hash:"def" with
  | Some r -> check_true "roundtrip row" (r = row_of_hash "def")
  | None -> Alcotest.fail "appended row not found");
  (* Duplicate rows are possible by design (crash between append and
     queue completion); the first row wins on lookup. *)
  Store.append store { (row_of_hash "abc") with Store.worker = 9 };
  let third = Store.open_ ~root in
  Alcotest.(check int) "dedup on refresh" 2 (Store.cached third);
  (match Store.find third ~hash:"abc" with
  | Some r -> Alcotest.(check int) "first row wins" 1 r.Store.worker
  | None -> Alcotest.fail "row lost");
  Alcotest.(check int) "rows keeps file order" 3
    (List.length (Store.rows third))

(* ------------------------------------------------------- end to end ---- *)

let expand_two steps =
  Spec.make ~base:tiny ~a0s:[ 0.02; 0.08 ] ~steps:[ steps ] ()

let test_campaign_cache_on_resubmit () =
  with_root "vpic_campc" @@ fun root ->
  let q = Queue.create ~root in
  let store = Store.open_ ~root in
  let r = Service.submit q store (expand_two 20) in
  Alcotest.(check int) "two submitted" 2 r.Service.submitted;
  let s1 = Service.work ~params:quick_params q store in
  Alcotest.(check int) "both completed" 2 s1.Service.completed;
  Alcotest.(check int) "no cache hits cold" 0 s1.Service.cache_hits;
  Alcotest.(check int) "simulated 2x20 steps" 40 s1.Service.sim_steps;
  (* Identical resubmit: reopened, then served entirely from cache. *)
  let r2 = Service.submit q store (expand_two 20) in
  Alcotest.(check int) "reopened" 2 r2.Service.reopened;
  Alcotest.(check int) "precached" 2 r2.Service.precached;
  let s2 = Service.work ~params:quick_params q store in
  Alcotest.(check int) "all cache hits" 2 s2.Service.cache_hits;
  Alcotest.(check int) "zero simulation steps" 0 s2.Service.sim_steps

let test_kill_worker_resume_parity () =
  (* Control: an uninterrupted 1-worker campaign. *)
  let control =
    with_root "vpic_campk" @@ fun root ->
    let q = Queue.create ~root in
    let store = Store.open_ ~root in
    ignore (Service.submit q store (expand_two 24));
    ignore (Service.work ~params:{ quick_params with Service.workers = 1 }
              q store);
    List.map
      (fun (r : Store.row) -> (r.Store.a0, r.Store.r_measured))
      (Store.rows store)
    |> List.sort compare
  in
  Alcotest.(check int) "control completed" 2 (List.length control);
  (* Same campaign, but fault injection kills the worker mid-job; the
     rerun reclaims the expired lease and resumes from the newest
     checkpoint generation. *)
  with_root "vpic_campk" @@ fun root ->
  let q = Queue.create ~root in
  let store = Store.open_ ~root in
  ignore (Service.submit q store (expand_two 24));
  let params =
    { quick_params with
      Service.workers = 1;
      lease_s = 0.4;
      checkpoint_every = 5 }
  in
  Fault.enable ~seed:1;
  Fault.arm (Fault.Kill_rank { rank = 0; step = 15 });
  (match Service.work ~params q store with
  | _ -> Alcotest.fail "injected kill did not propagate"
  | exception Team.Worker_failed { error = Fault.Injected_kill _; _ } -> ()
  | exception Fault.Injected_kill _ -> ());
  Fault.disable ();
  let _, leased, _, _ = Queue.counts q in
  check_true "killed worker leaves its lease dangling" (leased >= 1);
  Unix.sleepf 0.5;
  let s = Service.work ~params q store in
  Alcotest.(check int) "rerun completes both" 2
    (s.Service.completed + s.Service.cache_hits);
  check_true "rerun counts a retry" (s.Service.retried >= 1);
  let resumed =
    List.exists
      (fun (r : Store.row) -> r.Store.resumed_gen > 0)
      (Store.rows store)
  in
  check_true "killed job resumed from a checkpoint generation" resumed;
  let killed =
    List.map
      (fun (r : Store.row) -> (r.Store.a0, r.Store.r_measured))
      (Store.rows store)
    |> List.sort compare
  in
  List.iter2
    (fun (a0, rc) (a0', rk) ->
      check_true "same point" (a0 = a0');
      check_true
        (Printf.sprintf "a0=%g: resumed %.17g vs uninterrupted %.17g" a0 rk
           rc)
        (Float.abs (rk -. rc) <= 1e-8))
    control killed

(* The probe sidecar is magic, CRC and [Reflectivity.encode]'s image.
   A written one reads back bitwise; every single-bit flip and every
   truncation of it reads as [None], and so do images behind a valid CRC
   that [encode] could not have written. *)
let test_refl_sidecar_corruption () =
  with_root "vpic_refl" @@ fun root ->
  Unix.mkdir root 0o755;
  let module Reflectivity = Vpic_lpi.Reflectivity in
  let refl = Reflectivity.create ~window:16 ~plane_i:4 ~e0:0.4 () in
  let f = Em_field.create (small_grid ~n:8 ~l:8. ()) in
  for step = 0 to 40 do
    Sf.fill f.Em_field.ey (0.4 *. cos (0.3 *. float_of_int step));
    Sf.fill f.Em_field.bz (-0.1 *. sin (0.7 *. float_of_int step));
    Reflectivity.sample refl f
  done;
  let path = Filename.concat root "refl.bin" in
  Service.write_refl_sidecar ~path refl;
  let image = In_channel.with_open_bin path In_channel.input_all in
  (match Service.read_refl_sidecar ~path with
  | Some r ->
      check_true "read back bitwise"
        (Reflectivity.encode r = Reflectivity.encode refl);
      check_close ~atol:0. ~rtol:0. "same reflectivity"
        (Reflectivity.reflectivity refl) (Reflectivity.reflectivity r);
      check_close ~atol:0. ~rtol:0. "same peak"
        (Reflectivity.peak_reflectivity refl)
        (Reflectivity.peak_reflectivity r)
  | None -> Alcotest.fail "pristine sidecar did not read");
  let reads_none label contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents);
    match Service.read_refl_sidecar ~path with
    | None -> ()
    | Some _ -> Alcotest.failf "%s read as a probe" label
  in
  let n = String.length image in
  for bit = 0 to (8 * n) - 1 do
    let b = Bytes.of_string image in
    let at = bit / 8 in
    Bytes.set b at
      (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (bit mod 8))));
    reads_none (Printf.sprintf "bit %d flipped" bit) (Bytes.to_string b)
  done;
  for len = 0 to n - 1 do
    reads_none (Printf.sprintf "truncated to %d" len) (String.sub image 0 len)
  done;
  reads_none "a trailing byte" (image ^ "\000");
  Sys.remove path;
  check_true "a missing sidecar reads as None"
    (Service.read_refl_sidecar ~path = None);
  (* payloads [encode] cannot write, in its words 0-4: plane_i, window,
     count, the sample count n (16 here) and e0 *)
  let payload = Reflectivity.encode refl in
  let patched word v =
    let b = Bytes.of_string payload in
    Bytes.set_int64_le b (8 * word) v;
    Reflectivity.decode (Bytes.to_string b)
  in
  List.iter
    (fun (label, decoded) -> check_true label (decoded = None))
    [ ("plane 0", patched 0 0L);
      ("window 0", patched 1 0L);
      ("window below n", patched 1 15L);
      ("count below n", patched 2 2L);
      ("n off the length", patched 3 17L);
      ("negative n", patched 3 (-1L));
      ("n wrapping onto the length", patched 3 (Int64.add 16L 0x0800_0000_0000_0000L));
      ("negative e0", patched 4 (Int64.bits_of_float (-0.4)));
      ("NaN e0", patched 4 (Int64.bits_of_float Float.nan));
      ("short payload", Reflectivity.decode (String.sub payload 0 56)) ]

let suite =
  [ case "campaign: canonical deck hash is pinned" test_canonical_hash_pinned;
    case "campaign: canonical string tracks the config"
      test_canonical_sensitivity;
    case "campaign: job JSON roundtrip + hash verification"
      test_job_json_roundtrip;
    case "campaign: grid expansion count" test_grid_expansion;
    case "campaign: grid dedup by content hash" test_grid_dedup;
    case "campaign: queue transitions" test_queue_transitions;
    case "campaign: lease expiry reclaim + fencing"
      test_lease_expiry_reclaim_and_fencing;
    case "campaign: retry budget exhaustion" test_retry_budget_exhaustion;
    case "campaign: fsck resolves a mid-transition crash"
      test_fsck_resolves_double_state;
    case "campaign: store roundtrip, dedup, second handle"
      test_store_roundtrip;
    slow_case "campaign: resubmit is 100% cache hits, zero steps"
      test_campaign_cache_on_resubmit;
    slow_case "campaign: killed worker reclaimed, resume parity <= 1e-8"
      test_kill_worker_resume_parity;
    case "campaign: a corrupt refl.bin sidecar reads as None"
      test_refl_sidecar_corruption ]

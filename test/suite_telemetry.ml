open Helpers
module Comm = Vpic_parallel.Comm
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics

(* --- A tiny recursive-descent JSON validator --------------------------------
   yojson is not a dependency of this repo, and the telemetry exporters
   hand-print their JSON; a hand-rolled parser keeps them honest.  It
   accepts exactly the RFC 8259 grammar (minus \u surrogate pairing) and
   returns a value tree we can traverse in assertions. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
            advance ();
            match peek () with
            | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
            | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
            | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
            | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
            | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
            | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
            | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
            | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
            | Some 'u' ->
                advance ();
                let code = ref 0 in
                for _ = 1 to 4 do
                  (match peek () with
                  | Some ('0' .. '9' as c) ->
                      code := (!code * 16) + (Char.code c - Char.code '0')
                  | Some ('a' .. 'f' as c) ->
                      code := (!code * 16) + (Char.code c - Char.code 'a' + 10)
                  | Some ('A' .. 'F' as c) ->
                      code := (!code * 16) + (Char.code c - Char.code 'A' + 10)
                  | _ -> fail "bad \\u escape");
                  advance ()
                done;
                if !code < 0x80 then Buffer.add_char buf (Char.chr !code)
                else Buffer.add_char buf '?';
                go ()
            | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "control char in string"
        | Some c ->
            advance ();
            Buffer.add_char buf c;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let digits () =
        let saw = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
              saw := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !saw then fail "expected digit"
      in
      (match peek () with Some '-' -> advance () | _ -> ());
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      (match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ());
      float_of_string (String.sub s start (!pos - start))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            Arr (List.rev !items)
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (parse_number ())
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let parse_ok label s =
  match Json.parse s with
  | v -> v
  | exception Json.Bad msg -> Alcotest.failf "%s: invalid JSON (%s)" label msg

(* A little CPU work so spans have measurable, strictly positive width. *)
let burn () =
  let acc = ref 0. in
  for i = 1 to 20_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  ignore (Sys.opaque_identity !acc)

(* --- Trace ----------------------------------------------------------------- *)

let test_disabled_records_nothing () =
  Trace.reset ();
  let sid = Trace.intern "push" in
  for _ = 1 to 100 do
    Trace.with_span sid burn
  done;
  check_true "disarmed" (not (Trace.enabled ()));
  Alcotest.(check int) "no entries recorded" 0 (Trace.total_entries ());
  check_close "no phase time" 0. (Trace.phase_seconds sid);
  Alcotest.(check int) "no phase count" 0 (Trace.phase_count sid)

let test_span_nesting () =
  Trace.reset ();
  Trace.enable ~rank:0 ();
  let sid_step = Trace.intern "step" and sid_push = Trace.intern "push" in
  Trace.with_span sid_step (fun () ->
      burn ();
      Trace.with_span sid_push burn;
      Trace.with_span sid_push burn;
      burn ());
  Trace.disable ();
  let entries = Trace.entries () in
  Alcotest.(check int) "three spans" 3 (List.length entries);
  Alcotest.(check int) "no drops" 0 (Trace.dropped_entries ());
  let step = List.find (fun e -> e.Trace.name = "step") entries in
  let pushes = List.filter (fun e -> e.Trace.name = "push") entries in
  Alcotest.(check int) "two pushes" 2 (List.length pushes);
  Alcotest.(check int) "step at top level" 0 step.Trace.depth;
  check_true "step interval monotonic" (step.Trace.t1 > step.Trace.t0);
  List.iter
    (fun p ->
      Alcotest.(check int) "push nested one deep" 1 p.Trace.depth;
      check_true "push interval monotonic" (p.Trace.t1 >= p.Trace.t0);
      check_true "push inside step"
        (p.Trace.t0 >= step.Trace.t0 && p.Trace.t1 <= step.Trace.t1))
    pushes;
  (* ring order is oldest-first: children complete before the parent *)
  (match entries with
  | [ a; b; c ] ->
      check_true "completion order" (a.Trace.name = "push" && b.Trace.name = "push" && c.Trace.name = "step")
  | _ -> Alcotest.fail "expected exactly three entries");
  (* cumulative totals match the ring *)
  Alcotest.(check int) "push count" 2 (Trace.phase_count sid_push);
  let sum = List.fold_left (fun a p -> a +. (p.Trace.t1 -. p.Trace.t0)) 0. pushes in
  check_close ~rtol:1e-9 "push seconds" sum (Trace.phase_seconds sid_push);
  check_true "nested pushes excluded from step total"
    (Trace.phase_seconds sid_step >= Trace.phase_seconds sid_push);
  Trace.reset ()

let test_ring_wraparound () =
  Trace.reset ();
  Trace.enable ~capacity:16 ~rank:0 ();
  let sid = Trace.intern "sort" in
  for _ = 1 to 100 do
    Trace.with_span sid (fun () -> ())
  done;
  Trace.disable ();
  Alcotest.(check int) "all spans counted" 100 (Trace.total_entries ());
  Alcotest.(check int) "overflow dropped" 84 (Trace.dropped_entries ());
  Alcotest.(check int) "ring retains capacity" 16 (List.length (Trace.entries ()));
  Alcotest.(check int) "cumulative count survives wrap" 100 (Trace.phase_count sid);
  Trace.reset ()

let test_chrome_trace_two_ranks () =
  Trace.reset ();
  let names =
    [ "step"; "push"; "field"; "exchange.fill"; "migrate"; "sort" ]
  in
  ignore
    (Comm.run ~ranks:2 (fun c ->
         Trace.enable ~rank:(Comm.rank c) ();
         List.iter (fun n -> Trace.with_span (Trace.intern n) burn) names;
         Comm.barrier c));
  Trace.disable ();
  (* export runs on the main domain, after the rank domains have died *)
  let file = Filename.temp_file "vpic_trace" ".json" in
  let oc = open_out file in
  Trace.export_chrome oc;
  close_out oc;
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  let json = parse_ok "chrome trace" contents in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents array missing"
  in
  Alcotest.(check int) "one event per span" (2 * List.length names) (List.length events);
  let seen_names = Hashtbl.create 16 and seen_tids = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      (match Json.member "ph" ev with
      | Some (Json.Str "X") -> ()
      | _ -> Alcotest.fail "event is not a complete (ph=X) event");
      (match Json.member "name" ev with
      | Some (Json.Str nm) -> Hashtbl.replace seen_names nm ()
      | _ -> Alcotest.fail "event missing name");
      (match Json.member "tid" ev with
      | Some (Json.Num tid) -> Hashtbl.replace seen_tids (int_of_float tid) ()
      | _ -> Alcotest.fail "event missing tid");
      match (Json.member "ts" ev, Json.member "dur" ev) with
      | Some (Json.Num ts), Some (Json.Num dur) ->
          check_true "timestamps sane" (ts >= 0. && dur >= 0.)
      | _ -> Alcotest.fail "event missing ts/dur")
    events;
  check_true "at least 6 distinct phase names" (Hashtbl.length seen_names >= 6);
  check_true "both rank tracks present"
    (Hashtbl.mem seen_tids 0 && Hashtbl.mem seen_tids 1);
  (* the JSONL flavour: every line is its own valid JSON object *)
  let file = Filename.temp_file "vpic_trace" ".jsonl" in
  let oc = open_out file in
  Trace.export_jsonl oc;
  close_out oc;
  let ic = open_in file in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.length line > 0 then begin
         ignore (parse_ok "jsonl line" line);
         incr lines
       end
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove file;
  Alcotest.(check int) "jsonl line per span" (2 * List.length names) !lines;
  Trace.reset ()

(* --- Metrics --------------------------------------------------------------- *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  (* uniform 1..1000: p50 = 500, p95 = 950, all moments exact *)
  for i = 1 to 1000 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match List.assoc "lat" (Metrics.snapshot_local m) with
  | Metrics.Histogram h ->
      check_close "count" 1000. h.Metrics.count;
      check_close "sum" 500500. h.Metrics.sum;
      check_close "min" 1. h.Metrics.min_v;
      check_close "max" 1000. h.Metrics.max_v;
      (* log buckets are 10^(1/16) wide; mid-bucket estimates land within
         half a bucket (~7.5%) of the true quantile *)
      check_close ~rtol:0.08 "p50" 500. h.Metrics.p50;
      check_close ~rtol:0.08 "p95" 950. h.Metrics.p95
  | _ -> Alcotest.fail "lat is not a histogram"

let test_histogram_tight_distribution () =
  (* every sample in one bucket: quantiles must clamp to [min, max],
     not smear to the bucket edges *)
  let m = Metrics.create () in
  for _ = 1 to 50 do
    Metrics.observe m "dt" 3.0e-3
  done;
  match List.assoc "dt" (Metrics.snapshot_local m) with
  | Metrics.Histogram h ->
      check_close "p50 clamped" 3.0e-3 h.Metrics.p50;
      check_close "p95 clamped" 3.0e-3 h.Metrics.p95
  | _ -> Alcotest.fail "dt is not a histogram"

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  Metrics.counter_add m "x" 1.;
  match Metrics.gauge_set m "x" 2. with
  | () -> Alcotest.fail "kind mismatch not rejected"
  | exception Invalid_argument _ -> ()

let test_reduce_two_ranks () =
  let results =
    Comm.run ~ranks:2 (fun c ->
        let r = Comm.rank c in
        let m = Metrics.create () in
        Metrics.counter_add m "steps" (float_of_int (r + 1));
        Metrics.gauge_set m "gamma" (10. *. float_of_int r);
        List.iter
          (Metrics.observe m "park")
          (if r = 0 then [ 1.; 2. ] else [ 3.; 4. ]);
        Metrics.reduce_comm c m)
  in
  Alcotest.(check int) "both ranks answered" 2 (Array.length results);
  Array.iter
    (fun snap ->
      (match List.assoc "steps" snap with
      | Metrics.Counter v -> check_close "counter reduces by sum" 3. v
      | _ -> Alcotest.fail "steps is not a counter");
      (match List.assoc "gamma" snap with
      | Metrics.Gauge v -> check_close "gauge reduces by max" 10. v
      | _ -> Alcotest.fail "gamma is not a gauge");
      match List.assoc "park" snap with
      | Metrics.Histogram h ->
          check_close "world count" 4. h.Metrics.count;
          check_close "world sum" 10. h.Metrics.sum;
          check_close "world min" 1. h.Metrics.min_v;
          check_close "world max" 4. h.Metrics.max_v
      | _ -> Alcotest.fail "park is not a histogram")
    results;
  (* the two ranks must agree on the reduced snapshot *)
  let j0 = Metrics.snapshot_to_json results.(0)
  and j1 = Metrics.snapshot_to_json results.(1) in
  Alcotest.(check string) "snapshot is collective" j0 j1;
  ignore (parse_ok "metrics json" j0)

let test_snapshot_json_non_finite () =
  let m = Metrics.create () in
  Metrics.gauge_set m "drift" Float.nan;
  Metrics.counter_add m "n" 2.;
  let j = Metrics.snapshot_to_json ~step:7 (Metrics.snapshot_local m) in
  let json = parse_ok "metrics json with nan" j in
  (match Json.member "step" json with
  | Some (Json.Num s) -> check_close "step field" 7. s
  | _ -> Alcotest.fail "step field missing");
  match Json.member "metrics" json with
  | Some metrics -> (
      match Json.member "drift" metrics with
      | Some drift -> (
          match Json.member "value" drift with
          | Some Json.Null -> ()
          | _ -> Alcotest.fail "nan must render as null")
      | None -> Alcotest.fail "drift missing")
  | None -> Alcotest.fail "metrics object missing"

(* --- Report and Scoreboard documents ------------------------------------ *)

(* Both run-stream documents go through the library writer: they parse
   back with [Vpic_util.Json.parse], strings (even a machine name that
   needs escaping) come back verbatim, and numbers round-trip. *)
let test_report_scoreboard_json_parse () =
  let module J = Vpic_util.Json in
  let module Report = Vpic_telemetry.Report in
  let module Scoreboard = Vpic_telemetry.Scoreboard in
  let parse label s =
    match J.parse s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "%s: invalid JSON (%s)" label msg
  in
  let field label path v =
    List.fold_left
      (fun v k ->
        match J.member k v with
        | Some v -> v
        | None -> Alcotest.failf "%s: missing %s" label k)
      v path
  in
  let row label measured modelled =
    { Report.label; measured; modelled; ratio = measured /. modelled }
  in
  let report =
    { Report.machine = "host \"a\"\\b";
      rows = [ row "push" 0.25 0.125; row "step" 0.5 nan ];
      rates = [ row "particle-steps/s" 3e6 1.5e12 ] }
  in
  let r = parse "report" (Report.to_json report) in
  Alcotest.(check (option string))
    "report type" (Some "report")
    (J.to_string_opt (field "report" [ "type" ] r));
  Alcotest.(check (option string))
    "machine quoted" (Some report.Report.machine)
    (J.to_string_opt (field "report" [ "machine" ] r));
  Alcotest.(check (option (float 0.)))
    "push ratio" (Some 2.)
    (J.to_float_opt (field "report" [ "phases"; "push"; "ratio" ] r));
  check_true "non-finite modelled is null"
    (field "report" [ "phases"; "step"; "modelled" ] r = J.Null);
  let sample =
    { Scoreboard.step = 40; window_steps = 10; wall_s = 0.125;
      particle_rate = 1.5e6; voxel_rate = 2e5; sustained_flops = 3e8;
      inner_flops = 4e8; comm_wait_frac = 0.0625; movers = 12.;
      mover_bytes = 624.; imbalance = 1.25; worker_imbalance = 1. }
  in
  let sc = parse "scoreboard" (Scoreboard.sample_to_json sample) in
  Alcotest.(check (option string))
    "scoreboard type" (Some "scoreboard")
    (J.to_string_opt (field "scoreboard" [ "type" ] sc));
  Alcotest.(check (option int))
    "step" (Some 40)
    (J.to_int_opt (field "scoreboard" [ "step" ] sc));
  Alcotest.(check (option (float 0.)))
    "particle rate" (Some 1.5e6)
    (J.to_float_opt (field "scoreboard" [ "particle_rate" ] sc))

let suite =
  [ case "trace: disabled run records zero entries" test_disabled_records_nothing;
    case "trace: span nesting and monotonic timestamps" test_span_nesting;
    case "trace: ring wrap-around keeps cumulative totals" test_ring_wraparound;
    case "trace: 2-rank chrome export is valid JSON with both tracks"
      test_chrome_trace_two_ranks;
    case "metrics: histogram quantiles vs uniform distribution"
      test_histogram_quantiles;
    case "metrics: tight distribution quantiles clamp to extremes"
      test_histogram_tight_distribution;
    case "metrics: name keeps the kind of first use" test_kind_mismatch_rejected;
    case "metrics: 2-rank reduce is sum/max of per-rank values"
      test_reduce_two_ranks;
    case "metrics: snapshot JSON renders non-finite as null"
      test_snapshot_json_non_finite;
    case "report: report and scoreboard JSON parse back"
      test_report_scoreboard_json_parse ]

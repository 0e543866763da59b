module Perf = Vpic_util.Perf
module Json = Vpic_util.Json

(* ------------------------------------------------------ name intern ---- *)

let names_mu = Mutex.create ()
let names_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let names_arr = ref (Array.make 64 "")
let n_names = ref 0

let intern name =
  Mutex.lock names_mu;
  let id =
    match Hashtbl.find_opt names_tbl name with
    | Some id -> id
    | None ->
        let id = !n_names in
        if id >= Array.length !names_arr then begin
          let bigger = Array.make (2 * Array.length !names_arr) "" in
          Array.blit !names_arr 0 bigger 0 id;
          names_arr := bigger
        end;
        !names_arr.(id) <- name;
        Hashtbl.add names_tbl name id;
        incr n_names;
        id
  in
  Mutex.unlock names_mu;
  id

let name_of id =
  Mutex.lock names_mu;
  let n =
    if id >= 0 && id < !n_names then !names_arr.(id)
    else Printf.sprintf "?span-%d" id
  in
  Mutex.unlock names_mu;
  n

(* ---------------------------------------------------------- buffers ---- *)

(* Concurrency/ownership rule (audited for the worker-team refactor):
   every mutable field below is domain-local — a buffer is created by
   [enable]/[enable_worker] ON the domain that will write it, reached
   only through [Domain.DLS], and never shared.  Worker domains of a
   rank's team therefore each arm their own buffer (distinct [worker]
   ids) rather than writing the rank's; the only cross-domain state is
   the interned-name table (mutex-guarded above), the [armed] atomic and
   the buffer [registry] (mutex-guarded; appended on enable, read only
   after the writing domains have quiesced — export runs after
   [Comm.run]/team shutdown joins them, and joining publishes their
   writes). *)

let max_depth = 64

type buffer = {
  rank : int;
  worker : int;  (* 0 = the rank's own domain; >0 = team worker lane *)
  cap : int;
  (* ring of completed spans, slot = total mod cap *)
  ring_name : int array;
  ring_depth : int array;
  ring_t0 : float array;
  ring_t1 : float array;
  mutable total : int;
  (* open-span stack; sp may exceed max_depth (overflow records nothing) *)
  stack_name : int array;
  stack_t0 : float array;
  mutable sp : int;
  (* cumulative per-name totals, indexed by interned id; grown on demand *)
  mutable acc_s : float array;
  mutable acc_n : int array;
}

(* Armed flag: the only thing the disabled hot path reads. *)
let armed = Atomic.make false
let enabled () = Atomic.get armed

let key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Registry of every buffer ever enabled, so exports after [Comm.run]
   see the (joined) worker domains' spans. *)
let reg_mu = Mutex.create ()
let registry : buffer list ref = ref []

let enable_worker ?(capacity = 65536) ~rank ~worker () =
  let cap = max 16 capacity in
  let b =
    { rank;
      worker;
      cap;
      ring_name = Array.make cap 0;
      ring_depth = Array.make cap 0;
      ring_t0 = Array.make cap 0.;
      ring_t1 = Array.make cap 0.;
      total = 0;
      stack_name = Array.make max_depth 0;
      stack_t0 = Array.make max_depth 0.;
      sp = 0;
      acc_s = Array.make 64 0.;
      acc_n = Array.make 64 0 }
  in
  Domain.DLS.set key (Some b);
  Mutex.lock reg_mu;
  registry := b :: !registry;
  Mutex.unlock reg_mu;
  Atomic.set armed true

let enable ?capacity ~rank () = enable_worker ?capacity ~rank ~worker:0 ()

let disable () = Atomic.set armed false

let reset () =
  disable ();
  Mutex.lock reg_mu;
  registry := [];
  Mutex.unlock reg_mu;
  Domain.DLS.set key None

(* ------------------------------------------------------------ spans ---- *)

let ensure_acc b id =
  let n = Array.length b.acc_s in
  if id >= n then begin
    let n' = ref n in
    while id >= !n' do
      n' := 2 * !n'
    done;
    let s = Array.make !n' 0. and c = Array.make !n' 0 in
    Array.blit b.acc_s 0 s 0 n;
    Array.blit b.acc_n 0 c 0 n;
    b.acc_s <- s;
    b.acc_n <- c
  end

let begin_span id =
  if Atomic.get armed then
    match Domain.DLS.get key with
    | None -> ()
    | Some b ->
        if b.sp < max_depth then begin
          b.stack_name.(b.sp) <- id;
          b.stack_t0.(b.sp) <- Perf.now ()
        end;
        b.sp <- b.sp + 1

let end_span () =
  if Atomic.get armed then
    match Domain.DLS.get key with
    | None -> ()
    | Some b ->
        if b.sp > 0 then begin
          b.sp <- b.sp - 1;
          if b.sp < max_depth then begin
            let id = b.stack_name.(b.sp) in
            let t0 = b.stack_t0.(b.sp) in
            let t1 = Perf.now () in
            let slot = b.total mod b.cap in
            b.ring_name.(slot) <- id;
            b.ring_depth.(slot) <- b.sp;
            b.ring_t0.(slot) <- t0;
            b.ring_t1.(slot) <- t1;
            b.total <- b.total + 1;
            ensure_acc b id;
            b.acc_s.(id) <- b.acc_s.(id) +. (t1 -. t0);
            b.acc_n.(id) <- b.acc_n.(id) + 1
          end
        end

let with_span id f =
  begin_span id;
  Fun.protect ~finally:end_span f

(* --------------------------------------------------------- accessors ---- *)

let phase_seconds id =
  match Domain.DLS.get key with
  | Some b when id >= 0 && id < Array.length b.acc_s -> b.acc_s.(id)
  | _ -> 0.

let phase_count id =
  match Domain.DLS.get key with
  | Some b when id >= 0 && id < Array.length b.acc_n -> b.acc_n.(id)
  | _ -> 0

let phase_totals () =
  match Domain.DLS.get key with
  | None -> []
  | Some b ->
      let out = ref [] in
      for id = Array.length b.acc_n - 1 downto 0 do
        if b.acc_n.(id) > 0 then
          out := (name_of id, b.acc_s.(id), b.acc_n.(id)) :: !out
      done;
      !out

type entry = {
  rank : int;
  worker : int;
  name : string;
  t0 : float;
  t1 : float;
  depth : int;
}

let buffers () =
  Mutex.lock reg_mu;
  let bs = List.rev !registry in
  Mutex.unlock reg_mu;
  bs

let buffer_entries b =
  let kept = min b.total b.cap in
  let first = b.total - kept in
  List.init kept (fun i ->
      let slot = (first + i) mod b.cap in
      { rank = b.rank;
        worker = b.worker;
        name = name_of b.ring_name.(slot);
        t0 = b.ring_t0.(slot);
        t1 = b.ring_t1.(slot);
        depth = b.ring_depth.(slot) })

let entries () = List.concat_map buffer_entries (buffers ())

let total_entries () =
  List.fold_left (fun acc b -> acc + b.total) 0 (buffers ())

let dropped_entries () =
  List.fold_left (fun acc b -> acc + max 0 (b.total - b.cap)) 0 (buffers ())

(* ----------------------------------------------------------- export ---- *)

(* One Chrome track per (rank, worker).  The rank's own domain keeps
   tid = rank — existing tooling that asserts tids = ranks still holds
   on workerless runs — and worker lanes land far away at
   rank + worker * 4096 so they can never collide with a real rank. *)
let tid e = if e.worker = 0 then e.rank else e.rank + (e.worker * 4096)

let earliest es =
  List.fold_left (fun acc e -> Float.min acc e.t0) Float.infinity es

let num_i i = Json.Num (float_of_int i)
let put_json oc v = output_string oc (Json.to_string v)

(* Streamed one event at a time, so exporting a full ring never holds
   more than one event's tree. *)
let export_chrome oc =
  let es = entries () in
  let t_min = match es with [] -> 0. | _ -> earliest es in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      output_string oc (if i > 0 then ",\n" else "\n");
      put_json oc
        (Json.Obj
           [ ("name", Json.Str e.name); ("cat", Json.Str "vpic"); ("ph", Json.Str "X");
             ("ts", Json.Num ((e.t0 -. t_min) *. 1e6));
             ("dur", Json.Num ((e.t1 -. e.t0) *. 1e6));
             ("pid", num_i 0); ("tid", num_i (tid e)) ]))
    es;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

let export_jsonl oc =
  List.iter
    (fun e ->
      put_json oc
        (Json.Obj
           [ ("rank", num_i e.rank); ("worker", num_i e.worker); ("name", Json.Str e.name);
             ("t0", Json.Num e.t0); ("t1", Json.Num e.t1);
             ("dur", Json.Num (e.t1 -. e.t0)); ("depth", num_i e.depth) ]);
      output_char oc '\n')
    (entries ())

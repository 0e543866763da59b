exception Injected_kill of { rank : int; step : int }

type injection =
  | Kill_rank of { rank : int; step : int }
  | Corrupt_checkpoint of { rank : int; gen : int }
  | Poison_field of { rank : int; step : int }
  | Kill_in_rebalance of { rank : int }
  | Kill_in_checkpoint of { rank : int; gen : int }
  | Fail_checkpoint_io of { rank : int; path_substring : string; times : int }

(* [armed] gates every probe: the registry below is only consulted after
   a true atomic load, so the probes cost one load on production paths.
   The mutex covers the registry and the rng (probes can run from any
   domain of an in-process world). *)
let armed = Atomic.make false
let mu = Mutex.create ()
let injections : injection list ref = ref []
let rng = ref (Rng.of_int 0)

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let enable ~seed =
  locked (fun () ->
      injections := [];
      rng := Rng.of_int seed;
      Atomic.set armed true)

let disable () =
  locked (fun () ->
      injections := [];
      Atomic.set armed false)

let enabled () = Atomic.get armed

let arm inj =
  locked (fun () ->
      if not (Atomic.get armed) then
        invalid_arg "Fault.arm: call Fault.enable first";
      injections := inj :: !injections)

(* Remove-and-return the first injection matching [pick]; one-shot
   injections disarm themselves through this. *)
let take pick =
  locked (fun () ->
      let rec go acc = function
        | [] -> None
        | i :: rest -> (
            match pick i with
            | Some _ as r ->
                injections := List.rev_append acc rest;
                r
            | None -> go (i :: acc) rest)
      in
      go [] !injections)

let kill_point ~rank ~step =
  if Atomic.get armed then
    match
      take (function
        | Kill_rank k when k.rank = rank && k.step = step -> Some ()
        | _ -> None)
    with
    | Some () -> raise (Injected_kill { rank; step })
    | None -> ()

let poison_due ~rank ~step =
  Atomic.get armed
  && take (function
       | Poison_field p when p.rank = rank && p.step = step -> Some ()
       | _ -> None)
     <> None

(* Flip eight bytes at seed-deterministic offsets in the back half of the
   file — far past the header, so the magic and version survive and the
   damage is caught by the section checksum, not the magic check. *)
let corrupt_file path =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      let r = locked (fun () -> Rng.split !rng 0x0BAD) in
      let b = Bytes.create 1 in
      for _ = 1 to 8 do
        let off = (size / 2) + Rng.int r (max 1 (size - (size / 2))) in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        if Unix.read fd b 0 1 = 1 then begin
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1)
        end
      done)

let checkpoint_written ~rank ~gen ~path =
  if Atomic.get armed then
    match
      take (function
        | Corrupt_checkpoint c when c.rank = rank && c.gen = gen -> Some ()
        | _ -> None)
    with
    | Some () -> corrupt_file path
    | None -> ()

let rebalance_kill_point ~rank ~step =
  if Atomic.get armed then
    match
      take (function
        | Kill_in_rebalance k when k.rank = rank -> Some ()
        | _ -> None)
    with
    | Some () -> raise (Injected_kill { rank; step })
    | None -> ()

let checkpoint_kill_point ~rank ~gen =
  if Atomic.get armed then
    match
      take (function
        | Kill_in_checkpoint k when k.rank = rank && k.gen = gen -> Some ()
        | _ -> None)
    with
    | Some () -> raise (Injected_kill { rank; step = gen })
    | None -> ()

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  lb = 0
  ||
  let rec at i = i + lb <= ls && (String.sub s i lb = sub || at (i + 1)) in
  at 0

(* Transient I/O failure: each matching probe consumes one of the
   injection's [times] charges; the injection disarms itself when the
   last charge is spent, so a bounded retry loop eventually succeeds. *)
let io_failure ~rank ~path =
  Atomic.get armed
  && locked (fun () ->
         let hit = ref false in
         injections :=
           List.filter_map
             (function
               | Fail_checkpoint_io f
                 when (not !hit) && f.rank = rank
                      && contains ~sub:f.path_substring path ->
                   hit := true;
                   if f.times <= 1 then None
                   else Some (Fail_checkpoint_io { f with times = f.times - 1 })
               | i -> Some i)
             !injections;
         !hit)

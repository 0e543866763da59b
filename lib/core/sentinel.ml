module Em_field = Vpic_field.Em_field
module Sf = Vpic_grid.Scalar_field
module Species = Vpic_particle.Species
module Store = Vpic_particle.Store
module Trace = Vpic_telemetry.Trace
module Metrics = Vpic_telemetry.Metrics

let sid_sentinel = Trace.intern "sentinel"

type kind =
  | Non_finite_field of string
  | Non_finite_momentum of string
  | Energy_drift
  | Gauss_residual
  | Max_gamma

type diagnosis = { step : int; kind : kind; value : float; threshold : float }

exception Health_violation of diagnosis

type policy = Warn | Force_clean | Checkpoint_abort of { dir : string; keep : int }

type tolerances = {
  energy_drift : float;
  gauss : float;
  max_gamma : float;
}

let default_tolerances = { energy_drift = 0.1; gauss = 1e-2; max_gamma = 1e4 }

type t = {
  interval : int;
  tols : tolerances;
  policy : policy;
  log : string -> unit;
  mutable baseline_energy : float option;
  mutable violations : int;
}

let kind_to_string = function
  | Non_finite_field c -> Printf.sprintf "non-finite value in field %s" c
  | Non_finite_momentum s -> Printf.sprintf "non-finite momentum in species %s" s
  | Energy_drift -> "relative energy drift"
  | Gauss_residual -> "Gauss-law residual |div E - rho|"
  | Max_gamma -> "max particle gamma"

let diagnosis_to_string d =
  Printf.sprintf "step %d: %s = %g exceeds %g" d.step (kind_to_string d.kind)
    d.value d.threshold

let () =
  Printexc.register_printer (function
    | Health_violation d -> Some ("Health_violation: " ^ diagnosis_to_string d)
    | _ -> None)

let make ?(interval = 50) ?(tols = default_tolerances) ?(policy = Warn)
    ?(log = fun m -> Printf.eprintf "[sentinel] %s\n%!" m) () =
  if interval < 1 then invalid_arg "Sentinel.make: interval must be >= 1";
  { interval; tols; policy; log; baseline_energy = None; violations = 0 }

let violations t = t.violations

(* Local scans return a finite summary statistic; the cross-rank max is
   taken once per category so every rank sees the same verdict and the
   collective calls below stay in lockstep. *)

let scan_non_finite_fields (sim : Simulation.t) =
  List.find_map
    (fun (name, sf) ->
      let d = Sf.data sf in
      let n = Bigarray.Array1.dim d in
      let bad = ref false in
      for i = 0 to n - 1 do
        if not (Float.is_finite (Bigarray.Array1.unsafe_get d i)) then
          bad := true
      done;
      if !bad then Some name else None)
    (Em_field.named_components sim.Simulation.fields)

let scan_momenta (sim : Simulation.t) =
  (* Returns (species with non-finite momentum, max |u|^2 over finite
     particles). *)
  let bad = ref None and umax2 = ref 0. in
  List.iter
    (fun (s : Species.t) ->
      let st = s.Species.store in
      let scan (a : Store.f32) =
        for i = 0 to st.Store.np - 1 do
          let v = Bigarray.Array1.unsafe_get a i in
          if Float.is_finite v then begin
            let v2 = v *. v in
            if v2 > !umax2 then umax2 := v2
          end
          else if !bad = None then bad := Some s.Species.name
        done
      in
      scan st.Store.ux;
      scan st.Store.uy;
      scan st.Store.uz)
    (Simulation.species sim);
  (!bad, !umax2)

let handle t mb d =
  t.violations <- t.violations + 1;
  if Metrics.enabled () then
    Metrics.counter_add (Metrics.default ()) "sentinel.violations" 1.;
  let poisoned =
    match d.kind with
    | Non_finite_field _ | Non_finite_momentum _ -> true
    | Energy_drift | Gauss_residual | Max_gamma -> false
  in
  match t.policy with
  | Warn -> t.log ("WARN " ^ diagnosis_to_string d)
  | Force_clean when not poisoned ->
      t.log ("CLEAN " ^ diagnosis_to_string d ^ " — forcing Marder clean");
      let passes =
        match Multiblock.owned_sims mb with
        | (_, sim) :: _ -> sim.Simulation.marder_passes
        | [] -> 1
      in
      Multiblock.settle_fields mb ~passes:(max 1 passes)
  | Force_clean ->
      (* A Marder pass cannot remove a NaN; escalate. *)
      t.log ("ABORT " ^ diagnosis_to_string d);
      raise (Health_violation d)
  | Checkpoint_abort { dir; keep } ->
      (* Never commit a poisoned state: the last committed generation
         must remain the newest restart candidate. *)
      if not poisoned then
        Multiblock.save_generation mb ~dir ~gen:(Multiblock.nstep mb) ~keep;
      t.log ("ABORT " ^ diagnosis_to_string d);
      raise (Health_violation d)

let check t mb =
  Trace.with_span sid_sentinel @@ fun () ->
  let step = Multiblock.nstep mb in
  let sims = List.map snd (Multiblock.owned_sims mb) in
  (* 1. Non-finite scans first: everything after them (energies, Gauss)
     would silently launder a NaN into a reduction. *)
  let field_bad = List.find_map scan_non_finite_fields sims in
  let moms = List.map scan_momenta sims in
  let mom_bad = List.find_map fst moms in
  let umax2 = List.fold_left (fun acc (_, u2) -> Float.max acc u2) 0. moms in
  let any_bad b = Multiblock.reduce_max mb (if b then 1. else 0.) > 0.5 in
  if any_bad (field_bad <> None) then begin
    let name = Option.value field_bad ~default:"(remote rank)" in
    handle t mb
      { step; kind = Non_finite_field name; value = Float.nan; threshold = 0. }
  end
  else if any_bad (mom_bad <> None) then begin
    let name = Option.value mom_bad ~default:"(remote rank)" in
    handle t mb
      { step; kind = Non_finite_momentum name; value = Float.nan; threshold = 0. }
  end
  else begin
    (* 2. Relativistic runaway / CFL: gamma = sqrt(1 + |u|^2). *)
    let gmax = sqrt (1. +. Multiblock.reduce_max mb umax2) in
    let gauge name v =
      if Metrics.enabled () then Metrics.gauge_set (Metrics.default ()) name v
    in
    gauge "sentinel.max_gamma" gmax;
    if gmax > t.tols.max_gamma then
      handle t mb
        { step; kind = Max_gamma; value = gmax; threshold = t.tols.max_gamma };
    (* 3. Energy drift against the first observation (collective). *)
    let e = (Multiblock.energies mb).Simulation.total in
    gauge "sentinel.total_energy" e;
    (match t.baseline_energy with
    | None -> t.baseline_energy <- Some e
    | Some e0 when e0 > 0. ->
        let drift = Float.abs (e -. e0) /. e0 in
        gauge "sentinel.energy_drift" drift;
        if drift > t.tols.energy_drift then
          handle t mb
            { step;
              kind = Energy_drift;
              value = drift;
              threshold = t.tols.energy_drift }
    | Some _ -> ());
    (* 4. Gauss law (collective; deposits rho from scratch). *)
    let r = Multiblock.gauss_residual mb in
    gauge "sentinel.gauss_residual" r;
    if r > t.tols.gauss then
      handle t mb
        { step; kind = Gauss_residual; value = r; threshold = t.tols.gauss }
  end

let attach t mb =
  Multiblock.set_monitor mb
    (Some (fun mb -> if Multiblock.nstep mb mod t.interval = 0 then check t mb))

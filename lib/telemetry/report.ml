module Perf_model = Vpic_cell.Perf_model
module Roadrunner = Vpic_cell.Roadrunner
module Table = Vpic_util.Table
module Json = Vpic_util.Json

type row = {
  label : string;
  measured : float;
  modelled : float;
  ratio : float;
}

type t = {
  machine : string;
  rows : row list;
  rates : row list;
}

let row label measured modelled =
  { label; measured; modelled; ratio = measured /. modelled }

let make ?(machine = Roadrunner.full) ?(kernel = `Spe) ?calibration
    ~(totals : Scoreboard.totals) ~workload () =
  (* The per-particle flop estimate follows the kernel the run actually
     used, unless the caller supplies a full calibration. *)
  let calibration =
    match calibration with
    | Some c -> c
    | None -> Perf_model.calibration_for kernel
  in
  let b = Perf_model.model machine workload calibration in
  let steps = float_of_int (max 1 totals.Scoreboard.steps) in
  let nr = float_of_int (max 1 totals.Scoreboard.nranks) in
  (* Measured seconds per step per rank for each phase category. *)
  let per_step t = t /. (steps *. nr) in
  let m_push = per_step totals.t_push in
  let m_field = per_step totals.t_field in
  let m_sort = per_step totals.t_sort in
  let m_comm = per_step (totals.t_exchange +. totals.t_migrate) in
  let m_step = per_step totals.t_step in
  let m_overhead =
    Float.max 0.
      (m_step -. m_push -. m_field -. m_sort -. m_comm)
  in
  let rows =
    [ row "push" m_push b.Perf_model.t_push;
      row "field" m_field b.t_field;
      row "sort" m_sort b.t_sort;
      row "comm" m_comm (b.t_comm +. b.t_accumulate);
      row "overhead" m_overhead b.t_overhead;
      row "step" m_step b.t_step ]
  in
  let rates =
    [ row "sustained flop/s" totals.run_sustained_flops b.sustained_flops;
      row "inner flop/s" totals.run_inner_flops b.inner_flops;
      row "particle-steps/s" totals.run_particle_rate b.particle_rate ]
  in
  { machine = machine.Roadrunner.name; rows; rates }

let print t =
  let tb = Table.create [ "phase"; "measured"; "modelled"; "meas/model" ] in
  let fmt v = Printf.sprintf "%.4g" v in
  List.iter
    (fun r -> Table.add_row tb [ r.label; fmt r.measured; fmt r.modelled; fmt r.ratio ])
    t.rows;
  Table.print ~title:(Printf.sprintf "measured vs modelled (s/step/rank, model: %s)" t.machine) tb;
  let tr = Table.create [ "rate"; "measured"; "modelled"; "meas/model" ] in
  List.iter
    (fun r -> Table.add_row tr [ r.label; fmt r.measured; fmt r.modelled; fmt r.ratio ])
    t.rates;
  Table.print ~title:"measured vs modelled rates" tr

let rows_json rows =
  Json.Obj
    (List.map
       (fun r ->
         ( r.label,
           Json.Obj
             [ ("measured", Json.Num r.measured);
               ("modelled", Json.Num r.modelled);
               ("ratio", Json.Num r.ratio) ] ))
       rows)

let to_json t =
  Json.to_string
    (Json.Obj
       [ ("type", Json.Str "report");
         ("machine", Json.Str t.machine);
         ("phases", rows_json t.rows);
         ("rates", rows_json t.rates) ])

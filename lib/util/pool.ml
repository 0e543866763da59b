type t = {
  lanes : int;
  tiles : int;
  run : label:string -> tiles:int -> (lane:int -> tile:int -> unit) -> unit;
}

let serial =
  { lanes = 1;
    tiles = 1;
    run =
      (fun ~label:_ ~tiles f ->
        for tile = 0 to tiles - 1 do
          f ~lane:0 ~tile
        done) }

let default_tiles = 16

let chunk_start ~total ~tiles ~tile =
  let q = total / tiles and r = total mod tiles in
  (tile * q) + min tile r

let split ~total ~tiles ~tile =
  if tiles <= 0 then invalid_arg "Pool.split: tiles must be >= 1";
  if tile < 0 || tile >= tiles then invalid_arg "Pool.split: tile out of range";
  (chunk_start ~total ~tiles ~tile, chunk_start ~total ~tiles ~tile:(tile + 1))

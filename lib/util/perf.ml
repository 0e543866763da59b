type counters = {
  mutable flops : float;
  mutable bytes_moved : float;
  mutable particle_steps : float;
  mutable voxel_updates : float;
}

let create () =
  { flops = 0.; bytes_moved = 0.; particle_steps = 0.; voxel_updates = 0. }

let add_flops c n = c.flops <- c.flops +. n
let add_bytes c n = c.bytes_moved <- c.bytes_moved +. n
let add_particle_steps c n = c.particle_steps <- c.particle_steps +. n
let add_voxel_updates c n = c.voxel_updates <- c.voxel_updates +. n
let global = create ()

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

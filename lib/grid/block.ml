type t = { decomp : Decomp.t }

let over decomp = { decomp }
let decomp t = t.decomp
let count t = Decomp.size t.decomp
let grid t ~dt ~id = Decomp.local_grid t.decomp ~dt ~rank:id
let bc t ~global ~id = Decomp.local_bc t.decomp ~global ~rank:id
let neighbor t ~id ~axis ~side = Decomp.neighbor t.decomp ~rank:id ~axis ~side
let dims t ~id = Decomp.dims_of t.decomp ~rank:id

let plane_floats t ~id ~axis =
  let nx, ny, nz = dims t ~id in
  let gx = nx + 2 and gy = ny + 2 and gz = nz + 2 in
  match axis with Axis.X -> gy * gz | Axis.Y -> gx * gz | Axis.Z -> gx * gy

module Ownership = struct
  type t = { owner : int array; mutable version : int }

  let initial ~nblocks ~nranks =
    if nranks < 1 || nblocks < nranks then
      invalid_arg "Block.Ownership.initial: need nblocks >= nranks >= 1";
    { owner = Array.init nblocks (fun b -> b * nranks / nblocks); version = 0 }

  let of_array owner = { owner = Array.copy owner; version = 0 }
  let nblocks t = Array.length t.owner
  let owner t b = t.owner.(b)
  let snapshot t = Array.copy t.owner
  let version t = t.version

  let owned t ~rank =
    let acc = ref [] in
    for b = nblocks t - 1 downto 0 do
      if t.owner.(b) = rank then acc := b :: !acc
    done;
    !acc

  let apply t moves =
    List.iter
      (fun (b, dst) ->
        if b < 0 || b >= nblocks t then
          invalid_arg "Block.Ownership.apply: bad block id";
        t.owner.(b) <- dst)
      moves;
    if moves <> [] then t.version <- t.version + 1
end

(* Slicing-by-8 CRC-32, reflected polynomial 0xEDB88320 (IEEE).  The
   running value is kept pre- and post-conditioned (xor 0xFFFFFFFF) by
   [init]/[finish], matching zlib's crc32().

   The register lives in a native int (its top bits stay zero), and the
   eight 256-entry tables sit in one flat int array: table k maps a byte
   to its contribution k bytes ahead of the register, so one iteration
   folds eight input bytes with eight lookups.  A byte loop over table 0
   handles the unaligned tail. *)

let get32_le b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFFFFFF

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let init = 0xFFFFFFFFl
let finish crc = Int32.logxor crc 0xFFFFFFFFl

let update crc b pos len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length b);
  let t = tables in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let lo = get32_le b !i lxor !c and hi = get32_le b (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int !c

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  finish (update init b pos len)

let string s = bytes (Bytes.unsafe_of_string s)

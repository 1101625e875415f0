let put_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFFFFFF))

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

let put_u64 b off v = Bytes.set_int64_be b off (Int64.of_int v)
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

let varint_size v =
  if v < 0 then invalid_arg "Codec.varint_size: negative";
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let put_varint buf v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let rec loop v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      loop (v lsr 7)
    end
  in
  loop v

let get_varint b off =
  let rec loop off shift acc =
    let c = Bytes.get_uint8 b off in
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if c < 0x80 then (acc, off + 1) else loop (off + 1) (shift + 7) acc
  in
  loop off 0 0

let put_varint_into b off v =
  if v < 0 then invalid_arg "Codec.put_varint_into: negative";
  let rec loop off v =
    if v < 0x80 then begin
      Bytes.unsafe_set b off (Char.unsafe_chr v);
      off + 1
    end
    else begin
      Bytes.unsafe_set b off (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      loop (off + 1) (v lsr 7)
    end
  in
  loop off v

let get_varint_bounded b off ~stop =
  let stop = min stop (Bytes.length b) in
  let rec loop off shift acc =
    if off >= stop || shift > 56 then None
    else begin
      let c = Bytes.get_uint8 b off in
      let acc = acc lor ((c land 0x7F) lsl shift) in
      if c < 0x80 then Some (acc, off + 1) else loop (off + 1) (shift + 7) acc
    end
  in
  if off < 0 then None else loop off 0 0

(* Like put_varint but accepts any 63-bit pattern, treated unsigned
   (logical shifts), so zigzag covers the full int range. *)
let put_varint_bits buf v =
  let rec loop v =
    if v lsr 7 = 0 then Buffer.add_char buf (Char.chr (v land 0x7F))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      loop (v lsr 7)
    end
  in
  loop v

let put_zigzag buf v = put_varint_bits buf ((v lsl 1) lxor (v asr 62))

let get_zigzag b off =
  let u, off' = get_varint b off in
  ((u lsr 1) lxor (-(u land 1)), off')

let put_string16 buf s =
  let n = String.length s in
  if n > 0xFFFF then invalid_arg "Codec.put_string16: too long";
  Buffer.add_char buf (Char.chr (n lsr 8));
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_string buf s

let get_string16 b off =
  let n = (Bytes.get_uint8 b off lsl 8) lor Bytes.get_uint8 b (off + 1) in
  (Bytes.sub_string b (off + 2) n, off + 2 + n)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the checksum
   of sealed pages, log page headers and wire frames. Slicing-by-8: one
   flat array holds eight 256-entry tables, table k advancing a byte
   through k further zero bytes, so the main loop folds eight input
   bytes per iteration with eight independent lookups. Built once,
   shared process-wide. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
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

let crc32 ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.crc32: range out of bounds";
  let t = crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i in
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b p) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (p + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := p + 8
  done;
  for j = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Bytes.get_uint8 b j) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

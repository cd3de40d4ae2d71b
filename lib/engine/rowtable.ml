(* Open-addressing hash set specialized to fixed-width int-row keys.

   Keys are width-[w] slices of int arrays; inserted keys are copied into
   one flat backing array (no per-entry boxing), slots hold entry indexes,
   collisions are resolved by linear probing over a power-of-two slot
   array.  Hashing is FNV-1a over the key words.  This replaces OCaml's
   polymorphic [Hashtbl] on [int array] / [int list] keys in the engine's
   dedup and hash-join paths: lookups and inserts allocate nothing. *)

type t = {
  width : int;
  mutable mask : int;        (* number of slots - 1; slots are a power of two *)
  mutable slots : int array; (* entry index + 1, 0 = empty *)
  mutable keys : int array;  (* entry e's key at [e*width .. e*width+width-1] *)
  mutable n : int;           (* number of entries *)
}

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

let create ~width ?(capacity = 16) () =
  if width < 0 then invalid_arg "Rowtable.create: negative width";
  let cap = pow2_at_least (max 8 (2 * capacity)) 8 in
  {
    width;
    mask = cap - 1;
    slots = Array.make cap 0;
    keys = Array.make (max 1 (capacity * width)) 0;
    n = 0;
  }

let length t = t.n
let unsafe_keys t = t.keys

(* FNV-1a over the key words; the final shift folds the well-mixed high
   bits into the slot index. *)
let fnv_prime = 0x100000001b3
let fnv_seed = 0x3ade68b1

let hash width src off =
  let h = ref fnv_seed in
  for i = off to off + width - 1 do
    h := (!h lxor Array.unsafe_get src i) * fnv_prime
  done;
  let h = !h in
  h lxor (h lsr 29)

let key_equal t e src off =
  let base = e * t.width in
  let rec go i =
    i = t.width
    || Array.unsafe_get t.keys (base + i) = Array.unsafe_get src (off + i)
       && go (i + 1)
  in
  go 0

(* Slot of the entry matching the slice, or the first empty slot. *)
let probe t src off =
  let mask = t.mask in
  let rec go i =
    let s = Array.unsafe_get t.slots i in
    if s = 0 || key_equal t (s - 1) src off then i else go ((i + 1) land mask)
  in
  go (hash t.width src off land mask)

let grow_slots t =
  let cap = 2 * Array.length t.slots in
  t.slots <- Array.make cap 0;
  t.mask <- cap - 1;
  for e = 0 to t.n - 1 do
    (* entries are distinct keys, so every probe ends on an empty slot *)
    t.slots.(probe t t.keys (e * t.width)) <- e + 1
  done

let ensure_entry_room t =
  if 2 * (t.n + 1) > Array.length t.slots then grow_slots t;
  if t.width > 0 && (t.n + 1) * t.width > Array.length t.keys then begin
    let keys = Array.make (2 * Array.length t.keys) 0 in
    Array.blit t.keys 0 keys 0 (t.n * t.width);
    t.keys <- keys
  end

let find_or_add t src off =
  ensure_entry_room t;
  let i = probe t src off in
  let s = t.slots.(i) in
  if s <> 0 then s - 1
  else begin
    let e = t.n in
    Array.blit src off t.keys (e * t.width) t.width;
    t.slots.(i) <- e + 1;
    t.n <- e + 1;
    e
  end

let add_if_absent t src off =
  let n0 = t.n in
  ignore (find_or_add t src off);
  t.n > n0

let find t src off =
  if t.n = 0 then -1 else t.slots.(probe t src off) - 1

type t = { ncols : int; mutable data : int array; mutable nrows : int }

let create ~cols =
  if cols < 0 then invalid_arg "Relation.create: negative arity";
  { ncols = cols; data = Array.make (max 1 (16 * cols)) 0; nrows = 0 }

let cols r = r.ncols
let rows r = r.nrows

let ensure_capacity r =
  let needed = (r.nrows + 1) * r.ncols in
  if needed > Array.length r.data then begin
    let data = Array.make (max needed (2 * Array.length r.data)) 0 in
    Array.blit r.data 0 data 0 (r.nrows * r.ncols);
    r.data <- data
  end

let append r row =
  if Array.length row <> r.ncols then
    invalid_arg "Relation.append: arity mismatch";
  ensure_capacity r;
  Array.blit row 0 r.data (r.nrows * r.ncols) r.ncols;
  r.nrows <- r.nrows + 1

let get r i j =
  if i < 0 || i >= r.nrows || j < 0 || j >= r.ncols then
    invalid_arg "Relation.get: out of bounds";
  r.data.((i * r.ncols) + j)

let row r i =
  if i < 0 || i >= r.nrows then invalid_arg "Relation.row: out of bounds";
  Array.sub r.data (i * r.ncols) r.ncols

let unsafe_data r = r.data

let iteri_flat f r =
  let w = r.ncols in
  for i = 0 to r.nrows - 1 do
    f i r.data (i * w)
  done

let project r columns =
  Array.iter
    (fun j ->
      if j < 0 || j >= r.ncols then invalid_arg "Relation.project: bad column")
    columns;
  let w = Array.length columns in
  let data = Array.make (max 1 (r.nrows * w)) 0 in
  for i = 0 to r.nrows - 1 do
    Array.iteri
      (fun k j -> data.((i * w) + k) <- r.data.((i * r.ncols) + j))
      columns
  done;
  { ncols = w; data; nrows = r.nrows }

(* Set semantics by streaming: the table's key store is the result, so no
   pre-dedup row is ever stored and the distinct rows are never copied. *)
type sink = { set : Rowtable.t; scols : int; mutable emitted : int }

let sink ~cols =
  { set = Rowtable.create ~width:cols (); scols = cols; emitted = 0 }

let emit s src off =
  s.emitted <- s.emitted + 1;
  ignore (Rowtable.add_if_absent s.set src off)

let emitted s = s.emitted

let contents s =
  {
    ncols = s.scols;
    data = Rowtable.unsafe_keys s.set;
    nrows = Rowtable.length s.set;
  }

let dedup r =
  let s = sink ~cols:r.ncols in
  iteri_flat (fun _ data off -> emit s data off) r;
  contents s

let rec log2 x = if x <= 1 then 0 else 1 + log2 (x lsr 1)

(* An LSD radix sort of the row indexes: stable counting passes over each
   column's ranks, last column first.  A digit gets about log2(rows) bits,
   between 8 and 16, so a pass touches about as many buckets as rows, and
   ranks below 2^16 take one pass per column once a result has as many
   rows.  Linear in the rows; a comparison sort would pay a closure call
   per comparison. *)
let sorted_distinct r ~rank =
  let w = r.ncols and n = r.nrows in
  if w = 0 then Array.make (min n 1) 0
  else begin
    let key = Array.init (n * w) (fun k -> rank.(r.data.(k))) in
    let key_bits = 1 + log2 (Array.fold_left Int.max 0 key) in
    let digit_bits = max 8 (min 16 (log2 n)) in
    let passes = (key_bits + digit_bits - 1) / digit_bits in
    let bits = (key_bits + passes - 1) / passes in
    let mask = (1 lsl bits) - 1 in
    let count = Array.make (mask + 2) 0 and digit = Array.make n 0 in
    let idx = ref (Array.init n Fun.id) and tmp = ref (Array.make n 0) in
    for col = w - 1 downto 0 do
      for pass = 0 to passes - 1 do
        let src = !idx and dst = !tmp and shift = pass * bits in
        Array.fill count 0 (mask + 2) 0;
        for p = 0 to n - 1 do
          let d = (key.((src.(p) * w) + col) lsr shift) land mask in
          digit.(p) <- d;
          count.(d + 1) <- count.(d + 1) + 1
        done;
        for d = 1 to mask + 1 do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        for p = 0 to n - 1 do
          let d = digit.(p) in
          dst.(count.(d)) <- src.(p);
          count.(d) <- count.(d) + 1
        done;
        idx := dst;
        tmp := src
      done
    done;
    let idx = !idx in
    let same a b =
      let a = a * w and b = b * w in
      let rec go k = k = w || (key.(a + k) = key.(b + k) && go (k + 1)) in
      go 0
    in
    let m = ref 0 in
    Array.iter
      (fun i ->
        if !m = 0 || not (same idx.(!m - 1) i) then begin
          idx.(!m) <- i;
          incr m
        end)
      idx;
    Array.sub idx 0 !m
  end

let to_list r =
  let acc = ref [] in
  for i = r.nrows - 1 downto 0 do
    acc := row r i :: !acc
  done;
  !acc

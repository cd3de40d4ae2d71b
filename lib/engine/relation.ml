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
  let out = create ~cols:(Array.length columns) in
  let buf = Array.make (Array.length columns) 0 in
  for i = 0 to r.nrows - 1 do
    Array.iteri (fun k j -> buf.(k) <- r.data.((i * r.ncols) + j)) columns;
    append out buf
  done;
  out

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

let to_list r =
  let acc = ref [] in
  for i = r.nrows - 1 downto 0 do
    acc := row r i :: !acc
  done;
  !acc

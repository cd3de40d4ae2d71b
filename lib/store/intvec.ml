type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length v = v.len

let grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Intvec: index %d out of bounds (len %d)" i v.len)

let get v i = check v i; v.data.(i)

let unsafe_get v i = Array.unsafe_get v.data i

let set v i x = check v i; v.data.(i) <- x

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty vector";
  v.len <- v.len - 1;
  v.data.(v.len)

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

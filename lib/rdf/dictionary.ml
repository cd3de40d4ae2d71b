module H = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type t = {
  by_value : int H.t;
  mutable by_code : Term.t array;  (* slot c holds the value of code c *)
  mutable next : int;
  mutable payload_bytes : int;  (* summed string lengths of the values *)
  mutable rank : int array;
      (* slot c holds code c's position in value order, for the first
         [Array.length rank] codes *)
  lock : Mutex.t;
      (* The dictionary is shared by every executor over a store, and the
         parallel workload driver plans queries from several domains at
         once; [encode]/[find]/[decode] therefore serialize on this lock.
         Answers stay deterministic in every sanctioned parallel mode:
         re-encoding a known value returns its existing code, and genuinely
         fresh codes (head constants absent from the data) only name output
         values, never index positions. *)
}

let dummy = Term.Literal ""

let create ?(initial_capacity = 1024) () =
  {
    by_value = H.create initial_capacity;
    by_code = Array.make (max 1 initial_capacity) dummy;
    next = 0;
    payload_bytes = 0;
    rank = [||];
    lock = Mutex.create ();
  }

let[@inline] locked d f =
  Mutex.lock d.lock;
  match f () with
  | v ->
      Mutex.unlock d.lock;
      v
  | exception e ->
      Mutex.unlock d.lock;
      raise e

let grow d =
  let cap = Array.length d.by_code in
  let a = Array.make (2 * cap) dummy in
  Array.blit d.by_code 0 a 0 cap;
  d.by_code <- a

let encode d v =
  locked d @@ fun () ->
  match H.find_opt d.by_value v with
  | Some c -> c
  | None ->
      let c = d.next in
      if c >= Array.length d.by_code then grow d;
      d.by_code.(c) <- v;
      H.add d.by_value v c;
      d.next <- c + 1;
      (match v with
      | Term.Uri s | Term.Literal s | Term.Bnode s ->
          d.payload_bytes <- d.payload_bytes + String.length s);
      c

let find d v = locked d @@ fun () -> H.find_opt d.by_value v
let mem_code_unlocked d c = c >= 0 && c < d.next
let mem_code d c = locked d @@ fun () -> mem_code_unlocked d c

let decode d c =
  locked d @@ fun () ->
  if mem_code_unlocked d c then d.by_code.(c)
  else invalid_arg (Printf.sprintf "Dictionary.decode: unknown code %d" c)

(* Slots below [next] are never rewritten (growth copies into a fresh
   array), so a snapshot of [(by_code, next)] taken under the lock can be
   read without further synchronization.  Bulk decoding — answer
   materialization from several domains at once — uses this to pay for
   one lock acquisition per relation instead of one per term. *)
let decoder d =
  let by_code, next = locked d @@ fun () -> (d.by_code, d.next) in
  fun c ->
    if c >= 0 && c < next then by_code.(c)
    else invalid_arg (Printf.sprintf "Dictionary.decode: unknown code %d" c)

(* The rank arrays handed out are never written again: growth rebuilds
   into a fresh array, so a caller may read its snapshot while another
   thread re-ranks. *)
let ranks d =
  locked d @@ fun () ->
  if Array.length d.rank < d.next then begin
    let sorted = Array.init d.next Fun.id in
    Array.sort (fun a b -> Term.compare d.by_code.(a) d.by_code.(b)) sorted;
    let rank = Array.make d.next 0 in
    Array.iteri (fun k c -> rank.(c) <- k) sorted;
    d.rank <- rank
  end;
  d.rank

let cardinal d = locked d @@ fun () -> d.next

(* Per value: a value-table bucket cell (4 words) and slot (about 1), the
   [Term.t] block (2) and its string's header and padding (about 2); then
   the [by_code] and rank arrays and the string bytes themselves. *)
let approx_bytes d =
  let words =
    (9 * d.next)
    + Array.length d.by_code + Array.length d.rank
    + (d.payload_bytes / (Sys.word_size / 8))
  in
  words * (Sys.word_size / 8)

let iter f d =
  for c = 0 to d.next - 1 do
    f d.by_code.(c) c
  done

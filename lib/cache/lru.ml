(* Doubly-linked recency list (head = most recent) over a hashtable of
   nodes.  All operations are O(1) except eviction sweeps, which are O(1)
   per evicted entry. *)

type 'a node = {
  key : string;
  value : 'a;
  weight : int;  (* replacement drops and re-adds the node *)
  mutable prev : 'a node option;  (* towards the head / MRU end *)
  mutable next : 'a node option;  (* towards the tail / LRU end *)
}

type 'a t = {
  capacity_bytes : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable bytes : int;
  mutable evictions : int;
}

let create ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Lru.create: capacity_bytes <= 0";
  {
    capacity_bytes;
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    evictions = 0;
  }

let capacity_bytes t = t.capacity_bytes
let length t = Hashtbl.length t.tbl
let bytes t = t.bytes
let evictions t = t.evictions

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let drop t n ~evicted =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.bytes <- t.bytes - n.weight;
  if evicted then t.evictions <- t.evictions + 1

let rec evict_to_fit t =
  if t.bytes > t.capacity_bytes then
    match t.tail with
    | None -> ()
    | Some n ->
        drop t n ~evicted:true;
        evict_to_fit t

let add t key ~bytes value =
  if bytes < 0 then invalid_arg "Lru.add: negative bytes";
  (match Hashtbl.find_opt t.tbl key with
  | Some n -> drop t n ~evicted:false
  | None -> ());
  if bytes > t.capacity_bytes then
    (* would evict the whole cache and still not fit: refuse *)
    t.evictions <- t.evictions + 1
  else begin
    let n = { key; value; weight = bytes; prev = None; next = None } in
    Hashtbl.add t.tbl key n;
    push_front t n;
    t.bytes <- t.bytes + bytes;
    evict_to_fit t
  end

let remove t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n -> drop t n ~evicted:false
  | None -> ()

let filter t keep =
  let rec go dropped = function
    | None -> dropped
    | Some n ->
        let next = n.next in
        if keep n.key n.value then go dropped next
        else begin
          drop t n ~evicted:false;
          go (dropped + 1) next
        end
  in
  go 0 t.head

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  t.bytes <- 0

let keys_by_recency t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head

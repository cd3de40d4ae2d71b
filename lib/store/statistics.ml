open Query

(* Store-wide distinct counts are kept as occurrence-count tables (code ->
   number of stored triples carrying it in that position) so the change
   log can maintain them incrementally: an insert whose count goes 0 -> 1
   adds a distinct value, a delete whose count goes 1 -> 0 removes one. *)
type global = {
  occ_s : (int, int) Hashtbl.t;
  occ_p : (int, int) Hashtbl.t;
  occ_o : (int, int) Hashtbl.t;
  mutable computed : bool;
}

(* CQ estimates, keyed structurally by the canonical CQ. *)
module Cq_tbl = Hashtbl.Make (struct
  type t = Bgp.t
  let equal a b = Bgp.raw_compare a b = 0
  let hash q = Hashtbl.hash_param 64 256 q
end)

type t = {
  store : Encoded_store.t;
  ndv_cache : (int, int) Hashtbl.t;  (* 2*prop + (0=subj|1=obj) -> ndv *)
  cq_cache : float Cq_tbl.t;
  global : global;
  mutable seen_version : int;
  lock : Mutex.t;
      (* Estimation entry points serialize on this lock so a statistics
         instance shared across domains (parallel cover costing, concurrent
         [answer] calls on one system) keeps its caches consistent.  Every
         cached value is a pure function of the store snapshot, so lock
         granularity cannot change any estimate. *)
}

(* Public entry points lock; the [_unlocked] internals below assume the
   lock is held (they call each other freely without re-acquiring). *)
let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let create store =
  {
    store;
    ndv_cache = Hashtbl.create 64;
    cq_cache = Cq_tbl.create 256;
    lock = Mutex.create ();
    global =
      {
        occ_s = Hashtbl.create 1024;
        occ_p = Hashtbl.create 64;
        occ_o = Hashtbl.create 1024;
        computed = false;
      };
    seen_version = Encoded_store.data_version store;
  }

let store t = t.store

let occ_incr tbl code =
  Hashtbl.replace tbl code
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl code))

let occ_decr tbl code =
  match Hashtbl.find_opt tbl code with
  | None | Some 1 -> Hashtbl.remove tbl code
  | Some n -> Hashtbl.replace tbl code (n - 1)

(* One effective store change: per-property NDV entries for the touched
   property are dropped (exact recount on next demand), the occurrence
   tables absorb the delta when built. *)
let apply_change t (c : Encoded_store.change) =
  Hashtbl.remove t.ndv_cache (2 * c.Encoded_store.cp);
  Hashtbl.remove t.ndv_cache ((2 * c.Encoded_store.cp) + 1);
  if t.global.computed then begin
    let step = if c.Encoded_store.added then occ_incr else occ_decr in
    step t.global.occ_s c.Encoded_store.cs;
    step t.global.occ_p c.Encoded_store.cp;
    step t.global.occ_o c.Encoded_store.co
  end

let full_flush t =
  Hashtbl.reset t.ndv_cache;
  Cq_tbl.reset t.cq_cache;
  Hashtbl.reset t.global.occ_s;
  Hashtbl.reset t.global.occ_p;
  Hashtbl.reset t.global.occ_o;
  t.global.computed <- false

(* Cached statistics are tied to a store snapshot; updates refresh them —
   incrementally from the store's change log when the gap fits its bounded
   window, by a full flush otherwise.  CQ estimates always flush: a join
   estimate can depend on every property a change touches transitively. *)
let refresh t =
  let v = Encoded_store.data_version t.store in
  if v <> t.seen_version then begin
    (match Encoded_store.changes_since t.store ~since:t.seen_version with
    | Some changes ->
        List.iter (apply_change t) changes;
        Cq_tbl.reset t.cq_cache
    | None -> full_flush t);
    t.seen_version <- v
  end

let ensure_global t =
  if not t.global.computed then begin
    for i = 0 to Encoded_store.size t.store - 1 do
      occ_incr t.global.occ_s (Encoded_store.subject t.store i);
      occ_incr t.global.occ_p (Encoded_store.property t.store i);
      occ_incr t.global.occ_o (Encoded_store.obj t.store i)
    done;
    t.global.computed <- true
  end

let distinct_subjects t = max 1 (Hashtbl.length t.global.occ_s)
let distinct_properties t = max 1 (Hashtbl.length t.global.occ_p)
let distinct_objects t = max 1 (Hashtbl.length t.global.occ_o)

let ndv_unlocked t ~prop pos =
  refresh t;
  let tag = match pos with `Subject -> 0 | `Object -> 1 in
  (* int-packed key: no tuple allocation on the planner's hot lookups *)
  match Hashtbl.find_opt t.ndv_cache ((2 * prop) + tag) with
  | Some n -> n
  | None ->
      let seen = Hashtbl.create 64 in
      let ids =
        Encoded_store.matching t.store
          { Encoded_store.ps = None; pp = Some prop; po = None }
      in
      Intvec.iter
        (fun id ->
          let v =
            match pos with
            | `Subject -> Encoded_store.subject t.store id
            | `Object -> Encoded_store.obj t.store id
          in
          Hashtbl.replace seen v ())
        ids;
      let n = max 1 (Hashtbl.length seen) in
      Hashtbl.add t.ndv_cache ((2 * prop) + tag) n;
      n

(* ---- atom counting ---- *)

type slot = Wild | Code of int | Missing

let ndv t ~prop pos = locked t @@ fun () -> ndv_unlocked t ~prop pos

let slot_of t = function
  | Bgp.Var _ -> Wild
  | Bgp.Const c -> (
      match Encoded_store.encode_term t.store c with
      | Some code -> Code code
      | None -> Missing)

let pattern_of t (a : Bgp.atom) =
  let s = slot_of t a.s and p = slot_of t a.p and o = slot_of t a.o in
  if s = Missing || p = Missing || o = Missing then None
  else
    let opt = function Code c -> Some c | Wild -> None | Missing -> None in
    Some { Encoded_store.ps = opt s; pp = opt p; po = opt o }

let repeated_var (a : Bgp.atom) =
  let vs =
    List.filter_map
      (function Bgp.Var v -> Some v | Bgp.Const _ -> None)
      [ a.s; a.p; a.o ]
  in
  List.length vs <> List.length (List.sort_uniq String.compare vs)

let atom_count_unlocked t (a : Bgp.atom) =
  match pattern_of t a with
  | None -> 0
  | Some pat ->
      if not (repeated_var a) then Encoded_store.count t.store pat
      else begin
        (* Repeated variable inside the atom: filter the posting exactly. *)
        let same (x : Bgp.pattern_term) (y : Bgp.pattern_term) =
          match (x, y) with
          | Bgp.Var v, Bgp.Var w -> String.equal v w
          | _ -> false
        in
        let n = ref 0 in
        Intvec.iter
          (fun id ->
            let s = Encoded_store.subject t.store id
            and p = Encoded_store.property t.store id
            and o = Encoded_store.obj t.store id in
            let ok =
              (not (same a.s a.p) || s = p)
              && (not (same a.s a.o) || s = o)
              && (not (same a.p a.o) || p = o)
            in
            if ok then incr n)
          (Encoded_store.matching t.store pat);
        !n
      end

let atom_count t a = locked t @@ fun () -> atom_count_unlocked t a

(* ---- CQ estimation ---- *)

(* NDV of variable [v]'s position in atom [a], used as the join-selectivity
   denominator.  When the property is a constant we have per-property NDV;
   otherwise fall back to the store-wide distinct counts. *)
let position_ndv t (a : Bgp.atom) v =
  ensure_global t;
  let prop_code =
    match a.p with
    | Bgp.Const c -> Encoded_store.encode_term t.store c
    | Bgp.Var _ -> None
  in
  let var_at pos = match pos with Bgp.Var w -> String.equal w v | _ -> false in
  if var_at a.p then distinct_properties t
  else
    match prop_code with
    | Some p when var_at a.s -> ndv_unlocked t ~prop:p `Subject
    | Some p when var_at a.o -> ndv_unlocked t ~prop:p `Object
    | Some _ -> 1
    | None ->
        if var_at a.s then distinct_subjects t else distinct_objects t

(* [key] is [q]'s canonical form. *)
let cq_cardinality_unlocked t ~key (q : Bgp.t) =
  refresh t;
  match Cq_tbl.find_opt t.cq_cache key with
  | Some x -> x
  | None ->
      (* System-R style: multiply atom counts, discount each repeated
         occurrence of a join variable by 1/max(ndv seen, ndv here). *)
      let seen : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let card =
        List.fold_left
          (fun card (a : Bgp.atom) ->
            if card = 0.0 then 0.0
            else
              let n = float_of_int (atom_count_unlocked t a) in
              if n = 0.0 then 0.0
              else
                let card = card *. n in
                List.fold_left
                  (fun card v ->
                    let here = position_ndv t a v in
                    match Hashtbl.find_opt seen v with
                    | None ->
                        Hashtbl.replace seen v here;
                        card
                    | Some prev ->
                        Hashtbl.replace seen v (min prev here);
                        card /. float_of_int (max 1 (max prev here)))
                  card (Bgp.atom_vars a))
          1.0 q.body
      in
      Cq_tbl.add t.cq_cache key card;
      card

let cq_cardinality t q =
  locked t @@ fun () -> cq_cardinality_unlocked t ~key:(Bgp.canonical q) q

(* A UCQ's disjuncts are already canonical ([Ucq.of_cqs]). *)
let ucq_cardinality t u =
  locked t @@ fun () ->
  List.fold_left (fun acc cq -> acc +. cq_cardinality_unlocked t ~key:cq cq)
    0.0 (Ucq.disjuncts u)

let global_distinct t pos =
  locked t @@ fun () ->
  refresh t;
  ensure_global t;
  match pos with
  | `Subject -> distinct_subjects t
  | `Property -> distinct_properties t
  | `Object -> distinct_objects t

open Query
module Es = Store.Encoded_store

(* Tier 4: fragment snapshots, filled on demand.

   Where tiers 1-3 memoize planning artifacts and whole answers, this
   tier keeps {e fragments}: the cover-query UCQs that JUCQ evaluation
   materializes, stored as executor fragment snapshots (charge logs +
   deduplicated relation — see {!Engine.Executor.record_fragment}).  A
   fragment is recorded the first time a query executes it and is kept
   until a write touches it: a fact change drops only the entries whose
   property footprint it meets ([changes_since]), a schema change or a
   change-log overrun drops them all, and a byte budget evicts the least
   recently used.

   Soundness at serve time rests on tier-1 physical identity: entries are
   keyed by the tier-1 canonical key of the cover query, and an entry is
   only served when the use-site UCQ {e is} (pointer-equal) the one it
   was recorded from — which implies identical compiled plans, hence an
   identical charge stream.

   Every function here runs under the owning {!Cache}'s lock. *)

let m_hits =
  Metrics.counter "views.hits"
    ~help:"Fragment evaluations served from a tier-4 snapshot"
let m_misses =
  Metrics.counter "views.misses"
    ~help:"Tier-4 probes that found no usable snapshot"
let m_remat =
  Metrics.counter "views.rematerializations"
    ~help:
      "Tier-4 snapshots a write invalidated (each is re-recorded on its \
       next use)"
let g_count = Metrics.gauge "views.count" ~help:"Tier-4 snapshots resident"
let g_bytes =
  Metrics.gauge "views.bytes"
    ~help:"Approximate bytes held by tier-4 snapshots"

(* The set of constant property codes a fragment's reformulation selects
   on.  Any variable-property atom — or a property constant the store
   cannot encode yet (a later insert could introduce it) — widens the
   footprint to [Universal]: every data change then drops the entry.
   Within [Props], a write to other properties moves neither the
   fragment's selections nor the counts and per-property NDVs its plan
   order reads, and a delete's swap-remove only reorders postings of the
   deleted triple's own keys, so the recorded charge stream and row order
   stay those of a live evaluation. *)
type footprint = Universal | Props of int list  (* sorted, distinct *)

let footprint_of store (u : Ucq.t) =
  let exception Any in
  try
    let props =
      List.fold_left
        (fun acc (cq : Bgp.t) ->
          List.fold_left
            (fun acc (a : Bgp.atom) ->
              match a.Bgp.p with
              | Bgp.Var _ -> raise Any
              | Bgp.Const c -> (
                  match Es.encode_term store c with
                  | Some code -> code :: acc
                  | None -> raise Any))
            acc cq.Bgp.body)
        [] (Ucq.disjuncts u)
    in
    Props (List.sort_uniq Int.compare props)
  with Any -> Universal

type entry = {
  ucq : Ucq.t;  (* the physical tier-1 UCQ the snapshot was recorded from *)
  head : string list;  (* the recording cover query's join columns *)
  footprint : footprint;
  snap : Engine.Executor.fragment_snapshot;
}

type t = entry Lru.t

let create ~capacity_bytes : t = Lru.create ~capacity_bytes

let publish_gauges (t : t) =
  Metrics.set_gauge g_count (float_of_int (Lru.length t));
  Metrics.set_gauge g_bytes (float_of_int (Lru.bytes t))

(* An entry for [key] recorded from [u] itself, or [None]. *)
let find (t : t) key u =
  match Lru.find t key with
  | Some e when e.ucq == u ->
      Metrics.add m_hits 1;
      Some e
  | _ ->
      Metrics.add m_misses 1;
      None

(* First insert wins: a racing recorder of the same UCQ gets the resident
   entry back.  An entry recorded from another UCQ under the same key is
   served to its own caller but not installed. *)
let add (t : t) key e =
  match Lru.find t key with
  | Some r when r.ucq == e.ucq -> r
  | Some _ -> e
  | None ->
      Lru.add t key ~bytes:(Engine.Executor.snapshot_bytes e.snap) e;
      publish_gauges t;
      e

let clear (t : t) =
  let n = Lru.length t in
  Lru.clear t;
  Metrics.add m_remat n;
  publish_gauges t;
  n

(* Brings the entries up to a data change since data version [since]:
   drops those whose footprint meets a changed property, or all of them
   when the store's bounded change log no longer reaches back that far.
   Returns how many it dropped. *)
let invalidate (t : t) store ~since =
  match Es.changes_since store ~since with
  | None -> clear t
  | Some changes ->
      let touched =
        List.sort_uniq Int.compare
          (List.map (fun (c : Es.change) -> c.Es.cp) changes)
      in
      let n =
        Lru.filter t (fun _ e ->
            match e.footprint with
            | Universal -> false
            | Props fp -> not (List.exists (fun p -> List.mem p fp) touched))
      in
      Metrics.add m_remat n;
      publish_gauges t;
      n

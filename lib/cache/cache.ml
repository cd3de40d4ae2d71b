module Lru = Lru
module Es = Store.Encoded_store
module Reformulate = Reformulation.Reformulate
open Query

type mode = Off | On | Answers_off

let modes = [ ("on", On); ("off", Off); ("answers-off", Answers_off) ]

type tier_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

type stats = {
  reformulation : tier_stats;
  cover : tier_stats;
  answer : tier_stats;
  fragment : tier_stats;
}

type answer_entry = {
  answers : Engine.Relation.t;
  order : int array option Atomic.t;
  cover : Jucq.cover option;
  union_terms : int;
  fragment_terms : int list;
  estimated_cost : float;
  covers_explored : int;
}

type counters = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let fresh_counters () = { hits = 0; misses = 0; evictions = 0 }

(* Process-level tier counters (lib/metrics): the per-instance [counters]
   above back {!stats}; these accumulate across every cache in the process
   and mirror the per-query [Obs.count] calls below one-for-one. *)
let m_ref_hits = Metrics.counter "cache.reformulation.hits"
let m_ref_misses = Metrics.counter "cache.reformulation.misses"
let m_ref_evictions = Metrics.counter "cache.reformulation.evictions"
let m_cov_hits = Metrics.counter "cache.cover.hits"
let m_cov_misses = Metrics.counter "cache.cover.misses"
let m_cov_evictions = Metrics.counter "cache.cover.evictions"
let m_ans_hits = Metrics.counter "cache.answer.hits"
let m_ans_misses = Metrics.counter "cache.answer.misses"
let m_ans_evictions = Metrics.counter "cache.answer.evictions"
let g_ans_entries =
  Metrics.gauge "cache.answer.entries" ~help:"Answer-cache resident entries"
let g_ans_bytes =
  Metrics.gauge "cache.answer.bytes" ~help:"Answer-cache resident bytes"

type t = {
  store : Es.t;
  max_terms : int option;
  mutable mode : mode;
  lock : Mutex.t;
  mutable reformulator : Reformulate.t;
  mutable generation : int;  (* bumps when the schema version moves *)
  mutable seen_schema : int;
  mutable seen_data : int;
  t1 : (string, Ucq.t) Hashtbl.t;
  t2_jucq : (string, Jucq.t) Hashtbl.t;
  t2_cost : (string, float) Hashtbl.t;
  t2_frag : (string, float) Hashtbl.t;
  t3 : answer_entry Lru.t;
  t4 : Views.t;
  c1 : counters;
  c2 : counters;
  c3 : counters;
  c4 : counters;
}

let make_reformulator max_terms schema =
  match max_terms with
  | Some max_terms -> Reformulate.create ~max_terms schema
  | None -> Reformulate.create schema

(* Tier 4's byte budget: one GCov pass over LUBM-8's 28 templates records
   37 fragments of about 1.5 MB, so the budget holds a workload twenty
   times that size. *)
let fragment_capacity_bytes = 32 * 1024 * 1024

let create ?(mode = On) ?max_terms
    ?(answer_capacity_bytes = 64 * 1024 * 1024) ?reformulator store =
  {
    store;
    max_terms;
    mode;
    lock = Mutex.create ();
    reformulator =
      (match reformulator with
      | Some r -> r
      | None -> make_reformulator max_terms (Es.schema store));
    generation = 0;
    seen_schema = Es.schema_version store;
    seen_data = Es.data_version store;
    t1 = Hashtbl.create 64;
    t2_jucq = Hashtbl.create 256;
    t2_cost = Hashtbl.create 256;
    t2_frag = Hashtbl.create 256;
    t3 = Lru.create ~capacity_bytes:answer_capacity_bytes;
    t4 = Views.create ~capacity_bytes:fragment_capacity_bytes;
    c1 = fresh_counters ();
    c2 = fresh_counters ();
    c3 = fresh_counters ();
    c4 = fresh_counters ();
  }

let store t = t.store
let mode t = t.mode
let set_mode t m = t.mode <- m

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ---- version-driven invalidation (lock held) ---- *)

let flush_tier2 t =
  let n =
    Hashtbl.length t.t2_jucq + Hashtbl.length t.t2_cost
    + Hashtbl.length t.t2_frag
  in
  if n > 0 then begin
    t.c2.evictions <- t.c2.evictions + n;
    Metrics.add m_cov_evictions n;
    Obs.count "cache.cover.invalidate" n;
    Hashtbl.reset t.t2_jucq;
    Hashtbl.reset t.t2_cost;
    Hashtbl.reset t.t2_frag
  end

let flush_tier3 t =
  let n = Lru.length t.t3 in
  if n > 0 then begin
    t.c3.evictions <- t.c3.evictions + n;
    Metrics.add m_ans_evictions n;
    Obs.count "cache.answer.invalidate" n;
    Lru.clear t.t3
  end

let drop_tier4 t n = t.c4.evictions <- t.c4.evictions + n

(* The invalidation matrix.  A schema change obsoletes everything (and the
   reformulation engine itself); a data-only change leaves tier 1 warm —
   reformulations read no facts — flushes the cost- and answer-bearing
   tiers, and drops the tier-4 fragments whose footprint it touches. *)
let revalidate t =
  let sv = Es.schema_version t.store and dv = Es.data_version t.store in
  if sv <> t.seen_schema then begin
    let n = Hashtbl.length t.t1 in
    if n > 0 then begin
      t.c1.evictions <- t.c1.evictions + n;
      Metrics.add m_ref_evictions n;
      Obs.count "cache.reformulation.invalidate" n
    end;
    Hashtbl.reset t.t1;
    t.reformulator <- make_reformulator t.max_terms (Es.schema t.store);
    t.generation <- t.generation + 1;
    flush_tier2 t;
    flush_tier3 t;
    drop_tier4 t (Views.clear t.t4);
    t.seen_schema <- sv;
    t.seen_data <- dv
  end
  else if dv <> t.seen_data then begin
    flush_tier2 t;
    flush_tier3 t;
    drop_tier4 t (Views.invalidate t.t4 t.store ~since:t.seen_data);
    t.seen_data <- dv
  end

let reformulator t =
  locked t @@ fun () ->
  revalidate t;
  t.reformulator

(* ---- tier 1 ---- *)

let t1_key q = Bgp.to_string (Bgp.canonical (Bgp.dedup_body (Bgp.normalize q)))

let reformulate t q =
  match t.mode with
  | Off ->
      let r =
        locked t @@ fun () ->
        revalidate t;
        t.reformulator
      in
      Reformulate.reformulate r q
  | On | Answers_off -> (
      let key = t1_key q in
      let probe =
        locked t @@ fun () ->
        revalidate t;
        match Hashtbl.find_opt t.t1 key with
        | Some u ->
            t.c1.hits <- t.c1.hits + 1;
            Metrics.add m_ref_hits 1;
            Obs.count "cache.reformulation.hit" 1;
            `Hit u
        | None ->
            t.c1.misses <- t.c1.misses + 1;
            Metrics.add m_ref_misses 1;
            Obs.count "cache.reformulation.miss" 1;
            `Miss (t.reformulator, t.generation)
      in
      match probe with
      | `Hit u -> u
      | `Miss (r, gen) ->
          (* compute outside the lock: reformulations are pure functions
             of (schema generation, canonical CQ), so a racing domain
             computes the same union and the first insert wins — keeping
             one physical UCQ per key for the plan caches *)
          let u = Reformulate.reformulate r q in
          locked t @@ fun () ->
          if t.generation <> gen then u
          else begin
            match Hashtbl.find_opt t.t1 key with
            | Some u -> u
            | None ->
                Hashtbl.add t.t1 key u;
                u
          end)

(* ---- tier 2 ---- *)

type tier2 = { owner : t; prefix : string }

let tier2 t ~scope ~query_key =
  match t.mode with
  | Off -> None
  | On | Answers_off ->
      Some { owner = t; prefix = scope ^ "\x00" ^ query_key ^ "\x00" }

let t2_probe (h : tier2) counter_name tbl key =
  let t = h.owner in
  locked t @@ fun () ->
  revalidate t;
  match Hashtbl.find_opt tbl (h.prefix ^ key) with
  | Some v ->
      t.c2.hits <- t.c2.hits + 1;
      Metrics.add m_cov_hits 1;
      Obs.count (counter_name ^ ".hit") 1;
      Some v
  | None ->
      t.c2.misses <- t.c2.misses + 1;
      Metrics.add m_cov_misses 1;
      Obs.count (counter_name ^ ".miss") 1;
      None

let t2_find_jucq h key = t2_probe h "cache.cover" h.owner.t2_jucq key

let t2_add_jucq h key j =
  let t = h.owner in
  locked t @@ fun () ->
  revalidate t;
  let full = h.prefix ^ key in
  match Hashtbl.find_opt t.t2_jucq full with
  | Some j -> j
  | None ->
      Hashtbl.add t.t2_jucq full j;
      j

let t2_find_cost h key = t2_probe h "cache.cover" h.owner.t2_cost key

let t2_add_cost h key c =
  let t = h.owner in
  locked t @@ fun () ->
  revalidate t;
  let full = h.prefix ^ key in
  if not (Hashtbl.mem t.t2_cost full) then Hashtbl.add t.t2_cost full c

let t2_find_fragment h key = t2_probe h "cache.cover" h.owner.t2_frag key

let t2_add_fragment h key c =
  let t = h.owner in
  locked t @@ fun () ->
  revalidate t;
  let full = h.prefix ^ key in
  if not (Hashtbl.mem t.t2_frag full) then Hashtbl.add t.t2_frag full c

(* ---- tier 3 ---- *)

let entry_bytes (e : answer_entry) =
  (Engine.Relation.rows e.answers * Engine.Relation.cols e.answers * 8)
  + (8 * List.length e.fragment_terms)
  + 128

let find_answer t key =
  match t.mode with
  | Off | Answers_off -> None
  | On -> (
      locked t @@ fun () ->
      revalidate t;
      match Lru.find t.t3 key with
      | Some e ->
          t.c3.hits <- t.c3.hits + 1;
          Metrics.add m_ans_hits 1;
          Obs.count "cache.answer.hit" 1;
          Some e
      | None ->
          t.c3.misses <- t.c3.misses + 1;
          Metrics.add m_ans_misses 1;
          Obs.count "cache.answer.miss" 1;
          None)

let add_answer t key e =
  match t.mode with
  | Off | Answers_off -> ()
  | On ->
      locked t @@ fun () ->
      revalidate t;
      let before = Lru.evictions t.t3 in
      Lru.add t.t3 key ~bytes:(entry_bytes e) e;
      let evicted = Lru.evictions t.t3 - before in
      if evicted > 0 then begin
        Metrics.add m_ans_evictions evicted;
        Obs.count "cache.answer.evict" evicted
      end;
      Metrics.set_gauge g_ans_entries (float_of_int (Lru.length t.t3));
      Metrics.set_gauge g_ans_bytes (float_of_int (Lru.bytes t.t3))

(* ---- tier 4 ---- *)

let fragment t ex ((cq : Bgp.t), u) =
  match t.mode with
  | Off | Answers_off -> None
  | On -> (
      let key = t1_key cq in
      let probe =
        locked t @@ fun () ->
        revalidate t;
        match Views.find t.t4 key u with
        | Some e ->
            t.c4.hits <- t.c4.hits + 1;
            (* tripwires (RDFQA_VERIFY / test builds): an entry that is
               not the fragment's rewrite, or stamped at other store
               versions, rejects the statement instead of being served *)
            Analysis.Plan_verify.check_exn (fun () ->
                Analysis.View_verify.verify_rewrite ~context:"cache/fragment"
                  ~head:e.Views.head
                  ~arity:(Engine.Executor.snapshot_arity e.Views.snap)
                  ~terms:(Engine.Executor.snapshot_terms e.Views.snap)
                  ~cq ~ucq:u);
            Analysis.Plan_verify.check_exn (fun () ->
                Analysis.View_verify.verify_freshness ~context:"cache/fragment"
                  ~def_schema:t.seen_schema ~def_data:t.seen_data
                  ~schema:(Es.schema_version t.store)
                  ~data:(Es.data_version t.store));
            `Hit e.Views.snap
        | None ->
            t.c4.misses <- t.c4.misses + 1;
            `Miss (t.generation, t.seen_data)
      in
      match probe with
      | `Hit snap -> Some snap
      | `Miss (gen, dv) -> (
          (* record outside the lock, like a tier-1 miss: a racing
             recorder of the same UCQ records the same snapshot, and the
             first insert wins *)
          match Engine.Executor.record_fragment ex u with
          | None -> None
          | Some snap ->
              let e =
                {
                  Views.ucq = u;
                  head = Bgp.head_vars cq;
                  footprint = Views.footprint_of t.store u;
                  snap;
                }
              in
              locked t @@ fun () ->
              revalidate t;
              if t.generation <> gen || t.seen_data <> dv then Some snap
              else Some (Views.add t.t4 key e).Views.snap))

(* ---- stats ---- *)

let stats t =
  locked t @@ fun () ->
  {
    reformulation =
      {
        hits = t.c1.hits;
        misses = t.c1.misses;
        evictions = t.c1.evictions;
        entries = Hashtbl.length t.t1;
        bytes = 0;
      };
    cover =
      {
        hits = t.c2.hits;
        misses = t.c2.misses;
        evictions = t.c2.evictions;
        entries =
          Hashtbl.length t.t2_jucq + Hashtbl.length t.t2_cost
          + Hashtbl.length t.t2_frag;
        bytes = 0;
      };
    answer =
      {
        hits = t.c3.hits;
        misses = t.c3.misses;
        evictions = t.c3.evictions + Lru.evictions t.t3;
        entries = Lru.length t.t3;
        bytes = Lru.bytes t.t3;
      };
    fragment =
      {
        hits = t.c4.hits;
        misses = t.c4.misses;
        evictions = t.c4.evictions + Lru.evictions t.t4;
        entries = Lru.length t.t4;
        bytes = Lru.bytes t.t4;
      };
  }

let tier_to_string name (s : tier_stats) =
  Printf.sprintf "%s %d/%d hits (%d entries%s%s)" name s.hits
    (s.hits + s.misses) s.entries
    (if s.bytes > 0 then Printf.sprintf ", %d B" s.bytes else "")
    (if s.evictions > 0 then Printf.sprintf ", %d evicted" s.evictions else "")

let stats_to_string s =
  String.concat "; "
    [
      tier_to_string "reformulation" s.reformulation;
      tier_to_string "cover" s.cover;
      tier_to_string "answers" s.answer;
      tier_to_string "fragments" s.fragment;
    ]

(* Tests for the version-aware memoization subsystem: the LRU backing
   store, the invalidation matrix, the stale-reformulation regression the
   subsystem exists to prevent, warm-vs-cold answer identity across
   engine profiles, and differential property tests pitting a mutated
   store against one rebuilt from scratch and a cache-on system against
   a cache-off twin under writes. *)

module Es = Store.Encoded_store
module Statistics = Store.Statistics
module Bgp = Query.Bgp
module Ucq = Query.Ucq

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

(* ---- Lru: eviction order and byte accounting ---- *)

let test_lru_eviction_order () =
  let l = Cache.Lru.create ~capacity_bytes:100 in
  Cache.Lru.add l "a" ~bytes:40 1;
  Cache.Lru.add l "b" ~bytes:40 2;
  Alcotest.(check (list string)) "recency after adds" [ "b"; "a" ]
    (Cache.Lru.keys_by_recency l);
  (* a hit refreshes recency, so the next eviction takes "b" *)
  Alcotest.(check (option int)) "find a" (Some 1) (Cache.Lru.find l "a");
  Cache.Lru.add l "c" ~bytes:40 3;
  Alcotest.(check (list string)) "b evicted, not a" [ "c"; "a" ]
    (Cache.Lru.keys_by_recency l);
  Alcotest.(check int) "one eviction" 1 (Cache.Lru.evictions l);
  Alcotest.(check (option int)) "b gone" None (Cache.Lru.find l "b");
  (* a large entry evicts as many cold entries as it takes *)
  Cache.Lru.add l "d" ~bytes:90 4;
  Alcotest.(check (list string)) "d displaced both" [ "d" ]
    (Cache.Lru.keys_by_recency l);
  Alcotest.(check int) "three evictions" 3 (Cache.Lru.evictions l)

let test_lru_byte_accounting () =
  let l = Cache.Lru.create ~capacity_bytes:100 in
  Cache.Lru.add l "a" ~bytes:30 1;
  Cache.Lru.add l "b" ~bytes:20 2;
  Alcotest.(check int) "bytes sum" 50 (Cache.Lru.bytes l);
  (* replacing a binding replaces its weight, not adds to it *)
  Cache.Lru.add l "a" ~bytes:60 10;
  Alcotest.(check int) "replace reweighs" 80 (Cache.Lru.bytes l);
  Alcotest.(check int) "replace is not an eviction" 0 (Cache.Lru.evictions l);
  Cache.Lru.remove l "b";
  Alcotest.(check int) "remove subtracts" 60 (Cache.Lru.bytes l);
  Alcotest.(check int) "remove not counted" 0 (Cache.Lru.evictions l);
  (* an entry over the whole capacity is refused, counted as an eviction,
     and leaves the cache untouched *)
  Cache.Lru.add l "huge" ~bytes:101 99;
  Alcotest.(check (option int)) "oversized refused" None
    (Cache.Lru.find l "huge");
  Alcotest.(check int) "cache untouched" 60 (Cache.Lru.bytes l);
  Alcotest.(check int) "refusal counted" 1 (Cache.Lru.evictions l);
  Cache.Lru.clear l;
  Alcotest.(check int) "clear zeroes bytes" 0 (Cache.Lru.bytes l);
  Alcotest.(check int) "clear zeroes length" 0 (Cache.Lru.length l)

(* ---- a small ontology used by the cache-level tests ---- *)

let base_schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "A", u "B");
      Rdf.Schema.Subproperty (u "p", u "q");
    ]

let base_facts =
  [
    tr (u "i1") typ (u "A");
    tr (u "i2") typ (u "B");
    tr (u "i1") (u "p") (u "o1");
    tr (u "i2") (u "q") (u "o2");
    tr (u "i3") (u "q") (u "o1");
  ]

let fresh_store () = Es.of_graph (Rdf.Graph.make base_schema base_facts)
let q_type_b = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "B")) ]

let q_join =
  Bgp.make [ v "x" ]
    [
      Bgp.atom (v "x") (c (u "q")) (v "y");
      Bgp.atom (v "x") (c typ) (c (u "B"));
    ]

(* ---- the stale-memo regression ----

   The reformulation engine used to carry its own query-level memo keyed
   only on the canonical CQ: correct for a frozen schema, silently stale
   after a schema update.  The schema-versioned tier 1 replaces it; this
   is the regression test that the replacement actually observes schema
   changes end to end. *)

let test_schema_update_refreshes_reformulation () =
  let store = fresh_store () in
  let sys = Rqa.Answering.make store in
  let cache = Rqa.Answering.cache sys in
  Alcotest.(check int) "q(B) reformulates to {B, A}" 2
    (Ucq.cardinal (Cache.reformulate cache q_type_b));
  Alcotest.(check int) "answers before" 2
    (List.length (Rqa.Answering.answer_terms sys Rqa.Answering.Gcov q_type_b));
  (* a second reformulation is a tier-1 hit *)
  let s = Cache.stats cache in
  ignore (Cache.reformulate cache q_type_b);
  let s' = Cache.stats cache in
  Alcotest.(check int) "tier-1 hit" (s.Cache.reformulation.Cache.hits + 1)
    s'.Cache.reformulation.Cache.hits;
  (* declare C ⊑ B and type an instance with it, through the store's
     mutation API: same system, same cache *)
  let changed =
    Es.insert_triples store
      [
        Rdf.Schema.constr_to_triple (Rdf.Schema.Subclass (u "C", u "B"));
        tr (u "i4") typ (u "C");
      ]
  in
  Alcotest.(check (pair int int)) "1 schema + 1 data change" (1, 1) changed;
  Alcotest.(check int) "q(B) now reformulates to {B, A, C}" 3
    (Ucq.cardinal (Cache.reformulate cache q_type_b));
  Alcotest.(check int) "the new instance answers" 3
    (List.length (Rqa.Answering.answer_terms sys Rqa.Answering.Gcov q_type_b))

(* ---- the invalidation matrix ---- *)

let test_invalidation_matrix () =
  let store = fresh_store () in
  let cache = Cache.create ~mode:Cache.On store in
  ignore (Cache.reformulate cache q_type_b);
  let t2 =
    match Cache.tier2 cache ~scope:"test" ~query_key:"k" with
    | Some h -> h
    | None -> Alcotest.fail "tier2 handle in On mode"
  in
  Cache.t2_add_cost t2 "cover" 42.0;
  Alcotest.(check (option (float 0.0))) "tier-2 primed" (Some 42.0)
    (Cache.t2_find_cost t2 "cover");
  (* data-only change: tier 1 stays warm, tiers 2-3 flush *)
  ignore (Es.insert_triples store [ tr (u "i9") (u "q") (u "o9") ]);
  let s0 = Cache.stats cache in
  ignore (Cache.reformulate cache q_type_b);
  let s1 = Cache.stats cache in
  Alcotest.(check int) "tier 1 survives a data insert"
    (s0.Cache.reformulation.Cache.hits + 1)
    s1.Cache.reformulation.Cache.hits;
  Alcotest.(check int) "no tier-1 invalidation" 0
    s1.Cache.reformulation.Cache.evictions;
  Alcotest.(check (option (float 0.0))) "tier 2 flushed" None
    (Cache.t2_find_cost t2 "cover");
  (* schema change: everything flushes and the reformulator is rebuilt *)
  let r_before = Cache.reformulator cache in
  ignore
    (Es.insert_triples store
       [ Rdf.Schema.constr_to_triple (Rdf.Schema.Subclass (u "D", u "B")) ]);
  let s2 = Cache.stats cache in
  ignore (Cache.reformulate cache q_type_b);
  let s3 = Cache.stats cache in
  Alcotest.(check int) "tier 1 misses after a schema change"
    (s2.Cache.reformulation.Cache.misses + 1)
    s3.Cache.reformulation.Cache.misses;
  Alcotest.(check bool) "tier-1 entries dropped" true
    (s3.Cache.reformulation.Cache.evictions > 0);
  Alcotest.(check bool) "fresh reformulation engine" true
    (not (Cache.reformulator cache == r_before))

let test_answer_tier_lifecycle () =
  let store = fresh_store () in
  let sys = Rqa.Answering.make store in
  let cache = Rqa.Answering.cache sys in
  let r1 = Rqa.Answering.answer sys Rqa.Answering.Gcov q_join in
  let s1 = Cache.stats cache in
  Alcotest.(check bool) "entry cached with a byte weight" true
    (s1.Cache.answer.Cache.entries = 1 && s1.Cache.answer.Cache.bytes > 0);
  let r2 = Rqa.Answering.answer sys Rqa.Answering.Gcov q_join in
  let s2 = Cache.stats cache in
  Alcotest.(check int) "warm repeat is a tier-3 hit"
    (s1.Cache.answer.Cache.hits + 1)
    s2.Cache.answer.Cache.hits;
  let ex = Rqa.Answering.engine sys in
  Alcotest.(check bool) "bit-identical answers" true
    (Engine.Executor.decode ex r1.Rqa.Answering.answers
    = Engine.Executor.decode ex r2.Rqa.Answering.answers);
  Alcotest.(check bool) "identical plan metadata" true
    (r1.Rqa.Answering.cover = r2.Rqa.Answering.cover
    && r1.Rqa.Answering.union_terms = r2.Rqa.Answering.union_terms
    && r1.Rqa.Answering.fragment_terms = r2.Rqa.Answering.fragment_terms
    && r1.Rqa.Answering.covers_explored = r2.Rqa.Answering.covers_explored);
  (* a data change flushes the tier; the next answer misses and recomputes *)
  ignore (Es.insert_triples store [ tr (u "i7") (u "q") (u "o7"); tr (u "i7") typ (u "B") ]);
  let r3 = Rqa.Answering.answer sys Rqa.Answering.Gcov q_join in
  let s3 = Cache.stats cache in
  Alcotest.(check int) "post-update answer is a miss"
    (s2.Cache.answer.Cache.misses + 1)
    s3.Cache.answer.Cache.misses;
  Alcotest.(check int) "and sees the new row"
    (Engine.Relation.rows r1.Rqa.Answering.answers + 1)
    (Engine.Relation.rows r3.Rqa.Answering.answers)

(* ---- warm ≡ cold across engine profiles and strategies ----

   Three passes per (input, engine profile) over every (strategy, query):
   cold, warm (served by the answer tier) and answers-off (served by the
   reformulation and cover tiers, with real execution).  All three must
   agree bit-for-bit on decoded rows, covers, reformulation sizes and
   search effort.  The warm pass must never miss tier 3; the answers-off
   pass must never miss tiers 1-2 and must hit tier 2 exactly as often as
   the cold pass probed it (data did not move, so every cover cost the
   cold pass computed is still there). *)

(* ECov's wall-clock budget is disabled: a time budget can trip at a
   different cover on the cold and the warm cost caches. *)
let bounded_ecov =
  Rqa.Answering.Ecov { Rqa.Cover_space.max_covers = 64; max_millis = infinity }

let lubm_1 =
  lazy (Workloads.Lubm.generate { Workloads.Lubm.universities = 1 })

let dblp_2000 =
  lazy (Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 })

let warm_cold_inputs =
  [
    ( "toy",
      fresh_store,
      [
        Rqa.Answering.Saturation;
        Rqa.Answering.Ucq;
        Rqa.Answering.Scq;
        bounded_ecov;
        Rqa.Answering.Gcov;
      ],
      [ ("q_type_b", q_type_b); ("q_join", q_join) ] );
    ( "lubm-1",
      (fun () -> Lazy.force lubm_1),
      [ bounded_ecov; Rqa.Answering.Gcov ],
      Workloads.Lubm.queries );
    ( "dblp-2000",
      (fun () -> Lazy.force dblp_2000),
      [ Rqa.Answering.Gcov ],
      Workloads.Dblp.queries );
  ]

let outcome sys strat q =
  match Rqa.Answering.answer sys strat q with
  | r ->
      let ex =
        match strat with
        | Rqa.Answering.Saturation -> Rqa.Answering.saturated_engine sys
        | _ -> Rqa.Answering.engine sys
      in
      Ok
        ( Engine.Executor.decode ex r.Rqa.Answering.answers,
          r.Rqa.Answering.cover,
          r.Rqa.Answering.union_terms,
          r.Rqa.Answering.fragment_terms,
          r.Rqa.Answering.covers_explored )
  | exception Engine.Profile.Engine_failure { reason; _ } ->
      Error (Engine.Profile.failure_to_string reason)

let test_warm_equals_cold_all_profiles () =
  List.iter
    (fun (input, store, strategies, queries) ->
      List.iter
        (fun profile ->
          let sys = Rqa.Answering.make ~profile (store ()) in
          let cache = Rqa.Answering.cache sys in
          Cache.set_mode cache Cache.On;
          let label = input ^ " " ^ profile.Engine.Profile.name in
          let pass () =
            List.concat_map
              (fun strat ->
                List.map
                  (fun (qname, q) ->
                    ( Printf.sprintf "%s/%s %s" label
                        (Rqa.Answering.strategy_name strat)
                        qname,
                      outcome sys strat q ))
                  queries)
              strategies
          in
          let check_pass which expected got =
            List.iter2
              (fun (label, e) (_, g) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s = cold" label which)
                  true (e = g))
              expected got
          in
          let tier_delta tier (before : Cache.stats) (after : Cache.stats) =
            ( (tier after).Cache.hits - (tier before).Cache.hits,
              (tier after).Cache.misses - (tier before).Cache.misses )
          in
          let t1 (s : Cache.stats) = s.Cache.reformulation
          and t2 (s : Cache.stats) = s.Cache.cover
          and t3 (s : Cache.stats) = s.Cache.answer in
          let s0 = Cache.stats cache in
          let cold = pass () in
          let s1 = Cache.stats cache in
          check_pass "warm" cold (pass ());
          let s2 = Cache.stats cache in
          Alcotest.(check int) (label ^ ": warm tier-3 misses") 0
            (snd (tier_delta t3 s1 s2));
          Cache.set_mode cache Cache.Answers_off;
          check_pass "answers-off" cold (pass ());
          let s3 = Cache.stats cache in
          Alcotest.(check int) (label ^ ": answers-off tier-1 misses") 0
            (snd (tier_delta t1 s2 s3));
          let cold_hits, cold_misses = tier_delta t2 s0 s1 in
          Alcotest.(check (pair int int))
            (label ^ ": answers-off tier-2 (hits, misses) = cold probes")
            (cold_hits + cold_misses, 0)
            (tier_delta t2 s2 s3))
        Engine.Profile.all)
    warm_cold_inputs

(* ---- differential property: mutated store = rebuilt store ----

   Random interleavings of triple inserts and deletes (facts and schema
   constraints) applied to a live store must leave it indistinguishable
   from a store rebuilt from scratch over the final state: same version
   deltas (counted effectively — duplicate inserts and absent deletes are
   no-ops), same query answers under a cached system, and the same
   statistics through the incremental refresh path. *)

type op = Ins of Rdf.Triple.t | Del of Rdf.Triple.t

let data_pool =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun o ->
          [
            tr (u s) (u "p") (u o);
            tr (u s) (u "q") (u o);
            tr (u s) (u "r") (u o);
            tr (u s) typ (u o);
          ])
        [ "o1"; "o2"; "A"; "B"; "C" ])
    [ "i1"; "i2"; "i3"; "i4" ]

let constraint_pool =
  List.map Rdf.Schema.constr_to_triple
    [
      Rdf.Schema.Subclass (u "C", u "B");
      Rdf.Schema.Subproperty (u "r", u "p");
      Rdf.Schema.Subclass (u "A", u "B");
    ]

let gen_ops =
  QCheck2.Gen.(
    list_size (1 -- 20)
      (map2
         (fun ins t -> if ins then Ins t else Del t)
         bool
         (frequency
            [ (8, oneofl data_pool); (2, oneofl constraint_pool) ])))

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Ins t -> "+" ^ Rdf.Triple.to_string t
         | Del t -> "-" ^ Rdf.Triple.to_string t)
       ops)

(* The op sequence under set semantics: final facts, final declared
   constraints, and the number of effective changes of each kind. *)
let shadow ops =
  List.fold_left
    (fun (facts, constrs, eff_d, eff_s) op ->
      match op with
      | Ins t -> (
          match Rdf.Schema.constr_of_triple t with
          | Some cst ->
              if List.mem cst constrs then (facts, constrs, eff_d, eff_s)
              else (facts, cst :: constrs, eff_d, eff_s + 1)
          | None ->
              if List.mem t facts then (facts, constrs, eff_d, eff_s)
              else (t :: facts, constrs, eff_d + 1, eff_s))
      | Del t -> (
          match Rdf.Schema.constr_of_triple t with
          | Some cst ->
              if List.mem cst constrs then
                ( facts,
                  List.filter (fun c -> c <> cst) constrs,
                  eff_d,
                  eff_s + 1 )
              else (facts, constrs, eff_d, eff_s)
          | None ->
              if List.mem t facts then
                (List.filter (fun t' -> t' <> t) facts, constrs, eff_d + 1, eff_s)
              else (facts, constrs, eff_d, eff_s)))
    (base_facts, Rdf.Schema.constraints base_schema, 0, 0)
    ops

let probe_atoms =
  [
    Bgp.atom (v "x") (c typ) (c (u "B"));
    Bgp.atom (v "x") (c (u "q")) (v "y");
    Bgp.atom (v "x") (c (u "p")) (v "x");
    Bgp.atom (c (u "i1")) (v "p") (v "y");
  ]

let diff_queries =
  [
    q_type_b;
    q_join;
    Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "q")) (v "y") ];
  ]

let prop_mutated_equals_rebuilt =
  QCheck2.Test.make ~count:40 ~name:"mutated store = rebuilt store"
    ~print:print_ops gen_ops (fun ops ->
      let store = fresh_store () in
      let stats = Statistics.create store in
      (* touch the statistics before mutating so the refresh after the
         ops runs the incremental path, not a cold build *)
      List.iter (fun a -> ignore (Statistics.atom_count stats a)) probe_atoms;
      ignore (Statistics.global_distinct stats `Subject);
      let v0_s = Es.schema_version store and v0_d = Es.data_version store in
      List.iter
        (function
          | Ins t -> ignore (Es.insert_triples store [ t ])
          | Del t -> ignore (Es.delete_triples store [ t ]))
        ops;
      let facts, constrs, eff_d, eff_s = shadow ops in
      let rebuilt =
        Es.of_graph (Rdf.Graph.make (Rdf.Schema.of_constraints constrs) facts)
      in
      let fresh_stats = Statistics.create rebuilt in
      let sys_mut = Rqa.Answering.make store in
      let sys_reb = Rqa.Answering.make rebuilt in
      Es.data_version store - v0_d = eff_d
      && Es.schema_version store - v0_s = eff_s
      && Es.size store = Es.size rebuilt
      && List.for_all
           (fun a ->
             Statistics.atom_count stats a = Statistics.atom_count fresh_stats a)
           probe_atoms
      && List.for_all
           (fun pos ->
             Statistics.global_distinct stats pos
             = Statistics.global_distinct fresh_stats pos)
           [ `Subject; `Property; `Object ]
      && List.for_all
           (fun q ->
             let a_mut =
               Rqa.Answering.answer_terms sys_mut Rqa.Answering.Gcov q
             in
             let a_reb =
               Rqa.Answering.answer_terms sys_reb Rqa.Answering.Gcov q
             in
             (* and the warm repeat on the mutated system agrees too *)
             a_mut = a_reb
             && a_mut = Rqa.Answering.answer_terms sys_mut Rqa.Answering.Gcov q)
           diff_queries)

(* ---- tier 4 under writes: a cache-on system against a cache-off twin ----

   Random sequences of reads and fact INSERT/DELETE batches, applied to
   one store that a cache-on system and a cache-off twin both answer
   over.  After every step both must report the same decoded rows and
   covers, and every read the answer tier misses must charge exactly the
   operations the twin charges: what tier 4 replays, across writes that
   did not touch it, is what a live evaluation computes. *)

type step = Read of int * int | Write of bool * int list

let gen_steps =
  QCheck2.Gen.(
    list_size (4 -- 10)
      (frequency
         [
           (3, map2 (fun s q -> Read (s, q)) (int_bound 7) (int_bound 99));
           ( 1,
             map2
               (fun ins idx -> Write (ins, idx))
               bool
               (list_size (1 -- 4) (int_bound 99)) );
         ]))

let print_steps =
  let step = function
    | Read (s, q) -> Printf.sprintf "R%d/%d" s q
    | Write (ins, idx) ->
        (if ins then "+" else "-")
        ^ String.concat "," (List.map string_of_int idx)
  in
  fun steps -> String.concat " " (List.map step steps)

(* Write batches draw from one stored fact per property (deletes) and a
   fresh subject's copy of it (inserts), so writes reach every property
   footprint the templates select on. *)
let write_pool store =
  let d = Rdf.Dictionary.decode (Es.dictionary store) in
  let by_prop = Hashtbl.create 16 in
  for i = Es.size store - 1 downto 0 do
    Hashtbl.replace by_prop (Es.property store i) i
  done;
  Hashtbl.fold (fun _ i acc -> i :: acc) by_prop []
  |> List.sort Int.compare
  |> List.concat_map (fun i ->
         let p = d (Es.property store i) and o = d (Es.obj store i) in
         [
           tr (d (Es.subject store i)) p o;
           tr (u (Printf.sprintf "http://tier4.test/s%d" i)) p o;
         ])
  |> Array.of_list

let prop_tier4_matches_off (input, generate, strategies, queries) jobs =
  QCheck2.Test.make ~count:10
    ~name:
      (Printf.sprintf "tier 4 = cache off under writes, %s jobs=%d" input
         jobs)
    ~print:print_steps gen_steps (fun steps ->
      Par.set_jobs jobs;
      let store = generate () in
      let pool = write_pool store in
      let sys_on =
        Rqa.Answering.make ~cache:(Cache.create ~mode:Cache.On store) store
      and sys_off =
        Rqa.Answering.make ~cache:(Cache.create ~mode:Cache.Off store) store
      in
      Rqa.Answering.warm_up sys_on (List.map snd queries);
      let strategies = Array.of_list strategies
      and queries = Array.of_list queries in
      let ops sys =
        Engine.Executor.last_operations (Rqa.Answering.engine sys)
      in
      let misses () =
        (Cache.stats (Rqa.Answering.cache sys_on)).Cache.answer.Cache.misses
      in
      let ok =
        List.for_all
          (function
            | Read (si, qi) ->
                let strat = strategies.(si mod Array.length strategies)
                and _, q = queries.(qi mod Array.length queries) in
                let m0 = misses () in
                let on = outcome sys_on strat q in
                let missed = misses () > m0 in
                let on_ops = ops sys_on in
                let off = outcome sys_off strat q in
                on = off && ((not missed) || on_ops = ops sys_off)
            | Write (insert, idx) ->
                let batch =
                  List.map (fun i -> pool.(i mod Array.length pool)) idx
                in
                ignore
                  ((if insert then Es.insert_triples else Es.delete_triples)
                     store batch);
                true)
          steps
      in
      Par.set_jobs 1;
      ok)

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    (prop_mutated_equals_rebuilt
    :: List.concat_map
         (fun input -> List.map (prop_tier4_matches_off input) [ 1; 4 ])
         [
           ( "lubm-1",
             (fun () ->
               Workloads.Lubm.generate { Workloads.Lubm.universities = 1 }),
             [ Rqa.Answering.Gcov; bounded_ecov ],
             Workloads.Lubm.queries );
           ( "dblp-2000",
             (fun () ->
               Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 }),
             [ Rqa.Answering.Gcov ],
             Workloads.Dblp.queries );
         ])

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "byte accounting" `Quick test_lru_byte_accounting;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "schema update refreshes reformulation" `Quick
            test_schema_update_refreshes_reformulation;
          Alcotest.test_case "invalidation matrix" `Quick
            test_invalidation_matrix;
          Alcotest.test_case "answer tier lifecycle" `Quick
            test_answer_tier_lifecycle;
        ] );
      ( "answers",
        [
          Alcotest.test_case "warm = cold, all profiles and strategies"
            `Slow test_warm_equals_cold_all_profiles;
        ] );
      ("differential", qcheck_cases);
    ]

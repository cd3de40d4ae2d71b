(* Tests for cache tier 4, the demand-filled fragment snapshots: serving
   must be observably invisible — decoded answers, per-statement operation
   totals and failure reasons bit-identical with the tier on and off,
   across engine profiles and jobs settings — and invalidation must be
   footprint-scoped: a data change drops only the fragments whose
   property footprint it touches, and what it keeps must still replay
   exactly what a live evaluation computes. *)

open Query
module Es = Store.Encoded_store

(* Every plan compiled while this suite runs goes through the static
   verifier, which also arms the RF002/RF003 tier-4 tripwires. *)
let () = Analysis.Plan_verify.set_enabled true

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "GradStudent", u "Student");
      Rdf.Schema.Subclass (u "Student", u "Person");
      Rdf.Schema.Subproperty (u "worksFor", u "memberOf");
      Rdf.Schema.Domain (u "memberOf", u "Person");
      Rdf.Schema.Range (u "memberOf", u "Org");
      Rdf.Schema.Subproperty (u "mastersFrom", u "degreeFrom");
      Rdf.Schema.Subproperty (u "doctorFrom", u "degreeFrom");
    ]

(* Every schema term also appears in a fact, so each constant a
   reformulation mentions is in the dictionary: every fragment can be
   recorded (a disjunct with an absent body constant cannot) and its
   footprint stays [Props] (an unencodable property widens it to
   [Universal], which would defeat the scoping this suite asserts). *)
let base_facts =
  tr (u "p0") (u "degreeFrom") (u "univ1")
  :: tr (u "p0") (u "memberOf") (u "org0")
  :: tr (u "p0") typ (u "Person")
  :: tr (u "p1") typ (u "Student")
  :: List.concat
       (List.init 60 (fun i ->
            let p = u (Printf.sprintf "person%d" i) in
            [
              tr p typ (u (if i mod 3 = 0 then "GradStudent" else "Student"));
              tr p (u "worksFor") (u (Printf.sprintf "org%d" (i mod 4)));
              tr p
                (u (if i mod 2 = 0 then "mastersFrom" else "doctorFrom"))
                (u (Printf.sprintf "univ%d" (i mod 3)));
            ]))

let graph () = Rdf.Graph.make schema base_facts
let fresh_store () = Es.of_graph (graph ())

(* A workload whose covers share fragments across queries — the single
   atoms recur inside the join queries — plus an α-renamed duplicate, so
   serving must work across variable renamings (same canonical key, same
   physical tier-1 reformulation, different head variable names). *)
let q_type = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ]

let q_degree =
  Bgp.make [ v "x" ]
    [ Bgp.atom (v "x") (c (u "degreeFrom")) (c (u "univ1")) ]

let q_member =
  Bgp.make [ v "x"; v "o" ] [ Bgp.atom (v "x") (c (u "memberOf")) (v "o") ]

let q_join =
  Bgp.make [ v "x"; v "y" ]
    [
      Bgp.atom (v "x") (c typ) (v "y");
      Bgp.atom (v "x") (c (u "degreeFrom")) (c (u "univ1"));
      Bgp.atom (v "x") (c (u "memberOf")) (c (u "org2"));
    ]

let q_member_renamed =
  Bgp.make [ v "s"; v "w" ] [ Bgp.atom (v "s") (c (u "memberOf")) (v "w") ]

let workload =
  [
    ("q_type", q_type);
    ("q_degree", q_degree);
    ("q_member", q_member);
    ("q_join", q_join);
    ("q_member_renamed", q_member_renamed);
  ]

(* A tier-4 system and its baseline over ONE store: the baseline's cache
   is off, and the tier-4 system's answer tier holds nothing (every entry
   outweighs its one-byte budget), so every measured answer on either
   side is a real evaluation — replayed fragments on one side, live ones
   on the other. *)
let fresh_pair ?(profile = Engine.Profile.postgres_like) () =
  let store = fresh_store () in
  let sys_base =
    Rqa.Answering.make ~profile ~cache:(Cache.create ~mode:Cache.Off store)
      store
  in
  let sys_views =
    Rqa.Answering.make ~profile
      ~cache:(Cache.create ~mode:Cache.On ~answer_capacity_bytes:1 store)
      store
  in
  (store, sys_base, sys_views)

let fragment_stats sys = (Cache.stats (Rqa.Answering.cache sys)).Cache.fragment

(* Everything tier 4 could observably change about one statement:
   decoded rows, the per-statement operation total, or the failure reason
   and the operations charged up to the failure. *)
let outcome sys strat q =
  match Rqa.Answering.answer sys strat q with
  | r ->
      let ex = Rqa.Answering.engine sys in
      Ok
        ( List.map
            (List.map Rdf.Term.to_string)
            (Engine.Executor.decode ex r.Rqa.Answering.answers),
          Engine.Executor.last_operations ex )
  | exception Engine.Profile.Engine_failure { reason; _ } ->
      Error
        ( Engine.Profile.failure_to_string reason,
          Engine.Executor.last_operations (Rqa.Answering.engine sys) )

let strategies =
  [
    Rqa.Answering.Ecov
      { Rqa.Cover_space.default_budget with max_millis = infinity };
    Rqa.Answering.Gcov;
  ]

let check_agreement ~msg sys_base sys_views =
  List.iter
    (fun strat ->
      List.iter
        (fun (name, q) ->
          let b = outcome sys_base strat q and w = outcome sys_views strat q in
          if b <> w then
            Alcotest.fail
              (Printf.sprintf "%s: %s/%s diverges with tier 4 on" msg name
                 (Rqa.Answering.strategy_name strat)))
        workload)
    strategies

(* ---- bit-identity across profiles × jobs ---- *)

let test_differential_profiles_jobs () =
  List.iter
    (fun profile ->
      List.iter
        (fun jobs ->
          Par.set_jobs jobs;
          let _store, sys_base, sys_views = fresh_pair ~profile () in
          let msg =
            Printf.sprintf "%s/jobs=%d" profile.Engine.Profile.name jobs
          in
          (* the first pass fills tier 4, the second replays from it *)
          check_agreement ~msg sys_base sys_views;
          let filled = fragment_stats sys_views in
          check_agreement ~msg:(msg ^ " replayed") sys_base sys_views;
          let replayed = fragment_stats sys_views in
          Alcotest.(check bool)
            "fragments recorded" true (filled.Cache.entries > 0);
          Alcotest.(check bool)
            "fragments replayed" true (replayed.Cache.hits > filled.Cache.hits);
          (* under the permissive profile nothing is refused, so every
             fragment the first pass recorded serves the second pass,
             including the α-renamed duplicate's *)
          if profile == Engine.Profile.postgres_like then
            Alcotest.(check int) "no second-pass misses" filled.Cache.misses
              replayed.Cache.misses)
        [ 1; 4 ])
    [
      Engine.Profile.postgres_like;
      Engine.Profile.db2_like;
      Engine.Profile.mysql_like;
    ];
  Par.set_jobs 1

(* An operation budget that trips part-way through [q_join], whose GCov
   cover runs three fragments: on a miss a fragment is recorded, installed
   and replayed, and on the repeat it is replayed from the tier.  Either
   way the statement must fail on the charge live evaluation fails on,
   with the same operation count.  Every budget from half the statement's
   operations up is tried, so some trip inside a replayed run of equal
   charges. *)
let test_budget_trips_in_replay () =
  Par.set_jobs 1;
  let store, sys_base, _ = fresh_pair () in
  let total =
    match outcome sys_base Rqa.Answering.Gcov q_join with
    | Ok (_, ops) -> ops
    | Error _ -> Alcotest.fail "q_join fails under postgres-like"
  in
  let tripped_after_fill = ref 0 in
  for budget = total / 2 to total - 1 do
    let profile =
      {
        Engine.Profile.postgres_like with
        Engine.Profile.max_operations = budget;
      }
    in
    let sys_base =
      Rqa.Answering.make ~profile ~cache:(Cache.create ~mode:Cache.Off store)
        store
    and sys_views =
      Rqa.Answering.make ~profile
        ~cache:(Cache.create ~mode:Cache.On ~answer_capacity_bytes:1 store)
        store
    in
    List.iter
      (fun pass ->
        let before = (fragment_stats sys_views).Cache.entries in
        let w = outcome sys_views Rqa.Answering.Gcov q_join in
        if w <> outcome sys_base Rqa.Answering.Gcov q_join then
          Alcotest.fail
            (Printf.sprintf "budget %d, %s: diverges with tier 4 on" budget
               pass);
        if
          Result.is_error w
          && (fragment_stats sys_views).Cache.entries > before
        then incr tripped_after_fill)
      [ "miss"; "repeat" ]
  done;
  Alcotest.(check bool)
    "some budget trips after a fragment was recorded" true
    (!tripped_after_fill > 0)

(* ---- footprint-scoped invalidation ---- *)

(* Single-atom queries pin down exactly which fragments exist: GCov runs
   each as one fragment, [q_degree]'s reformulation mentions only
   degreeFrom/mastersFrom/doctorFrom, [q_member]'s only memberOf/worksFor
   — disjoint, so each mutation below must drop one and keep the other. *)
let test_incremental_footprint () =
  Par.set_jobs 1;
  let store, sys_base, sys_views = fresh_pair () in
  let answer q =
    ignore (Rqa.Answering.answer sys_views Rqa.Answering.Gcov q)
  in
  (* which of [q_degree], [q_member] replayed a kept fragment *)
  let served () =
    List.map
      (fun q ->
        let before = (fragment_stats sys_views).Cache.hits in
        answer q;
        (fragment_stats sys_views).Cache.hits > before)
      [ q_degree; q_member ]
  in
  Alcotest.(check (list bool)) "first use records" [ false; false ]
    (served ());
  Alcotest.(check (list bool)) "then replays" [ true; true ] (served ());
  (* a memberOf-footprint fact: only the member fragment is dropped *)
  Es.insert store (tr (u "personNew") (u "worksFor") (u "org1"));
  Alcotest.(check (list bool)) "worksFor insert" [ true; false ] (served ());
  (* a degreeFrom-footprint fact: only the degree fragment is dropped *)
  Es.insert store (tr (u "personNew") (u "mastersFrom") (u "univ1"));
  Alcotest.(check (list bool)) "mastersFrom insert" [ false; true ]
    (served ());
  (* a property no reformulation mentions: both are kept *)
  Es.insert store (tr (u "personNew") (u "unrelatedProp") (u "z"));
  Alcotest.(check (list bool)) "unrelated insert" [ true; true ] (served ());
  (* a delete compacts the store (swap-remove); only the touched
     footprint is dropped, and serving stays bit-identical *)
  Alcotest.(check bool) "delete effective" true
    (Es.delete store (tr (u "person0") (u "mastersFrom") (u "univ0")));
  Alcotest.(check (list bool)) "mastersFrom delete" [ false; true ]
    (served ());
  Alcotest.(check int) "two entries resident" 2
    (fragment_stats sys_views).Cache.entries;
  check_agreement ~msg:"after interleaved inserts/deletes" sys_base sys_views;
  (* what the kept entries replay equals a fresh tier over the mutated
     store, which records every fragment anew *)
  let sys_cold =
    Rqa.Answering.make
      ~cache:(Cache.create ~mode:Cache.On ~answer_capacity_bytes:1 store)
      store
  in
  check_agreement ~msg:"fresh tier" sys_views sys_cold

(* ---- qcheck: bit-identity under random insert/delete interleavings ---- *)

(* Toggle pool spanning every footprint plus a never-mentioned property;
   an op deletes its triple when present and inserts it otherwise. *)
let pool =
  [|
    tr (u "m0") (u "worksFor") (u "orgM");
    tr (u "m1") (u "memberOf") (u "orgM");
    tr (u "m2") (u "mastersFrom") (u "univ1");
    tr (u "m3") (u "doctorFrom") (u "univ2");
    tr (u "m4") typ (u "GradStudent");
    tr (u "m5") typ (u "Person");
    tr (u "m6") (u "unrelatedProp") (u "z0");
    tr (u "person0") (u "worksFor") (u "org0");
  |]

let prop_mutation_interleaving =
  QCheck2.Test.make ~count:25
    ~name:"views bit-identical under random insert/delete interleavings"
    QCheck2.Gen.(list_size (int_range 1 8) (int_bound (Array.length pool - 1)))
    (fun ops ->
      Par.set_jobs 1;
      let store, sys_base, sys_views = fresh_pair () in
      let agree () =
        List.for_all
          (fun strat ->
            List.for_all
              (fun (_, q) ->
                outcome sys_base strat q = outcome sys_views strat q)
              workload)
          strategies
      in
      agree ()
      && List.for_all
           (fun i ->
             let t = pool.(i) in
             if not (Es.delete store t) then Es.insert store t;
             agree ())
           ops)

(* ---- metrics export ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_metrics_exported () =
  (* the tests above moved the counters; all five families must export *)
  let text = Metrics.to_prometheus () in
  List.iter
    (fun fam ->
      Alcotest.(check bool) (fam ^ " exported") true (contains text fam))
    [
      "rdfqa_views_hits_total";
      "rdfqa_views_misses_total";
      "rdfqa_views_rematerializations_total";
      "rdfqa_views_count";
      "rdfqa_views_bytes";
    ]

let () =
  Alcotest.run "views"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "profiles × jobs" `Quick
            test_differential_profiles_jobs;
          Alcotest.test_case "budget trips inside a replay" `Quick
            test_budget_trips_in_replay;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "incremental footprint" `Quick
            test_incremental_footprint;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_mutation_interleaving ] );
      ( "metrics",
        [ Alcotest.test_case "families exported" `Quick test_metrics_exported ]
      );
    ]

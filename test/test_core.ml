(* Tests for the paper's contribution: the Section 4.1 cost model, the
   cover space, ECov, GCov (Algorithm 1) and end-to-end answering under
   every strategy. *)

open Query

(* Every plan compiled while this suite runs goes through the static
   plan verifier: a schema or cover violation fails the tests. *)
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

let graph =
  let facts =
    List.concat
      (List.init 120 (fun i ->
           let p = u (Printf.sprintf "person%d" i) in
           [
             tr p typ (u (if i mod 3 = 0 then "GradStudent" else "Student"));
             tr p (u "worksFor") (u (Printf.sprintf "org%d" (i mod 4)));
             tr p
               (u (if i mod 2 = 0 then "mastersFrom" else "doctorFrom"))
               (u (Printf.sprintf "univ%d" (i mod 3)));
           ]))
  in
  Rdf.Graph.make schema facts

let store () = Store.Encoded_store.of_graph graph

let q3 =
  (* a three-atom query in the spirit of the paper's q1 *)
  Bgp.make [ v "x"; v "y" ]
    [
      Bgp.atom (v "x") (c typ) (v "y");
      Bgp.atom (v "x") (c (u "degreeFrom")) (c (u "univ1"));
      Bgp.atom (v "x") (c (u "memberOf")) (c (u "org2"));
    ]

let make_objective ?(oracle = Rqa.Answering.Paper_model) () =
  let sys = Rqa.Answering.make ~cost_oracle:oracle (store ()) in
  (sys, Rqa.Answering.objective sys q3)

(* ---- Cover_space ---- *)

let test_minimal_cover_counts () =
  Alcotest.(check int) "n=1" 1 (Rqa.Cover_space.minimal_cover_counts 1);
  Alcotest.(check int) "n=4" 49 (Rqa.Cover_space.minimal_cover_counts 4);
  Alcotest.(check int) "n=5" 462 (Rqa.Cover_space.minimal_cover_counts 5);
  Alcotest.(check int) "n=6" 6424 (Rqa.Cover_space.minimal_cover_counts 6)

let test_connected_fragments () =
  let frags = Rqa.Cover_space.connected_fragments q3 in
  (* all 7 non-empty subsets of 3 atoms sharing variable x are connected *)
  Alcotest.(check int) "7 connected fragments" 7 (List.length frags)

let test_enumerate_q3 () =
  let { Rqa.Cover_space.covers; complete } = Rqa.Cover_space.enumerate q3 in
  Alcotest.(check bool) "complete" true complete;
  (* Table 2 lists exactly 8 triple groupings for the 3-atom q1. *)
  Alcotest.(check int) "8 covers" 8 (List.length covers);
  List.iter
    (fun cover ->
      match Jucq.check_cover q3 cover with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("invalid cover enumerated: " ^ m))
    covers

let test_enumerate_respects_budget () =
  let q =
    Bgp.make [ v "x0" ]
      (List.init 8 (fun i ->
           Bgp.atom
             (v (Printf.sprintf "x%d" i))
             (c (u "p"))
             (v (Printf.sprintf "x%d" (i + 1)))))
  in
  let { Rqa.Cover_space.covers; complete } =
    Rqa.Cover_space.enumerate
      ~budget:{ Rqa.Cover_space.max_covers = 50; max_millis = 10_000.0 }
      q
  in
  Alcotest.(check bool) "truncated" false complete;
  Alcotest.(check bool) "within budget" true (List.length covers <= 50)

let test_enumerated_covers_minimal () =
  let { Rqa.Cover_space.covers; _ } = Rqa.Cover_space.enumerate q3 in
  List.iter
    (fun cover ->
      List.iteri
        (fun i f ->
          let others = List.filteri (fun j _ -> j <> i) cover in
          let covered_elsewhere =
            List.for_all
              (fun a -> List.exists (fun g -> List.mem a g) others)
              f
          in
          if covered_elsewhere then
            Alcotest.fail
              ("non-minimal cover enumerated: " ^ Jucq.cover_to_string cover))
        cover)
    covers

let test_enumeration_matches_bruteforce () =
  (* Independent brute-force reference: enumerate ALL antichains of
     connected fragments (as bitmasks) that cover the atom set and are
     minimal + pairwise joinable, and compare against Cover_space. *)
  let queries =
    [
      q3;
      Bgp.make [ v "x" ]
        [
          Bgp.atom (v "x") (c (u "p")) (v "y");
          Bgp.atom (v "y") (c (u "q")) (v "z");
          Bgp.atom (v "z") (c (u "r")) (v "w");
          Bgp.atom (v "x") (c typ) (c (u "C"));
        ];
    ]
  in
  List.iter
    (fun q ->
      let n = List.length q.Bgp.body in
      let atoms = Array.of_list q.Bgp.body in
      let connected mask =
        let members =
          List.filter (fun i -> mask land (1 lsl i) <> 0)
            (List.init n Fun.id)
        in
        Bgp.is_connected (List.map (fun i -> atoms.(i)) members)
      in
      let fragments =
        List.filter (fun m -> m <> 0 && connected m)
          (List.init (1 lsl n) Fun.id)
      in
      (* all subsets of fragments, as covers *)
      let rec subsets = function
        | [] -> [ [] ]
        | f :: rest ->
            let r = subsets rest in
            r @ List.map (fun s -> f :: s) r
      in
      let full = (1 lsl n) - 1 in
      let valid cover =
        cover <> []
        && List.fold_left ( lor ) 0 cover = full
        && (* no inclusion *)
        List.for_all
          (fun f ->
            List.for_all (fun g -> f == g || f land g <> f && g land f <> g)
              cover)
          cover
        && (* minimality: each fragment has a private atom *)
        List.for_all
          (fun f ->
            let others =
              List.fold_left (fun acc g -> if g == f then acc else acc lor g)
                0 cover
            in
            f land lnot others <> 0)
          cover
        && (* pairwise joinability via shared variables *)
        (List.length cover = 1
        || List.for_all
             (fun f ->
               List.exists
                 (fun g ->
                   f != g
                   && Bgp.fragment_connected
                        (List.filteri (fun i _ -> f land (1 lsl i) <> 0)
                           (Array.to_list atoms))
                        (List.filteri (fun i _ -> g land (1 lsl i) <> 0)
                           (Array.to_list atoms)))
                 cover)
             cover)
      in
      let brute = List.length (List.filter valid (subsets fragments)) in
      let { Rqa.Cover_space.covers; _ } = Rqa.Cover_space.enumerate q in
      Alcotest.(check int)
        (Printf.sprintf "brute force (%d atoms)" n)
        brute (List.length covers))
    queries

(* ---- Cost model ---- *)

let test_cost_positive_and_ordering () =
  let sys = Rqa.Answering.make (store ()) in
  let cm = Rqa.Answering.cost_model sys in
  let reformulate cq =
    Reformulation.Reformulate.reformulate (Rqa.Answering.reformulator sys) cq
  in
  let cost cover = Rqa.Cost_model.jucq_cost cm (Jucq.make ~reformulate q3 cover) in
  let cu = cost (Jucq.ucq_cover q3) in
  let cs = cost (Jucq.scq_cover q3) in
  Alcotest.(check bool) "positive" true (cu > 0.0 && cs > 0.0)

let test_cost_monotone_in_volume () =
  let sys = Rqa.Answering.make (store ()) in
  let cm = Rqa.Answering.cost_model sys in
  let reformulate cq =
    Reformulation.Reformulate.reformulate (Rqa.Answering.reformulator sys) cq
  in
  (* A query with one extra unselective atom must not get cheaper. *)
  let q_small =
    Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "mastersFrom")) (c (u "univ1")) ]
  in
  let q_big =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c (u "mastersFrom")) (c (u "univ1"));
        Bgp.atom (v "x") (c typ) (v "k");
      ]
  in
  let cost q = Rqa.Cost_model.jucq_cost cm (Jucq.make ~reformulate q (Jucq.ucq_cover q)) in
  Alcotest.(check bool) "monotone" true (cost q_small <= cost q_big)

let test_unique_cost_regimes () =
  let sys = Rqa.Answering.make (store ()) in
  let cm = Rqa.Answering.cost_model sys in
  let small = Rqa.Cost_model.unique_cost cm 1000.0 in
  let large = Rqa.Cost_model.unique_cost cm 5_000_000.0 in
  Alcotest.(check bool) "zero" true (Rqa.Cost_model.unique_cost cm 0.0 = 0.0);
  Alcotest.(check bool) "increasing" true (small < large);
  (* Beyond memory the cost picks up the log factor. *)
  let per_row_small = small /. 1000.0 in
  let per_row_large = large /. 5_000_000.0 in
  Alcotest.(check bool) "disk regime costlier per row" true
    (per_row_large > per_row_small)

let test_calibration_runs () =
  let ex = Engine.Executor.create (store ()) in
  let co = Rqa.Cost_model.calibrate ex in
  Alcotest.(check bool) "positive coefficients" true
    (co.Rqa.Cost_model.c_t > 0.0 && co.Rqa.Cost_model.c_j > 0.0
     && co.Rqa.Cost_model.c_l > 0.0)

(* ---- Objective ---- *)

let test_objective_memoizes () =
  let _, obj = make_objective () in
  let cover = Jucq.scq_cover q3 in
  let c1 = Rqa.Objective.cover_cost obj cover in
  let n1 = Rqa.Objective.explored obj in
  let c2 = Rqa.Objective.cover_cost obj cover in
  Alcotest.(check (float 0.0)) "same cost" c1 c2;
  Alcotest.(check int) "explored once" n1 (Rqa.Objective.explored obj)

(* LUBM-8 (the benchmark's dataset), cache off: every reformulation
   reaches the reformulator, so what the search asks of it is
   observable. *)
let lubm_store =
  lazy (Workloads.Lubm.generate { Workloads.Lubm.universities = 8 })

let lubm_system () =
  let store = Lazy.force lubm_store in
  let cache = Cache.create ~mode:Cache.Off store in
  Rqa.Answering.make ~cache store

(* The index set of a fragment cover query's body within [q]'s body: turns
   a priced JUCQ back into the cover it was built for. *)
let cover_of_jucq (q : Bgp.t) (j : Jucq.t) =
  List.map
    (fun ((cq : Bgp.t), _) ->
      List.concat
        (List.mapi
           (fun i a ->
             if List.exists (Bgp.atom_equal a) cq.Bgp.body then [ i ] else [])
           q.Bgp.body))
    j.Jucq.fragments

(* GCov on a LUBM query through an objective whose reformulator and
   JUCQ pricer record what reaches them.  Returns the search result, the
   objective, the cover queries handed to the reformulator (in call
   order) and the JUCQs priced. *)
let instrumented_gcov sys q =
  let cache = Rqa.Answering.cache sys and cm = Rqa.Answering.cost_model sys in
  let calls = ref [] and priced = ref [] in
  let reformulate cq =
    calls := cq :: !calls;
    Cache.reformulate cache cq
  in
  let jucq_cost j =
    priced := j :: !priced;
    Rqa.Cost_model.jucq_cost cm j
  in
  let refm = Rqa.Answering.reformulator sys in
  let capacity =
    (Engine.Executor.profile (Rqa.Answering.engine sys))
      .Engine.Profile.max_union_terms
  in
  let fragment_capacity cq =
    Reformulation.Reformulate.count_product_bound refm cq <= capacity
  in
  let obj =
    Rqa.Objective.create ~fragment_capacity ~reformulate ~jucq_cost
      ~ucq_cost:(Rqa.Cost_model.ucq_cost cm) q
  in
  let r = Rqa.Gcov.search obj in
  (r, obj, List.rev !calls, List.rev !priced)

let memo_queries = [ "Q24"; "Q27"; "Q28" ]

let test_fragment_reformulated_once () =
  let sys = lubm_system () in
  List.iter
    (fun name ->
      let q = Bgp.normalize (Workloads.Lubm.query name) in
      let _, _, calls, _ = instrumented_gcov sys q in
      let distinct = List.sort_uniq compare calls in
      Alcotest.(check int)
        (name ^ ": each cover query reformulated once")
        (List.length distinct) (List.length calls);
      (* without the memo GCov made 233 reformulation calls here *)
      if name = "Q28" then
        Alcotest.(check int) "Q28: 17 distinct cover queries" 17
          (List.length calls))
    memo_queries

(* Memoized reformulations and figures must price every explored cover
   exactly as an unmemoized pipeline does: a fresh cost model (empty
   figures table) over a JUCQ whose fragments are reformulated anew. *)
let test_memoized_costs_bit_identical () =
  let sys = lubm_system () in
  let cm = Rqa.Answering.cost_model sys in
  let fresh_model () =
    Rqa.Cost_model.create
      ~coefficients:(Rqa.Cost_model.coefficients cm)
      (Engine.Executor.statistics (Rqa.Answering.engine sys))
  in
  let raw cq = Cache.reformulate (Rqa.Answering.cache sys) cq in
  List.iter
    (fun name ->
      let q = Bgp.normalize (Workloads.Lubm.query name) in
      let r, obj, _, priced = instrumented_gcov sys q in
      Alcotest.(check bool) (name ^ ": covers priced") true (priced <> []);
      Alcotest.(check bool)
        (name ^ ": at most one pricing per explored cover")
        true
        (List.length priced <= r.Rqa.Gcov.explored);
      List.iter
        (fun j ->
          let cover = cover_of_jucq q j in
          let expected =
            Rqa.Cost_model.jucq_cost (fresh_model ())
              (Jucq.make ~reformulate:raw q cover)
          in
          Alcotest.(check int64)
            (Printf.sprintf "%s %s: bit-identical cost" name
               (Jucq.cover_to_string cover))
            (Int64.bits_of_float expected)
            (Int64.bits_of_float (Rqa.Objective.cover_cost obj cover)))
        priced)
    memo_queries

(* ---- ECov ---- *)

let test_ecov_explores_all () =
  let _, obj = make_objective () in
  let r = Rqa.Ecov.search obj in
  Alcotest.(check bool) "complete" true r.Rqa.Ecov.complete;
  Alcotest.(check int) "explored all 8" 8 r.Rqa.Ecov.explored;
  match Jucq.check_cover q3 r.Rqa.Ecov.cover with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("invalid best cover: " ^ m)

let test_ecov_optimal () =
  let _, obj = make_objective () in
  let r = Rqa.Ecov.search obj in
  let { Rqa.Cover_space.covers; _ } = Rqa.Cover_space.enumerate q3 in
  List.iter
    (fun cover ->
      Alcotest.(check bool)
        ("ECov ≤ " ^ Jucq.cover_to_string cover)
        true
        (r.Rqa.Ecov.cost <= Rqa.Objective.cover_cost obj cover))
    covers

(* ---- GCov ---- *)

let test_gcov_valid_and_bounded () =
  let _, obj = make_objective () in
  let r = Rqa.Gcov.search obj in
  (match Jucq.check_cover q3 r.Rqa.Gcov.cover with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("invalid GCov cover: " ^ m));
  (* GCov starts at the SCQ cover and only improves on it. *)
  Alcotest.(check bool) "≤ SCQ" true
    (r.Rqa.Gcov.cost <= Rqa.Objective.cover_cost obj (Jucq.scq_cover q3));
  Alcotest.(check bool) "explored ≤ ECov space" true (r.Rqa.Gcov.explored <= 8)

let test_gcov_close_to_ecov () =
  let _, obj = make_objective () in
  let e = Rqa.Ecov.search obj in
  let _, obj2 = make_objective () in
  let g = Rqa.Gcov.search obj2 in
  (* The paper reports GCov matching ECov choices; on this small query the
     greedy must be within a small factor of the optimum. *)
  Alcotest.(check bool)
    (Printf.sprintf "gcov %.3f within 2x of ecov %.3f" g.Rqa.Gcov.cost
       e.Rqa.Ecov.cost)
    true
    (g.Rqa.Gcov.cost <= 2.0 *. e.Rqa.Ecov.cost +. 1e-9)

let test_gcov_stop_conditions () =
  let _, obj = make_objective () in
  let scq_cost = Rqa.Objective.cover_cost obj (Jucq.scq_cover q3) in
  (* Improvement_ratio 1.0 stops as soon as the initial cost is matched. *)
  let r1 = Rqa.Gcov.search ~stop:(Rqa.Gcov.Improvement_ratio 1.0) obj in
  Alcotest.(check bool) "ratio stop valid" true
    (Result.is_ok (Jucq.check_cover q3 r1.Rqa.Gcov.cover));
  Alcotest.(check bool) "ratio stop bounded" true (r1.Rqa.Gcov.cost <= scq_cost);
  (* A zero timeout returns immediately with the best-so-far. *)
  let _, obj2 = make_objective () in
  let r2 = Rqa.Gcov.search ~stop:(Rqa.Gcov.Timeout_ms 0.0) obj2 in
  Alcotest.(check bool) "timeout stop valid" true
    (Result.is_ok (Jucq.check_cover q3 r2.Rqa.Gcov.cover))

let test_gcov_fifo_ordering () =
  let _, obj = make_objective () in
  let r = Rqa.Gcov.search ~ordering:Rqa.Gcov.Fifo obj in
  Alcotest.(check bool) "fifo cover valid" true
    (Result.is_ok (Jucq.check_cover q3 r.Rqa.Gcov.cover));
  Alcotest.(check bool) "fifo cost is the real cost" true
    (r.Rqa.Gcov.cost > 0.0 && r.Rqa.Gcov.cost < infinity)

let test_gcov_single_atom () =
  let sys = Rqa.Answering.make (store ()) in
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "Person")) ] in
  let r = Rqa.Gcov.search (Rqa.Answering.objective sys q) in
  Alcotest.(check bool) "trivial cover" true (r.Rqa.Gcov.cover = [ [ 0 ] ])

(* ---- Answering: all strategies agree with the specification ---- *)

let all_strategies =
  [
    Rqa.Answering.Saturation;
    Rqa.Answering.Ucq;
    Rqa.Answering.Scq;
    Rqa.Answering.Ecov Rqa.Cover_space.default_budget;
    Rqa.Answering.Gcov;
  ]

let test_strategies_agree () =
  let sys = Rqa.Answering.make (store ()) in
  let expected = Bgp.answer graph q3 in
  Alcotest.(check bool) "nonempty" true (expected <> []);
  List.iter
    (fun strat ->
      Alcotest.(check bool)
        (Rqa.Answering.strategy_name strat ^ " = specification")
        true
        (Rqa.Answering.answer_terms sys strat q3 = expected))
    all_strategies

let test_strategies_agree_engine_oracle () =
  let sys = Rqa.Answering.make ~cost_oracle:Rqa.Answering.Engine_model (store ()) in
  let expected = Bgp.answer graph q3 in
  List.iter
    (fun strat ->
      Alcotest.(check bool)
        (Rqa.Answering.strategy_name strat ^ " (engine oracle)")
        true
        (Rqa.Answering.answer_terms sys strat q3 = expected))
    [ Rqa.Answering.Ecov Rqa.Cover_space.default_budget; Rqa.Answering.Gcov ]

let test_report_metadata () =
  let sys = Rqa.Answering.make (store ()) in
  let rep = Rqa.Answering.answer sys Rqa.Answering.Gcov q3 in
  Alcotest.(check bool) "cover present" true (rep.Rqa.Answering.cover <> None);
  Alcotest.(check bool) "explored > 0" true (rep.Rqa.Answering.covers_explored > 0);
  Alcotest.(check bool) "terms > 0" true (rep.Rqa.Answering.union_terms > 0);
  let rep_sat = Rqa.Answering.answer sys Rqa.Answering.Saturation q3 in
  Alcotest.(check bool) "saturation has no cover" true
    (rep_sat.Rqa.Answering.cover = None)

let test_failure_surfaces () =
  let profile =
    { Engine.Profile.postgres_like with Engine.Profile.max_union_terms = 3 }
  in
  let sys = Rqa.Answering.make ~profile (store ()) in
  Alcotest.(check bool) "UCQ refused" true
    (try ignore (Rqa.Answering.answer sys Rqa.Answering.Ucq q3); false
     with Engine.Profile.Engine_failure _ -> true)

(* ---- warm-up: interning covers every reformulation ---- *)

(* Both workloads over fresh stores, with their templates normalized as
   [Answering.answer] sees them. *)
let workloads () =
  [
    ( "lubm",
      Workloads.Lubm.generate { Workloads.Lubm.universities = 1 },
      Workloads.Lubm.queries );
    ( "dblp",
      Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 },
      Workloads.Dblp.queries );
  ]
  |> List.map (fun (wl, store, qs) ->
         (wl, store, List.map (fun (n, q) -> (n, Bgp.normalize q)) qs))

(* [f name ucq] on each template's whole-body reformulation, one at a time
   (LUBM Q28's alone is 318,096 disjuncts), skipping [Too_large] ones. *)
let iter_whole_body refm queries f =
  List.iter
    (fun (name, q) ->
      match Reformulation.Reformulate.reformulate refm q with
      | ucq -> f name ucq
      | exception Reformulation.Reformulate.Too_large _ -> ())
    queries

let bgp_constants (q : Bgp.t) =
  let const = function Bgp.Var _ -> [] | Bgp.Const t -> [ t ] in
  List.concat_map const q.Bgp.head
  @ List.concat_map
      (fun (a : Bgp.atom) -> const a.s @ const a.p @ const a.o)
      q.Bgp.body

let check_interned store label ucq =
  List.iter
    (fun d ->
      List.iter
        (fun t ->
          if Store.Encoded_store.encode_term store t = None then
            Alcotest.failf "%s: %s is not interned" label
              (Rdf.Term.to_string t))
        (bgp_constants d))
    (Ucq.disjuncts ucq)

(* [Server.needs_intern] relies on this: after [warm_up] alone, no
   reformulation (whole body or GCov fragment) holds a constant the
   dictionary lacks, and warm-up built nothing into tier 1. *)
let test_warm_up_interns_reformulations () =
  List.iter
    (fun (wl, store, queries) ->
      let sys = Rqa.Answering.make store in
      Rqa.Answering.warm_up sys (List.map snd queries);
      Alcotest.(check int) (wl ^ ": tier 1 empty after warm-up") 0
        (Cache.stats (Rqa.Answering.cache sys)).Cache.reformulation
          .Cache.entries;
      iter_whole_body (Rqa.Answering.reformulator sys) queries
        (fun name ucq -> check_interned store (wl ^ " " ^ name) ucq);
      List.iter
        (fun (name, q) ->
          let obj = Rqa.Answering.objective sys q in
          let cover = (Rqa.Gcov.search obj).Rqa.Gcov.cover in
          List.iter
            (fun f ->
              match Rqa.Objective.reformulate obj (Jucq.cover_query q cover f) with
              | ucq ->
                  check_interned store
                    (Printf.sprintf "%s %s fragment" wl name)
                    ucq
              | exception Reformulation.Reformulate.Too_large _ -> ())
            cover)
        queries)
    (workloads ())

(* [Statistics.ucq_cardinality] keys a UCQ's disjuncts as they are,
   without canonicalizing them again: sound only if canonicalization is
   idempotent on what reformulation produces. *)
let test_canonical_idempotent () =
  List.iter
    (fun (wl, schema, queries) ->
      iter_whole_body (Reformulation.Reformulate.create schema) queries
        (fun name ucq ->
          List.iter
            (fun d ->
              if Bgp.raw_compare (Bgp.canonical d) d <> 0 then
                Alcotest.failf "%s %s: canonical form moved %s" wl name
                  (Bgp.to_string d))
            (Ucq.disjuncts ucq)))
    [
      ("lubm", Workloads.Lubm.schema, Workloads.Lubm.queries);
      ("dblp", Workloads.Dblp.schema, Workloads.Dblp.queries);
    ]

(* ---- qcheck: strategies = specification on random data ---- *)

let gen_node = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 6))
let gen_class = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "C%d" i)) (int_bound 3))
let gen_prop = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 2))

let gen_schema =
  QCheck2.Gen.(
    map Rdf.Schema.of_constraints
      (list_size (int_bound 5)
         (oneof
            [
              map2 (fun a b -> Rdf.Schema.Subclass (a, b)) gen_class gen_class;
              map2 (fun a b -> Rdf.Schema.Subproperty (a, b)) gen_prop gen_prop;
              map2 (fun p cl -> Rdf.Schema.Domain (p, cl)) gen_prop gen_class;
              map2 (fun p cl -> Rdf.Schema.Range (p, cl)) gen_prop gen_class;
            ])))

let gen_facts =
  QCheck2.Gen.(
    list_size (int_bound 25)
      (oneof
         [
           map2 (fun s cl -> tr s typ cl) gen_node gen_class;
           (let* s = gen_node and* p = gen_prop and* o = gen_node in
            return (tr s p o));
         ]))

let gen_query =
  QCheck2.Gen.(
    let* n = int_range 2 3 in
    let* atoms =
      flatten_l
        (List.init n (fun i ->
             let x = v "x" in
             let oi = v (Printf.sprintf "o%d" i) in
             oneof
               [
                 map (fun cl -> Bgp.atom x (c typ) (c cl)) gen_class;
                 return (Bgp.atom x (c typ) oi);
                 map2 (fun p o -> Bgp.atom x (c p) o) gen_prop
                   (oneof [ return oi; map c gen_node ]);
               ]))
    in
    return (Bgp.make [ v "x" ] atoms))

let prop_all_strategies_agree =
  QCheck2.Test.make ~count:120
    ~name:"all strategies compute q(db∞) on random inputs"
    QCheck2.Gen.(triple gen_schema gen_facts gen_query)
    (fun (schema, facts, q) ->
      let g = Rdf.Graph.make schema facts in
      let sys = Rqa.Answering.of_graph g in
      let expected = Bgp.answer g q in
      List.for_all
        (fun strat -> Rqa.Answering.answer_terms sys strat q = expected)
        all_strategies)

let prop_gcov_never_worse_than_scq =
  QCheck2.Test.make ~count:80 ~name:"GCov estimated cost ≤ SCQ estimated cost"
    QCheck2.Gen.(triple gen_schema gen_facts gen_query)
    (fun (schema, facts, q) ->
      let g = Rdf.Graph.make schema facts in
      let sys = Rqa.Answering.of_graph g in
      let obj = Rqa.Answering.objective sys q in
      let r = Rqa.Gcov.search obj in
      r.Rqa.Gcov.cost
      <= Rqa.Objective.cover_cost obj (Jucq.scq_cover q) +. 1e-9)

let prop_gcov_deterministic =
  QCheck2.Test.make ~count:60 ~name:"GCov is deterministic"
    QCheck2.Gen.(triple gen_schema gen_facts gen_query)
    (fun (schema, facts, q) ->
      let g = Rdf.Graph.make schema facts in
      let sys = Rqa.Answering.of_graph g in
      let r1 = Rqa.Gcov.search (Rqa.Answering.objective sys q) in
      let r2 = Rqa.Gcov.search (Rqa.Answering.objective sys q) in
      r1.Rqa.Gcov.cover = r2.Rqa.Gcov.cover
      && r1.Rqa.Gcov.cost = r2.Rqa.Gcov.cost)

let prop_cost_model_sane =
  QCheck2.Test.make ~count:80
    ~name:"cost model is finite and at least the connection overhead"
    QCheck2.Gen.(triple gen_schema gen_facts gen_query)
    (fun (schema, facts, q) ->
      let g = Rdf.Graph.make schema facts in
      let sys = Rqa.Answering.of_graph g in
      let cm = Rqa.Answering.cost_model sys in
      let reformulate cq =
        Reformulation.Reformulate.reformulate (Rqa.Answering.reformulator sys)
          cq
      in
      let cdb = (Rqa.Cost_model.coefficients cm).Rqa.Cost_model.c_db in
      List.for_all
        (fun cover ->
          match Jucq.check_cover q cover with
          | Error _ -> true
          | Ok () ->
              let cost =
                Rqa.Cost_model.jucq_cost cm (Jucq.make ~reformulate q cover)
              in
              Float.is_finite cost && cost >= cdb)
        [ Jucq.ucq_cover q; Jucq.scq_cover q ])

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_all_strategies_agree;
      prop_gcov_never_worse_than_scq;
      prop_gcov_deterministic;
      prop_cost_model_sane;
    ]

let () =
  Alcotest.run "core"
    [
      ( "cover_space",
        [
          Alcotest.test_case "minimal cover counts" `Quick test_minimal_cover_counts;
          Alcotest.test_case "connected fragments" `Quick test_connected_fragments;
          Alcotest.test_case "q1-style enumeration (Table 2)" `Quick test_enumerate_q3;
          Alcotest.test_case "budget" `Quick test_enumerate_respects_budget;
          Alcotest.test_case "minimality" `Quick test_enumerated_covers_minimal;
          Alcotest.test_case "matches brute force" `Quick test_enumeration_matches_bruteforce;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "positive/order" `Quick test_cost_positive_and_ordering;
          Alcotest.test_case "volume monotonicity" `Quick test_cost_monotone_in_volume;
          Alcotest.test_case "dedup regimes" `Quick test_unique_cost_regimes;
          Alcotest.test_case "calibration" `Quick test_calibration_runs;
        ] );
      ( "objective",
        [
          Alcotest.test_case "memoization" `Quick test_objective_memoizes;
          Alcotest.test_case "fragment reformulated once" `Quick
            test_fragment_reformulated_once;
          Alcotest.test_case "memoized costs bit-identical" `Quick
            test_memoized_costs_bit_identical;
        ] );
      ( "ecov",
        [
          Alcotest.test_case "explores all covers" `Quick test_ecov_explores_all;
          Alcotest.test_case "optimal in space" `Quick test_ecov_optimal;
        ] );
      ( "gcov",
        [
          Alcotest.test_case "valid and bounded" `Quick test_gcov_valid_and_bounded;
          Alcotest.test_case "close to ECov" `Quick test_gcov_close_to_ecov;
          Alcotest.test_case "single atom" `Quick test_gcov_single_atom;
          Alcotest.test_case "stop conditions" `Quick test_gcov_stop_conditions;
          Alcotest.test_case "fifo ordering" `Quick test_gcov_fifo_ordering;
        ] );
      ( "answering",
        [
          Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
          Alcotest.test_case "engine oracle agrees" `Quick test_strategies_agree_engine_oracle;
          Alcotest.test_case "report metadata" `Quick test_report_metadata;
          Alcotest.test_case "failures surface" `Quick test_failure_surfaces;
        ] );
      ( "warm_up",
        [
          Alcotest.test_case "interning covers reformulations" `Slow
            test_warm_up_interns_reformulations;
          Alcotest.test_case "canonical form idempotent" `Slow
            test_canonical_idempotent;
        ] );
      ("properties", qcheck_cases);
    ]

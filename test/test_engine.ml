(* Tests for the execution engine: relations, CQ/UCQ/JUCQ evaluation
   against the naive reference evaluator, engine-profile failure modes and
   SQL rendering. *)

open Query

(* Every plan compiled while this suite runs goes through the static
   plan verifier: a schema or cover violation fails the tests. *)
let () = Analysis.Plan_verify.set_enabled true

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let rows_t =
  Alcotest.testable
    (fun fmt rs ->
      Format.pp_print_string fmt
        (String.concat " | "
           (List.map
              (fun r -> String.concat "," (List.map Rdf.Term.to_string r))
              rs)))
    (List.equal (List.equal Rdf.Term.equal))

(* ---- Relation ---- *)

let test_relation_basics () =
  let r = Engine.Relation.create ~cols:2 in
  Engine.Relation.append r [| 1; 2 |];
  Engine.Relation.append r [| 3; 4 |];
  Engine.Relation.append r [| 1; 2 |];
  Alcotest.(check int) "rows" 3 (Engine.Relation.rows r);
  Alcotest.(check int) "get" 4 (Engine.Relation.get r 1 1);
  Alcotest.(check int) "dedup" 2 (Engine.Relation.rows (Engine.Relation.dedup r));
  let p = Engine.Relation.project r [| 1 |] in
  Alcotest.(check int) "projected cols" 1 (Engine.Relation.cols p);
  Alcotest.(check int) "projected value" 2 (Engine.Relation.get p 0 0)

let test_relation_arity_check () =
  let r = Engine.Relation.create ~cols:2 in
  Alcotest.(check bool) "arity mismatch raises" true
    (try Engine.Relation.append r [| 1 |]; false
     with Invalid_argument _ -> true)

let test_relation_zero_arity () =
  let r = Engine.Relation.create ~cols:0 in
  Engine.Relation.append r [||];
  Engine.Relation.append r [||];
  Alcotest.(check int) "dedup boolean" 1
    (Engine.Relation.rows (Engine.Relation.dedup r))

(* ---- fixtures ---- *)

let schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "A", u "B");
      Rdf.Schema.Subproperty (u "p", u "q");
      Rdf.Schema.Domain (u "p", u "A");
    ]

let graph =
  Rdf.Graph.make schema
    [
      tr (u "x1") typ (u "A");
      tr (u "x1") (u "p") (u "y1");
      tr (u "x2") (u "p") (u "y2");
      tr (u "x2") (u "q") (u "y1");
      tr (u "y1") (u "r") (u "x2");
      tr (u "x3") typ (u "B");
    ]

let store () = Store.Encoded_store.of_graph graph

let reformulator = Reformulation.Reformulate.create schema
let reformulate q = Reformulation.Reformulate.reformulate reformulator q

(* ---- CQ evaluation vs naive ---- *)

let queries_for_comparison =
  [
    Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "A")) ];
    Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ];
    Bgp.make [ v "x"; v "z" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "r")) (v "z");
      ];
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (v "pp") (v "y");
        Bgp.atom (v "y") (c (u "r")) (v "z");
      ];
    (* repeated variable inside one atom *)
    Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "p")) (v "x") ];
    (* constant head *)
    Bgp.make [ v "x"; c (u "A") ] [ Bgp.atom (v "x") (c typ) (c (u "A")) ];
  ]

let test_head_constant_absent_from_data () =
  (* Regression: reformulation produces heads carrying schema classes that
     may never occur in the data; they are outputs, not selections. *)
  let ex = Engine.Executor.create (store ()) in
  let q =
    Bgp.make [ v "x"; c (u "Phantom") ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ]
  in
  let got = Engine.Executor.decode ex (Engine.Executor.eval_cq ex q) in
  Alcotest.check rows_t "phantom head" (Bgp.eval graph q) got

let test_cq_matches_naive () =
  let ex = Engine.Executor.create (store ()) in
  List.iter
    (fun q ->
      let got = Engine.Executor.decode ex (Engine.Executor.eval_cq ex q) in
      Alcotest.check rows_t (Bgp.to_string q) (Bgp.eval graph q) got)
    queries_for_comparison

let test_ucq_matches_naive () =
  let ex = Engine.Executor.create (store ()) in
  List.iter
    (fun q ->
      let ucq = reformulate q in
      let got = Engine.Executor.decode ex (Engine.Executor.eval_ucq ex ucq) in
      Alcotest.check rows_t ("ucq " ^ Bgp.to_string q) (Ucq.eval graph ucq) got)
    queries_for_comparison

let test_jucq_matches_reference () =
  let ex = Engine.Executor.create (store ()) in
  let q =
    Bgp.make [ v "x"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "x") (c (u "q")) (v "y");
        Bgp.atom (v "y") (c (u "r")) (v "z");
      ]
  in
  List.iter
    (fun cover ->
      let j = Jucq.make ~reformulate q cover in
      let got = Engine.Executor.decode ex (Engine.Executor.eval_jucq ex j) in
      Alcotest.check rows_t
        ("cover " ^ Jucq.cover_to_string cover)
        (Jucq.eval graph j) got)
    [
      Jucq.ucq_cover q;
      Jucq.scq_cover q;
      [ [ 0; 1 ]; [ 2 ] ];
      [ [ 0; 1 ]; [ 1; 2 ] ];
    ]

let test_jucq_equals_answer () =
  (* Theorem 3.1 end to end: any cover-based JUCQ evaluated by the engine
     yields q(db∞). *)
  let ex = Engine.Executor.create (store ()) in
  let q =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c typ) (c (u "B"));
        Bgp.atom (v "x") (c (u "q")) (v "y");
      ]
  in
  let expected = Bgp.answer graph q in
  List.iter
    (fun cover ->
      let j = Jucq.make ~reformulate q cover in
      Alcotest.check rows_t
        ("cover " ^ Jucq.cover_to_string cover)
        expected
        (Engine.Executor.decode ex (Engine.Executor.eval_jucq ex j)))
    [ Jucq.ucq_cover q; Jucq.scq_cover q ]

let test_block_nested_loop_join_agrees () =
  let q =
    Bgp.make [ v "x"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "x") (c (u "q")) (v "y");
      ]
  in
  let j = Jucq.make ~reformulate q (Jucq.scq_cover q) in
  let hash_ex =
    Engine.Executor.create ~profile:Engine.Profile.postgres_like (store ())
  in
  let bnl_ex =
    Engine.Executor.create ~profile:Engine.Profile.mysql_like (store ())
  in
  Alcotest.check rows_t "hash = bnl"
    (Engine.Executor.decode hash_ex (Engine.Executor.eval_jucq hash_ex j))
    (Engine.Executor.decode bnl_ex (Engine.Executor.eval_jucq bnl_ex j))

let test_join_order_avoids_cartesian () =
  (* Chain query x -p-> y -q-> z -r-> w; with single-triple fragments, a
     size-only join order would cross the p- and r-fragments (500 x 500
     rows) before q connects them.  The greedy connected order keeps the
     intermediate results linear; the work meter proves it. *)
  let triples =
    List.concat
      (List.init 500 (fun i ->
           let e k = u (Printf.sprintf "%s%d" k i) in
           [
             tr (e "x") (u "p") (e "y");
             tr (e "y") (u "q") (e "z");
             tr (e "z") (u "r") (e "w");
           ]))
  in
  let st = Store.Encoded_store.of_graph (Rdf.Graph.of_triples triples) in
  let ex = Engine.Executor.create st in
  let q =
    Bgp.make [ v "x"; v "w" ]
      [
        Bgp.atom (v "x") (c (u "p")) (v "y");
        Bgp.atom (v "y") (c (u "q")) (v "z");
        Bgp.atom (v "z") (c (u "r")) (v "w");
      ]
  in
  let ident cq = Ucq.of_cqs [ cq ] in
  let j = Jucq.make ~reformulate:ident q (Jucq.scq_cover q) in
  let result = Engine.Executor.eval_jucq ex j in
  Alcotest.(check int) "500 chains" 500 (Engine.Relation.rows result);
  Alcotest.(check bool)
    (Printf.sprintf "linear work (%d ops)" (Engine.Executor.last_operations ex))
    true
    (Engine.Executor.last_operations ex < 50_000)

(* ---- failure modes ---- *)

let tiny_profile =
  {
    Engine.Profile.postgres_like with
    Engine.Profile.name = "tiny";
    max_union_terms = 2;
    max_materialized_rows = 1000;
    max_operations = 1000000;
  }

let test_union_capacity_failure () =
  let ex = Engine.Executor.create ~profile:tiny_profile (store ()) in
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c typ) (c (u "B")) ] in
  let ucq = reformulate q in
  Alcotest.(check bool) "enough terms" true (Ucq.cardinal ucq > 2);
  Alcotest.(check bool) "union capacity failure" true
    (try ignore (Engine.Executor.eval_ucq ex ucq); false
     with Engine.Profile.Engine_failure
            { reason = Engine.Profile.Union_capacity _; _ } -> true)

let test_materialization_failure () =
  let profile =
    { tiny_profile with Engine.Profile.max_union_terms = 100;
      max_materialized_rows = 2 }
  in
  let ex = Engine.Executor.create ~profile (store ()) in
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (v "pp") (v "y") ] in
  let ucq = Ucq.of_cqs [ q ] in
  Alcotest.(check bool) "materialization failure" true
    (try ignore (Engine.Executor.eval_ucq ex ucq); false
     with Engine.Profile.Engine_failure
            { reason = Engine.Profile.Materialization_overflow _; _ } -> true)

let test_operation_budget_failure () =
  let profile =
    { tiny_profile with Engine.Profile.max_union_terms = 100;
      max_operations = 3 }
  in
  let ex = Engine.Executor.create ~profile (store ()) in
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (v "pp") (v "y") ] in
  Alcotest.(check bool) "operation budget failure" true
    (try ignore (Engine.Executor.eval_cq ex q); false
     with Engine.Profile.Engine_failure
            { reason = Engine.Profile.Operation_budget _; _ } -> true)

let test_operations_metered () =
  let ex = Engine.Executor.create (store ()) in
  let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
  ignore (Engine.Executor.eval_cq ex q);
  Alcotest.(check bool) "ops counted" true (Engine.Executor.last_operations ex > 0)

(* The plan caches hold statements weakly: a CQ or UCQ evaluated once and
   dropped (every cache-off request) is collected along with its plans,
   while a statement the caller still holds keeps its plans. *)
let test_plan_caches_do_not_pin () =
  let ex = Engine.Executor.create (store ()) in
  let collected = ref 0 in
  let fresh_jucq () =
    let q = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "q")) (v "y") ] in
    let ucq = Ucq.of_cqs [ q ] in
    (ucq, Jucq.make ~reformulate:(fun _ -> ucq) q [ [ 0 ] ])
  in
  let[@inline never] evaluate_and_drop () =
    let cq = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c (u "p")) (v "y") ] in
    let ucq, jucq = fresh_jucq () in
    Gc.finalise (fun _ -> incr collected) cq;
    Gc.finalise (fun _ -> incr collected) ucq;
    ignore (Engine.Executor.eval_cq ex cq);
    ignore (Engine.Executor.eval_jucq ex jucq)
  in
  evaluate_and_drop ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "dropped CQ and UCQ collected" 2 !collected;
  let _, held = fresh_jucq () in
  let run () =
    let rows = Engine.Executor.decode ex (Engine.Executor.eval_jucq ex held) in
    (rows, Engine.Executor.last_operations ex)
  in
  let first = run () in
  Gc.full_major ();
  let again = run () in
  Alcotest.check rows_t "held statement answers" (fst first) (fst again);
  Alcotest.(check int) "held statement charges" (snd first) (snd again)

(* ---- explain ---- *)

let test_explain_positive_and_monotone () =
  let ex = Engine.Executor.create (store ()) in
  let q =
    Bgp.make [ v "x"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "x") (c (u "q")) (v "y");
      ]
  in
  let cost cover =
    Engine.Executor.explain_cost ex (Jucq.make ~reformulate q cover)
  in
  let cu = cost (Jucq.ucq_cover q) and cs = cost (Jucq.scq_cover q) in
  Alcotest.(check bool) "positive" true (cu > 0.0 && cs > 0.0)

(* substring containment, avoiding a Str dependency *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---- SQL rendering ---- *)

let test_sql_cq () =
  let st = store () in
  let q =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c typ) (c (u "A"));
        Bgp.atom (v "x") (c (u "p")) (v "y");
      ]
  in
  let sql = Engine.Sql.cq st q in
  Alcotest.(check bool) "mentions Triples twice" true
    (List.length (String.split_on_char 't' sql) > 2);
  Alcotest.(check bool) "has join predicate" true
    (contains sql "t1.s = t0.s")

let test_sql_missing_constant () =
  let st = store () in
  let q = Bgp.make [ v "x" ] [ Bgp.atom (v "x") (c (u "nosuch")) (v "y") ] in
  let sql = Engine.Sql.cq st q in
  Alcotest.(check bool) "always-false predicate" true
    (contains sql "1 = 0")

let test_sql_union_and_jucq () =
  let st = store () in
  let q =
    Bgp.make [ v "x" ]
      [
        Bgp.atom (v "x") (c typ) (c (u "B"));
        Bgp.atom (v "x") (c (u "q")) (v "y");
      ]
  in
  let sql_u = Engine.Sql.ucq st (reformulate q) in
  Alcotest.(check bool) "has UNION" true
    (contains sql_u "UNION");
  let j = Jucq.make ~reformulate q (Jucq.scq_cover q) in
  let sql_j = Engine.Sql.jucq st j in
  Alcotest.(check bool) "join of fragments" true
    (contains sql_j "f0.x = f1.x")

(* ---- Plan ---- *)

let test_plan_describe () =
  let ex = Engine.Executor.create (store ()) in
  let q =
    Bgp.make [ v "x"; v "k" ]
      [
        Bgp.atom (v "x") (c typ) (v "k");
        Bgp.atom (v "x") (c (u "q")) (v "y");
      ]
  in
  let j = Jucq.make ~reformulate q (Jucq.scq_cover q) in
  let plan = Engine.Plan.describe ex j in
  Alcotest.(check int) "two fragments" 2 (List.length plan.Engine.Plan.fragments);
  (* fragments sorted by estimated rows, ascending *)
  (match plan.Engine.Plan.fragments with
  | [ a; b ] ->
      Alcotest.(check bool) "ascending" true
        (a.Engine.Plan.estimated_rows <= b.Engine.Plan.estimated_rows)
  | _ -> Alcotest.fail "expected two fragments");
  let text = Engine.Plan.to_string plan in
  Alcotest.(check bool) "mentions dedup" true (contains text "Dedup");
  Alcotest.(check bool) "mentions hash join" true (contains text "Fragment")

(* ---- qcheck: engine vs naive on random data ---- *)

let gen_node = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 5))
let gen_propt = QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 3))

let gen_graph =
  QCheck2.Gen.(
    map
      (fun triples -> Rdf.Graph.of_triples triples)
      (list_size (int_bound 40)
         (let* s = gen_node and* p = gen_propt and* o = gen_node in
          return (tr s p o))))

let gen_chain_query =
  QCheck2.Gen.(
    let* n = int_range 1 3 in
    let* props = list_size (return n) gen_propt in
    let atoms =
      List.mapi
        (fun i p ->
          Bgp.atom
            (v (Printf.sprintf "x%d" i))
            (c p)
            (v (Printf.sprintf "x%d" (i + 1))))
        props
    in
    return (Bgp.make [ v "x0" ] atoms))

let prop_engine_matches_naive =
  QCheck2.Test.make ~count:300 ~name:"engine CQ evaluation = naive evaluation"
    QCheck2.Gen.(pair gen_graph gen_chain_query)
    (fun (g, q) ->
      let ex = Engine.Executor.create (Store.Encoded_store.of_graph g) in
      Engine.Executor.decode ex (Engine.Executor.eval_cq ex q) = Bgp.eval g q)

let prop_jucq_covers_consistent =
  QCheck2.Test.make ~count:200
    ~name:"engine JUCQ = engine UCQ for identity reformulation"
    QCheck2.Gen.(pair gen_graph gen_chain_query)
    (fun (g, q) ->
      let ex = Engine.Executor.create (Store.Encoded_store.of_graph g) in
      let ident cq = Ucq.of_cqs [ cq ] in
      let direct = Engine.Executor.decode ex (Engine.Executor.eval_cq ex q) in
      List.for_all
        (fun cover ->
          match Jucq.check_cover q cover with
          | Error _ -> true
          | Ok () ->
              let j = Jucq.make ~reformulate:ident q cover in
              Engine.Executor.decode ex (Engine.Executor.eval_jucq ex j)
              = direct)
        [ Jucq.ucq_cover q; Jucq.scq_cover q ])

let qcheck_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_engine_matches_naive; prop_jucq_covers_consistent ]

(* ---- differential: physical operators vs naive references ---- *)

(* The join operators and the RowTable-backed dedup are exercised against
   straight list-based reference implementations on randomized inputs:
   narrow value domains force duplicate keys, widths include the 0-column
   degenerate shape, and sizes include empty relations. *)

let rel_of_rows ~cols rows =
  let r = Engine.Relation.create ~cols in
  List.iter (fun row -> Engine.Relation.append r (Array.of_list row)) rows;
  r

let rows_of_rel r = List.map Array.to_list (Engine.Relation.to_list r)

let sorted_rows rows = List.sort compare rows

(* Reference join: nested loops over lists, matching on shared column
   names; output is [a]'s row followed by [b]'s non-shared columns — the
   operators' documented schema. *)
let ref_join (acols, arows) (bcols, brows) =
  let shared = List.filter (fun v -> List.mem v bcols) acols in
  let b_only = List.filter (fun v -> not (List.mem v shared)) bcols in
  let pos cols v =
    let rec go i = function
      | [] -> assert false
      | c :: _ when String.equal c v -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 cols
  in
  List.concat_map
    (fun ra ->
      List.filter_map
        (fun rb ->
          if
            List.for_all
              (fun v -> List.nth ra (pos acols v) = List.nth rb (pos bcols v))
              shared
          then Some (ra @ List.map (fun v -> List.nth rb (pos bcols v)) b_only)
          else None)
        brows)
    arows

let ref_dedup rows =
  List.rev
    (List.fold_left
       (fun acc r -> if List.mem r acc then acc else r :: acc)
       [] rows)

(* A pair of named relations with a random (possibly empty) set of shared
   column names, random shared-column placement in [b], and values drawn
   from a tiny domain so keys collide often. *)
let gen_named_pair =
  QCheck2.Gen.(
    let gen_row width = list_size (return width) (int_bound 3) in
    let gen_rows width = list_size (int_bound 8) (gen_row width) in
    let* na = int_bound 3 in
    let* nshared = int_bound na in
    let* nb_extra = int_bound (3 - nshared) in
    let acols = List.init na (fun i -> Printf.sprintf "a%d" i) in
    let shared = List.filteri (fun i _ -> i < nshared) acols in
    let extra = List.init nb_extra (fun i -> Printf.sprintf "b%d" i) in
    let* shared_first = bool in
    let bcols = if shared_first then shared @ extra else extra @ shared in
    let* arows = gen_rows na and* brows = gen_rows (List.length bcols) in
    return ((acols, arows), (bcols, brows)))

let named (cols, rows) =
  {
    Engine.Executor.columns = cols;
    rel = rel_of_rows ~cols:(List.length cols) rows;
  }

let prop_hash_join_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"hash_join = reference join"
    gen_named_pair
    (fun (a, b) ->
      let ex = Engine.Executor.create (store ()) in
      let j = Engine.Executor.hash_join ex (named a) (named b) in
      (* bag semantics, row order unspecified: compare sorted multisets *)
      sorted_rows (rows_of_rel j.Engine.Executor.rel)
      = sorted_rows (ref_join a b))

let prop_bnl_join_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"block_nested_loop_join = reference join"
    gen_named_pair
    (fun (a, b) ->
      let ex = Engine.Executor.create (store ()) in
      let j = Engine.Executor.block_nested_loop_join ex (named a) (named b) in
      sorted_rows (rows_of_rel j.Engine.Executor.rel)
      = sorted_rows (ref_join a b))

let prop_dedup_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"RowTable dedup = reference dedup"
    QCheck2.Gen.(
      let* cols = int_bound 3 in
      let* rows =
        list_size (int_bound 20) (list_size (return cols) (int_bound 2))
      in
      return (cols, rows))
    (fun (cols, rows) ->
      (* dedup keeps first occurrences in input order: compare exactly *)
      rows_of_rel (Engine.Relation.dedup (rel_of_rows ~cols rows))
      = ref_dedup rows)

(* The streaming dedup sink against [Relation.dedup] and the list
   reference: same distinct rows in the same first-occurrence order,
   every emitted row counted.  Up to 3,000 rows over a 12-value domain
   make the sink's slot and key stores grow many times past their
   initial 16 entries at widths 1 and 3. *)
let test_sink_matches_dedup () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun cols ->
      List.iter
        (fun n ->
          let rows =
            List.init n (fun _ ->
                List.init cols (fun _ -> Random.State.int rng 12))
          in
          let sink = Engine.Relation.sink ~cols in
          List.iter
            (fun row -> Engine.Relation.emit sink (Array.of_list row) 0)
            rows;
          let name = Printf.sprintf "width %d, %d rows" cols n in
          Alcotest.(check int) (name ^ ": emitted") n
            (Engine.Relation.emitted sink);
          let got = rows_of_rel (Engine.Relation.contents sink) in
          Alcotest.(check (list (list int))) (name ^ ": = dedup")
            (rows_of_rel (Engine.Relation.dedup (rel_of_rows ~cols rows)))
            got;
          Alcotest.(check (list (list int))) (name ^ ": = reference")
            (ref_dedup rows) got)
        [ 0; 1; 7; 300; 3000 ])
    [ 0; 1; 3 ]

(* ---- decode: canonical order by dictionary rank ---- *)

(* The order decode must produce: decode every row, then sort the term
   rows and drop duplicates. *)
let reference_decode d rel =
  List.sort_uniq
    (List.compare Rdf.Term.compare)
    (List.map
       (fun row -> List.map (Rdf.Dictionary.decode d) (Array.to_list row))
       (Engine.Relation.to_list rel))

(* URIs, literals and blank nodes whose payloads are short words over a
   three-letter alphabet, so many terms share prefixes and the same
   payload recurs under different kinds. *)
let gen_term =
  QCheck2.Gen.(
    let* kind = int_bound 2 in
    let* payload = string_size ~gen:(oneofl [ 'a'; 'b'; '/' ]) (int_bound 4) in
    return
      (match kind with
      | 0 -> Rdf.Term.uri ("http://x/" ^ payload)
      | 1 -> Rdf.Term.literal payload
      | _ -> Rdf.Term.bnode payload))

let prop_decode_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"decode = sort_uniq of row-by-row decode"
    QCheck2.Gen.(
      let* filler = int_bound 600 in
      let* terms = list_size (int_range 1 20) gen_term in
      let* cols = int_bound 4 in
      let* rows =
        list_size (int_bound 40)
          (list_size (return cols) (int_bound (List.length terms - 1)))
      in
      return (filler, terms, cols, rows))
    (fun (filler, terms, cols, rows) ->
      let store = Store.Encoded_store.create schema in
      let d = Store.Encoded_store.dictionary store in
      (* up to 600 unused values first, so ranks may need two radix digits *)
      for i = 1 to filler do
        ignore (Rdf.Dictionary.encode d (u (Printf.sprintf "http://f/%d" i)))
      done;
      let codes = Array.of_list (List.map (Rdf.Dictionary.encode d) terms) in
      let rel =
        rel_of_rows ~cols (List.map (List.map (fun i -> codes.(i))) rows)
      in
      let ex = Engine.Executor.create store in
      Engine.Executor.decode ex rel = reference_decode d rel)

(* A large result over a large dictionary: 20,000 rows of width 3 over
   70,000 values with many repeated rows, so the radix sort runs two
   passes of wide digits per column. *)
let test_decode_at_scale () =
  let store = Store.Encoded_store.create schema in
  let d = Store.Encoded_store.dictionary store in
  let rng = Random.State.make [| 5 |] in
  let codes =
    Array.init 70_000 (fun _ ->
        let t = Printf.sprintf "%x" (Random.State.bits rng) in
        Rdf.Dictionary.encode d
          (match Random.State.int rng 3 with
          | 0 -> u t
          | 1 -> Rdf.Term.literal t
          | _ -> Rdf.Term.bnode t))
  in
  let rel =
    rel_of_rows ~cols:3
      (List.init 20_000 (fun _ ->
           List.init 3 (fun _ -> codes.(Random.State.int rng 30 * 2333))))
  in
  let ex = Engine.Executor.create store in
  Alcotest.check rows_t "decode = reference" (reference_decode d rel)
    (Engine.Executor.decode ex rel)

(* The ranks are cached after the first decode; terms interned later sort
   before, between and after the ranked ones, and both old and new
   relations must still decode in the reference order. *)
let test_decode_after_growth () =
  let store = Store.Encoded_store.create schema in
  let d = Store.Encoded_store.dictionary store in
  let enc = List.map (Rdf.Dictionary.encode d) in
  let first =
    enc [ u "m"; Rdf.Term.literal "m"; Rdf.Term.bnode "m"; u "c"; u "mm" ]
  in
  let ex = Engine.Executor.create store in
  let rel_of codes =
    let rows = List.concat_map (fun a -> List.map (fun b -> [ b; a ]) codes) codes in
    rel_of_rows ~cols:2 (rows @ rows)
  in
  let old_rel = rel_of first in
  Alcotest.check rows_t "before growth" (reference_decode d old_rel)
    (Engine.Executor.decode ex old_rel);
  let ranks = Rdf.Dictionary.ranks d in
  Alcotest.(check bool) "ranks reused while the dictionary is unchanged" true
    (ranks == Rdf.Dictionary.ranks d);
  let later =
    enc
      [
        u "a"; u "g"; u "m/"; Rdf.Term.literal ""; Rdf.Term.literal "z";
        Rdf.Term.bnode "a"; Rdf.Term.bnode "zz";
      ]
  in
  Alcotest.(check bool) "ranks rebuilt after growth" false
    (ranks == Rdf.Dictionary.ranks d);
  Alcotest.check rows_t "old relation after growth"
    (reference_decode d old_rel)
    (Engine.Executor.decode ex old_rel);
  let new_rel = rel_of (later @ first) in
  Alcotest.check rows_t "new terms interleaved" (reference_decode d new_rel)
    (Engine.Executor.decode ex new_rel);
  (* the first column, one entry per run: every term, in term order *)
  let rec runs = function
    | a :: (b :: _ as rest) when a = b -> runs rest
    | a :: rest -> a :: runs rest
    | [] -> []
  in
  Alcotest.(check (list string)) "first column in term order"
    [ "<a>"; "<c>"; "<g>"; "<m>"; "<m/>"; "<mm>"; "\"\""; "\"m\""; "\"z\"";
      "_:a"; "_:m"; "_:zz" ]
    (runs
       (List.map (fun row -> Rdf.Term.to_string (List.hd row))
          (Engine.Executor.decode ex new_rel)))

let differential_cases =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_hash_join_matches_reference;
      prop_bnl_join_matches_reference;
      prop_dedup_matches_reference;
      prop_decode_matches_reference;
    ]

(* All three engine profiles must agree on the answers they can compute:
   the LUBM workload evaluated per profile with the GCov strategy, skipping
   (profile, query) pairs the profile's capacities reject.  The
   postgres-like profile must succeed everywhere at this scale. *)
let test_profiles_agree_on_lubm () =
  let store = Workloads.Lubm.generate { Workloads.Lubm.universities = 1 } in
  let reformulator =
    Reformulation.Reformulate.create Workloads.Lubm.schema
  in
  let systems =
    List.map
      (fun p -> (p.Engine.Profile.name, Rqa.Answering.make ~profile:p ~reformulator store))
      Engine.Profile.all
  in
  List.iter
    (fun (qname, q) ->
      let answers =
        List.filter_map
          (fun (pname, sys) ->
            match Rqa.Answering.answer_terms sys Rqa.Answering.Gcov q with
            | rows -> Some (pname, rows)
            | exception Engine.Profile.Engine_failure _ ->
                Alcotest.(check bool)
                  (qname ^ ": postgres-like must succeed")
                  false
                  (String.equal pname "postgres-like");
                None)
          systems
      in
      match answers with
      | [] -> Alcotest.fail (qname ^ ": no profile succeeded")
      | (p0, rows0) :: rest ->
          List.iter
            (fun (p, rows) ->
              Alcotest.check rows_t
                (Printf.sprintf "%s: %s = %s" qname p p0)
                rows0 rows)
            rest)
    Workloads.Lubm.queries

(* Operation totals, answer rows and failures of one cache-off pass over
   LUBM-1's 28 templates, per profile, under GCov and under UCQ (one
   whole-query union per template).  Pinned from the materialize-then-
   dedup executor that preceded the streaming dedup sink: every union now
   deduplicates as it emits, and these figures must not move. *)
let lubm1_pins =
  let cap q n lim =
    (q, Printf.sprintf "union capacity exceeded (%d terms > %d)" n lim)
  in
  [
    ("postgres-like", (816638, 111373), (7290619, 8303),
     [ cap "Q18" 106032 100000; cap "Q28" 318096 100000 ]);
    ("db2-like", (819294, 111373), (744300, 4928),
     [ cap "Q09" 35344 8000; cap "Q15" 11844 8000; cap "Q18" 106032 8000;
       cap "Q19" 23688 8000; cap "Q28" 318096 8000 ]);
    ("mysql-like", (56063053, 111373), (7290619, 8303),
     [ cap "Q18" 106032 60000; cap "Q28" 318096 60000 ]);
  ]

let test_lubm1_pass_pinned () =
  let store = Workloads.Lubm.generate { Workloads.Lubm.universities = 1 } in
  let queries = Workloads.Lubm.queries in
  List.iter2
    (fun (p : Engine.Profile.t) (name, gcov, ucq, ucq_fails) ->
      Alcotest.(check string) "profile order" name p.Engine.Profile.name;
      let cache = Cache.create ~mode:Cache.Off store in
      let sys = Rqa.Answering.make ~profile:p ~cache store in
      Rqa.Answering.warm_up sys (List.map snd queries);
      let ex = Rqa.Answering.engine sys in
      let pass label strategy (ops, rows) fails =
        let ops0 = Engine.Executor.total_operations ex in
        let total = ref 0 and failed = ref [] in
        List.iter
          (fun (qn, q) ->
            match Rqa.Answering.answer sys strategy q with
            | r -> total := !total + Engine.Relation.rows r.Rqa.Answering.answers
            | exception Engine.Profile.Engine_failure { reason; _ } ->
                failed := (qn, Engine.Profile.failure_to_string reason) :: !failed)
          queries;
        let what = name ^ " " ^ label in
        Alcotest.(check int) (what ^ " operations") ops
          (Engine.Executor.total_operations ex - ops0);
        Alcotest.(check int) (what ^ " rows") rows !total;
        Alcotest.(check (list (pair string string))) (what ^ " failures") fails
          (List.rev !failed)
      in
      pass "gcov" Rqa.Answering.Gcov gcov [];
      pass "ucq" Rqa.Answering.Ucq ucq ucq_fails)
    Engine.Profile.all lubm1_pins

(* A materialization ceiling between a whole-query union's distinct and
   pre-dedup row counts (Q08: 310 distinct of 88,515 emitted; Q03: 495 of
   1,480; Q16: 160 of 78,680).  Dedup is no excuse: the per-disjunct check
   counts emitted rows, so the statement dies on the same disjunct, with
   the same reported rows and operation total, as when every emitted row
   was stored before deduplication. *)
let test_overflow_between_distinct_and_emitted () =
  let store = Workloads.Lubm.generate { Workloads.Lubm.universities = 1 } in
  let cache = Cache.create ~mode:Cache.Off store in
  let profile =
    { Engine.Profile.postgres_like with Engine.Profile.max_materialized_rows = 1000 }
  in
  List.iter
    (fun (qn, rows, ops) ->
      let u = Cache.reformulate cache (Workloads.Lubm.query qn) in
      let ex = Engine.Executor.create ~profile store in
      match Engine.Executor.eval_ucq ex u with
      | _ -> Alcotest.fail (qn ^ ": expected a materialization overflow")
      | exception
          Engine.Profile.Engine_failure
            { reason = Engine.Profile.Materialization_overflow r; _ } ->
          Alcotest.(check (pair int int)) (qn ^ " rows, limit") (rows, 1000)
            (r.rows, r.limit);
          Alcotest.(check int) (qn ^ " operations") ops
            (Engine.Executor.total_operations ex))
    [ ("Q08", 15300, 31142); ("Q03", 1183, 3564); ("Q16", 3600, 7321) ]

(* A head that keeps every joined column projects the joined rows by
   copying them; the hash set the other heads stream through would find
   no duplicate.  For each template's GCov JUCQ on LUBM-1 and DBLP-2000,
   under every profile, the copy must give the rows, the row order and
   the operations (or the failure) of the sink path.  Each template also
   runs with its last head variable dropped, a head that must still take
   the sink. *)
let test_head_copy_matches_sink () =
  let copied = ref 0 and sunk = ref 0 in
  let with_projection (qn, (q : Bgp.t)) =
    match List.rev q.Bgp.head with
    | _ :: (_ :: _ as kept) ->
        [ (qn, q); (qn ^ " projected", Bgp.make (List.rev kept) q.Bgp.body) ]
    | _ -> [ (qn, q) ]
  in
  List.iter
    (fun (store, queries) ->
      let sys0 = Rqa.Answering.make store in
      Rqa.Answering.warm_up sys0 (List.map snd queries);
      List.iter
        (fun (p : Engine.Profile.t) ->
          let cache = Cache.create ~mode:Cache.Off store in
          let sys = Rqa.Answering.make ~profile:p ~cache store in
          List.iter
            (fun (qn, q) ->
              let q = Bgp.normalize q in
              let obj = Rqa.Answering.objective sys q in
              let cover = (Rqa.Gcov.search obj).Rqa.Gcov.cover in
              match
                Jucq.make ~reformulate:(Rqa.Objective.reformulate obj) q cover
              with
              | exception Reformulation.Reformulate.Too_large _ -> ()
              | j ->
                  let joined =
                    List.concat_map
                      (fun ((cq : Bgp.t), _) -> Bgp.head_vars cq)
                      j.Jucq.fragments
                  in
                  if
                    List.for_all
                      (fun v -> List.mem (Bgp.Var v) j.Jucq.head)
                      joined
                  then incr copied
                  else incr sunk;
                  let run head_sink =
                    let ex = Engine.Executor.create ~profile:p store in
                    match Engine.Executor.eval_jucq ~head_sink ex j with
                    | r ->
                        Ok
                          ( Engine.Relation.to_list r,
                            Engine.Executor.last_operations ex )
                    | exception Engine.Profile.Engine_failure { reason; _ } ->
                        Error
                          ( Engine.Profile.failure_to_string reason,
                            Engine.Executor.total_operations ex )
                  in
                  if run false <> run true then
                    Alcotest.fail
                      (Printf.sprintf "%s %s: head copy differs from the sink"
                         p.Engine.Profile.name qn))
            (List.concat_map with_projection queries))
        Engine.Profile.all)
    [
      ( Workloads.Lubm.generate { Workloads.Lubm.universities = 1 },
        Workloads.Lubm.queries );
      ( Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 },
        Workloads.Dblp.queries );
    ];
  Alcotest.(check bool) "some heads keep every joined column" true
    (!copied > 0);
  Alcotest.(check bool) "some heads drop a joined column" true (!sunk > 0)

let () =
  Alcotest.run "engine"
    [
      ( "relation",
        [
          Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "arity check" `Quick test_relation_arity_check;
          Alcotest.test_case "zero arity" `Quick test_relation_zero_arity;
          Alcotest.test_case "sink = dedup" `Quick test_sink_matches_dedup;
          Alcotest.test_case "decode after dictionary growth" `Quick
            test_decode_after_growth;
          Alcotest.test_case "decode at scale" `Quick test_decode_at_scale;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "cq = naive" `Quick test_cq_matches_naive;
          Alcotest.test_case "head constant absent from data" `Quick test_head_constant_absent_from_data;
          Alcotest.test_case "ucq = naive" `Quick test_ucq_matches_naive;
          Alcotest.test_case "jucq = reference" `Quick test_jucq_matches_reference;
          Alcotest.test_case "jucq = answer (Thm 3.1)" `Quick test_jucq_equals_answer;
          Alcotest.test_case "bnl join = hash join" `Quick test_block_nested_loop_join_agrees;
          Alcotest.test_case "join order avoids cartesian" `Quick test_join_order_avoids_cartesian;
        ] );
      ( "failures",
        [
          Alcotest.test_case "union capacity" `Quick test_union_capacity_failure;
          Alcotest.test_case "materialization overflow" `Quick test_materialization_failure;
          Alcotest.test_case "operation budget" `Quick test_operation_budget_failure;
          Alcotest.test_case "operations metered" `Quick test_operations_metered;
          Alcotest.test_case "overflow between distinct and emitted" `Quick
            test_overflow_between_distinct_and_emitted;
          Alcotest.test_case "LUBM-1 cold pass pinned" `Slow
            test_lubm1_pass_pinned;
          Alcotest.test_case "head copy = sink, LUBM-1 and DBLP-2000" `Slow
            test_head_copy_matches_sink;
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "dead statements not pinned" `Quick
            test_plan_caches_do_not_pin;
        ] );
      ( "explain",
        [ Alcotest.test_case "positive cost" `Quick test_explain_positive_and_monotone ] );
      ( "plan",
        [ Alcotest.test_case "describe" `Quick test_plan_describe ] );
      ( "sql",
        [
          Alcotest.test_case "cq" `Quick test_sql_cq;
          Alcotest.test_case "missing constant" `Quick test_sql_missing_constant;
          Alcotest.test_case "union and jucq" `Quick test_sql_union_and_jucq;
        ] );
      ("properties", qcheck_cases);
      ( "differential",
        differential_cases
        @ [
            Alcotest.test_case "profiles agree on LUBM" `Quick
              test_profiles_agree_on_lubm;
          ] );
    ]

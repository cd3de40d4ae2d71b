(* Tests for the parallel execution layer: the lib/par domain pool itself,
   and the determinism contract threaded through the engine and the cover
   search — at every jobs count the decoded answers, chosen covers, engine
   operation totals and failure reasons must be bit-identical to the
   sequential run, across all engine profiles and strategies. *)

open Query

(* Exercise the real multi-domain machinery even on small CI machines: the
   core clamp in [Par.create] would otherwise degrade every jobs>1 pool to
   sequential on a 1-core container and the interleavings under test would
   never run.  [test_global_pool_resize] unsets the override locally to
   test the clamp itself. *)
let () = Unix.putenv "RDFQA_JOBS_FORCE" "1"

let without_force f =
  Unix.putenv "RDFQA_JOBS_FORCE" "";
  Fun.protect ~finally:(fun () -> Unix.putenv "RDFQA_JOBS_FORCE" "1") f

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

(* Every differential test drives the process-global pool through
   [set_jobs]; restore the environment-derived width afterwards so tests
   compose regardless of order (the suite also runs under RDFQA_JOBS=4). *)
let with_jobs j f =
  Fun.protect ~finally:(fun () -> Par.set_jobs (Par.env_jobs ())) (fun () ->
      Par.set_jobs j;
      f ())

(* ---- pool unit tests ---- *)

let test_map_in_order () =
  let pool = Par.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  List.iter
    (fun n ->
      let xs = Array.init n (fun i -> i) in
      let expected = Array.map (fun i -> (i * i) + 1) xs in
      Alcotest.(check (array int))
        (Printf.sprintf "map of %d elements" n)
        expected
        (Par.parallel_map ~chunk:3 pool (fun i -> (i * i) + 1) xs))
    [ 0; 1; 2; 5; 97 ]

let test_jobs_one_is_sequential () =
  let pool = Par.create ~jobs:1 in
  Alcotest.(check int) "width clamped" 1 (Par.jobs pool);
  let xs = Array.init 10 string_of_int in
  Alcotest.(check (array string))
    "identity map" xs
    (Par.parallel_map pool Fun.id xs);
  Par.shutdown pool

exception Boom of int

let test_exception_smallest_index () =
  let pool = Par.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  let raised =
    try
      ignore
        (Par.parallel_map pool
           (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
           (Array.init 40 (fun i -> i)));
      None
    with Boom i -> Some i
  in
  (* indexes 3, 10, 17, ... fail; a sequential loop would raise at 3 *)
  Alcotest.(check (option int)) "smallest failing index" (Some 3) raised

let test_fold_in_order () =
  let pool = Par.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  let xs = Array.init 26 (fun i -> String.make 1 (Char.chr (65 + i))) in
  let folded =
    Par.parallel_fold pool ~map:String.lowercase_ascii
      ~fold:(fun acc s -> acc ^ s)
      ~init:"" xs
  in
  Alcotest.(check string) "fold order" "abcdefghijklmnopqrstuvwxyz" folded

let test_nested_call_falls_back () =
  let pool = Par.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Par.shutdown pool) @@ fun () ->
  (* A task that itself fans out on the same (busy) pool must run the
     inner map inline rather than deadlock, with unchanged results. *)
  let res =
    Par.parallel_map pool
      (fun i ->
        Array.fold_left ( + ) 0
          (Par.parallel_map pool (fun j -> i * j) (Array.init 5 Fun.id)))
      (Array.init 6 Fun.id)
  in
  Alcotest.(check (array int))
    "nested map results"
    (Array.init 6 (fun i -> 10 * i))
    res

let test_global_pool_resize () =
  without_force @@ fun () ->
  with_jobs 3 @@ fun () ->
  let p = Par.get () in
  (* The effective width is the requested width clamped to the cores the
     OS grants (Par.create's oversubscription guard), so on a 1-core
     container "resize to 3" honestly yields width 1. *)
  let expected = min 3 (max 1 (Par.recommended_jobs ())) in
  Alcotest.(check int) "requested 3" 3 (Par.requested_jobs p);
  Alcotest.(check int) "effective width clamped" expected (Par.jobs p);
  Alcotest.(check int) "effective_jobs agrees" expected (Par.effective_jobs ());
  Alcotest.(check bool) "same pool on same width" true (p == Par.get ());
  Par.set_jobs 1;
  Alcotest.(check int) "resized to 1" 1 (Par.jobs (Par.get ()));
  Alcotest.(check int) "current_jobs tracks" 1 (Par.current_jobs ())

(* ---- differential fixtures ---- *)

let schema =
  Rdf.Schema.of_constraints
    [
      Rdf.Schema.Subclass (u "GradStudent", u "Student");
      Rdf.Schema.Subclass (u "Student", u "Person");
      Rdf.Schema.Subproperty (u "worksFor", u "memberOf");
      Rdf.Schema.Domain (u "memberOf", u "Person");
      Rdf.Schema.Range (u "memberOf", u "Org");
    ]

let graph =
  let facts =
    List.concat
      (List.init 80 (fun i ->
           let p = u (Printf.sprintf "person%d" i) in
           [
             tr p typ (u (if i mod 3 = 0 then "GradStudent" else "Student"));
             tr p (u "worksFor") (u (Printf.sprintf "org%d" (i mod 4)));
           ]))
  in
  Rdf.Graph.make schema facts

let ecov_budget = { Rqa.Cover_space.max_covers = 50_000; max_millis = 60_000.0 }

let strategies =
  [
    ("ucq", Rqa.Answering.Ucq);
    ("scq", Rqa.Answering.Scq);
    ("ecov", Rqa.Answering.Ecov ecov_budget);
    ("gcov", Rqa.Answering.Gcov);
  ]

(* Everything observable about one answered query: decoded rows in
   relation order, planning metadata, and the engine's lifetime work
   accounting — or the exact failure, which must also reproduce. *)
let outcome ~profile ~reformulator store strat q =
  let sys = Rqa.Answering.make ~profile ~reformulator store in
  let ex = Rqa.Answering.engine sys in
  match Rqa.Answering.answer sys strat q with
  | r ->
      Ok
        ( Engine.Executor.decode ex r.Rqa.Answering.answers,
          r.Rqa.Answering.cover,
          r.Rqa.Answering.union_terms,
          r.Rqa.Answering.fragment_terms,
          Engine.Executor.total_operations ex )
  | exception Engine.Profile.Engine_failure { engine; reason } ->
      Error (engine, reason, Engine.Executor.total_operations ex)

let jobs_levels = [ 1; 2; 4 ]

(* Runs [measure ()] at every jobs level and checks the results against
   the sequential one.  One discarded warm-up run first: the very first
   query over a store encodes its constants into the shared dictionary,
   which shifts plan statistics (and hence operation counts) by a few ops
   for every later system — a sequential-only effect that would otherwise
   masquerade as a parallel divergence. *)
let check_matches_sequential ~msg measure =
  ignore (with_jobs 1 measure);
  match
    List.map (fun j -> (j, with_jobs j measure)) jobs_levels
  with
  | (_, baseline) :: rest ->
      List.iter
        (fun (j, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d matches jobs=1" msg j)
            true (r = baseline))
        rest
  | [] -> ()

let q3 =
  Bgp.make [ v "x"; v "y" ]
    [
      Bgp.atom (v "x") (c typ) (v "y");
      Bgp.atom (v "x") (c (u "memberOf")) (c (u "org2"));
    ]

let test_profiles_strategies_differential () =
  let store = Store.Encoded_store.of_graph graph in
  let reformulator = Reformulation.Reformulate.create schema in
  List.iter
    (fun profile ->
      List.iter
        (fun (sname, strat) ->
          check_matches_sequential
            ~msg:(Printf.sprintf "%s/%s" profile.Engine.Profile.name sname)
            (fun () -> outcome ~profile ~reformulator store strat q3))
        strategies)
    Engine.Profile.all

(* LUBM at unit scale: the real workload queries, GCov + every profile. *)
let lubm_store =
  lazy (Workloads.Lubm.generate { Workloads.Lubm.universities = 1 })

let test_lubm_differential () =
  let store = Lazy.force lubm_store in
  let reformulator = Reformulation.Reformulate.create Workloads.Lubm.schema in
  let queries =
    List.filter
      (fun (n, _) -> List.mem n [ "Q01"; "Q02"; "Q07"; "Q18"; "Q24"; "Q28" ])
      Workloads.Lubm.queries
  in
  List.iter
    (fun (name, q) ->
      check_matches_sequential ~msg:("lubm:" ^ name) (fun () ->
          List.map
            (fun profile ->
              outcome ~profile ~reformulator store Rqa.Answering.Gcov q)
            Engine.Profile.all))
    queries

(* One system, hence one cost model, for every search: at jobs=4 its
   per-UCQ figures table and each objective's fragment memo are filled
   from pool domains concurrently.  Chosen cover, cost bits and
   exploration count must match jobs=1, whichever width runs first. *)
let test_shared_cost_model_gcov () =
  let store = Lazy.force lubm_store in
  let reformulator = Reformulation.Reformulate.create Workloads.Lubm.schema in
  let cache = Cache.create ~mode:Cache.Off ~reformulator store in
  let sys = Rqa.Answering.make ~cache store in
  List.iter
    (fun name ->
      let q = Bgp.normalize (List.assoc name Workloads.Lubm.queries) in
      let search j =
        with_jobs j (fun () ->
            let r = Rqa.Gcov.search (Rqa.Answering.objective sys q) in
            ( r.Rqa.Gcov.cover,
              Int64.bits_of_float r.Rqa.Gcov.cost,
              r.Rqa.Gcov.explored ))
      in
      let at4 = search 4 in
      let at1 = search 1 in
      let at4' = search 4 in
      Alcotest.(check bool) (name ^ ": jobs=4 first = jobs=1") true (at4 = at1);
      Alcotest.(check bool)
        (name ^ ": jobs=4 again = jobs=1")
        true (at4' = at1))
    [ "Q02"; "Q24"; "Q27"; "Q28" ]

(* Budget failures must fire at the identical charge with identical
   lifetime totals: the record-and-replay path may truncate worker logs
   only where replay is guaranteed to fail at the same call. *)
let test_budget_failure_differential () =
  let store = Lazy.force lubm_store in
  let reformulator = Reformulation.Reformulate.create Workloads.Lubm.schema in
  let profile =
    {
      Engine.Profile.postgres_like with
      Engine.Profile.name = "tiny-budget";
      max_operations = 2_000;
    }
  in
  let q = List.assoc "Q02" Workloads.Lubm.queries in
  check_matches_sequential ~msg:"tiny budget" (fun () ->
      outcome ~profile ~reformulator store Rqa.Answering.Ucq q);
  let r = with_jobs 4 (fun () ->
      outcome ~profile ~reformulator store Rqa.Answering.Ucq q)
  in
  Alcotest.(check bool) "budget actually trips" true
    (match r with
    | Error (_, Engine.Profile.Operation_budget _, _) -> true
    | _ -> false)

(* Tracing must not perturb results, and worker-domain sinks are no-ops:
   a traced jobs=4 run returns exactly the untraced outcome. *)
let test_traced_equals_untraced () =
  let store = Store.Encoded_store.of_graph graph in
  let reformulator = Reformulation.Reformulate.create schema in
  let measure () = outcome ~profile:Engine.Profile.postgres_like ~reformulator
      store Rqa.Answering.Gcov q3
  in
  ignore (with_jobs 1 measure);  (* discarded warm-up, see above *)
  let untraced = with_jobs 4 measure in
  let traced =
    with_jobs 4 (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) measure)
  in
  Alcotest.(check bool) "traced jobs=4 outcome unchanged" true
    (traced = untraced)

(* ---- hash join across jobs counts ----

   Join-heavy inputs driven straight through [Executor.hash_join]: output
   schema and rows in order, charge totals, operator counters and budget
   failure points must not depend on the jobs count. *)

let tiny_store =
  lazy
    (Store.Encoded_store.of_graph
       (Rdf.Graph.make (Rdf.Schema.of_constraints []) []))

let rel_of_rows cols rows =
  let r = Engine.Relation.create ~cols:(List.length cols) in
  List.iter (fun row -> Engine.Relation.append r (Array.of_list row)) rows;
  { Engine.Executor.columns = cols; rel = r }

(* Everything observable about one join: output schema and rows in order,
   the engine's charge total, and the operator counters — or the exact
   failure with the charge total at the point it fired. *)
let join_outcome ?profile a b =
  let t = Engine.Executor.create ?profile (Lazy.force tiny_store) in
  let s = Obs.Op_stats.make Obs.Op_stats.Hash_join in
  match Engine.Executor.hash_join ~stats:s t a b with
  | r ->
      Ok
        ( r.Engine.Executor.columns,
          Engine.Relation.to_list r.Engine.Executor.rel,
          Engine.Executor.total_operations t,
          ( s.Obs.Op_stats.rows_in,
            s.Obs.Op_stats.rows_out,
            s.Obs.Op_stats.index_probes,
            s.Obs.Op_stats.hash_inserts,
            s.Obs.Op_stats.hash_collisions,
            s.Obs.Op_stats.work_units ) )
  | exception Engine.Profile.Engine_failure { engine; reason } ->
      Error (engine, reason, Engine.Executor.total_operations t)

let check_join_matches_sequential ~msg ?profile a b =
  let baseline = with_jobs 1 (fun () -> join_outcome ?profile a b) in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: jobs=%d matches jobs=1" msg j)
        true
        (with_jobs j (fun () -> join_outcome ?profile a b) = baseline))
    (List.tl jobs_levels)

(* Keys 0..9, several matches per key. *)
let join_a =
  rel_of_rows [ "k"; "a" ] (List.init 60 (fun i -> [ i mod 10; i ]))

let join_b =
  rel_of_rows [ "b"; "k" ] (List.init 24 (fun i -> [ 100 + i; i mod 12 ]))

let test_join_differential () =
  check_join_matches_sequential ~msg:"join 60x24" join_a join_b;
  (* degenerate shapes: empty build, empty probe *)
  let empty = rel_of_rows [ "k"; "z" ] [] in
  check_join_matches_sequential ~msg:"empty probe side" empty join_b;
  check_join_matches_sequential ~msg:"empty build side" join_a empty

(* A budget that trips mid-join must trip at the identical operation —
   same reason, same lifetime total — at every jobs count. *)
let test_join_budget_failure () =
  let profile =
    {
      Engine.Profile.postgres_like with
      Engine.Profile.name = "tiny-join-budget";
      max_operations = 150;
    }
  in
  (* build (24) fits; the probe's 60 row charges + ~144 emit charges
     overrun mid-probe *)
  check_join_matches_sequential ~msg:"budget mid-join" ~profile join_a join_b;
  let r = with_jobs 4 (fun () -> join_outcome ~profile join_a join_b) in
  Alcotest.(check bool) "budget actually trips" true
    (match r with
    | Error (_, Engine.Profile.Operation_budget _, _) -> true
    | _ -> false)

let gen_rows ncols =
  QCheck2.Gen.(list_size (int_bound 40) (list_repeat ncols (int_bound 5)))

let gen_join_inputs =
  QCheck2.Gen.(
    let* nkeys = int_range 1 2 in
    let* extra_a = int_bound 2 and* extra_b = int_bound 2 in
    let keys = List.init nkeys (Printf.sprintf "k%d") in
    (* keys lead in [a] but trail in [b], exercising key positions *)
    let cols_a = keys @ List.init extra_a (Printf.sprintf "a%d") in
    let cols_b = List.init extra_b (Printf.sprintf "b%d") @ keys in
    let* rows_a = gen_rows (List.length cols_a)
    and* rows_b = gen_rows (List.length cols_b) in
    return ((cols_a, rows_a), (cols_b, rows_b)))

let prop_join_identical =
  QCheck2.Test.make ~count:30
    ~name:"random hash joins match jobs=1"
    gen_join_inputs
    (fun ((cols_a, rows_a), (cols_b, rows_b)) ->
      let a = rel_of_rows cols_a rows_a and b = rel_of_rows cols_b rows_b in
      let baseline = with_jobs 1 (fun () -> join_outcome a b) in
      List.for_all
        (fun j -> with_jobs j (fun () -> join_outcome a b) = baseline)
        (List.tl jobs_levels))

(* ---- traced op-stats totals across jobs counts ---- *)

(* Every per-node total of the EXPLAIN ANALYZE tree. *)
let op_totals root =
  List.rev
    (Obs.Op_stats.fold
       (fun acc ~path n ->
         ( path,
           Obs.Op_stats.kind_name n.Obs.Op_stats.kind,
           n.Obs.Op_stats.label,
           n.Obs.Op_stats.rows_in,
           n.Obs.Op_stats.rows_out,
           n.Obs.Op_stats.index_probes,
           n.Obs.Op_stats.hash_inserts,
           n.Obs.Op_stats.hash_collisions,
           n.Obs.Op_stats.work_units )
         :: acc)
       [] root)

let test_traced_op_totals_equal () =
  let store = Store.Encoded_store.of_graph graph in
  let reformulator = Reformulation.Reformulate.create schema in
  let run j =
    with_jobs j (fun () ->
        Obs.reset ();
        Obs.set_enabled true;
        Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
            let sys =
              Rqa.Answering.make ~profile:Engine.Profile.postgres_like
                ~reformulator store
            in
            ignore (Rqa.Answering.answer sys Rqa.Answering.Scq q3);
            match
              Engine.Executor.last_op_stats (Rqa.Answering.engine sys)
            with
            | Some root -> op_totals root
            | None -> []))
  in
  (* discarded warm-up: the first query over a store encodes constants into
     the shared dictionary, shifting later plan statistics *)
  ignore (run 1);
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "trace tree non-empty" true (seq <> []);
  Alcotest.(check bool) "a hash join was traced" true
    (List.exists (fun (_, k, _, _, _, _, _, _, _) -> k = "hash_join") seq);
  Alcotest.(check bool) "jobs=4 op totals = jobs=1" true (par = seq)

(* ---- qcheck: random BGPs across jobs counts ---- *)

let gen_node =
  QCheck2.Gen.(map (fun i -> u (Printf.sprintf "n%d" i)) (int_bound 6))

let gen_class =
  QCheck2.Gen.(map (fun i -> u (Printf.sprintf "C%d" i)) (int_bound 3))

let gen_prop =
  QCheck2.Gen.(map (fun i -> u (Printf.sprintf "p%d" i)) (int_bound 2))

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

let prop_parallel_answers_identical =
  QCheck2.Test.make ~count:40
    ~name:"parallel answers/covers/charges = sequential on random inputs"
    QCheck2.Gen.(triple gen_schema gen_facts gen_query)
    (fun (schema, facts, q) ->
      let g = Rdf.Graph.make schema facts in
      let store = Store.Encoded_store.of_graph g in
      let reformulator = Reformulation.Reformulate.create schema in
      let measure () =
        List.concat_map
          (fun profile ->
            List.map
              (fun (_, strat) ->
                outcome ~profile ~reformulator store strat q)
              strategies)
          Engine.Profile.all
      in
      (* discarded warm-up: see check_matches_sequential *)
      ignore (with_jobs 1 measure);
      let baseline = with_jobs 1 measure in
      List.for_all (fun j -> with_jobs j measure = baseline) [ 2; 4 ])

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [ prop_parallel_answers_identical; prop_join_identical ]

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map in order" `Quick test_map_in_order;
          Alcotest.test_case "jobs=1 sequential" `Quick
            test_jobs_one_is_sequential;
          Alcotest.test_case "smallest-index exception" `Quick
            test_exception_smallest_index;
          Alcotest.test_case "fold in order" `Quick test_fold_in_order;
          Alcotest.test_case "nested call falls back" `Quick
            test_nested_call_falls_back;
          Alcotest.test_case "global pool resize" `Quick
            test_global_pool_resize;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "profiles x strategies" `Quick
            test_profiles_strategies_differential;
          Alcotest.test_case "LUBM workload queries" `Slow
            test_lubm_differential;
          Alcotest.test_case "shared cost model, GCov covers" `Quick
            test_shared_cost_model_gcov;
          Alcotest.test_case "budget failure point" `Quick
            test_budget_failure_differential;
          Alcotest.test_case "traced = untraced" `Quick
            test_traced_equals_untraced;
        ] );
      ( "hash_join",
        [
          Alcotest.test_case "differential across jobs" `Quick
            test_join_differential;
          Alcotest.test_case "budget failure mid-join" `Quick
            test_join_budget_failure;
        ] );
      ( "op_stats",
        [
          Alcotest.test_case "traced totals jobs=1 = jobs=4" `Quick
            test_traced_op_totals_equal;
        ] );
      ("properties", qcheck_cases);
    ]

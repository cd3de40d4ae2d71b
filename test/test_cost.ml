(* Static cost analysis tests.

   1. Bound soundness: for every LUBM and DBLP workload query, the traced
      operation charges of a real evaluation (the engine's monotonic
      [total_operations] delta) must land inside the analyzer's static
      interval — across all three engine profiles, the Saturation / UCQ /
      SCQ / GCov strategies and jobs in {1, 4}.  A violation is a hard
      failure: it means a bound the analyzer claimed "guaranteed" is not.

   2. Mutation self-tests: one test per CB code asserting the exact
      diagnostic fires (and, for the admission gate, that a rejected
      statement charges nothing).

   3. qcheck: random well-formed CQs/UCQs through the lint and the
      analyzer — no crashes, intervals always satisfy lo <= hi, and the
      lint is deterministic. *)

open Query
module CV = Analysis.Cost_verify
module D = Analysis.Diagnostic
module Reformulate = Reformulation.Reformulate

(* Real multi-domain execution on small CI machines (see test_par). *)
let () = Unix.putenv "RDFQA_JOBS_FORCE" "1"

(* Like the other suites, plan verification is force-enabled; the cost
   admission gate stays OFF so the soundness harness actually executes
   statements (mutation tests flip it locally). *)
let () = Analysis.Plan_verify.set_enabled true
let () = CV.set_enabled false

let with_jobs j f =
  Fun.protect ~finally:(fun () -> Par.set_jobs (Par.env_jobs ())) (fun () ->
      Par.set_jobs j;
      f ())

let with_cost_gate b f =
  CV.set_enabled b;
  Fun.protect ~finally:(fun () -> CV.set_enabled false) f

(* ---- shared fixtures ---- *)

let lubm_store =
  lazy (Workloads.Lubm.generate { Workloads.Lubm.universities = 1 })

let dblp_store =
  lazy (Workloads.Dblp.generate { Workloads.Dblp.publications = 2000 })

let lubm_refm = lazy (Reformulate.create Workloads.Lubm.schema)
let dblp_refm = lazy (Reformulate.create Workloads.Dblp.schema)

let workloads =
  [
    ("lubm", lubm_store, lubm_refm, Workloads.Lubm.queries);
    ("dblp", dblp_store, dblp_refm, Workloads.Dblp.queries);
  ]

let strategies =
  [ Rqa.Answering.Saturation; Rqa.Answering.Ucq; Rqa.Answering.Scq;
    Rqa.Answering.Gcov ]

(* ---- bound soundness ---- *)

(* The statement the strategy will ship to the engine, its oracle, and the
   engine whose [total_operations] the evaluation charges.  [None] when
   [run_cover]'s reformulation-size pre-check provably refuses the cover
   before any execution (its bound is [count_product_bound], which can
   exceed the actual cardinal, so the analyzer cannot be asked instead). *)
let statement_for sys strategy q =
  let q = Bgp.normalize q in
  match strategy with
  | Rqa.Answering.Saturation ->
      let ex = Rqa.Answering.saturated_engine sys in
      Some (Engine.Executor.cost_oracle ex, CV.Cq q, ex)
  | _ ->
      let ex = Rqa.Answering.engine sys in
      let cover =
        match strategy with
        | Rqa.Answering.Ucq -> Jucq.ucq_cover q
        | Rqa.Answering.Scq -> Jucq.scq_cover q
        | Rqa.Answering.Gcov ->
            (Rqa.Gcov.search (Rqa.Answering.objective sys q)).Rqa.Gcov.cover
        | _ -> assert false
      in
      let refm = Rqa.Answering.reformulator sys in
      let capacity =
        (Engine.Executor.profile ex).Engine.Profile.max_union_terms
      in
      if
        List.exists
          (fun f ->
            Reformulate.count_product_bound refm (Jucq.cover_query q cover f)
            > capacity)
          cover
      then None
      else
        let j =
          Jucq.make ~reformulate:(Reformulate.reformulate refm) q cover
        in
        Some (Engine.Executor.cost_oracle ex, CV.Jucq j, ex)

let engine_of sys = function
  | Rqa.Answering.Saturation -> Rqa.Answering.saturated_engine sys
  | _ -> Rqa.Answering.engine sys

let check_soundness ~profile ~jobs (wl, store, refm, queries) =
  with_jobs jobs @@ fun () ->
  (* A fresh system per (profile, jobs) point: the tier-3 answer cache
     would otherwise satisfy repeats without executing anything. *)
  let sys =
    Rqa.Answering.make ~profile ~reformulator:(Lazy.force refm)
      (Lazy.force store)
  in
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun strategy ->
          let label =
            Printf.sprintf "%s:%s %s %s jobs=%d" wl qname
              (Rqa.Answering.strategy_name strategy)
              profile.Engine.Profile.name jobs
          in
          let planned = statement_for sys strategy q in
          let ex = engine_of sys strategy in
          let before = Engine.Executor.total_operations ex in
          let outcome =
            match Rqa.Answering.answer sys strategy q with
            | _ -> Ok ()
            | exception Engine.Profile.Engine_failure { reason; _ } ->
                Error reason
          in
          let delta = Engine.Executor.total_operations ex - before in
          match planned with
          | None ->
              (* refused by run_cover before execution: no charge, and the
                 failure is the union-capacity refusal *)
              Alcotest.(check int) (label ^ ": refusal charges nothing") 0 delta;
              Alcotest.(check bool) (label ^ ": refusal reason") true
                (match outcome with
                | Error (Engine.Profile.Union_capacity _) -> true
                | _ -> false)
          | Some (oracle, stmt, _) -> (
              let e = CV.estimate oracle stmt in
              Alcotest.(check bool)
                (label ^ Printf.sprintf ": lo<=hi %s" (CV.to_string e.CV.ops))
                true
                (e.CV.ops.CV.lo <= e.CV.ops.CV.hi);
              match outcome with
              | Ok () ->
                  Alcotest.(check bool)
                    (label
                    ^ Printf.sprintf ": %d in %s" delta (CV.to_string e.CV.ops)
                    )
                    true
                    ((not e.CV.refused)
                    && delta >= e.CV.ops.CV.lo
                    && delta <= e.CV.ops.CV.hi)
              | Error reason ->
                  (* a failed statement stopped early: it can never have
                     charged more than the upper bound *)
                  Alcotest.(check bool)
                    (label
                    ^ Printf.sprintf ": failed at %d <= hi %s" delta
                        (CV.string_of_bound e.CV.ops.CV.hi))
                    true
                    (delta <= e.CV.ops.CV.hi);
                  (* a provably-safe verdict promises the budget is never
                     the reason a statement dies *)
                  if CV.verdict oracle stmt = CV.Safe then
                    Alcotest.(check bool)
                      (label ^ ": Safe verdict never dies on budget") true
                      (match reason with
                      | Engine.Profile.Operation_budget _ -> false
                      | _ -> true);
                  if e.CV.refused then
                    Alcotest.(check bool)
                      (label ^ ": refused estimate = capacity failure, free")
                      true
                      (delta = 0
                      &&
                      match reason with
                      | Engine.Profile.Union_capacity _ -> true
                      | _ -> false)))
        strategies)
    queries

let soundness_tests =
  List.concat_map
    (fun profile ->
      List.concat_map
        (fun jobs ->
          List.map
            (fun ((wl, _, _, _) as w) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s jobs=%d" wl
                   profile.Engine.Profile.name jobs)
                `Slow
                (fun () -> check_soundness ~profile ~jobs w))
            workloads)
        [ 1; 4 ])
    Engine.Profile.all

(* ---- admission tallies ----

   How much of each workload the static analyzer decides before
   execution: per engine profile, the verdict on every template's
   SCQ-cover JUCQ (the statement [rdfqa check --cost] admits).  A
   template whose SCQ fragments provably exceed the profile's union
   capacity is skipped, as the CLI's RF001 skip does.  The counts are
   deterministic, so they are pinned exactly: a precision change in the
   analyzer shows up here as a changed tally. *)

type tally = { safe : int; fails : int; unknown : int; skipped : int }

let admission_tally profile (_, store, refm, queries) =
  let refm = Lazy.force refm in
  let ex = Engine.Executor.create ~profile (Lazy.force store) in
  let oracle = Engine.Executor.cost_oracle ex in
  let capacity = profile.Engine.Profile.max_union_terms in
  List.fold_left
    (fun t (_, q) ->
      let q = Bgp.normalize q in
      let cover = Jucq.scq_cover q in
      let too_large =
        List.exists
          (fun f ->
            Reformulate.count_product_bound refm (Jucq.cover_query q cover f)
            > capacity)
          cover
      in
      if too_large then { t with skipped = t.skipped + 1 }
      else
        match
          Jucq.make ~reformulate:(Reformulate.reformulate refm) q cover
        with
        | j -> (
            match CV.verdict oracle (CV.Jucq j) with
            | CV.Safe -> { t with safe = t.safe + 1 }
            | CV.Fails -> { t with fails = t.fails + 1 }
            | CV.Unknown -> { t with unknown = t.unknown + 1 })
        | exception Reformulate.Too_large _ ->
            { t with skipped = t.skipped + 1 })
    { safe = 0; fails = 0; unknown = 0; skipped = 0 }
    queries

(* (workload, profile) -> tally on the LUBM-1 and DBLP-2000 fixtures *)
let pinned_tallies =
  let t safe unknown = { safe; fails = 0; unknown; skipped = 0 } in
  [
    (("lubm", "postgres-like"), t 20 8);
    (("lubm", "db2-like"), t 20 8);
    (("lubm", "mysql-like"), t 24 4);
    (("dblp", "postgres-like"), t 4 6);
    (("dblp", "db2-like"), t 4 6);
    (("dblp", "mysql-like"), t 5 5);
  ]

let test_admission_tallies () =
  List.iter
    (fun ((wl, _, _, queries) as w) ->
      List.iter
        (fun profile ->
          let pname = profile.Engine.Profile.name in
          let label = wl ^ " " ^ pname in
          let t = admission_tally profile w in
          Alcotest.(check int) (label ^ ": provably fails") 0 t.fails;
          Alcotest.(check int)
            (label ^ ": every template counted")
            (List.length queries)
            (t.safe + t.fails + t.unknown + t.skipped);
          let pinned = List.assoc (wl, pname) pinned_tallies in
          Alcotest.(check (list int))
            (label ^ ": safe/unknown/skipped")
            [ pinned.safe; pinned.unknown; pinned.skipped ]
            [ t.safe; t.unknown; t.skipped ])
        Engine.Profile.all)
    workloads

(* ---- mutation self-tests: each CB code fires ---- *)

let u s = Rdf.Term.uri s
let tr s p o = Rdf.Triple.make s p o
let typ = Rdf.Vocab.rdf_type
let v x = Bgp.Var x
let c t = Bgp.Const t

let tiny_schema =
  Rdf.Schema.of_constraints
    [ Rdf.Schema.Subclass (u "GradStudent", u "Student") ]

let tiny_store =
  lazy
    (Store.Encoded_store.of_graph
       (Rdf.Graph.make tiny_schema
          (List.concat
             (List.init 40 (fun i ->
                  let p = u (Printf.sprintf "person%d" i) in
                  [
                    tr p typ (u "Student");
                    tr p (u "advisor") (u (Printf.sprintf "prof%d" (i mod 5)));
                  ])))))

(* one atom, distinct vars: the interval is exact and rows.lo > 0 *)
let q_scan = Bgp.make [ v "x"; v "y" ] [ Bgp.atom (v "x") (c typ) (v "y") ]

(* two atoms: the interval genuinely straddles realistic budgets *)
let q_join =
  Bgp.make [ v "x"; v "a" ]
    [
      Bgp.atom (v "x") (c typ) (c (u "Student"));
      Bgp.atom (v "x") (c (u "advisor")) (v "a");
    ]

let engine_with ?(max_operations = 2_000_000_000)
    ?(max_materialized_rows = 4_000_000) ?(max_union_terms = 100_000) () =
  let profile =
    {
      Engine.Profile.postgres_like with
      Engine.Profile.name = "mutant";
      max_operations;
      max_materialized_rows;
      max_union_terms;
    }
  in
  Engine.Executor.create ~profile (Lazy.force tiny_store)

let has_code ~severity code ds =
  List.exists
    (fun (d : D.t) -> d.D.code = code && d.D.severity = severity)
    ds

let admission_of ex stmt =
  CV.admission (Engine.Executor.cost_oracle ex) ~context:"mutation" stmt

let test_cb001 () =
  let ex = engine_with ~max_operations:3 () in
  let ds = admission_of ex (CV.Cq q_scan) in
  Alcotest.(check bool) "CB001 error fires" true (has_code ~severity:D.Error "CB001" ds);
  (* the gate rejects before execution: no operation is ever charged *)
  with_cost_gate true @@ fun () ->
  let before = Engine.Executor.total_operations ex in
  (match Engine.Executor.eval_cq ex q_scan with
  | _ -> Alcotest.fail "expected static rejection"
  | exception Analysis.Plan_verify.Rejected ds ->
      Alcotest.(check bool) "rejection carries CB001" true
        (has_code ~severity:D.Error "CB001" ds));
  Alcotest.(check int) "rejected statement charged nothing" 0
    (Engine.Executor.total_operations ex - before)

let test_cb002 () =
  let ex = engine_with () in
  let ds = admission_of ex (CV.Cq q_scan) in
  Alcotest.(check bool) "CB002 info fires" true (has_code ~severity:D.Info "CB002" ds);
  (* provably safe statements pass the gate untouched *)
  with_cost_gate true @@ fun () ->
  Alcotest.(check bool) "safe statement still runs" true
    (Engine.Relation.rows (Engine.Executor.eval_cq ex q_scan) > 0)

let test_cb003 () =
  let ex = engine_with ~max_materialized_rows:0 () in
  let ds = admission_of ex (CV.Ucq (Ucq.of_cqs [ q_scan ])) in
  Alcotest.(check bool) "CB003 error fires" true (has_code ~severity:D.Error "CB003" ds)

let test_cb004 () =
  let ex = engine_with () in
  let oracle = Engine.Executor.cost_oracle ex in
  let e = CV.estimate oracle (CV.Cq q_join) in
  Alcotest.(check bool) "fixture interval is wide" true
    (e.CV.ops.CV.lo < e.CV.ops.CV.hi);
  let budget = e.CV.ops.CV.lo + ((e.CV.ops.CV.hi - e.CV.ops.CV.lo) / 2) in
  let ds = CV.admission oracle ~budget ~context:"mutation" (CV.Cq q_join) in
  Alcotest.(check bool) "CB004 info fires" true (has_code ~severity:D.Info "CB004" ds);
  Alcotest.(check bool) "verdict is Unknown" true
    (CV.verdict oracle ~budget (CV.Cq q_join) = CV.Unknown)

let test_cb009 () =
  let ex = engine_with ~max_union_terms:0 () in
  let ds = admission_of ex (CV.Ucq (Ucq.of_cqs [ q_scan ])) in
  Alcotest.(check bool) "CB009 error fires" true (has_code ~severity:D.Error "CB009" ds);
  (* a refused estimate has the zero interval: refusal charges nothing *)
  let e =
    CV.estimate (Engine.Executor.cost_oracle ex) (CV.Ucq (Ucq.of_cqs [ q_scan ]))
  in
  Alcotest.(check bool) "refused, zero interval" true
    (e.CV.refused && e.CV.ops.CV.hi = 0)

let test_catalog_documents_all_emitted_codes () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " in catalog") true
        (D.describe code <> None))
    [ "CB001"; "CB002"; "CB003"; "CB004"; "CB009" ]

(* ---- qcheck: random CQs/UCQs through lint + analyzer ---- *)

let gen_term =
  QCheck2.Gen.(
    oneof
      [
        (let+ i = int_bound 3 in
         v (Printf.sprintf "v%d" i));
        (let+ i = int_bound 4 in
         c (u (Printf.sprintf "const%d" i)));
      ])

let gen_prop =
  QCheck2.Gen.(
    oneof
      [
        return (c typ);
        (let+ i = int_bound 2 in
         c (u (Printf.sprintf "prop%d" i)));
        (let+ i = int_bound 3 in
         v (Printf.sprintf "v%d" i));
      ])

let gen_cq =
  QCheck2.Gen.(
    let* natoms = int_range 1 4 in
    let* body =
      list_repeat natoms
        (let* s = gen_term and* p = gen_prop and* o = gen_term in
         return (Bgp.atom s p o))
    in
    (* head: the body's variables (well-formed by construction), capped *)
    let vars =
      List.sort_uniq compare
        (List.concat_map
           (fun a -> List.filter_map (function Bgp.Var x -> Some x | _ -> None)
               (Bgp.atom_vars a |> List.map (fun x -> Bgp.Var x)))
           body)
    in
    let head = match vars with [] -> [ c (u "const0") ] | _ -> List.map v vars in
    return (Bgp.make head body))

let synthetic_oracle =
  {
    CV.cq_info =
      (fun cq ->
        let atoms = Array.of_list cq.Bgp.body in
        CV.Atoms
          (Array.map
             (fun a ->
               let vars = Bgp.atom_vars a in
               {
                 CV.atom_count = Hashtbl.hash a mod 50;
                 distinct_vars =
                   List.length vars
                   = List.length (List.sort_uniq compare vars);
               })
             atoms));
    join = CV.Hash;
    max_union_terms = 10;
    max_materialized_rows = 1000;
    max_operations = 10_000;
  }

let interval_ok (i : CV.interval) = 0 <= i.CV.lo && i.CV.lo <= i.CV.hi

let prop_intervals_well_formed =
  QCheck2.Test.make ~count:200 ~name:"random CQ/UCQ: estimates have lo <= hi"
    QCheck2.Gen.(list_size (int_range 1 3) gen_cq)
    (fun cqs ->
      let heads = List.map (fun q -> List.length q.Bgp.head) cqs in
      let arity = List.hd heads in
      let cqs =
        List.filter (fun q -> List.length q.Bgp.head = arity) cqs
      in
      let oracles =
        [
          synthetic_oracle;
          Engine.Executor.cost_oracle
            (Engine.Executor.create (Lazy.force tiny_store));
        ]
      in
      List.for_all
        (fun oracle ->
          List.for_all
            (fun q ->
              let e = CV.estimate oracle (CV.Cq q) in
              interval_ok e.CV.ops && interval_ok e.CV.rows)
            cqs
          &&
          let e = CV.estimate oracle (CV.Ucq (Ucq.of_cqs cqs)) in
          interval_ok e.CV.ops && interval_ok e.CV.rows)
        oracles)

let prop_lint_deterministic_no_crash =
  QCheck2.Test.make ~count:200
    ~name:"random CQ: lint never crashes and is deterministic" gen_cq
    (fun q ->
      let run () =
        List.map D.to_string
          (Analysis.Query_lint.lint ~schema:tiny_schema ~context:"qc" q)
      in
      run () = run ())

let prop_estimate_deterministic =
  QCheck2.Test.make ~count:100 ~name:"random CQ: estimate is deterministic"
    gen_cq
    (fun q ->
      CV.estimate synthetic_oracle (CV.Cq q)
      = CV.estimate synthetic_oracle (CV.Cq q))

let qcheck_cases =
  List.map
    (fun t -> QCheck_alcotest.to_alcotest t)
    [
      prop_intervals_well_formed;
      prop_lint_deterministic_no_crash;
      prop_estimate_deterministic;
    ]

let () =
  Alcotest.run "cost"
    [
      ("soundness", soundness_tests);
      ( "admission",
        [
          Alcotest.test_case "SCQ verdict tallies per profile" `Quick
            test_admission_tallies;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "CB001 provably over budget" `Quick test_cb001;
          Alcotest.test_case "CB002 provably safe" `Quick test_cb002;
          Alcotest.test_case "CB003 materialization floor" `Quick test_cb003;
          Alcotest.test_case "CB004 straddling interval" `Quick test_cb004;
          Alcotest.test_case "CB009 union capacity" `Quick test_cb009;
          Alcotest.test_case "catalog documents all CB codes" `Quick
            test_catalog_documents_all_emitted_codes;
        ] );
      ("properties", qcheck_cases);
    ]

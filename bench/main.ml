(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) on this library's substrates.

   Usage:  dune exec bench/main.exe -- [options]
     --scale quick|default|full   dataset sizes (default: default)
     --experiment LIST            comma-separated ids among
                                  table1,table2,table3,table4,
                                  fig4,fig5,fig6,fig7,fig8,fig9,fig10,
                                  ablations,minimization,workload
                                  (default: all; an unknown id exits 2)
     --runs N                     timed repetitions per measurement (default 1,
                                  after one warm-up when N > 1)
     --jobs N                     worker domains for parallel cover costing
                                  and the workload driver (default:
                                  RDFQA_JOBS, else 1)

   Shapes to compare against the paper (absolute numbers differ: the
   substrate is this library's in-process engine, not the authors'
   testbed):
   - Table 2: grouping selective triples beats both the flat UCQ and the
     SCQ by large factors;
   - Figures 4-6: UCQ fails on large-reformulation queries, SCQ is worst
     on the MySQL-like engine, GCov always completes and is fastest or
     near-fastest, GCov ≈ ECov;
   - Figures 7-8: GCov explores a small fraction of the cover space;
     exhaustive search is infeasible on the 10-atom DBLP Q10;
   - Figure 9: the Section 4.1 model and the engine-internal estimate
     guide the search to similar choices;
   - Figure 10: saturation is fastest once paid for; the GCov JUCQ is
     competitive on many queries while UCQ trails by orders of magnitude. *)

open Query

let now_ms () = Unix.gettimeofday () *. 1000.0

(* ---------- configuration ---------- *)

type config = {
  lubm_small : int;   (* universities *)
  lubm_large : int;
  dblp_pubs : int;
  runs : int;
  jobs : int;
  experiments : string list;
}

let all_experiments =
  [ "table1"; "table2"; "table3"; "table4"; "fig4"; "fig5"; "fig6"; "fig7";
    "fig8"; "fig9"; "fig10"; "ablations"; "minimization"; "workload" ]

let parse_config () =
  let cfg =
    ref
      {
        lubm_small = 8;
        lubm_large = 40;
        dblp_pubs = 15_000;
        runs = 1;
        jobs = Par.current_jobs ();
        experiments = all_experiments;
      }
  in
  let rec go = function
    | [] -> ()
    | "--scale" :: s :: rest ->
        (cfg :=
           match s with
           | "quick" ->
               { !cfg with lubm_small = 2; lubm_large = 8; dblp_pubs = 4_000 }
           | "default" -> !cfg
           | "full" ->
               {
                 !cfg with
                 lubm_small = 20;
                 lubm_large = 190;
                 dblp_pubs = 150_000;
               }
           | other -> failwith ("unknown scale: " ^ other));
        go rest
    | "--experiment" :: s :: rest ->
        let ids = String.split_on_char ',' s in
        let known id = List.mem id all_experiments in
        (match List.filter (fun id -> not (known id)) ids with
        | [] -> ()
        | unknown ->
            Printf.eprintf "unknown experiment %s (valid: %s)\n"
              (String.concat "," unknown)
              (String.concat "," all_experiments);
            exit 2);
        cfg := { !cfg with experiments = ids };
        go rest
    | "--runs" :: n :: rest ->
        cfg := { !cfg with runs = int_of_string n };
        go rest
    | "--jobs" :: n :: rest ->
        cfg := { !cfg with jobs = int_of_string n };
        go rest
    | "--help" :: _ ->
        print_endline
          "usage: bench/main.exe [--scale quick|default|full] [--experiment \
           LIST] [--runs N] [--jobs N]";
        exit 0
    | other :: _ -> failwith ("unknown option: " ^ other)
  in
  go (List.tl (Array.to_list Sys.argv));
  !cfg

(* ---------- datasets and systems ---------- *)

type dataset = {
  label : string;
  store : Store.Encoded_store.t;
  reformulator : Reformulation.Reformulate.t;
  cache : Cache.t;
  queries : (string * Bgp.t) list;
  (* one system per engine profile, sharing the version-aware cache (and
     through it the tier-1 reformulation memo) *)
  systems : (string * Rqa.Answering.system) list Lazy.t;
  pg_system : Rqa.Answering.system Lazy.t;
}

(* Every measured cell must execute: the dataset's systems share tiers 1-2
   (reformulations, cover costs) but answer with the answer and fragment
   tiers off, so a repeated run times the engine, not a tier-3 hit or a
   tier-4 replay. *)
let make_dataset label store queries schema =
  let reformulator = Reformulation.Reformulate.create schema in
  let cache = Cache.create ~mode:Cache.Answers_off ~reformulator store in
  let systems =
    lazy
      (List.map
         (fun p ->
           ( p.Engine.Profile.name,
             Rqa.Answering.make ~profile:p ~cache store ))
         Engine.Profile.all)
  in
  let pg_system =
    lazy
      (Rqa.Answering.make ~profile:Engine.Profile.postgres_like ~cache store)
  in
  { label; store; reformulator; cache; queries; systems; pg_system }

(* Tier-1-memoized CQ→UCQ reformulation over the dataset's shared cache:
   what every construction-side consumer below uses, so repeated fragment
   reformulations cost one table probe. *)
let cached_reformulate ds cq = Cache.reformulate ds.cache cq

let atom_query (a : Bgp.atom) =
  let head = List.map (fun v -> Bgp.Var v) (Bgp.atom_vars a) in
  let head = if head = [] then [ a.s ] else head in
  Bgp.make head [ a ]

type ctx = {
  cfg : config;
  lubm_s : dataset Lazy.t;
  lubm_l : dataset Lazy.t;
  dblp : dataset Lazy.t;
}

let build_ctx cfg =
  let lubm n label =
    lazy
      (let t0 = now_ms () in
       let store =
         Workloads.Lubm.generate { Workloads.Lubm.universities = n }
       in
       Printf.printf "[setup] %s: %d universities, %d triples (%.0f ms)\n%!"
         label n
         (Store.Encoded_store.size store)
         (now_ms () -. t0);
       make_dataset label store Workloads.Lubm.queries Workloads.Lubm.schema)
  in
  {
    cfg;
    lubm_s = lubm cfg.lubm_small "LUBM-S";
    lubm_l = lubm cfg.lubm_large "LUBM-L";
    dblp =
      lazy
        (let t0 = now_ms () in
         let store =
           Workloads.Dblp.generate
             { Workloads.Dblp.publications = cfg.dblp_pubs }
         in
         Printf.printf "[setup] DBLP: %d publications, %d triples (%.0f ms)\n%!"
           cfg.dblp_pubs
           (Store.Encoded_store.size store)
           (now_ms () -. t0);
         make_dataset "DBLP" store Workloads.Dblp.queries Workloads.Dblp.schema);
  }

(* ---------- measurement ---------- *)

type outcome =
  | Ok_ of {
      total_ms : float;
      exec_ms : float;
      rows : int;
      report : Rqa.Answering.report;
    }
  | Failed of string

let median xs =
  let sorted = List.sort Float.compare xs in
  List.nth sorted (List.length sorted / 2)

let run_strategy ~runs sys strategy q =
  let once () =
    let t0 = now_ms () in
    let report = Rqa.Answering.answer sys strategy q in
    let total = now_ms () -. t0 in
    (total, report)
  in
  try
    let samples =
      if runs <= 1 then [ once () ]
      else begin
        ignore (once ());  (* warm-up *)
        List.init runs (fun _ -> once ())
      end
    in
    let total = median (List.map fst samples) in
    let _, report = List.hd samples in
    Ok_
      {
        total_ms = total;
        exec_ms = report.Rqa.Answering.execution_ms;
        rows = Engine.Relation.rows report.Rqa.Answering.answers;
        report;
      }
  with Engine.Profile.Engine_failure { reason; _ } ->
    Failed (Engine.Profile.failure_to_string reason)

let fmt_outcome = function
  | Ok_ { total_ms; _ } -> Printf.sprintf "%10.1f" total_ms
  | Failed _ -> "      FAIL"

let default_ecov_budget =
  { Rqa.Cover_space.max_covers = 50_000; max_millis = 20_000.0 }

let strategy_columns =
  [
    ("UCQ", Rqa.Answering.Ucq);
    ("SCQ", Rqa.Answering.Scq);
    ("ECov", Rqa.Answering.Ecov default_ecov_budget);
    ("GCov", Rqa.Answering.Gcov);
  ]

let header title =
  Printf.printf "\n==================== %s ====================\n%!" title

(* ---------- Table 1 & Table 3: per-triple statistics ---------- *)

let per_triple_table ds qname =
  let q = List.assoc qname ds.queries in
  let sys = Lazy.force ds.pg_system in
  let ex = Rqa.Answering.engine sys in
  Printf.printf "%-6s %15s %17s %27s\n" "triple" "#answers" "#reformulations"
    "#answers after reformulation";
  List.iteri
    (fun i (a : Bgp.atom) ->
      let atom_q = atom_query a in
      let direct = Engine.Relation.rows (Engine.Executor.eval_cq ex atom_q) in
      let ucq = cached_reformulate ds atom_q in
      let nref = Ucq.cardinal ucq in
      let after = Engine.Relation.rows (Engine.Executor.eval_ucq ex ucq) in
      Printf.printf "(t%d)   %15d %17d %27d\n%!" (i + 1) direct nref after)
    q.Bgp.body

let table1 ctx =
  header "Table 1: characteristics of q1 (LUBM Q01)";
  per_triple_table (Lazy.force ctx.lubm_l) "Q01"

let table3 ctx =
  header "Table 3: characteristics of q2 (LUBM Q28)";
  per_triple_table (Lazy.force ctx.lubm_l) "Q28"

(* ---------- Table 2: all groupings of q1 ---------- *)

let table2 ctx =
  header "Table 2: sample reformulations of q1 (LUBM Q01), postgres-like";
  let ds = Lazy.force ctx.lubm_l in
  let sys = Lazy.force ds.pg_system in
  let q = List.assoc "Q01" ds.queries in
  let { Rqa.Cover_space.covers; _ } = Rqa.Cover_space.enumerate q in
  let reformulate = cached_reformulate ds in
  Printf.printf "%-28s %16s %15s\n" "cover" "#reformulations" "exec.time (ms)";
  List.iter
    (fun cover ->
      let j = Jucq.make ~reformulate q cover in
      let terms = Jucq.total_disjuncts j in
      let t0 = now_ms () in
      match Engine.Executor.eval_jucq (Rqa.Answering.engine sys) j with
      | _ ->
          Printf.printf "%-28s %16d %15.1f\n%!"
            (Jucq.cover_to_string cover)
            terms (now_ms () -. t0)
      | exception Engine.Profile.Engine_failure { reason; _ } ->
          Printf.printf "%-28s %16d %15s\n%!"
            (Jucq.cover_to_string cover)
            terms
            (Engine.Profile.failure_to_string reason))
    covers

(* ---------- Table 4: query characteristics ---------- *)

let table4 ctx =
  header "Table 4: characteristics of the evaluation queries";
  let datasets =
    [ Lazy.force ctx.lubm_s; Lazy.force ctx.lubm_l; Lazy.force ctx.dblp ]
  in
  List.iter
    (fun ds ->
      Printf.printf "-- %s (%d triples)\n" ds.label
        (Store.Encoded_store.size ds.store);
      Printf.printf "%-5s %12s %12s\n" "q" "|q_ref|" "|q(db)|";
      List.iter
        (fun (name, q) ->
          let nref =
            Reformulation.Reformulate.count_product_bound ds.reformulator q
          in
          let sys = Lazy.force ds.pg_system in
          let rows =
            match run_strategy ~runs:1 sys Rqa.Answering.Gcov q with
            | Ok_ { rows; _ } -> string_of_int rows
            | Failed reason -> "FAIL: " ^ reason
          in
          Printf.printf "%-5s %12d %12s\n%!" name nref rows)
        ds.queries)
    datasets

(* ---------- Figures 4, 5, 6: strategies × engines ---------- *)

let strategy_engine_figure ~title ds ~runs =
  header title;
  let systems = Lazy.force ds.systems in
  Printf.printf
    "%-5s %-14s %10s %10s %10s %10s   (total ms; FAIL = engine limit)\n" "q"
    "engine" "UCQ" "SCQ" "ECov" "GCov";
  List.iter
    (fun (name, q) ->
      List.iter
        (fun (ename, sys) ->
          let cells =
            List.map
              (fun (_, strat) -> fmt_outcome (run_strategy ~runs sys strat q))
              strategy_columns
          in
          Printf.printf "%-5s %-14s %s\n%!" name ename
            (String.concat " " cells))
        systems)
    ds.queries;
  (* Lifetime engine meters: failed statements charge work too, so these
     totals account for everything the figure above made each engine do. *)
  List.iter
    (fun (ename, sys) ->
      let ex = Rqa.Answering.engine sys in
      Printf.printf "-- %-14s %12d ops over %d statements\n%!" ename
        (Engine.Executor.total_operations ex)
        (Engine.Executor.statements_run ex))
    systems

let fig4 ctx =
  let ds = Lazy.force ctx.lubm_s in
  strategy_engine_figure ds ~runs:ctx.cfg.runs
    ~title:
      (Printf.sprintf
         "Figure 4: LUBM small (%d triples): UCQ/SCQ/ECov/GCov x 3 engines"
         (Store.Encoded_store.size ds.store))

let fig5 ctx =
  let ds = Lazy.force ctx.lubm_l in
  strategy_engine_figure ds ~runs:ctx.cfg.runs
    ~title:
      (Printf.sprintf
         "Figure 5: LUBM large (%d triples): UCQ/SCQ/ECov/GCov x 3 engines"
         (Store.Encoded_store.size ds.store))

let fig6 ctx =
  let ds = Lazy.force ctx.dblp in
  strategy_engine_figure ds ~runs:ctx.cfg.runs
    ~title:
      (Printf.sprintf
         "Figure 6: DBLP (%d triples): UCQ/SCQ/ECov/GCov x 3 engines"
         (Store.Encoded_store.size ds.store))

(* ---------- Figures 7, 8: covers explored + algorithm running times ---- *)

let algorithm_effort_figure ~title ds =
  header title;
  let sys = Lazy.force ds.pg_system in
  Printf.printf "%-5s %12s %12s %12s | %10s %10s %10s %10s\n" "q"
    "ECov-covers" "GCov-covers" "exhaustive" "ECov(ms)" "GCov(ms)" "UCQ(ms)"
    "SCQ(ms)";
  List.iter
    (fun (name, q) ->
      let obj_e = Rqa.Answering.objective sys q in
      let e = Rqa.Ecov.search ~budget:default_ecov_budget obj_e in
      let obj_g = Rqa.Answering.objective sys q in
      let g = Rqa.Gcov.search obj_g in
      (* construction times of the fixed reformulations, cold cache *)
      let time_construction cover =
        let r =
          Reformulation.Reformulate.create
            (Store.Encoded_store.schema ds.store)
        in
        let t0 = now_ms () in
        (try
           ignore
             (Jucq.make
                ~reformulate:(Reformulation.Reformulate.reformulate r)
                q cover)
         with Reformulation.Reformulate.Too_large _ -> ());
        now_ms () -. t0
      in
      let ucq_ms = time_construction (Jucq.ucq_cover q) in
      let scq_ms = time_construction (Jucq.scq_cover q) in
      Printf.printf "%-5s %12d %12d %12s | %10.1f %10.1f %10.1f %10.1f\n%!"
        name e.Rqa.Ecov.explored g.Rqa.Gcov.explored
        (if e.Rqa.Ecov.complete then "yes" else "TIMEOUT")
        e.Rqa.Ecov.elapsed_ms g.Rqa.Gcov.elapsed_ms ucq_ms scq_ms)
    ds.queries

let fig7 ctx =
  algorithm_effort_figure (Lazy.force ctx.lubm_l)
    ~title:"Figure 7: covers explored and algorithm running times (LUBM)"

let fig8 ctx =
  algorithm_effort_figure (Lazy.force ctx.dblp)
    ~title:"Figure 8: covers explored and algorithm running times (DBLP)"

(* ---------- Figure 9: cost-model comparison ---------- *)

let fig9 ctx =
  header
    "Figure 9: our cost model vs the engine-internal estimate (postgres-like)";
  let ds = Lazy.force ctx.lubm_l in
  let paper_sys =
    Rqa.Answering.make ~profile:Engine.Profile.postgres_like ~cache:ds.cache
      ~cost_oracle:Rqa.Answering.Paper_model ds.store
  in
  let engine_sys =
    Rqa.Answering.make ~profile:Engine.Profile.postgres_like ~cache:ds.cache
      ~cost_oracle:Rqa.Answering.Engine_model ds.store
  in
  Printf.printf "%-5s %14s %14s %14s %14s\n" "q" "ECov(ours)" "ECov(engine)"
    "GCov(ours)" "GCov(engine)";
  List.iter
    (fun (name, q) ->
      let cell sys strat = fmt_outcome (run_strategy ~runs:1 sys strat q) in
      Printf.printf "%-5s %14s %14s %14s %14s\n%!" name
        (cell paper_sys (Rqa.Answering.Ecov default_ecov_budget))
        (cell engine_sys (Rqa.Answering.Ecov default_ecov_budget))
        (cell paper_sys Rqa.Answering.Gcov)
        (cell engine_sys Rqa.Answering.Gcov))
    ds.queries

(* ---------- Figure 10: saturation vs reformulation ---------- *)

let fig10_one ds =
  let pg = Lazy.force ds.pg_system in
  let virtuoso =
    Rqa.Answering.make ~profile:Engine.Profile.virtuoso_like ~cache:ds.cache
      ds.store
  in
  (* Pay and report the saturation costs once, before timing queries. *)
  let t0 = now_ms () in
  ignore (Rqa.Answering.saturated_engine pg);
  Printf.printf "(saturation of %s: %.0f ms, %d -> %d triples)\n" ds.label
    (now_ms () -. t0)
    (Store.Encoded_store.size ds.store)
    (Store.Encoded_store.size
       (Engine.Executor.store (Rqa.Answering.saturated_engine pg)));
  ignore (Rqa.Answering.saturated_engine virtuoso);
  Printf.printf "%-5s %12s %14s %12s %12s\n" "q" "Sat(pg)" "Sat(virtuoso)"
    "UCQ(pg)" "GCov(pg)";
  List.iter
    (fun (name, q) ->
      let cell sys strat = fmt_outcome (run_strategy ~runs:1 sys strat q) in
      Printf.printf "%-5s %12s %14s %12s %12s\n%!" name
        (cell pg Rqa.Answering.Saturation)
        (cell virtuoso Rqa.Answering.Saturation)
        (cell pg Rqa.Answering.Ucq)
        (cell pg Rqa.Answering.Gcov))
    ds.queries

let fig10 ctx =
  header "Figure 10(a): saturation vs optimized reformulation, LUBM small";
  fig10_one (Lazy.force ctx.lubm_s);
  header "Figure 10(b): saturation vs optimized reformulation, LUBM large";
  fig10_one (Lazy.force ctx.lubm_l)

(* ---------- Ablations (DESIGN.md section 4) ---------- *)

let ablations ctx =
  header "Ablations: cost-model terms and GCov move ordering (LUBM large)";
  let ds = Lazy.force ctx.lubm_l in
  let queries =
    List.filter
      (fun (n, _) -> List.mem n [ "Q01"; "Q02"; "Q09"; "Q15"; "Q18"; "Q28" ])
      ds.queries
  in
  let eval_cover sys q cover =
    let reformulate = cached_reformulate ds in
    match Jucq.make ~reformulate q cover with
    | j -> (
        let t0 = now_ms () in
        match Engine.Executor.eval_jucq (Rqa.Answering.engine sys) j with
        | _ -> Printf.sprintf "%8.1f" (now_ms () -. t0)
        | exception Engine.Profile.Engine_failure _ -> "    FAIL")
    | exception Reformulation.Reformulate.Too_large _ -> "    FAIL"
  in
  let base =
    Rqa.Cost_model.coefficients_of_profile Engine.Profile.postgres_like
  in
  let variants =
    [
      ("full model", base);
      ("no materialization term", { base with Rqa.Cost_model.c_m = 0.0 });
      ("no dedup term", { base with Rqa.Cost_model.c_l = 0.0; c_k = 0.0 });
      ("no join term", { base with Rqa.Cost_model.c_j = 0.0 });
    ]
  in
  Printf.printf "%-5s %-26s %-30s %10s\n" "q" "variant" "chosen cover"
    "exec(ms)";
  List.iter
    (fun (name, q) ->
      let sys = Lazy.force ds.pg_system in
      let stats = Engine.Executor.statistics (Rqa.Answering.engine sys) in
      List.iter
        (fun (vname, coeff) ->
          let cm = Rqa.Cost_model.create ~coefficients:coeff stats in
          let obj =
            Rqa.Objective.create
              ~reformulate:(cached_reformulate ds)
              ~jucq_cost:(Rqa.Cost_model.jucq_cost cm)
              ~ucq_cost:(Rqa.Cost_model.ucq_cost cm)
              q
          in
          let g = Rqa.Gcov.search obj in
          Printf.printf "%-5s %-26s %-30s %10s\n%!" name vname
            (Jucq.cover_to_string g.Rqa.Gcov.cover)
            (eval_cover sys q g.Rqa.Gcov.cover))
        variants;
      (* move-ordering ablation *)
      List.iter
        (fun (oname, ordering) ->
          let obj = Rqa.Answering.objective sys q in
          let g = Rqa.Gcov.search ~ordering obj in
          Printf.printf "%-5s %-26s %-30s %10s (explored %d)\n%!" name oname
            (Jucq.cover_to_string g.Rqa.Gcov.cover)
            (eval_cover sys q g.Rqa.Gcov.cover)
            g.Rqa.Gcov.explored)
        [
          ("moves: cost-sorted", Rqa.Gcov.Cost_sorted);
          ("moves: fifo", Rqa.Gcov.Fifo);
        ])
    queries

(* ---------- Extension: containment minimization of reformulations ------ *)

let minimization ctx =
  header
    "Extension: containment-minimized UCQ reformulations (LUBM large, \
     postgres-like)";
  let ds = Lazy.force ctx.lubm_l in
  let sys = Lazy.force ds.pg_system in
  let ex = Rqa.Answering.engine sys in
  Printf.printf "%-5s %10s %10s | %12s %12s\n" "q" "|q_ref|" "|minimized|"
    "UCQ (ms)" "minUCQ (ms)";
  List.iter
    (fun (name, q) ->
      let ucq = cached_reformulate ds q in
      if Ucq.cardinal ucq <= 600 then begin
        let t0 = now_ms () in
        let minimized = Containment.minimize ucq in
        let min_ms = now_ms () -. t0 in
        let time u =
          let t0 = now_ms () in
          match Engine.Executor.eval_ucq ex u with
          | _ -> Printf.sprintf "%12.1f" (now_ms () -. t0)
          | exception Engine.Profile.Engine_failure _ -> "        FAIL"
        in
        Printf.printf "%-5s %10d %10d | %s %s   (minimize: %.1f ms)\n%!" name
          (Ucq.cardinal ucq) (Ucq.cardinal minimized) (time ucq)
          (time minimized) min_ms
      end)
    ds.queries

(* ---------- Workload driver: parallel query answering ---------- *)

(* Answers every LUBM-small query with a fresh system per query (the
   shared reformulation cache is thread-safe; parallel cover costing
   yields to the outer fan-out through the pool's reentrancy fallback),
   once at jobs=1 and once at the configured width.  The two runs must
   agree bit-for-bit: decoded answer rows in relation order, chosen
   covers and engine operation totals are compared, not just counted. *)
let workload_driver ctx =
  let jobs = ctx.cfg.jobs in
  header
    (Printf.sprintf
       "Workload driver: LUBM small, GCov/postgres-like, jobs=1 vs jobs=%d"
       jobs);
  let ds = Lazy.force ctx.lubm_s in
  let answer_one (_, q) =
    let sys =
      Rqa.Answering.make ~profile:Engine.Profile.postgres_like ~cache:ds.cache
        ds.store
    in
    match Rqa.Answering.answer sys Rqa.Answering.Gcov q with
    | report ->
        let ex = Rqa.Answering.engine sys in
        let rows =
          List.map
            (List.map Rdf.Term.to_string)
            (Engine.Executor.decode ex report.Rqa.Answering.answers)
        in
        Ok
          ( rows,
            report.Rqa.Answering.cover,
            Engine.Executor.total_operations ex )
    | exception Engine.Profile.Engine_failure { reason; _ } ->
        Error (Engine.Profile.failure_to_string reason)
  in
  let queries = Array.of_list ds.queries in
  let run_all () = Par.parallel_map (Par.get ()) answer_one queries in
  Par.set_jobs 1;
  ignore (run_all ());  (* warm the shared reformulation cache *)
  let t0 = now_ms () in
  let seq = run_all () in
  let seq_ms = now_ms () -. t0 in
  Par.set_jobs jobs;
  let t0 = now_ms () in
  let par = run_all () in
  let par_ms = now_ms () -. t0 in
  Par.set_jobs jobs;
  Array.iteri
    (fun i (name, _) ->
      match seq.(i) with
      | Ok (rows, cover, ops) ->
          Printf.printf "%-5s %6d rows %10d ops   cover %s\n" name
            (List.length rows) ops
            (match cover with
            | Some c -> Jucq.cover_to_string c
            | None -> "-")
      | Error reason -> Printf.printf "%-5s FAIL: %s\n" name reason)
    queries;
  let identical = seq = par in
  let cpus = Par.recommended_jobs () in
  let effective = Par.jobs (Par.get ()) in
  Printf.printf
    "-- %d queries: sequential %.1f ms, jobs=%d (effective %d) %.1f ms, \
     speedup %.2fx, results %s (%d cores available)\n%!"
    (Array.length queries) seq_ms jobs effective par_ms
    (seq_ms /. Float.max par_ms 1e-9)
    (if identical then "IDENTICAL" else "DIVERGED")
    cpus;
  if effective < jobs then
    Printf.printf
      "-- note: jobs=%d was clamped to the %d core(s) the OS grants; no \
       wall-clock speedup is expected here, only the determinism check is \
       meaningful (set RDFQA_JOBS_FORCE=1 to oversubscribe anyway)\n%!"
      jobs cpus;
  if not identical then begin
    prerr_endline "workload driver: parallel run diverged from sequential";
    exit 1
  end

(* ---------- main ---------- *)

let () =
  let cfg = parse_config () in
  Par.set_jobs cfg.jobs;
  let ctx = build_ctx cfg in
  let run id f = if List.mem id cfg.experiments then f ctx in
  let t0 = now_ms () in
  run "table1" table1;
  run "table2" table2;
  run "table3" table3;
  run "table4" table4;
  run "fig4" fig4;
  run "fig5" fig5;
  run "fig6" fig6;
  run "fig7" fig7;
  run "fig8" fig8;
  run "fig9" fig9;
  run "fig10" fig10;
  run "ablations" ablations;
  run "minimization" minimization;
  run "workload" workload_driver;
  Printf.printf "\n[bench] done in %.1f s\n" ((now_ms () -. t0) /. 1000.0)

open Query
module Es = Store.Encoded_store
module CV = Analysis.Cost_verify

type strategy =
  | Saturation
  | Ucq
  | Scq
  | Ecov of Cover_space.budget
  | Gcov

let strategy_name = function
  | Saturation -> "Saturation"
  | Ucq -> "UCQ"
  | Scq -> "SCQ"
  | Ecov _ -> "ECov"
  | Gcov -> "GCov"

let strategies =
  [
    ("saturation", Saturation);
    ("ucq", Ucq);
    ("scq", Scq);
    ("ecov", Ecov Cover_space.default_budget);
    ("gcov", Gcov);
  ]

(* Unlike [strategy_name], the key spells the ECov budget out: two budgets
   explore different prefixes of the cover space and may select different
   covers, so their answers must not share tier-3 entries. *)
let strategy_key = function
  | Saturation -> "Saturation"
  | Ucq -> "UCQ"
  | Scq -> "SCQ"
  | Ecov b ->
      Printf.sprintf "ECov(%d,%g)" b.Cover_space.max_covers
        b.Cover_space.max_millis
  | Gcov -> "GCov"

type cost_oracle = Paper_model | Engine_model

type system = {
  engine : Engine.Executor.t;
  (* saturated twin, keyed by the (schema, data) versions it was built
     from: a store update invalidates it and the next Saturation answer
     re-saturates.  Guarded for shared-system concurrency. *)
  mutable saturated : (int * int * Engine.Executor.t) option;
  sat_lock : Mutex.t;
  cache : Cache.t;
  cost : Cost_model.t;
  oracle : cost_oracle;
  (* tier-2/3 key prefix naming everything the costs depend on beside the
     query and store state: engine profile, cost oracle, calibration *)
  scope : string;
}

(* Calibrated coefficients are measured, not derived — two calibrations of
   the same profile need not agree — so each calibrated system costs under
   a scope of its own and shares tier-2/3 entries with nobody. *)
let calibration_counter = Atomic.make 0

let make ?(profile = Engine.Profile.postgres_like) ?(calibrate = false)
    ?(cost_oracle = Paper_model) ?reformulator ?cache store =
  let engine = Engine.Executor.create ~profile store in
  let coefficients =
    if calibrate then Cost_model.calibrate engine
    else Cost_model.coefficients_of_profile profile
  in
  let cache =
    match cache with
    | Some c ->
        if Cache.store c != store then
          invalid_arg "Answering.make: cache bound to a different store";
        c
    | None -> Cache.create ?reformulator store
  in
  {
    engine;
    saturated = None;
    sat_lock = Mutex.create ();
    cache;
    cost =
      Cost_model.create ~coefficients (Engine.Executor.statistics engine);
    oracle = cost_oracle;
    scope =
      String.concat "|"
        [
          profile.Engine.Profile.name;
          (match cost_oracle with
          | Paper_model -> "paper"
          | Engine_model -> "engine");
          (if calibrate then
             Printf.sprintf "calibrated-%d"
               (Atomic.fetch_and_add calibration_counter 1)
           else "profile");
        ];
  }

let of_graph ?profile ?calibrate ?cost_oracle g =
  make ?profile ?calibrate ?cost_oracle (Store.Encoded_store.of_graph g)

let engine s = s.engine

let saturated_engine s =
  let store = Engine.Executor.store s.engine in
  let sv = Es.schema_version store and dv = Es.data_version store in
  Mutex.lock s.sat_lock;
  match
    match s.saturated with
    | Some (sv', dv', ex) when sv' = sv && dv' = dv -> ex
    | _ ->
        let ex =
          Engine.Executor.create
            ~profile:(Engine.Executor.profile s.engine)
            (Es.saturate store)
        in
        s.saturated <- Some (sv, dv, ex);
        ex
  with
  | ex ->
      Mutex.unlock s.sat_lock;
      ex
  | exception e ->
      Mutex.unlock s.sat_lock;
      raise e

let cache s = s.cache

(* Interns every constant compilation could encode on demand for the given
   workload: [rdf:type], the schema vocabulary and the queries' own
   constants.  Reformulation only splices schema classes and properties
   into disjunct bodies/heads, so no reformulation needs to be built here.
   Interning is idempotent and answer-neutral (see
   [Executor.intern_constants]); after a warm-up, repeated-query operation
   totals over the shared store are stable from the first request. *)
let warm_up s queries =
  let store = Engine.Executor.store s.engine in
  let dict = Es.dictionary store in
  let schema = Es.schema store in
  let intern_term c = ignore (Rdf.Dictionary.encode dict c) in
  intern_term Rdf.Vocab.rdf_type;
  Rdf.Term.Set.iter intern_term (Rdf.Schema.classes schema);
  Rdf.Term.Set.iter intern_term (Rdf.Schema.properties schema);
  List.iter
    (fun q -> Engine.Executor.intern_constants s.engine (Bgp.normalize q))
    queries

let reformulator s = Cache.reformulator s.cache
let cost_model s = s.cost

let query_key q =
  Bgp.to_string (Bgp.canonical (Bgp.dedup_body (Bgp.normalize q)))

let objective s q =
  let reformulate cq = Cache.reformulate s.cache cq in
  let jucq_cost =
    match s.oracle with
    | Paper_model -> Cost_model.jucq_cost s.cost
    | Engine_model -> Engine.Executor.explain_cost s.engine
  in
  (* Static pre-filter (cost verification on): a candidate whose interval
     analysis already proves a refusal or a budget overrun costs infinity
     without ever running the exact cost model — cover search then skips
     provably-doomed plans for free. *)
  let jucq_cost =
    if not (CV.enabled ()) then jucq_cost
    else
      let oracle = Engine.Executor.cost_oracle s.engine in
      fun jucq ->
        let e = CV.estimate oracle (CV.Jucq jucq) in
        if e.CV.refused || e.CV.ops.CV.lo > oracle.CV.max_operations then
          infinity
        else jucq_cost jucq
  in
  let ucq_cost =
    if not (CV.enabled ()) then Cost_model.ucq_cost s.cost
    else
      let oracle = Engine.Executor.cost_oracle s.engine in
      fun ucq ->
        let e = CV.estimate oracle (CV.Ucq ucq) in
        if e.CV.refused || e.CV.ops.CV.lo > oracle.CV.max_operations then
          infinity
        else Cost_model.ucq_cost s.cost ucq
  in
  let capacity =
    (Engine.Executor.profile s.engine).Engine.Profile.max_union_terms
  in
  let fragment_capacity cq =
    Reformulation.Reformulate.count_product_bound (reformulator s) cq
    <= capacity
  in
  let shared = Cache.tier2 s.cache ~scope:s.scope ~query_key:(query_key q) in
  Objective.create ~fragment_capacity ?shared ~reformulate ~jucq_cost
    ~ucq_cost q

let scq_statement s q =
  let refm = reformulator s in
  let capacity =
    (Engine.Executor.profile s.engine).Engine.Profile.max_union_terms
  in
  let cover = Jucq.scq_cover q in
  if
    List.exists
      (fun f ->
        Reformulation.Reformulate.count_product_bound refm
          (Jucq.cover_query q cover f)
        > capacity)
      cover
  then None
  else
    let reformulate cq = Reformulation.Reformulate.reformulate refm cq in
    match Jucq.make ~reformulate q cover with
    | j -> Some j
    | exception Reformulation.Reformulate.Too_large _ -> None

type report = {
  answers : Engine.Relation.t;
  order : int array option Atomic.t;
  strategy : strategy;
  cover : Jucq.cover option;
  union_terms : int;
  fragment_terms : int list;
  estimated_cost : float;
  covers_explored : int;
  planning_ms : float;
  execution_ms : float;
}

(* Wall-clock, not [Sys.time]: CPU time under-reports any waiting and is
   not comparable with the benchmark driver's [Unix.gettimeofday] spans. *)
let now_ms () = Unix.gettimeofday () *. 1000.0

(* [reformulate] builds the executed JUCQ: the cover search's memoized
   reformulator for ECov/GCov ([Objective.reformulate], so the chosen
   cover's fragments are not reformulated twice), the tier-1 cache
   otherwise.  The JUCQ follows [cover]'s own fragment order. *)
let run_cover s strategy q cover ~reformulate ~covers_explored
    ~planning_start =
  let profile = Engine.Executor.profile s.engine in
  let refuse terms =
    (* The statement is refused before execution, like an RDBMS rejecting
       an oversized union — no point building millions of union terms the
       engine will not accept. *)
    raise
      (Engine.Profile.Engine_failure
         {
           engine = profile.Engine.Profile.name;
           reason =
             Engine.Profile.Union_capacity
               { terms; limit = profile.Engine.Profile.max_union_terms };
         })
  in
  let refm = reformulator s in
  List.iter
    (fun f ->
      let cqf = Jucq.cover_query q cover f in
      let bound = Reformulation.Reformulate.count_product_bound refm cqf in
      if bound > profile.Engine.Profile.max_union_terms then refuse bound)
    cover;
  let jucq =
    Obs.Span.with_ "plan.jucq" @@ fun sp ->
    let jucq =
      try Jucq.make ~reformulate q cover
      with Reformulation.Reformulate.Too_large { bound; _ } -> refuse bound
    in
    Obs.Span.set sp "fragments"
      (string_of_int (List.length jucq.Jucq.fragments));
    Obs.Span.set sp "union_terms"
      (string_of_int (Jucq.total_disjuncts jucq));
    jucq
  in
  (* With verification on, check the full plan against the originating
     query and cover (Definitions 3.3/3.4 + schema consistency) before
     shipping it to the engine. *)
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_jucq ~query:q ~cover
        ~context:("answering/" ^ strategy_name strategy)
        jucq);
  (* Static cost admission (RDFQA_VERIFY_COST): reject a statement the
     interval analysis proves doomed before the engine charges anything. *)
  Engine.Executor.admit
    ~context:("answering/" ^ strategy_name strategy)
    s.engine (CV.Jucq jucq);
  let estimated_cost =
    Obs.Span.with_ "plan.cost" @@ fun sp ->
    let c =
      match s.oracle with
      | Paper_model -> Cost_model.jucq_cost s.cost jucq
      | Engine_model -> Engine.Executor.explain_cost s.engine jucq
    in
    Obs.Span.set sp "estimated_cost" (Printf.sprintf "%.6g" c);
    c
  in
  let planning_ms = now_ms () -. planning_start in
  let exec_start = now_ms () in
  let answers =
    Engine.Executor.eval_jucq ~views:(Cache.fragment s.cache s.engine)
      s.engine jucq
  in
  {
    answers;
    order = Atomic.make None;
    strategy;
    cover = Some cover;
    union_terms = Jucq.total_disjuncts jucq;
    fragment_terms =
      List.map (fun (_, u) -> Ucq.cardinal u) jucq.Jucq.fragments;
    estimated_cost;
    covers_explored;
    planning_ms;
    execution_ms = now_ms () -. exec_start;
  }

let answer_uncached s strategy q =
  match strategy with
  | Saturation ->
      let planning_start = now_ms () in
      let ex = saturated_engine s in
      let planning_ms = now_ms () -. planning_start in
      let exec_start = now_ms () in
      let answers = Engine.Executor.eval_cq ex q in
      {
        answers;
        order = Atomic.make None;
        strategy;
        cover = None;
        union_terms = 1;
        fragment_terms = [ 1 ];
        estimated_cost = 0.0;
        covers_explored = 0;
        planning_ms;
        execution_ms = now_ms () -. exec_start;
      }
  | Ucq ->
      let planning_start = now_ms () in
      run_cover s strategy q (Jucq.ucq_cover q)
        ~reformulate:(Cache.reformulate s.cache)
        ~covers_explored:0 ~planning_start
  | Scq ->
      let planning_start = now_ms () in
      run_cover s strategy q (Jucq.scq_cover q)
        ~reformulate:(Cache.reformulate s.cache)
        ~covers_explored:0 ~planning_start
  | Ecov budget ->
      let planning_start = now_ms () in
      let obj = objective s q in
      let result = Ecov.search ~budget obj in
      run_cover s strategy q result.Ecov.cover
        ~reformulate:(Objective.reformulate obj)
        ~covers_explored:result.Ecov.explored ~planning_start
  | Gcov ->
      let planning_start = now_ms () in
      let obj = objective s q in
      let result = Gcov.search obj in
      run_cover s strategy q result.Gcov.cover
        ~reformulate:(Objective.reformulate obj)
        ~covers_explored:result.Gcov.explored ~planning_start

(* Process-level query metrics (lib/metrics): end-to-end latency of every
   [answer] call (cache hits included — a served query is a served query),
   split into answered/failed totals. *)
let h_latency =
  Metrics.histogram "query.latency_ms"
    ~help:"End-to-end answer latency in milliseconds"
let m_answered = Metrics.counter "query.answered" ~help:"Queries answered"
let m_failed =
  Metrics.counter "query.failed" ~help:"Queries aborted by an engine failure"

let answer s strategy q =
  Obs.Span.with_ "answer" ~attrs:[ ("strategy", strategy_name strategy) ]
  @@ fun _sp ->
  let q = Bgp.normalize q in
  let start = now_ms () in
  let observe outcome =
    Metrics.observe h_latency (now_ms () -. start);
    Metrics.add outcome 1
  in
  match
    (let key =
       String.concat "\x00" [ s.scope; strategy_key strategy; query_key q ]
     in
  match Cache.find_answer s.cache key with
  | Some (e : Cache.answer_entry) ->
      (* a hit replays the stored plan metadata — the same cover, sizes
         and search effort the cold run reported — under its own (probe)
         timings; engine failures are never cached, so failing statements
         fail identically warm and cold *)
      {
        answers = e.Cache.answers;
        order = e.Cache.order;
        strategy;
        cover = e.Cache.cover;
        union_terms = e.Cache.union_terms;
        fragment_terms = e.Cache.fragment_terms;
        estimated_cost = e.Cache.estimated_cost;
        covers_explored = e.Cache.covers_explored;
        planning_ms = now_ms () -. start;
        execution_ms = 0.0;
      }
  | None ->
      let r = answer_uncached s strategy q in
      Cache.add_answer s.cache key
        {
          Cache.answers = r.answers;
          order = r.order;
          cover = r.cover;
          union_terms = r.union_terms;
          fragment_terms = r.fragment_terms;
          estimated_cost = r.estimated_cost;
          covers_explored = r.covers_explored;
        };
      r)
  with
  | r ->
      observe m_answered;
      r
  | exception e ->
      observe m_failed;
      raise e

(* The dictionary only ever grows, and ranks order existing codes the same
   way before and after a growth, so a computed order stays valid for as
   long as the answer it orders. *)
let order s r =
  match Atomic.get r.order with
  | Some o -> o
  | None ->
      let o = Engine.Executor.order s.engine r.answers in
      Atomic.set r.order (Some o);
      o

let answer_terms s strategy q =
  let report = answer s strategy q in
  let ex =
    match strategy with Saturation -> saturated_engine s | _ -> s.engine
  in
  Engine.Executor.decode ex report.answers

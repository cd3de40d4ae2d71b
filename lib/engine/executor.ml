open Query
module Es = Store.Encoded_store

(* The plan caches (below) are keyed by the query's physical identity: a
   JUCQ/UCQ holds on to its disjunct [Bgp.t] values, so re-evaluating a
   prepared statement re-encounters the very same objects.  Equality is
   pointer equality; the hash is a deep-enough structural hash that
   same-shaped disjuncts (which share their first few words) spread over
   the buckets.  Ephemeron keys let a statement no cache tier or caller
   holds (cache off, request over) be collected with its plans. *)
module Plan_key = struct
  type t = Bgp.t

  let equal = ( == )
  let hash q = Hashtbl.hash_param 64 256 q
end

module Plan_tbl = Ephemeron.K1.Make (Plan_key)

module Ucq_key = struct
  type t = Ucq.t

  let equal = ( == )
  let hash u = Hashtbl.hash_param 16 64 u
end

module Ucq_tbl = Ephemeron.K1.Make (Ucq_key)

type slot = V of int | K of int

type eatom = { es : slot; ep : slot; eo : slot }

type ecq = {
  nvars : int;
  head : slot array;
  atoms : eatom array;
  prop_codes : int option array;  (* constant property code per atom, if any *)
  body : Bgp.atom array;  (* source atoms, rendered only for traces/EXPLAIN *)
}

type plan = {
  pcq : ecq;
  porder : int array;
  pest : float array;
      (* per-depth estimated intermediate cardinality (product of the
         greedy planner's per-step scores) — the "est" column of
         EXPLAIN ANALYZE scan nodes *)
}

type t = {
  store : Es.t;
  profile : Profile.t;
  stats : Store.Statistics.t;
  mutable ops : int;
  mutable total_ops : int;  (* monotonic across statements *)
  mutable statements : int;  (* statements started (incl. failed ones) *)
  mutable last_stats : Obs.Op_stats.t option;  (* last statement's op tree *)
  plans : plan option Plan_tbl.t;
  ucq_plans : plan option array Ucq_tbl.t;  (* one entry per disjunct *)
  mutable plans_version : int;  (* store version the cached plans assume *)
  plan_lock : Mutex.t;
      (* Guards the two plan caches (and [plans_version]): concurrent
         [answer] calls on one executor — e.g. a shared system behind a
         server loop — race only on planning, never on evaluation state,
         which is per-statement.  Compilation happens under the lock; plans
         are pure reads of the store, so serializing them is safe and
         cheap (one lock per statement, not per row). *)
}

let create ?(profile = Profile.postgres_like) store =
  {
    store;
    profile;
    stats = Store.Statistics.create store;
    ops = 0;
    total_ops = 0;
    statements = 0;
    last_stats = None;
    plans = Plan_tbl.create 256;
    ucq_plans = Ucq_tbl.create 64;
    plans_version = Es.data_version store;
    plan_lock = Mutex.create ();
  }

let store t = t.store
let profile t = t.profile
let statistics t = t.stats
let last_operations t = t.ops
let total_operations t = t.total_ops
let statements_run t = t.statements
let last_op_stats t = t.last_stats

(* Process-level totals (lib/metrics), accumulated across every executor in
   the process.  They observe the same events as [ops]/[total_ops] but are
   never read back by the engine: charging, budget checks and the op trees
   depend only on the mutable fields, so totals stay bit-identical whether
   metrics are on or off (tested in test_metrics.ml). *)
let m_operations =
  Metrics.counter "engine.operations" ~help:"Charged engine operations"
let m_statements =
  Metrics.counter "engine.statements" ~help:"Statements started (incl. failed)"
let m_failures =
  Metrics.counter "engine.failures" ~help:"Statements aborted by an engine-profile budget"

(* Statement prologue: reset the per-statement meter, bump the monotonic
   counters, drop the previous statement's op tree.  Charging below feeds
   [total_ops] too, so the cumulative count stays exact even when a
   statement dies mid-flight on a budget violation. *)
let begin_statement t =
  t.ops <- 0;
  t.statements <- t.statements + 1;
  Metrics.add m_statements 1;
  t.last_stats <- None

let fail t reason =
  Metrics.add m_failures 1;
  raise (Profile.Engine_failure { engine = t.profile.Profile.name; reason })

let charge t n =
  t.ops <- t.ops + n;
  t.total_ops <- t.total_ops + n;
  Metrics.add m_operations n;
  if t.ops > t.profile.Profile.max_operations then
    fail t (Profile.Operation_budget { limit = t.profile.Profile.max_operations })

(* The materialization ceiling, checked against a row count: the rows a
   union has emitted so far, or a materialized result's size. *)
let check_rows t rows =
  if rows > t.profile.Profile.max_materialized_rows then
    fail t
      (Profile.Materialization_overflow
         { rows; limit = t.profile.Profile.max_materialized_rows })

(* The set-semantics epilogue every union shares: one unit per pre-dedup
   row the sink saw, then its distinct rows. *)
let close_sink t sink =
  charge t (Relation.emitted sink);
  Relation.contents sink

(* ---- charge logs (record-and-replay) ----

   A {e charge log} is a run-length-encoded record of every [charge] call
   of one evaluation, taken instead of charging the engine.  Materialized
   fragment snapshots (below) keep one per disjunct and replay it through
   the real [charge] on the using engine, so budget failures fire on the
   same charge call, with the same [ops]/[total_ops], as a live
   evaluation. *)

type charge_log = {
  cvals : Store.Intvec.t;  (* RLE: distinct consecutive charge amounts *)
  ccounts : Store.Intvec.t;  (* RLE: repeat count per amount *)
  mutable clast : int;
}

let charge_log () =
  {
    cvals = Store.Intvec.create ();
    ccounts = Store.Intvec.create ();
    clast = min_int;
  }

let record log n =
  if n = log.clast then begin
    let i = Store.Intvec.length log.ccounts - 1 in
    Store.Intvec.set log.ccounts i (Store.Intvec.get log.ccounts i + 1)
  end
  else begin
    Store.Intvec.push log.cvals n;
    Store.Intvec.push log.ccounts 1;
    log.clast <- n
  end

(* [count] charges of [v] units each.  A run that cannot cross the
   operation budget is charged in one step; one that can is charged call
   by call, so [ops] crosses the budget on exactly the call where [count]
   separate charges would have raised, with the identical [total_ops] at
   that point. *)
let charge_run t v count =
  if t.ops + (v * count) <= t.profile.Profile.max_operations then
    charge t (v * count)
  else
    for _ = 1 to count do
      charge t v
    done

let replay t log =
  for i = 0 to Store.Intvec.length log.cvals - 1 do
    charge_run t (Store.Intvec.get log.cvals i) (Store.Intvec.get log.ccounts i)
  done

(* ---- CQ compilation ---- *)

exception Unsatisfiable  (* a query constant absent from the dictionary *)

let atom_label (a : Bgp.atom) =
  let pt = function
    | Bgp.Var v -> "?" ^ v
    | Bgp.Const c -> Rdf.Term.to_string c
  in
  Printf.sprintf "[%s %s %s]" (pt a.s) (pt a.p) (pt a.o)

let compile t (q : Bgp.t) : ecq =
  let q = Bgp.normalize q in
  let vars = Bgp.vars q in
  let index v =
    let rec go i = function
      | [] -> assert false
      | x :: _ when String.equal x v -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 vars
  in
  let slot = function
    | Bgp.Var v -> V (index v)
    | Bgp.Const c -> (
        match Es.encode_term t.store c with
        | Some code -> K code
        | None -> raise Unsatisfiable)
  in
  (* Head constants are output values, not selections: a schema class that
     never occurs in the data (e.g. an instantiated [q(x, Person)] head)
     must still be producible, so it is encoded on demand. *)
  let head_slot = function
    | Bgp.Var v -> V (index v)
    | Bgp.Const c -> K (Rdf.Dictionary.encode (Es.dictionary t.store) c)
  in
  let body = Array.of_list q.body in
  let atoms =
    Array.map
      (fun (a : Bgp.atom) -> { es = slot a.s; ep = slot a.p; eo = slot a.o })
      body
  in
  let prop_codes =
    Array.map (fun a -> match a.ep with K c -> Some c | V _ -> None) atoms
  in
  {
    nvars = List.length vars;
    head = Array.of_list (List.map head_slot q.head);
    atoms;
    prop_codes;
    body;
  }

(* Interning is idempotent and append-only: terms already in the data keep
   their codes, absent ones get fresh codes that match no triple — answers
   are unaffected, but compilation stops depending on which query ran
   first (an absent body constant now compiles to an empty selection
   instead of [Unsatisfiable], the same charges every run). *)
let intern_constants t (q : Bgp.t) =
  let dict = Es.dictionary t.store in
  let intern = function
    | Bgp.Var _ -> ()
    | Bgp.Const c -> ignore (Rdf.Dictionary.encode dict c)
  in
  List.iter intern q.head;
  List.iter
    (fun (a : Bgp.atom) ->
      intern a.s;
      intern a.p;
      intern a.o)
    q.body

(* ---- atom ordering (greedy selectivity) ---- *)

(* The access-path code of a slot under the current bindings: a constant's
   code, a bound variable's value, or -1 (the store's wildcard sentinel)
   for an unbound variable — which is exactly the unbound marker in
   [bindings], so no option is ever allocated on the probe path. *)
let slot_code bindings = function K c -> c | V v -> bindings.(v)

(* Planning-time estimate of an atom's output given which variables are
   already bound: the exact count for the constant positions, discounted by
   per-property NDV for each bound variable position. *)
let plan_estimate t (cq : ecq) i (bound : bool array) =
  let a = cq.atoms.(i) in
  let const_only = function K c -> c | V _ -> -1 in
  let base =
    float_of_int
      (Es.count_codes t.store ~s:(const_only a.es) ~p:(const_only a.ep)
         ~o:(const_only a.eo))
  in
  let bound_var = function V v -> bound.(v) | K _ -> false in
  let discount pos =
    if not (bound_var (match pos with `S -> a.es | `O -> a.eo)) then 1.0
    else
      match cq.prop_codes.(i) with
      | Some p ->
          float_of_int
            (Store.Statistics.ndv t.stats ~prop:p
               (match pos with `S -> `Subject | `O -> `Object))
      | None -> 8.0
  in
  let prop_discount = if bound_var a.ep then 16.0 else 1.0 in
  base /. (discount `S *. discount `O *. prop_discount)

let order_atoms t (cq : ecq) =
  let n = Array.length cq.atoms in
  let used = Array.make n false in
  let bound = Array.make cq.nvars false in
  let bind_atom i =
    let mark = function V v -> bound.(v) <- true | K _ -> () in
    mark cq.atoms.(i).es;
    mark cq.atoms.(i).ep;
    mark cq.atoms.(i).eo
  in
  let connected i =
    let has = function V v -> bound.(v) | K _ -> false in
    has cq.atoms.(i).es || has cq.atoms.(i).ep || has cq.atoms.(i).eo
  in
  let order = Array.make n 0 in
  (* Cumulative product of the per-step selectivity estimates: the greedy
     planner's own guess at the size of each intermediate result, recorded
     so EXPLAIN ANALYZE can show estimated next to actual per scan depth. *)
  let est = Array.make n 0.0 in
  let cum = ref 1.0 in
  for step = 0 to n - 1 do
    let best = ref (-1) in
    let best_score = ref infinity in
    for i = 0 to n - 1 do
      if not used.(i) then begin
        (* Prefer atoms connected to the bound prefix (avoid products). *)
        let penalty = if step > 0 && not (connected i) then 1e12 else 1.0 in
        let score = plan_estimate t cq i bound *. penalty in
        if score < !best_score then begin
          best_score := score;
          best := i
        end
      end
    done;
    cum := !cum *. plan_estimate t cq !best bound;
    est.(step) <- !cum;
    order.(step) <- !best;
    used.(!best) <- true;
    bind_atom !best
  done;
  (order, est)

(* ---- CQ execution: index nested loops ---- *)

(* Unifies one atom position against a stored value.  A constant must
   equal it; an unbound variable binds, recording its index in
   [undo.(upos)] so the caller can roll back; a bound variable must agree.
   Top-level on purpose: no closure is allocated per probed triple. *)
let unify bindings undo upos slot value =
  match slot with
  | K c -> c = value
  | V v ->
      if Array.unsafe_get bindings v = -1 then begin
        Array.unsafe_set bindings v value;
        undo.(upos) <- v;
        true
      end
      else Array.unsafe_get bindings v = value

(* Optional per-depth scan counters, allocated only while tracing: index
   lookups, ids visited and rows advanced per pipeline level, turned into
   the [IndexScan] chain of the statement's op-stats tree.  The disabled
   path costs one [tr] test per index lookup and per advanced row — no
   allocation, no charge difference (counters never call {!charge}). *)
type cq_counters = {
  probes : int array;  (* index lookups issued at depth k *)
  scanned : int array;  (* candidate ids visited at depth k *)
  advanced : int array;  (* rows depth k passed down to depth k+1 *)
}

let fresh_counters natoms =
  {
    probes = Array.make natoms 0;
    scanned = Array.make natoms 0;
    advanced = Array.make natoms 0;
  }

(* [?charge] lets snapshot recording substitute a charge log (above) for
   the engine's budget meter.  The default is the real [charge t] — live
   evaluation pays one indirect call per charge and nothing else. *)
let exec_cq t ?counters ?charge:charge_sink (p : plan) ~sink =
  let ch = match charge_sink with Some f -> f | None -> charge t in
  let cq = p.pcq in
  let bindings = Array.make (max 1 cq.nvars) (-1) in
  let order = p.porder in
  let natoms = Array.length order in
  let head_buf = Array.make (Array.length cq.head) 0 in
  let tr = counters <> None in
  let ctr =
    match counters with Some c -> c | None -> fresh_counters 0
  in
  (* Per-depth rollback slots: level [k] records at most the three
     variables its atom bound in [undo.(3k) .. undo.(3k+2)] (-1 = none).
     Preallocated once — the per-row path allocates nothing. *)
  let undo = Array.make (max 1 (3 * natoms)) (-1) in
  let rec step k =
    if tr && k > 0 then ctr.advanced.(k - 1) <- ctr.advanced.(k - 1) + 1;
    if k = natoms then begin
      for j = 0 to Array.length cq.head - 1 do
        head_buf.(j) <-
          (match Array.unsafe_get cq.head j with
          | K c -> c
          | V v -> Array.unsafe_get bindings v)
      done;
      ch 1;
      Relation.emit sink head_buf 0
    end
    else begin
      let a = cq.atoms.(order.(k)) in
      let s = slot_code bindings a.es
      and p = slot_code bindings a.ep
      and o = slot_code bindings a.eo in
      (* One index lookup serves both the charge (the per-access unit of
         [max 1 (n/64)] plus one unit per visited id, batched — same total
         as charging ids one by one, so the operation budget trips on the
         same statements) and the iteration. *)
      let sel = Es.select t.store ~s ~p ~o in
      let n = Es.selected_count sel in
      ch (max 1 (n / 64) + n);
      if tr then begin
        ctr.probes.(k) <- ctr.probes.(k) + 1;
        ctr.scanned.(k) <- ctr.scanned.(k) + n
      end;
      let base = 3 * k in
      let probe id =
        let ts = Es.unsafe_subject t.store id
        and tp = Es.unsafe_property t.store id
        and tob = Es.unsafe_obj t.store id in
        if
          unify bindings undo base a.es ts
          && unify bindings undo (base + 1) a.ep tp
          && unify bindings undo (base + 2) a.eo tob
        then step (k + 1);
        for j = base to base + 2 do
          let v = undo.(j) in
          if v >= 0 then begin
            bindings.(v) <- -1;
            undo.(j) <- -1
          end
        done
      in
      match sel with
      | Es.Miss -> ()
      | Es.Hit _ ->
          (* Every position is bound and the triple is stored: the match
             is already proved, no reads or unification needed. *)
          step (k + 1)
      | Es.Ids v ->
          for idx = 0 to n - 1 do
            probe (Store.Intvec.unsafe_get v idx)
          done
      | Es.All n ->
          for id = 0 to n - 1 do
            probe id
          done
    end
  in
  step 0

(* Plans (compile + atom order) are pure reads of the store and its
   statistics — neither phase calls [charge] — so memoizing them changes
   nothing about which statements fail or why.  The cache is keyed by the
   query's physical identity (a prepared UCQ/JUCQ re-presents the same
   disjunct objects on every evaluation), holds its keys weakly, and is
   dropped wholesale when the store's data version moves, since
   statistics-driven atom orders may shift; schema-only changes touch no
   facts and keep the plans valid. *)
let flush_stale_plans t =
  let v = Es.data_version t.store in
  if v <> t.plans_version then begin
    Plan_tbl.reset t.plans;
    Ucq_tbl.reset t.ucq_plans;
    t.plans_version <- v
  end

let compile_plan t (q : Bgp.t) =
  match compile t q with
  | exception Unsatisfiable -> None
  | cq ->
      let porder, pest = order_atoms t cq in
      Some { pcq = cq; porder; pest }

let with_plan_lock t f =
  Mutex.lock t.plan_lock;
  match f () with
  | v ->
      Mutex.unlock t.plan_lock;
      v
  | exception e ->
      Mutex.unlock t.plan_lock;
      raise e

let plan_of t (q : Bgp.t) =
  with_plan_lock t @@ fun () ->
  flush_stale_plans t;
  match Plan_tbl.find_opt t.plans q with
  | Some p -> p
  | None ->
      let p = compile_plan t q in
      Plan_tbl.add t.plans q p;
      p

(* UCQ-level plan memoization: one cache probe per fragment evaluation
   covers every disjunct, instead of one structural hash per disjunct. *)
let ucq_plans t (u : Ucq.t) =
  with_plan_lock t @@ fun () ->
  flush_stale_plans t;
  match Ucq_tbl.find_opt t.ucq_plans u with
  | Some ps -> ps
  | None ->
      let ps =
        Array.of_list (List.map (compile_plan t) (Ucq.disjuncts u))
      in
      Ucq_tbl.add t.ucq_plans u ps;
      ps

(* ---- static cost oracle ----

   Everything {!Analysis.Cost_verify} needs to know about this engine's
   compiled plans, packaged store-agnostically: per atom of the planned
   join order, the exact store count of its constant positions and
   whether its variable positions are pairwise distinct.  Reads only the
   plan caches and the store's count indexes — never charges. *)
let static_cq_info t (q : Bgp.t) =
  match plan_of t q with
  | None -> Analysis.Cost_verify.Unsat
  | Some p ->
      let const_only = function K c -> c | V _ -> -1 in
      Analysis.Cost_verify.Atoms
        (Array.init (Array.length p.porder) (fun k ->
             let a = p.pcq.atoms.(p.porder.(k)) in
             let count =
               Es.count_codes t.store ~s:(const_only a.es)
                 ~p:(const_only a.ep) ~o:(const_only a.eo)
             in
             let vs =
               List.filter_map
                 (function V v -> Some v | K _ -> None)
                 [ a.es; a.ep; a.eo ]
             in
             {
               Analysis.Cost_verify.atom_count = count;
               distinct_vars =
                 List.length vs = List.length (List.sort_uniq Int.compare vs);
             }))

let cost_oracle t =
  {
    Analysis.Cost_verify.cq_info = static_cq_info t;
    join =
      (match t.profile.Profile.fragment_join with
      | Profile.Hash_join -> Analysis.Cost_verify.Hash
      | Profile.Block_nested_loop -> Analysis.Cost_verify.Block_nested_loop);
    max_union_terms = t.profile.Profile.max_union_terms;
    max_materialized_rows = t.profile.Profile.max_materialized_rows;
    max_operations = t.profile.Profile.max_operations;
  }

(* The pre-execution admission gate: when cost verification is enabled
   (RDFQA_VERIFY_COST / [Cost_verify.set_enabled]), statements whose
   static analysis proves a failure are rejected before any charge. *)
let admit ?budget ~context t stmt =
  Analysis.Cost_verify.check_exn (fun () ->
      Analysis.Cost_verify.admission (cost_oracle t) ?budget ~context stmt)

(* Builds the [IndexScan] chain of a finished CQ pipeline under [parent]:
   the driving scan on top, each probed atom nested below it, estimated
   cardinalities from the greedy planner's own per-step scores. *)
let attach_scan_chain (p : plan) ctr parent =
  let natoms = Array.length p.porder in
  let rec build k =
    if k >= natoms then None
    else begin
      let node =
        Obs.Op_stats.make
          ~label:(atom_label p.pcq.body.(p.porder.(k)))
          ~est_rows:p.pest.(k) Obs.Op_stats.Index_scan
      in
      node.Obs.Op_stats.rows_in <- ctr.scanned.(k);
      node.Obs.Op_stats.index_probes <- ctr.probes.(k);
      node.Obs.Op_stats.rows_out <- ctr.advanced.(k);
      (match build (k + 1) with
      | Some child -> Obs.Op_stats.add_child node child
      | None -> ());
      Some node
    end
  in
  match build 0 with
  | Some n -> Obs.Op_stats.add_child parent n
  | None -> ()

(* [exec_cq] with the scan chain attached under [stats] — even when the
   statement dies mid-pipeline, so failed statements keep a partial
   EXPLAIN.  With [stats = None] this is exactly [exec_cq]. *)
let exec_cq_traced t ?stats p ~sink =
  match stats with
  | None -> exec_cq t p ~sink
  | Some parent ->
      let ctr = fresh_counters (max 1 (Array.length p.porder)) in
      Fun.protect
        ~finally:(fun () -> attach_scan_chain p ctr parent)
        (fun () -> exec_cq t ~counters:ctr p ~sink)

(* ---- fragment snapshots (tier 4's execution half) ----

   A {e fragment snapshot} is the record-and-replay image of one fragment
   UCQ evaluation: per-disjunct charge logs, the cumulative pre-dedup row
   counts the per-disjunct materialization checks observe, and the
   deduplicated result relation.  Recording never touches the recording
   engine's meters (charges go to private logs); replaying through the
   real {!charge} on a using engine reproduces, observable for
   observable, what {!eval_ucq_fragment} would have done for the same
   UCQ on the same store state — the same charge stream, the same
   budget-failure point, the same materialization checks, the same rows
   in the same order.  Charges depend only on the store's selections and
   the statistics-driven plan order, never on the profile, so one
   snapshot serves every profile (each applies its own limits at replay
   time). *)

type fragment_snapshot = {
  fs_terms : int;  (* [Ucq.cardinal] at record time *)
  fs_arity : int;
  fs_logs : charge_log array;  (* one log per disjunct *)
  fs_cum : int array;  (* accumulated pre-dedup rows after each disjunct *)
  fs_pre : int;  (* total pre-dedup rows *)
  fs_rel : Relation.t;  (* deduplicated result; never mutated *)
}

let snapshot_terms s = s.fs_terms
let snapshot_arity s = s.fs_arity

let snapshot_bytes s =
  let log_words =
    Array.fold_left
      (fun acc l -> acc + (2 * Store.Intvec.length l.cvals) + 4)
      0 s.fs_logs
  in
  8
  * ((Relation.rows s.fs_rel * Relation.cols s.fs_rel)
    + log_words + Array.length s.fs_cum + 8)

exception Unrecordable

(* Materializes one fragment UCQ into a snapshot: [exec_cq] per disjunct,
   charging into a log instead of the engine.  Gives up ([None]) on a
   disjunct with no plan — a body constant absent from the dictionary,
   whose later interning would change the charges of a fresh compile —
   and as soon as the logged charges or the emitted rows pass this
   engine's profile limits: live evaluation then fails at its own point,
   and a runaway fragment is never recorded in full. *)
let record_fragment t (u : Ucq.t) =
  let plans = ucq_plans t u in
  let limits = t.profile in
  let sink = Relation.sink ~cols:(Ucq.arity u) in
  let logs = Array.map (fun _ -> charge_log ()) plans in
  let cum = Array.make (Array.length plans) 0 in
  let logged = ref 0 in
  let charge_into log n =
    logged := !logged + n;
    if !logged > limits.Profile.max_operations then
      raise_notrace Unrecordable;
    record log n
  in
  match
    Array.iteri
      (fun i p ->
        match p with
        | None -> raise_notrace Unrecordable
        | Some p ->
            exec_cq t ~charge:(charge_into logs.(i)) p ~sink;
            cum.(i) <- Relation.emitted sink;
            if cum.(i) > limits.Profile.max_materialized_rows then
              raise_notrace Unrecordable)
      plans
  with
  | exception Unrecordable -> None
  | () ->
      Some
        {
          fs_terms = Ucq.cardinal u;
          fs_arity = Ucq.arity u;
          fs_logs = logs;
          fs_cum = cum;
          fs_pre = Relation.emitted sink;
          fs_rel = Relation.contents sink;
        }

(* Replays a snapshot on a using engine, mirroring [eval_ucq_fragment]
   observable for observable: the union-capacity pre-check with the using
   profile, each disjunct's charges followed by the cumulative
   materialization check, the epilogue's pre-dedup bulk charge, and the
   post-dedup ceiling check. *)
let replay_fragment_snapshot t (s : fragment_snapshot) =
  if s.fs_terms > t.profile.Profile.max_union_terms then
    fail t
      (Profile.Union_capacity
         { terms = s.fs_terms; limit = t.profile.Profile.max_union_terms });
  Array.iteri
    (fun i log ->
      replay t log;
      check_rows t s.fs_cum.(i))
    s.fs_logs;
  charge t s.fs_pre;
  check_rows t (Relation.rows s.fs_rel);
  s.fs_rel

let eval_cq t (q : Bgp.t) =
  begin_statement t;
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_cq ~context:"executor/cq" q);
  admit ~context:"executor/cq" t (Analysis.Cost_verify.Cq q);
  Obs.Span.with_ "exec.cq" @@ fun sp ->
  let tr = Obs.enabled () in
  let sink = Relation.sink ~cols:(List.length q.Bgp.head) in
  let root =
    if tr then
      Some (Obs.Op_stats.make ~label:(Bgp.to_string q) Obs.Op_stats.Cq)
    else None
  in
  (match plan_of t q with
  | None -> ()
  | Some p -> exec_cq_traced t ?stats:root p ~sink);
  let pre = Relation.emitted sink in
  let result = close_sink t sink in
  (match root with
  | None -> ()
  | Some node ->
      let est = Store.Statistics.cq_cardinality t.stats q in
      let rows = Relation.rows result in
      node.Obs.Op_stats.rows_out <- pre;
      node.Obs.Op_stats.est_rows <- est;
      let dedup =
        Obs.Op_stats.make ~label:"set semantics" Obs.Op_stats.Dedup
      in
      dedup.Obs.Op_stats.est_rows <- est;
      dedup.Obs.Op_stats.rows_in <- pre;
      dedup.Obs.Op_stats.rows_out <- rows;
      dedup.Obs.Op_stats.work_units <- pre;
      Obs.Op_stats.add_child dedup node;
      Obs.record_estimate ~label:"cq" ~est ~actual:(float_of_int rows);
      t.last_stats <- Some dedup;
      Obs.Span.set sp "rows" (string_of_int rows);
      Obs.Span.set sp "ops" (string_of_int t.ops));
  result

(* ---- UCQ execution ---- *)

(* Fragment epilogue: charge one unit per accumulated pre-dedup row,
   enforce the materialization ceiling on the distinct rows, and (when
   tracing) close the fragment's op-stats subtree — a Dedup root over the
   Union node. *)
let fragment_epilogue t ~label (u : Ucq.t) union_node sink =
  let result = close_sink t sink in
  check_rows t (Relation.rows result);
  match union_node with
  | None -> (result, None)
  | Some un ->
      let est = Store.Statistics.ucq_cardinality t.stats u in
      let pre = Relation.emitted sink in
      let rows = Relation.rows result in
      un.Obs.Op_stats.rows_out <- pre;
      un.Obs.Op_stats.est_rows <- est;
      let dd =
        Obs.Op_stats.make
          ~label:(if label = "" then "set semantics" else label)
          Obs.Op_stats.Dedup
      in
      dd.Obs.Op_stats.est_rows <- est;
      dd.Obs.Op_stats.rows_in <- pre;
      dd.Obs.Op_stats.rows_out <- rows;
      dd.Obs.Op_stats.work_units <- pre;
      Obs.Op_stats.add_child dd un;
      Obs.record_estimate
        ~label:(if label = "" then "ucq" else label)
        ~est ~actual:(float_of_int rows);
      (result, Some dd)

(* Evaluates one fragment UCQ; when tracing, also returns the fragment's
   op-stats subtree (Dedup over Union over per-disjunct CQ pipelines),
   labelled [label].  The charge sequence is byte-for-byte that of the
   untraced path: tracing only reads counters, it never charges. *)
let eval_ucq_fragment t ?(label = "") (u : Ucq.t) =
  let terms = Ucq.cardinal u in
  if terms > t.profile.Profile.max_union_terms then
    fail t
      (Profile.Union_capacity
         { terms; limit = t.profile.Profile.max_union_terms });
  let tr = Obs.enabled () in
  let sink = Relation.sink ~cols:(Ucq.arity u) in
  let union_node =
    if tr then
      Some
        (Obs.Op_stats.make
           ~label:(Printf.sprintf "%d disjuncts" terms)
           Obs.Op_stats.Union)
    else None
  in
  let disjuncts = if tr then Array.of_list (Ucq.disjuncts u) else [||] in
  Array.iteri
    (fun i p ->
      (match p with
      | None -> ()
      | Some p -> (
          match union_node with
          | None -> exec_cq t p ~sink
          | Some un ->
              let before = Relation.emitted sink in
              let cq = disjuncts.(i) in
              let est = Store.Statistics.cq_cardinality t.stats cq in
              let cqn =
                Obs.Op_stats.make ~label:(Bgp.to_string cq) ~est_rows:est
                  Obs.Op_stats.Cq
              in
              Obs.Op_stats.add_child un cqn;
              exec_cq_traced t ~stats:cqn p ~sink;
              cqn.Obs.Op_stats.rows_out <- Relation.emitted sink - before;
              Obs.record_estimate ~label:"cq" ~est
                ~actual:(float_of_int cqn.Obs.Op_stats.rows_out)));
      check_rows t (Relation.emitted sink))
    (ucq_plans t u);
  fragment_epilogue t ~label u union_node sink

let eval_ucq t u =
  begin_statement t;
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_ucq ~context:"executor/ucq" u);
  admit ~context:"executor/ucq" t (Analysis.Cost_verify.Ucq u);
  Obs.Span.with_ "exec.ucq" @@ fun sp ->
  let result, tree = eval_ucq_fragment t ~label:"ucq" u in
  (match tree with
  | None -> ()
  | Some dd ->
      t.last_stats <- Some dd;
      Obs.Span.set sp "union_terms" (string_of_int (Ucq.cardinal u));
      Obs.Span.set sp "rows" (string_of_int (Relation.rows result));
      Obs.Span.set sp "ops" (string_of_int t.ops));
  result

(* ---- joins ---- *)

type named_rel = { columns : string list; rel : Relation.t }

let positions columns names =
  List.map
    (fun v ->
      let rec go i = function
        | [] -> assert false
        | c :: _ when String.equal c v -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 columns)
    names

(* Hash join on the shared columns.  The hash table is built on the
   {e smaller} input and probed with the larger — the accumulated
   multi-fragment join result is usually the larger side, and building on
   it was a classic build-side inversion.  Distinct keys are entries of a
   specialized {!Rowtable}; the build rows sharing a key are chained
   through a [next] array by row index, from the entry's slot in
   [heads].  Whatever the orientation, the output schema stays
   [a.columns @ b_only] and the work accounting is unchanged: one unit per
   input row on either side plus one per output row — exactly the charges
   of the always-build-on-[b] implementation, so engine-failure behaviour
   is preserved. *)
let hash_join ?stats t a b =
  let shared = List.filter (fun v -> List.mem v b.columns) a.columns in
  let b_only = List.filter (fun v -> not (List.mem v shared)) b.columns in
  let key_a = Array.of_list (positions a.columns shared)
  and key_b = Array.of_list (positions b.columns shared)
  and pay_b = Array.of_list (positions b.columns b_only) in
  let na_cols = List.length a.columns in
  let npay = Array.length pay_b in
  let nkeys = Array.length key_a in
  let out = Relation.create ~cols:(na_cols + npay) in
  let adata = Relation.unsafe_data a.rel
  and bdata = Relation.unsafe_data b.rel in
  let bcols = Relation.cols b.rel in
  let build_on_b = Relation.rows b.rel <= Relation.rows a.rel in
  let build_rel, build_key, build_data, build_cols =
    if build_on_b then (b.rel, key_b, bdata, bcols)
    else (a.rel, key_a, adata, na_cols)
  in
  let nbuild = Relation.rows build_rel in
  let probe_rel, probe_key =
    if build_on_b then (a.rel, key_a) else (b.rel, key_b)
  in
  let tbl = Rowtable.create ~width:nkeys ~capacity:(max 16 nbuild) () in
  let heads = Array.make (max 1 nbuild) (-1) in
  let next = Array.make (max 1 nbuild) (-1) in
  let kbuf = Array.make (max 1 nkeys) 0 in
  let buf = Array.make (na_cols + npay) 0 in
  for i = 0 to nbuild - 1 do
    charge t 1;
    let off = i * build_cols in
    for j = 0 to nkeys - 1 do
      kbuf.(j) <- build_data.(off + Array.unsafe_get build_key j)
    done;
    let e =
      match stats with
      | None -> Rowtable.find_or_add tbl kbuf 0
      | Some node ->
          let before = Rowtable.length tbl in
          let e = Rowtable.find_or_add tbl kbuf 0 in
          if Rowtable.length tbl > before then
            node.Obs.Op_stats.hash_inserts <-
              node.Obs.Op_stats.hash_inserts + 1
          else
            node.Obs.Op_stats.hash_collisions <-
              node.Obs.Op_stats.hash_collisions + 1;
          e
    in
    next.(i) <- heads.(e);
    heads.(e) <- i
  done;
  (* Projects one (probe offset, build row) match into a row of [out]. *)
  let emit_pair poff i =
    let aoff, boff =
      if build_on_b then (poff, i * bcols) else (i * na_cols, poff)
    in
    Array.blit adata aoff buf 0 na_cols;
    for j = 0 to npay - 1 do
      buf.(na_cols + j) <- bdata.(boff + Array.unsafe_get pay_b j)
    done;
    Relation.append out buf
  in
  Relation.iteri_flat
    (fun _ pdata poff ->
      charge t 1;
      for j = 0 to nkeys - 1 do
        kbuf.(j) <- pdata.(poff + Array.unsafe_get probe_key j)
      done;
      let e = Rowtable.find tbl kbuf 0 in
      if e >= 0 then begin
        let rec chase i =
          if i >= 0 then begin
            charge t 1;
            emit_pair poff i;
            chase next.(i)
          end
        in
        chase heads.(e)
      end)
    probe_rel;
  check_rows t (Relation.rows out);
  (match stats with
  | None -> ()
  | Some node ->
      let na = Relation.rows a.rel and nb = Relation.rows b.rel in
      node.Obs.Op_stats.rows_in <- na + nb;
      node.Obs.Op_stats.index_probes <-
        Relation.rows probe_rel + node.Obs.Op_stats.index_probes;
      node.Obs.Op_stats.rows_out <- Relation.rows out;
      node.Obs.Op_stats.work_units <- na + nb + Relation.rows out);
  { columns = a.columns @ b_only; rel = out }

let block_nested_loop_join ?stats t a b =
  let shared = List.filter (fun v -> List.mem v b.columns) a.columns in
  let b_only = List.filter (fun v -> not (List.mem v shared)) b.columns in
  let key_a = Array.of_list (positions a.columns shared)
  and key_b = Array.of_list (positions b.columns shared)
  and pay_b = Array.of_list (positions b.columns b_only) in
  let na_cols = List.length a.columns in
  let out = Relation.create ~cols:(na_cols + Array.length pay_b) in
  let nb = Relation.rows b.rel in
  (* the quadratic rescan of the inner relation is the point of this
     profile; it runs on the flat backing array, no row materialization *)
  let bdata = Relation.unsafe_data b.rel in
  let bcols = Relation.cols b.rel in
  let nkeys = Array.length key_a in
  let npay = Array.length pay_b in
  let buf = Array.make (na_cols + npay) 0 in
  Relation.iteri_flat
    (fun _ adata aoff ->
      charge t nb;
      for i = 0 to nb - 1 do
        let boff = i * bcols in
        let rec matches k =
          k >= nkeys
          || adata.(aoff + Array.unsafe_get key_a k)
             = bdata.(boff + Array.unsafe_get key_b k)
             && matches (k + 1)
        in
        if matches 0 then begin
          Array.blit adata aoff buf 0 na_cols;
          for j = 0 to npay - 1 do
            buf.(na_cols + j) <- bdata.(boff + Array.unsafe_get pay_b j)
          done;
          Relation.append out buf
        end
      done)
    a.rel;
  check_rows t (Relation.rows out);
  (match stats with
  | None -> ()
  | Some node ->
      let na = Relation.rows a.rel in
      node.Obs.Op_stats.rows_in <- na + nb;
      node.Obs.Op_stats.rows_out <- Relation.rows out;
      node.Obs.Op_stats.work_units <- na * nb);
  { columns = a.columns @ b_only; rel = out }

let join ?stats t a b =
  match t.profile.Profile.fragment_join with
  | Profile.Hash_join -> hash_join ?stats t a b
  | Profile.Block_nested_loop -> block_nested_loop_join ?stats t a b

(* ---- JUCQ execution ---- *)

(* A fragment (or partial join result) threaded through the greedy join
   order, carrying what tracing needs: the cover-query atoms it answers
   (for join-output cardinality estimates) and its op-stats subtree. *)
type jinput = {
  jnr : named_rel;
  jatoms : Bgp.atom list;  (* [] when tracing is off *)
  jtree : Obs.Op_stats.t option;
}

(* §4.1-style estimate for an intermediate join result: the cardinality of
   the CQ whose body is the union of the joined fragments' cover-query
   atoms, projected on the result columns. *)
let join_estimate t columns atoms =
  match atoms with
  | [] -> -1.0
  | _ ->
      let avars =
        List.concat_map (fun a -> Bgp.atom_vars a) atoms
        |> List.sort_uniq String.compare
      in
      let head =
        List.filter_map
          (fun v -> if List.mem v avars then Some (Bgp.Var v) else None)
          columns
      in
      (match head with
      | [] -> 1.0
      | _ -> Store.Statistics.cq_cardinality t.stats (Bgp.make head atoms))

(* Mirrors {!Core.Cost_model.final_result_estimate}: the JUCQ result equals
   the original query's answer, estimated from the union of all fragment
   bodies. *)
let jucq_final_estimate t (j : Jucq.t) =
  let atoms =
    List.concat_map (fun ((cq : Bgp.t), _) -> cq.Bgp.body) j.Jucq.fragments
    |> List.sort_uniq Bgp.atom_compare
  in
  let head_vars =
    List.filter_map
      (function Bgp.Var v -> Some (Bgp.Var v) | Bgp.Const _ -> None)
      j.Jucq.head
  in
  match head_vars with
  | [] -> 1.0
  | _ -> Store.Statistics.cq_cardinality t.stats (Bgp.make head_vars atoms)

let eval_jucq ?views ?(head_sink = false) t (j : Jucq.t) =
  begin_statement t;
  (* Static plan verification (test/debug builds and RDFQA_VERIFY=1): a
     schema or arity violation in a compiled plan must reject the
     statement, not silently produce wrong answers. *)
  Analysis.Plan_verify.check_exn (fun () ->
      Analysis.Plan_verify.verify_jucq ~context:"executor/jucq" j);
  admit ~context:"executor/jucq" t (Analysis.Cost_verify.Jucq j);
  (* Pre-check the engine's union capacity over all fragments: an RDBMS
     parses the whole statement before executing any of it. *)
  List.iter
    (fun (_, u) ->
      let terms = Ucq.cardinal u in
      if terms > t.profile.Profile.max_union_terms then
        fail t
          (Profile.Union_capacity
             { terms; limit = t.profile.Profile.max_union_terms }))
    j.Jucq.fragments;
  Obs.Span.with_ "exec.jucq" @@ fun sp ->
  let tr = Obs.enabled () in
  (* View probes are bypassed while tracing: a snapshot carries no
     per-disjunct op-stats, and the charge contract makes the fallback
     evaluation bit-identical anyway — traced statements just show the
     real pipeline. *)
  let lookup : Bgp.t * Ucq.t -> fragment_snapshot option =
    match views with Some f when not tr -> f | _ -> fun _ -> None
  in
  let hit_input (cq : Bgp.t) snap =
    let rel = replay_fragment_snapshot t snap in
    { jnr = { columns = Bgp.head_vars cq; rel }; jatoms = []; jtree = None }
  in
  let fragments =
    List.map
      (fun ((cq : Bgp.t), u) ->
        match lookup (cq, u) with
        | Some snap -> hit_input cq snap
        | None ->
            let label = if tr then "fragment " ^ Bgp.to_string cq else "" in
            let rel, tree = eval_ucq_fragment t ~label u in
            {
              jnr = { columns = Bgp.head_vars cq; rel };
              jatoms = (if tr then cq.Bgp.body else []);
              jtree = tree;
            })
      j.Jucq.fragments
  in
  (* Greedy join order: start from the smallest fragment, then repeatedly
     join the smallest fragment sharing a column with the accumulated
     result — what an RDBMS optimizer does to avoid cartesian products.
     Only when no remaining fragment connects (which a valid cover's join
     graph rules out except through intermediate disconnections) is a true
     product taken. *)
  let join_step acc pick =
    let stats =
      if tr then begin
        let kind =
          match t.profile.Profile.fragment_join with
          | Profile.Hash_join -> Obs.Op_stats.Hash_join
          | Profile.Block_nested_loop -> Obs.Op_stats.Bnl_join
        in
        let shared =
          List.filter (fun v -> List.mem v pick.jnr.columns) acc.jnr.columns
        in
        let node =
          Obs.Op_stats.make
            ~label:
              (match shared with
              | [] -> "cartesian product"
              | _ -> "on " ^ String.concat ", " shared)
            kind
        in
        (match acc.jtree with
        | Some x -> Obs.Op_stats.add_child node x
        | None -> ());
        (match pick.jtree with
        | Some x -> Obs.Op_stats.add_child node x
        | None -> ());
        Some node
      end
      else None
    in
    let nr = join ?stats t acc.jnr pick.jnr in
    let atoms =
      if tr then List.sort_uniq Bgp.atom_compare (acc.jatoms @ pick.jatoms)
      else []
    in
    (match stats with
    | None -> ()
    | Some node ->
        let est = join_estimate t nr.columns atoms in
        node.Obs.Op_stats.est_rows <- est;
        if est >= 0.0 then
          Obs.record_estimate ~label:"join" ~est
            ~actual:(float_of_int (Relation.rows nr.rel)));
    { jnr = nr; jatoms = atoms; jtree = stats }
  in
  let joined =
    match
      List.sort
        (fun a b ->
          Int.compare (Relation.rows a.jnr.rel) (Relation.rows b.jnr.rel))
        fragments
    with
    | [] -> invalid_arg "Executor.eval_jucq: no fragments"
    | first :: rest ->
        let connected acc f =
          List.exists (fun c -> List.mem c acc.jnr.columns) f.jnr.columns
        in
        let rec fold acc remaining =
          match remaining with
          | [] -> acc
          | _ ->
              let candidates =
                List.filter (connected acc) remaining
              in
              let pick =
                match candidates with
                | [] -> List.hd remaining
                | c :: cs ->
                    List.fold_left
                      (fun best x ->
                        if Relation.rows x.jnr.rel < Relation.rows best.jnr.rel
                        then x
                        else best)
                      c cs
              in
              let remaining' = List.filter (fun f -> f != pick) remaining in
              fold (join_step acc pick) remaining'
        in
        fold first rest
  in
  let joined, jtree = (joined.jnr, joined.jtree) in
  (* Project the original head, then deduplicate. *)
  let head_cols =
    List.map
      (function
        | Bgp.Var v -> `Col (List.hd (positions joined.columns [ v ]))
        | Bgp.Const c -> (
            match Es.encode_term t.store c with
            | Some code -> `Const code
            | None ->
                (* Constants in reformulated heads come from the schema, so
                   they are always in the dictionary; encode defensively. *)
                `Const (Rdf.Dictionary.encode (Es.dictionary t.store) c)))
      j.Jucq.head
  in
  (* The work accounting is that of a materialize-then-dedup pipeline: one
     unit per joined row, then one per pre-dedup projected row, so the
     same statements fail for the same reasons.  The joined relation is a
     set (fragments are sets, and a join keeps every input column), so a
     head that keeps every joined column projects without duplicates: its
     rows are copied, in order, with no hash set.  Any other head is
     projected into [buf] and streamed into a sink. *)
  let head_cols = Array.of_list head_cols in
  let nhead = Array.length head_cols in
  let njoined = Relation.rows joined.rel in
  charge_run t 1 njoined;
  let copied =
    let cols =
      List.filter_map
        (function `Col c -> Some c | `Const _ -> None)
        (Array.to_list head_cols)
    in
    let kept c = List.mem c cols in
    if head_sink || nhead = 0 || List.length cols < nhead then None
    else if List.for_all kept (List.init (Relation.cols joined.rel) Fun.id)
    then Some (Array.of_list cols)
    else None
  in
  let out =
    match copied with
    | Some cols ->
        let out = Relation.project joined.rel cols in
        charge t njoined;
        out
    | None ->
        let sink = Relation.sink ~cols:nhead in
        let buf = Array.make nhead 0 in
        Relation.iteri_flat
          (fun _ data off ->
            for i = 0 to nhead - 1 do
              buf.(i) <-
                (match Array.unsafe_get head_cols i with
                | `Col j' -> data.(off + j')
                | `Const code -> code)
            done;
            Relation.emit sink buf 0)
          joined.rel;
        close_sink t sink
  in
  check_rows t (Relation.rows out);
  if tr then begin
    let pt = function
      | Bgp.Var v -> "?" ^ v
      | Bgp.Const c -> Rdf.Term.to_string c
    in
    let proj_est =
      match jtree with Some n -> n.Obs.Op_stats.est_rows | None -> -1.0
    in
    let proj =
      Obs.Op_stats.make
        ~label:(String.concat ", " (List.map pt j.Jucq.head))
        ~est_rows:proj_est Obs.Op_stats.Project
    in
    proj.Obs.Op_stats.rows_in <- njoined;
    proj.Obs.Op_stats.rows_out <- njoined;
    proj.Obs.Op_stats.work_units <- njoined;
    (match jtree with
    | Some x -> Obs.Op_stats.add_child proj x
    | None -> ());
    let est_final = jucq_final_estimate t j in
    let rows = Relation.rows out in
    let root =
      Obs.Op_stats.make ~label:"result" ~est_rows:est_final
        Obs.Op_stats.Result
    in
    root.Obs.Op_stats.rows_in <- njoined;
    root.Obs.Op_stats.rows_out <- rows;
    root.Obs.Op_stats.work_units <- njoined;
    Obs.Op_stats.add_child root proj;
    Obs.record_estimate ~label:"result" ~est:est_final
      ~actual:(float_of_int rows);
    t.last_stats <- Some root;
    Obs.Span.set sp "fragments"
      (string_of_int (List.length j.Jucq.fragments));
    Obs.Span.set sp "rows" (string_of_int rows);
    Obs.Span.set sp "ops" (string_of_int t.ops)
  end;
  out

(* ---- decoding ---- *)

(* Codes compare as their values do once mapped through the dictionary's
   ranks, so the canonical order is an int sort and no term is decoded to
   find it. *)
let order t rel =
  Relation.sorted_distinct rel
    ~rank:(Rdf.Dictionary.ranks (Es.dictionary t.store))

let row_decoder t rel =
  let d = Rdf.Dictionary.decoder (Es.dictionary t.store) in
  let w = Relation.cols rel and data = Relation.unsafe_data rel in
  fun i -> List.init w (fun k -> d data.((i * w) + k))

let decode t rel =
  let row = row_decoder t rel in
  Array.fold_right (fun i acc -> row i :: acc) (order t rel) []

(* ---- engine-internal cost estimation (the EXPLAIN analogue) ---- *)

let explain_cost t (j : Jucq.t) =
  let p = t.profile in
  let cq_cost (cq : Bgp.t) =
    (* Bottom-up: every atom is an index probe per intermediate row. *)
    let card = Store.Statistics.cq_cardinality t.stats cq in
    let natoms = float_of_int (List.length cq.Bgp.body) in
    (0.05 *. natoms) +. (card *. p.Profile.c_t *. natoms)
  in
  let frag_cost (_, u) =
    let disjuncts = Ucq.disjuncts u in
    let cost = List.fold_left (fun acc cq -> acc +. cq_cost cq) 0.0 disjuncts in
    let card = Store.Statistics.ucq_cardinality t.stats u in
    cost +. (card *. (p.Profile.c_l +. p.Profile.c_m))
  in
  let frag_cards =
    List.map (fun (_, u) -> Store.Statistics.ucq_cardinality t.stats u)
      j.Jucq.fragments
  in
  let join_cost =
    match t.profile.Profile.fragment_join with
    | Profile.Hash_join ->
        List.fold_left ( +. ) 0.0 frag_cards *. p.Profile.c_j
    | Profile.Block_nested_loop ->
        (* quadratic in the two largest inputs, pairwise *)
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a *. b *. p.Profile.c_j /. 64.0) +. pairs rest
          | [ _ ] | [] -> 0.0
        in
        pairs (List.sort compare frag_cards)
  in
  p.Profile.c_db
  +. List.fold_left (fun acc f -> acc +. frag_cost f) 0.0 j.Jucq.fragments
  +. join_cost

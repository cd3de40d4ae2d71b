open Query

(* ---- saturating interval arithmetic ----

   Upper bounds multiply per join depth, so they overflow machine integers
   on realistic reformulations; saturation at [max_int] keeps every bound
   sound ("at most infinity") without ever wrapping into a fake low
   bound.  All quantities are non-negative. *)

type interval = { lo : int; hi : int }

let exact n = { lo = n; hi = n }
let zero = exact 0

let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let add a b = { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }
let scale k i = { lo = sat_mul k i.lo; hi = sat_mul k i.hi }

let string_of_bound n =
  if n = max_int then "inf" else string_of_int n

let to_string i =
  Printf.sprintf "[%s, %s]" (string_of_bound i.lo) (string_of_bound i.hi)

(* ---- the oracle ----

   The analyzer is store-agnostic: everything it knows about the data
   arrives through an oracle the engine layer builds from its compiled
   plans.  [atom_count] is the exact store count of the atom's constant
   positions (the count the depth-0 index selection returns, and a sound
   per-invocation ceiling at any depth: extra bound variables only
   restrict a selection).  [distinct_vars] says the atom's variable
   positions carry pairwise-distinct variables, in which case every
   depth-0 candidate unifies. *)

type atom_info = { atom_count : int; distinct_vars : bool }

type cq_info =
  | Unsat  (** a body constant is absent from the dictionary: zero plan *)
  | Atoms of atom_info array  (** per-atom info, in the planned join order *)

type join_algorithm = Hash | Block_nested_loop

type oracle = {
  cq_info : Bgp.t -> cq_info;
  join : join_algorithm;
  max_union_terms : int;
  max_materialized_rows : int;
  max_operations : int;
}

type statement = Cq of Bgp.t | Ucq of Ucq.t | Jucq of Jucq.t

type estimate = {
  ops : interval;
  rows : interval;
  refused : bool;
}

(* The executor's per-selection charge: one access unit per 64 candidates
   (at least one) plus one unit per candidate visited. *)
let selection_charge n = sat_add (max 1 (n / 64)) n

(* Charges and pre-dedup emitted rows of one index-nested-loop CQ
   pipeline ([Executor.exec_cq]), excluding the statement epilogue.

   Upper bound: the number of select invocations at depth [k] is at most
   the product of the preceding atoms' counts (each invocation at depth
   [i] advances at most [c_i] rows), and each invocation charges at most
   [selection_charge c_k]; emitted rows are at most the product of all
   counts, one charge each.

   Lower bound: the driving selection is resolved and charged exactly
   once, and its candidate count is exactly [c_0] (no variable is bound
   yet).  When atom 0 binds pairwise-distinct
   variables, all [c_0] candidates unify, so with deeper atoms each of
   the [c_0] advanced rows triggers a depth-1 selection charging at
   least 1; with a single such atom the pipeline emits exactly [c_0]
   rows (one charge each), making the interval exact. *)
let exec_cq_estimate info =
  match info with
  | Unsat -> { ops = zero; rows = zero; refused = false }
  | Atoms atoms ->
      let n = Array.length atoms in
      if n = 0 then { ops = exact 1; rows = exact 1; refused = false }
      else begin
        let ops_hi = ref 0 and inv = ref 1 in
        for k = 0 to n - 1 do
          ops_hi :=
            sat_add !ops_hi
              (sat_mul !inv (selection_charge atoms.(k).atom_count));
          inv := sat_mul !inv atoms.(k).atom_count
        done;
        let rows_hi = !inv in
        let ops_hi = sat_add !ops_hi rows_hi in
        let c0 = atoms.(0).atom_count in
        let ops_lo = ref (selection_charge c0) in
        let rows_lo = ref 0 in
        if atoms.(0).distinct_vars then
          if n = 1 then begin
            rows_lo := c0;
            ops_lo := sat_add !ops_lo c0
          end
          else ops_lo := sat_add !ops_lo c0;
        {
          ops = { lo = !ops_lo; hi = ops_hi };
          rows = { lo = !rows_lo; hi = rows_hi };
          refused = false;
        }
      end

(* [Executor.eval_cq]: the pipeline plus a statement epilogue charging one
   unit per pre-dedup emitted row.  An unsatisfiable query runs no
   pipeline and its epilogue charges zero. *)
let cq_estimate o q =
  let e = exec_cq_estimate (o.cq_info q) in
  { e with ops = add e.ops e.rows }

(* One UCQ fragment ([Executor.eval_ucq_fragment], which is also the whole
   of [eval_ucq]): a union-capacity pre-check that refuses before any
   charge, then per-disjunct pipelines, then an epilogue charging one unit
   per accumulated pre-dedup row.  [rows] is that accumulated pre-dedup
   count — the quantity the per-disjunct materialization checks watch. *)
let ucq_estimate o u =
  if Ucq.cardinal u > o.max_union_terms then
    { ops = zero; rows = zero; refused = true }
  else begin
    let e =
      List.fold_left
        (fun acc cq ->
          let d = exec_cq_estimate (o.cq_info cq) in
          { ops = add acc.ops d.ops; rows = add acc.rows d.rows; refused = false })
        { ops = zero; rows = zero; refused = false }
        (Ucq.disjuncts u)
    in
    { e with ops = add e.ops e.rows }
  end

(* Fragment-join bounds.  [his]/[los] are the fragments' post-dedup row
   bounds.  Structural facts used for the lower bounds: a hash join
   charges one unit per input row on either side and each fragment
   relation enters the join tree as an input exactly once, whatever the
   (runtime, size-driven) join order; a block-nested-loop join charges
   the inner size per outer row, so its first step charges at least the
   product of the two smallest fragment sizes.  Upper bounds: any
   intermediate result over [m] fragments has at most the product of the
   [m] largest fragment bounds rows ([prefix.(m)] below). *)
let join_estimate o ~his ~los =
  let f = Array.length his in
  if f <= 1 then zero
  else begin
    let desc = Array.copy his in
    Array.sort (fun a b -> compare b a) desc;
    (* prefix.(m) = product of the m largest upper bounds *)
    let prefix = Array.make (f + 1) 1 in
    for m = 1 to f do
      prefix.(m) <- sat_mul prefix.(m - 1) desc.(m - 1)
    done;
    match o.join with
    | Hash ->
        let hi = ref 0 in
        (* every fragment charged once as a join input *)
        Array.iter (fun h -> hi := sat_add !hi h) his;
        (* intermediate results re-enter as inputs: steps 1..f-2 *)
        for j = 1 to f - 2 do
          hi := sat_add !hi (sat_mul 2 prefix.(j + 1))
        done;
        (* output rows of every step; the last output is charged once *)
        hi := sat_add !hi prefix.(f);
        let lo = Array.fold_left sat_add 0 los in
        { lo; hi = !hi }
    | Block_nested_loop ->
        (* step j charges inner-size per outer row: at most the product of
           the j+1 largest bounds pairs of rows *)
        let hi = ref 0 in
        for j = 1 to f - 1 do
          hi := sat_add !hi prefix.(j + 1)
        done;
        let asc = Array.copy los in
        Array.sort compare asc;
        { lo = sat_mul asc.(0) asc.(1); hi = !hi }
  end

(* [Executor.eval_jucq]: capacity pre-check over all fragments (refusal
   before any charge), fragment materialization, fragment joins, then the
   head projection charging two units per joined row (one in the fused
   project/dedup loop, one in the final bulk charge).  [rows] is the
   joined-row interval feeding that projection. *)
let jucq_estimate o (j : Jucq.t) =
  let frags = j.Jucq.fragments in
  if
    List.exists
      (fun (_, u) -> Ucq.cardinal u > o.max_union_terms)
      frags
  then { ops = zero; rows = zero; refused = true }
  else begin
    let ests = List.map (fun (_, u) -> ucq_estimate o u) frags in
    let frag_ops =
      List.fold_left (fun acc e -> add acc e.ops) zero ests
    in
    (* post-dedup fragment rows: at most the pre-dedup count; at least one
       row survives whenever at least one was emitted *)
    let his = Array.of_list (List.map (fun e -> e.rows.hi) ests) in
    let los =
      Array.of_list
        (List.map (fun e -> if e.rows.lo > 0 then 1 else 0) ests)
    in
    let join_ops = join_estimate o ~his ~los in
    let joined =
      match ests with
      | [ e ] -> { lo = (if e.rows.lo > 0 then 1 else 0); hi = e.rows.hi }
      | _ ->
          let hi = Array.fold_left sat_mul 1 his in
          { lo = 0; hi }
    in
    {
      ops = add (add frag_ops join_ops) (scale 2 joined);
      rows = joined;
      refused = false;
    }
  end

let estimate o = function
  | Cq q -> cq_estimate o q
  | Ucq u -> ucq_estimate o u
  | Jucq j -> jucq_estimate o j

(* Pre-dedup row lower bounds per materialized fragment, for the CB003
   check: the executor checks the accumulated pre-dedup relation after
   every disjunct, so a fragment whose row lower bound alone exceeds the
   ceiling can never complete. *)
let materialization_floors o = function
  | Cq _ -> []  (* eval_cq performs no materialization check *)
  | Ucq u -> [ ("", (ucq_estimate o u).rows.lo) ]
  | Jucq j ->
      List.mapi
        (fun i (_, u) ->
          (Printf.sprintf "fragment %d" i, (ucq_estimate o u).rows.lo))
        j.Jucq.fragments

type verdict = Safe | Fails | Unknown

(* Process-level verdict tallies (lib/metrics): every admission decision in
   the process, whichever caller asked for it. *)
let m_safe =
  Metrics.counter "admission.safe" ~help:"Statements proven within budget"
let m_fails =
  Metrics.counter "admission.fails" ~help:"Statements proven doomed pre-execution"
let m_unknown =
  Metrics.counter "admission.unknown" ~help:"Statements the interval analysis cannot decide"

let verdict o ?budget stmt =
  let budget = match budget with Some b -> b | None -> o.max_operations in
  let e = estimate o stmt in
  let v =
    if e.refused then Fails
    else if e.ops.lo > budget then Fails
    else if
      List.exists
        (fun (_, floor) -> floor > o.max_materialized_rows)
        (materialization_floors o stmt)
    then Fails
    else if e.ops.hi <= budget then Safe
    else Unknown
  in
  Metrics.add
    (match v with Safe -> m_safe | Fails -> m_fails | Unknown -> m_unknown)
    1;
  v

let statement_name = function
  | Cq _ -> "CQ"
  | Ucq _ -> "UCQ"
  | Jucq _ -> "JUCQ"

let admission o ?budget ~context stmt =
  let budget = match budget with Some b -> b | None -> o.max_operations in
  let e = estimate o stmt in
  let name = statement_name stmt in
  if e.refused then
    [
      Diagnostic.error ~code:"CB009" ~context
        (Printf.sprintf
           "%s provably refused: union term count exceeds the capacity %d"
           name o.max_union_terms);
    ]
  else begin
    let mat =
      List.filter_map
        (fun (where, floor) ->
          if floor > o.max_materialized_rows then
            Some
              (Diagnostic.error ~code:"CB003"
                 ~context:(if where = "" then context else context ^ "/" ^ where)
                 (Printf.sprintf
                    "at least %s pre-dedup rows materialize, over the ceiling \
                     %d: the statement provably fails"
                    (string_of_bound floor) o.max_materialized_rows))
          else None)
        (materialization_floors o stmt)
    in
    let ops =
      if e.ops.lo > budget then
        [
          Diagnostic.error ~code:"CB001" ~context
            (Printf.sprintf
               "static operation interval %s: the lower bound exceeds the \
                budget %d, the %s provably fails"
               (to_string e.ops) budget name);
        ]
      else if e.ops.hi <= budget then
        [
          Diagnostic.info ~code:"CB002" ~context
            (Printf.sprintf
               "static operation interval %s fits the budget %d: the %s is \
                provably budget-safe"
               (to_string e.ops) budget name);
        ]
      else
        [
          Diagnostic.info ~code:"CB004" ~context
            (Printf.sprintf
               "static operation interval %s straddles the budget %d: the \
                %s outcome is data-dependent"
               (to_string e.ops) budget name);
        ]
    in
    mat @ ops
  end

(* ---- enablement gate ----

   Deliberately separate from {!Plan_verify}'s gate: the shape verifier is
   force-enabled by every test suite, including suites that assert exact
   {e dynamic} budget-failure behaviour under tiny budgets — behaviour a
   pre-execution admission gate would change.  Cost admission is its own
   opt-in ([RDFQA_VERIFY_COST], or {!set_enabled}). *)

let forced = ref None
let set_enabled b = forced := Some b

let env_enabled =
  lazy
    (match Sys.getenv_opt "RDFQA_VERIFY_COST" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let enabled () =
  match !forced with Some b -> b | None -> Lazy.force env_enabled

let check_exn f =
  if enabled () then begin
    let ds = f () in
    if Diagnostic.has_errors ds then raise (Plan_verify.Rejected ds)
  end

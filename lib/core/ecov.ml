open Query

type result = {
  cover : Jucq.cover;
  cost : float;
  explored : int;
  complete : bool;
  elapsed_ms : float;
}

(* Wall-clock, not [Sys.time]: process CPU time sums every domain, so
   under parallel costing a CPU-time budget would expire early. *)
let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

let search ?(budget = Cover_space.default_budget) (obj : Objective.t) =
  Obs.Span.with_ "plan.cover_search" ~attrs:[ ("algo", "ecov") ]
  @@ fun sp ->
  let t0 = Unix.gettimeofday () in
  let q = Objective.query obj in
  let { Cover_space.covers; complete } =
    Obs.Span.with_ "plan.cover_enum" @@ fun esp ->
    let r = Cover_space.enumerate ~budget q in
    Obs.Span.set esp "covers" (string_of_int (List.length r.Cover_space.covers));
    Obs.Span.set esp "complete" (string_of_bool r.Cover_space.complete);
    r
  in
  (* Costing a cover means reformulating its fragments, which dominates on
     large-reformulation queries: the time budget applies here too. *)
  let timed_out = ref false in
  let within_budget () =
    let ok = ms_since t0 <= budget.Cover_space.max_millis in
    if not ok then timed_out := true;
    ok
  in
  (* Parallel costing: prime the objective's caches chunk by chunk across
     the pool, re-checking the deadline between chunks, then run the
     unchanged sequential fold below on cache hits.  The fold's
     first-minimum-wins tie-break sees the same costs in the same order,
     so the chosen cover is bit-identical to sequential search; only under
     a deadline can the two differ (timeouts are wall-clock-dependent in
     the sequential path too). *)
  let pool = Par.get () in
  if Par.jobs pool > 1 then begin
    let arr = Array.of_list covers in
    let n = Array.length arr in
    let chunk = max 1 (8 * Par.jobs pool) in
    let i = ref 0 in
    while !i < n && within_budget () do
      let len = min chunk (n - !i) in
      Objective.prime pool obj (Array.to_list (Array.sub arr !i len));
      i := !i + len
    done
  end;
  let best =
    List.fold_left
      (fun best cover ->
        if not (within_budget ()) then best
        else
          let cost = Objective.cover_cost obj cover in
          match best with
          | Some (_, c) when c <= cost -> best
          | _ -> Some (cover, cost))
      None covers
  in
  let complete = complete && not !timed_out in
  let r =
    match best with
    | None ->
        (* Enumeration found nothing within budget: fall back to the flat
           UCQ cover, which is always valid for connected queries. *)
        let cover = Jucq.ucq_cover q in
        {
          cover;
          cost = Objective.cover_cost obj cover;
          explored = Objective.explored obj;
          complete = false;
          elapsed_ms = ms_since t0;
        }
    | Some (cover, cost) ->
        {
          cover;
          cost;
          explored = Objective.explored obj;
          complete;
          elapsed_ms = ms_since t0;
        }
  in
  Obs.Span.set sp "explored" (string_of_int r.explored);
  Obs.Span.set sp "complete" (string_of_bool r.complete);
  r

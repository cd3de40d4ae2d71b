open Query

type result = {
  cover : Jucq.cover;
  cost : float;
  explored : int;
  moves_applied : int;
  elapsed_ms : float;
}

let cover_key (c : Jucq.cover) =
  let frag f = String.concat "," (List.map string_of_int f) in
  String.concat ";" (List.sort String.compare (List.map frag c))

(* C.add(f, t): replace fragment [f] by [f ∪ {t}], drop fragments included
   in another, then drop coverage-redundant fragments in decreasing
   fragment-cost order (Section 4.3's example: adding t4 to {t1,t2} in
   {{t1,t2},{t1,t3},{t3,t4}} renders {t3,t4} redundant). *)
let apply_move obj (c : Jucq.cover) (f : Jucq.fragment) (t : int) : Jucq.cover =
  let f' = List.sort_uniq Int.compare (t :: f) in
  let replaced = ref false in
  let c' =
    List.map
      (fun g ->
        if (not !replaced) && g = f then begin
          replaced := true;
          f'
        end
        else g)
      c
  in
  (* Remove fragments strictly included in another, and all but the first
     copy of exact duplicates. *)
  let without_included =
    let arr = Array.of_list c' in
    let subset a b = List.for_all (fun i -> List.mem i b) a in
    let drop i g =
      List.exists
        (fun (j, h) ->
          j <> i
          && subset g h
          && ((not (subset h g)) || j < i))
        (List.mapi (fun j h -> (j, h)) c')
    in
    Array.to_list arr
    |> List.mapi (fun i g -> (i, g))
    |> List.filter_map (fun (i, g) -> if drop i g then None else Some g)
  in
  (* Coverage-redundancy pruning, most expensive fragment first. *)
  let by_cost_desc =
    List.sort
      (fun a b ->
        Float.compare (Objective.fragment_cost obj b)
          (Objective.fragment_cost obj a))
      without_included
  in
  let rec prune acc = function
    | [] -> List.rev acc
    | g :: rest ->
        let others = acc @ rest in
        let redundant =
          others <> []
          && List.for_all
               (fun i -> List.exists (fun h -> List.mem i h) others)
               g
        in
        if redundant then prune acc rest else prune (g :: acc) rest
  in
  prune [] by_cost_desc

(* All (fragment, triple) moves from a cover: extend a fragment with a
   connected extra triple. *)
let moves_from (q : Bgp.t) (c : Jucq.cover) =
  let atoms = Array.of_list q.Bgp.body in
  let n = Array.length atoms in
  List.concat_map
    (fun f ->
      let f_atoms = List.map (fun i -> atoms.(i)) f in
      List.filter_map
        (fun t ->
          if List.mem t f then None
          else if Bgp.fragment_connected f_atoms [ atoms.(t) ] then
            Some (f, t)
          else None)
        (List.init n Fun.id))
    c

type move_ordering = Cost_sorted | Fifo

type stop_condition = Exhausted | Improvement_ratio of float | Timeout_ms of float

module Queue_ = Set.Make (struct
  type t = float * int * Jucq.cover

  let compare (c1, s1, _) (c2, s2, _) =
    let c = Float.compare c1 c2 in
    if c <> 0 then c else Int.compare s1 s2
end)

(* Wall-clock, not [Sys.time]: process CPU time sums every domain. *)
let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

let search ?(max_moves = 10_000) ?(ordering = Cost_sorted)
    ?(stop = Exhausted) (obj : Objective.t) =
  Obs.Span.with_ "plan.cover_search" ~attrs:[ ("algo", "gcov") ]
  @@ fun sp ->
  let t0 = Unix.gettimeofday () in
  let q = Objective.query obj in
  let c0 = Jucq.scq_cover q in
  let finish cover cost moves_applied =
    Obs.Span.set sp "explored" (string_of_int (Objective.explored obj));
    Obs.Span.set sp "moves" (string_of_int moves_applied);
    {
      cover;
      cost;
      explored = Objective.explored obj;
      moves_applied;
      elapsed_ms = ms_since t0;
    }
  in
  if List.length q.Bgp.body = 1 then
    finish c0 (Objective.cover_cost obj c0) 0
  else begin
    let analysed = Hashtbl.create 256 in
    let serial = ref 0 in
    let queue = ref Queue_.empty in
    let best = ref (c0, Objective.cover_cost obj c0) in
    let pool = Par.get () in
    (* One pop's worth of neighbors, considered as a batch: dedup against
       [analysed] sequentially in move order, batch-prime the fresh covers'
       costs across the pool, then cost-and-push sequentially in the same
       order.  [bound] is fixed for the whole batch and [best] never moves
       between pushes (it only updates at pops), so the queue evolves
       exactly as under the sequential per-neighbor loop — the search
       trajectory, and hence the chosen cover, is bit-identical at every
       jobs count. *)
    let consider_batch ~bound covers =
      let fresh =
        List.filter
          (fun cover ->
            let key = cover_key cover in
            if Hashtbl.mem analysed key then false
            else begin
              Hashtbl.add analysed key ();
              true
            end)
          covers
      in
      (match fresh with
      | [] | [ _ ] -> ()
      | _ -> if Par.jobs pool > 1 then Objective.prime pool obj fresh);
      List.iter
        (fun cover ->
          (* Redundancy pruning can, in corner cases, leave a cover outside
             the valid space (e.g. a fragment left without a join partner);
             such moves are simply not taken. *)
          match Objective.cover_cost obj cover with
          | cost ->
              if cost <= bound then begin
                incr serial;
                (* Fifo ablation: the serial number alone decides the pop
                   order (all elements share a zero key). *)
                let key =
                  match ordering with Cost_sorted -> cost | Fifo -> 0.0
                in
                queue := Queue_.add (key, !serial, cover) !queue
              end
          | exception Invalid_argument _ -> ())
        fresh
    in
    (* Seed with the neighbors of C0 (Algorithm 1, lines 4-7). *)
    consider_batch ~bound:(snd !best)
      (List.map (fun (f, t) -> apply_move obj c0 f t) (moves_from q c0));
    let moves_applied = ref 0 in
    let initial_cost = snd !best in
    let keep_going () =
      match stop with
      | Exhausted -> true
      | Improvement_ratio ratio -> snd !best > ratio *. initial_cost
      | Timeout_ms ms -> ms_since t0 <= ms
    in
    (* Main loop (lines 8-16). *)
    while
      (not (Queue_.is_empty !queue))
      && !moves_applied < max_moves
      && keep_going ()
    do
      let ((_, _, cover) as elt) = Queue_.min_elt !queue in
      queue := Queue_.remove elt !queue;
      (* Memoized: free even when the queue key is the Fifo placeholder. *)
      let cost = Objective.cover_cost obj cover in
      incr moves_applied;
      if cost <= snd !best then best := (cover, cost);
      consider_batch
        ~bound:(snd !best -. epsilon_float)
        (List.map (fun (f, t) -> apply_move obj cover f t)
           (moves_from q cover))
    done;
    finish (fst !best) (snd !best) !moves_applied
  end

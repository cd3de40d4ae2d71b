open Query

type t = {
  query : Bgp.t;
  fragment_capacity : Bgp.t -> bool;
  (* the supplied reformulator behind a per-search fragment memo *)
  reformulate : Bgp.t -> Ucq.t;
  jucq_cost : Jucq.t -> float;
  ucq_cost : Ucq.t -> float;
  (* Private per-search memos.  They alone drive [explored]: the counter
     measures how many distinct covers THIS search had to price, whether
     the price came from a fresh computation or from the shared tier —
     which keeps the statistic identical between cold and warm runs. *)
  jucq_cache : (string, Jucq.t) Hashtbl.t;
  cost_cache : (string, float) Hashtbl.t;
  fragment_cache : (string, float) Hashtbl.t;
  (* Data-versioned tier shared across searches and systems (None when
     caching is off): probed after the private memo, published after a
     computation. *)
  shared : Cache.tier2 option;
  mutable explored : int;
}

(* A fragment's reformulation does not depend on the cover holding it, and
   GCov's neighboring covers share all fragments but one: one memo per
   search makes each distinct cover query pay its reformulation once.  The
   key is the CQ itself, compared structurally: [Bgp.to_string] does not
   escape literals, so two different CQs can print alike.  [prime]
   reformulates on pool domains, so probes and inserts are locked while
   the reformulation runs outside the lock; the first insert wins, and
   every caller gets the winner's physical UCQ.  [Too_large] is memoized
   too: the fragment stays unconstructible for the whole search. *)
let memoize_reformulate reformulate =
  let memo : (Bgp.t, (Ucq.t, exn) result) Hashtbl.t = Hashtbl.create 32 in
  let lock = Mutex.create () in
  fun cq ->
    let r =
      match Mutex.protect lock (fun () -> Hashtbl.find_opt memo cq) with
      | Some r -> r
      | None -> (
          let r =
            match reformulate cq with
            | u -> Ok u
            | exception (Reformulation.Reformulate.Too_large _ as e) -> Error e
          in
          Mutex.protect lock @@ fun () ->
          match Hashtbl.find_opt memo cq with
          | Some r -> r
          | None ->
              Hashtbl.add memo cq r;
              r)
    in
    match r with Ok u -> u | Error e -> raise e

let create ?(fragment_capacity = fun _ -> true) ?shared ~reformulate
    ~jucq_cost ~ucq_cost query =
  {
    query;
    fragment_capacity;
    reformulate = memoize_reformulate reformulate;
    jucq_cost;
    ucq_cost;
    jucq_cache = Hashtbl.create 64;
    cost_cache = Hashtbl.create 64;
    fragment_cache = Hashtbl.create 64;
    shared;
    explored = 0;
  }

let query t = t.query
let reformulate t = t.reformulate

let cover_key (c : Jucq.cover) =
  let frag f = String.concat "," (List.map string_of_int f) in
  String.concat ";" (List.sort String.compare (List.map frag c))

let shared_find_jucq t key =
  match t.shared with None -> None | Some h -> Cache.t2_find_jucq h key

let shared_find_cost t key =
  match t.shared with None -> None | Some h -> Cache.t2_find_cost h key

(* Publishing returns the winning JUCQ: under first-insert-wins, every
   search sharing the tier sees one physical JUCQ per cover, which is what
   the engine's plan caches key on. *)
let shared_add_jucq t key j =
  match t.shared with None -> j | Some h -> Cache.t2_add_jucq h key j

let shared_add_cost t key c =
  match t.shared with None -> () | Some h -> Cache.t2_add_cost h key c

let build_jucq t cover =
  Jucq.make ~reformulate:t.reformulate t.query cover

let jucq_of t cover =
  let key = cover_key cover in
  match Hashtbl.find_opt t.jucq_cache key with
  | Some j -> j
  | None ->
      let j =
        match shared_find_jucq t key with
        | Some j -> j
        | None -> shared_add_jucq t key (build_jucq t cover)
      in
      Hashtbl.add t.jucq_cache key j;
      j

(* The raw pricing of a cover, shared by [cover_cost] and [prime]: returns
   the JUCQ too (when one was built) so callers can memoize it alongside.
   A cover with a fragment the engine would refuse, or whose reformulation
   cannot even be constructed, is infinitely expensive; the capacity
   screen avoids building huge unions just to reject them. *)
let compute_cost t cover =
  let feasible =
    List.for_all
      (fun f -> t.fragment_capacity (Jucq.cover_query t.query cover f))
      cover
  in
  if not feasible then (None, infinity)
  else
    match build_jucq t cover with
    | j -> (Some j, t.jucq_cost j)
    | exception Reformulation.Reformulate.Too_large _ -> (None, infinity)

let memoize_cost t key j c =
  (match j with
  | Some j when not (Hashtbl.mem t.jucq_cache key) ->
      Hashtbl.add t.jucq_cache key (shared_add_jucq t key j)
  | _ -> ());
  shared_add_cost t key c;
  Hashtbl.add t.cost_cache key c;
  t.explored <- t.explored + 1

let cover_cost t cover =
  let key = cover_key cover in
  match Hashtbl.find_opt t.cost_cache key with
  | Some c -> c
  | None -> (
      match shared_find_cost t key with
      | Some c ->
          Hashtbl.add t.cost_cache key c;
          t.explored <- t.explored + 1;
          c
      | None ->
          let j, c = compute_cost t cover in
          memoize_cost t key j c;
          c)

(* Batch-primes the caches for a list of covers, computing the uncached
   ones' reformulations and costs in parallel, then memoizing sequentially
   in list order.  Equivalent to calling [cover_cost] on each cover in
   order: costs are pure functions of (objective, cover), [explored] grows
   by one per distinct uncached cover in the same order, and a cover whose
   construction raises (beyond [Too_large], which prices as [infinity])
   caches nothing — the exception resurfaces, identically, when
   [cover_cost] is called for it. *)
let prime pool t covers =
  let seen = Hashtbl.create 16 in
  let fresh =
    List.filter
      (fun cover ->
        let key = cover_key cover in
        if Hashtbl.mem t.cost_cache key || Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      covers
  in
  match fresh with
  | [] -> ()
  | _ ->
      let arr = Array.of_list fresh in
      let compute cover =
        match
          (* the shared probe happens inside the worker: on a warm tier
             every cover resolves without touching the reformulator *)
          let key = cover_key cover in
          match shared_find_cost t key with
          | Some c -> (None, c)
          | None -> compute_cost t cover
        with
        | v -> Ok v
        | exception e -> Error e
      in
      let results = Par.parallel_map pool compute arr in
      Array.iteri
        (fun i r ->
          match r with
          | Error _ -> ()  (* left uncached; [cover_cost] re-raises *)
          | Ok (j, c) ->
              let key = cover_key arr.(i) in
              if not (Hashtbl.mem t.cost_cache key) then memoize_cost t key j c)
        results

let fragment_cost t (f : Jucq.fragment) =
  let key = String.concat "," (List.map string_of_int f) in
  match Hashtbl.find_opt t.fragment_cache key with
  | Some c -> c
  | None ->
      let c =
        let shared =
          match t.shared with
          | None -> None
          | Some h -> Cache.t2_find_fragment h key
        in
        match shared with
        | Some c -> c
        | None ->
            let atoms = List.map (List.nth t.query.Bgp.body) f in
            let vars =
              List.sort_uniq String.compare
                (List.concat_map Bgp.atom_vars atoms)
            in
            let head = List.map (fun v -> Bgp.Var v) vars in
            let cq =
              match head with
              | [] -> Bgp.make [ (List.hd atoms).Bgp.s ] atoms
              | _ -> Bgp.make head atoms
            in
            let c =
              if not (t.fragment_capacity cq) then infinity
              else
                match t.reformulate cq with
                | ucq -> t.ucq_cost ucq
                | exception Reformulation.Reformulate.Too_large _ -> infinity
            in
            (match t.shared with
            | None -> ()
            | Some h -> Cache.t2_add_fragment h key c);
            c
      in
      Hashtbl.add t.fragment_cache key c;
      c

let explored t = t.explored

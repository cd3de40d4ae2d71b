open Query

type coefficients = {
  c_db : float;
  c_t : float;
  c_j : float;
  c_m : float;
  c_l : float;
  c_k : float;
  memory_rows : float;
}

(* A UCQ's figures, keyed by physical identity: the objective's fragment
   memo hands every cover holding a fragment the same physical UCQ, so
   identity finds them without hashing the union's contents.  Ephemeron
   keys let a UCQ nobody else holds (cache off, search over) be
   collected with its entry. *)
module Ucq_key = struct
  type t = Ucq.t

  let equal = ( == )
  let hash u = Hashtbl.hash_param 16 64 u
end

module Figures_tbl = Ephemeron.K1.Make (Ucq_key)

type figures = { volume : float; estimate : float }

type t = {
  stats : Store.Statistics.t;
  coeff : coefficients;
  (* per-UCQ figures, valid for the store data version [fig_version];
     shared by every domain pricing covers with this model *)
  figures : figures Figures_tbl.t;
  fig_lock : Mutex.t;
  mutable fig_version : int;
}

let coefficients_of_profile (p : Engine.Profile.t) =
  {
    c_db = p.Engine.Profile.c_db;
    c_t = p.Engine.Profile.c_t;
    c_j = p.Engine.Profile.c_j;
    c_m = p.Engine.Profile.c_m;
    c_l = p.Engine.Profile.c_l;
    c_k = p.Engine.Profile.c_l *. 1.5;
    memory_rows = 1_000_000.0;
  }

let data_version stats =
  Store.Encoded_store.data_version (Store.Statistics.store stats)

let create ?coefficients stats =
  let coeff =
    match coefficients with
    | Some c -> c
    | None -> coefficients_of_profile Engine.Profile.postgres_like
  in
  {
    stats;
    coeff;
    figures = Figures_tbl.create 64;
    fig_lock = Mutex.create ();
    fig_version = data_version stats;
  }

let coefficients t = t.coeff

(* ---- calibration ---- *)

(* Calibration probes: synthetic statements whose dominant cost isolates
   one coefficient.  Times are CPU seconds converted to the same unit as
   the defaults (milliseconds-ish); when a probe is degenerate (empty
   store), the profile default is kept. *)
let calibrate (ex : Engine.Executor.t) =
  let profile = Engine.Executor.profile ex in
  let defaults = coefficients_of_profile profile in
  let store = Engine.Executor.store ex in
  let n = Store.Encoded_store.size store in
  if n < 1000 then defaults
  else begin
    let time f =
      let t0 = Sys.time () in
      let cells = f () in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      (dt, float_of_int (max 1 cells))
    in
    (* Probe 1: full scans through single-atom queries per property gives
       (c_t + c_l) per tuple. *)
    let dict = Store.Encoded_store.dictionary store in
    let schema = Store.Encoded_store.schema store in
    let props = Rdf.Term.Set.elements (Rdf.Schema.properties schema) in
    let scan_probe () =
      List.fold_left
        (fun acc p ->
          match Rdf.Dictionary.find dict p with
          | None -> acc
          | Some _ ->
              let q =
                Bgp.make [ Bgp.Var "s"; Bgp.Var "o" ]
                  [ Bgp.atom (Bgp.Var "s") (Bgp.Const p) (Bgp.Var "o") ]
              in
              acc + Engine.Relation.rows (Engine.Executor.eval_cq ex q))
        0 props
    in
    let scan_ms, scan_rows = time scan_probe in
    let per_tuple = scan_ms /. scan_rows in
    (* Probe 2: a two-atom self-join per property isolates c_j on top of
       the scan cost. *)
    let join_probe () =
      List.fold_left
        (fun acc p ->
          match Rdf.Dictionary.find dict p with
          | None -> acc
          | Some _ ->
              let q =
                Bgp.make [ Bgp.Var "s" ]
                  [
                    Bgp.atom (Bgp.Var "s") (Bgp.Const p) (Bgp.Var "o");
                    Bgp.atom (Bgp.Var "o") (Bgp.Const p) (Bgp.Var "o2");
                  ]
              in
              acc + Engine.Relation.rows (Engine.Executor.eval_cq ex q))
        0 props
    in
    let join_ms, join_rows = time join_probe in
    let join_per_tuple = join_ms /. join_rows in
    let c_t = max 1e-7 (per_tuple /. 2.0) in
    let c_l = c_t in
    let c_j = max 1e-7 (join_per_tuple -. per_tuple) in
    {
      defaults with
      c_t;
      c_l;
      c_k = c_l *. 1.5;
      c_j = (if c_j > 0.0 then c_j else defaults.c_j);
      c_m = max defaults.c_m (c_t *. 2.0);
    }
  end

(* ---- the formulas ---- *)

let cq_scan_volume t (cq : Bgp.t) =
  List.fold_left
    (fun acc a -> acc +. float_of_int (Store.Statistics.atom_count t.stats a))
    0.0 cq.body

(* Linear in the union size (one O(1) index lookup per atom).  The cost
   functions below read it through [figures], which computes it once per
   physical UCQ and data version. *)
let scan_volume t u =
  List.fold_left (fun acc cq -> acc +. cq_scan_volume t cq) 0.0
    (Ucq.disjuncts u)

let ucq_result_estimate t u = Store.Statistics.ucq_cardinality t.stats u

(* A UCQ's scan volume and result estimate, computed once per physical UCQ
   while the store's data version holds: both are pure functions of the
   union and the data, so every cover holding the fragment reads the same
   floats it would have computed.  Probe and insert under the lock,
   compute outside it; the first insert wins. *)
let figures t u =
  let dv = data_version t.stats in
  let probe () =
    if t.fig_version <> dv then begin
      Figures_tbl.reset t.figures;
      t.fig_version <- dv
    end;
    Figures_tbl.find_opt t.figures u
  in
  match Mutex.protect t.fig_lock probe with
  | Some f -> f
  | None -> (
      let f =
        { volume = scan_volume t u; estimate = ucq_result_estimate t u }
      in
      Mutex.protect t.fig_lock @@ fun () ->
      match probe () with
      | Some f -> f
      | None ->
          Figures_tbl.add t.figures u f;
          f)

let unique_cost t rows =
  if rows <= 0.0 then 0.0
  else if rows <= t.coeff.memory_rows then t.coeff.c_l *. rows
  else t.coeff.c_k *. rows *. (log rows /. log 2.0)

(* The JUCQ's final result equals the original query's answer set, whose
   cardinality we estimate from the union of all fragment bodies (the
   fragments jointly contain exactly the original atoms). *)
let final_result_estimate t (j : Jucq.t) =
  let atoms =
    List.concat_map (fun ((cq : Bgp.t), _) -> cq.Bgp.body) j.Jucq.fragments
  in
  let atoms = List.sort_uniq Bgp.atom_compare atoms in
  let head_vars =
    List.filter_map
      (function Bgp.Var v -> Some (Bgp.Var v) | Bgp.Const _ -> None)
      j.Jucq.head
  in
  match head_vars with
  | [] -> 1.0
  | _ -> Store.Statistics.cq_cardinality t.stats (Bgp.make head_vars atoms)

let jucq_cost t (j : Jucq.t) =
  let figs = List.map (fun (_, u) -> figures t u) j.Jucq.fragments in
  let volumes = List.map (fun f -> f.volume) figs in
  let result_estimates = List.map (fun f -> f.estimate) figs in
  let eval_cost =
    List.fold_left (fun acc v -> acc +. ((t.coeff.c_t +. t.coeff.c_j) *. v))
      0.0 volumes
  in
  let dedup_fragments =
    List.fold_left (fun acc est -> acc +. unique_cost t est) 0.0
      result_estimates
  in
  let m = List.length j.Jucq.fragments in
  let join_cost =
    if m <= 1 then 0.0
    else t.coeff.c_j *. List.fold_left ( +. ) 0.0 volumes
  in
  let mat_cost =
    if m <= 1 then 0.0
    else begin
      (* All fragments are materialized except the largest-result one,
         which is pipelined. *)
      let largest = List.fold_left max neg_infinity result_estimates in
      let paired = List.combine volumes result_estimates in
      let skipped = ref false in
      List.fold_left
        (fun acc (v, est) ->
          if (not !skipped) && est = largest then begin
            skipped := true;
            acc
          end
          else acc +. (t.coeff.c_m *. v))
        0.0 paired
    end
  in
  let final_dedup = unique_cost t (final_result_estimate t j) in
  t.coeff.c_db +. eval_cost +. dedup_fragments +. join_cost +. mat_cost
  +. final_dedup

let ucq_cost t u =
  let f = figures t u in
  t.coeff.c_db
  +. ((t.coeff.c_t +. t.coeff.c_j) *. f.volume)
  +. unique_cost t f.estimate

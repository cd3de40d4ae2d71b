(** The cost model of Section 4.1: estimating the cost of evaluating a
    JUCQ reformulation [q_1^UCQ ⋈ … ⋈ q_m^UCQ] through an RDBMS.

    {v
    c(q^JUCQ) = c_db                                   (connection overhead)
              + Σ_i c_eval(q_i^UCQ)                    (evaluate subqueries)
              + Σ_i c_unique(q_i^UCQ)                  (dedup subquery results)
              + c_join(q_i^UCQ, 1 ≤ i ≤ m)             (join subquery results)
              + c_mat(q_i^UCQ, i ≠ k)                  (materialize all but the
                                                        largest, which pipelines)
              + c_unique(q^JUCQ)                       (dedup the final result)
    v}

    with, following equations (1)-(4) of the paper:
    - [c_eval(q^UCQ) = (c_t + c_j) · Σ_{cq ∈ q} Σ_{t_i ∈ cq} |cq_(t_i)|]:
      scan and join effort proportional to the per-triple match counts;
    - [c_join = c_j · Σ_i Σ_cq Σ_t |cq_t|]: join effort linear in total
      input size;
    - [c_mat = c_m · Σ_{i ≠ k} Σ_cq Σ_t |cq_t|]: materialization of every
      subquery except the largest-result one;
    - [c_unique(q) = c_l · |q|] for in-memory hashing, degrading to
      [c_k · |q| · log |q|] when the result exceeds memory (disk sort).

    Per-triple counts [|cq_t|] are exact (index lookups); result
    cardinalities [|q|] are estimated by {!Store.Statistics}.  The
    system-dependent constants are either taken from the engine profile or
    learned by {!calibrate}, which runs simple calibration queries on the
    engine being modeled, as Section 5.1 describes. *)

type coefficients = {
  c_db : float;  (** fixed connection/statement overhead *)
  c_t : float;   (** per-tuple scan cost *)
  c_j : float;   (** per-tuple join cost *)
  c_m : float;   (** per-tuple materialization cost *)
  c_l : float;   (** per-tuple in-memory duplicate-elimination cost *)
  c_k : float;   (** per-tuple·log disk-sort duplicate-elimination cost *)
  memory_rows : float;  (** result size beyond which dedup spills to disk *)
}

type t
(** A cost model bound to statistics and calibrated coefficients. *)

val coefficients_of_profile : Engine.Profile.t -> coefficients
(** Default coefficients carried by an engine profile. *)

val create :
  ?coefficients:coefficients -> Store.Statistics.t -> t
(** A model over the given statistics.  Default coefficients:
    {!Engine.Profile.postgres_like}'s. *)

val calibrate : Engine.Executor.t -> coefficients
(** Learns coefficients by timing simple calibration statements (full
    property scans, two-way joins, duplicate-heavy unions) on the engine.
    Falls back to the profile defaults for effects the probes cannot
    separate. *)

val coefficients : t -> coefficients
(** The model's coefficients. *)

val scan_volume : t -> Query.Ucq.t -> float
(** [Σ_{cq} Σ_{t_i} |cq_(t_i)|]: the total per-triple match volume of a
    UCQ — the quantity driving equations (2)-(4). *)

val ucq_result_estimate : t -> Query.Ucq.t -> float
(** Estimated result cardinality of a UCQ (for dedup terms). *)

val unique_cost : t -> float -> float
(** [c_unique] applied to an estimated result cardinality. *)

val jucq_cost : t -> Query.Jucq.t -> float
(** The full formula above for a cover-based JUCQ reformulation.  Each
    fragment UCQ's {!scan_volume} and {!ucq_result_estimate} are computed
    once per physical UCQ and reused until the store's data version moves
    (an ephemeron table, so unreferenced UCQs are not kept alive; safe to
    share across domains).  The summation order is fixed, so a memoized
    price is bit-identical to a fresh one. *)

val ucq_cost : t -> Query.Ucq.t -> float
(** Cost of the plain single-fragment UCQ evaluation (the [m = 1] case:
    no fragment join, no materialization).  Reads the same per-UCQ
    figures as {!jucq_cost}. *)

(** Engine profiles: the stand-ins for the three RDBMSs of Section 5.

    The paper deploys its technique on PostgreSQL, DB2 and MySQL and finds
    they "differ significantly in their ability to handle UCQ and SCQ
    reformulations": DB2 throws stack-depth errors on huge unions, Postgres
    hits I/O failures materializing large intermediate results, MySQL
    (whose executor lacks hash joins) is catastrophically slow on the SCQ's
    many-way joins of large unions.  A profile captures those behavioural
    axes for our executor:

    - a {e union capacity} (maximum number of UCQ terms the engine accepts,
      the stack-depth analogue);
    - a {e materialization budget} (maximum rows in any materialized
      intermediate result, the temp-space analogue);
    - an {e operation budget} (total executor work units per statement, the
      statement-timeout analogue);
    - the {e join algorithm} used to combine materialized fragment results
      (hash join, or MySQL-style block nested loops);
    - calibration constants for the Section 4.1 cost model (learned per
      engine by {!Rqa.Cost_model.calibrate}, these are the defaults).

    Limits are enforced by real executor behaviour (work is counted as it
    happens), not by artificial delays. *)

type failure_reason =
  | Union_capacity of { terms : int; limit : int }
      (** the reformulation has more union terms than the engine accepts *)
  | Materialization_overflow of { rows : int; limit : int }
      (** an intermediate result exceeded the materialization budget *)
  | Operation_budget of { limit : int }
      (** the statement exceeded its work budget (timeout analogue) *)

exception Engine_failure of { engine : string; reason : failure_reason }
(** Raised by the executor when a profile limit is hit — the "missing
    bars" of Figures 4-6. *)

type join_algorithm =
  | Hash_join            (** build + probe, linear in input sizes *)
  | Block_nested_loop    (** quadratic; models executors without hash join *)

type t = {
  name : string;
  max_union_terms : int;
  max_materialized_rows : int;
  max_operations : int;
  fragment_join : join_algorithm;
  (* default Section 4.1 coefficients (overridden by calibration): *)
  c_db : float;    (** fixed per-statement connection/startup overhead *)
  c_t : float;     (** per-tuple scan cost *)
  c_j : float;     (** per-tuple join cost *)
  c_m : float;     (** per-tuple materialization cost *)
  c_l : float;     (** per-tuple duplicate-elimination cost *)
}

val postgres_like : t
(** Generous union capacity; mid-size materialization budget (fails by
    materialization overflow on the worst queries at scale). *)

val db2_like : t
(** Tight union capacity (stack-depth analogue): rejects the largest UCQ
    reformulations outright. *)

val mysql_like : t
(** Block-nested-loop fragment joins and a work budget: SCQ-style plans
    with big fragments burn the budget. *)

val virtuoso_like : t
(** A native-RDF-style profile with lower per-tuple constants, used for
    the saturation comparison of Figure 10. *)

val all : t list
(** The three RDBMS profiles of the experiments (Virtuoso excluded). *)

val failure_to_string : failure_reason -> string
(** Human-readable reason, e.g. for bench output. *)

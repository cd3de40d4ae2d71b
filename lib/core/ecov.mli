(** ECov (Section 4.2): the exhaustive query-cover algorithm.

    ECov enumerates all valid covers of the query, estimates the cost of
    the corresponding cover-based reformulations, and returns one with the
    lowest estimated cost — the "golden standard" the greedy GCov is
    compared against.  On large queries exhaustive search is unfeasible
    (DBLP Q10's 10-atom space, Figure 8); the budget makes ECov stop and
    report incompleteness instead. *)

type result = {
  cover : Query.Jucq.cover;  (** a cover with the lowest estimated cost *)
  cost : float;              (** its estimated cost *)
  explored : int;            (** covers whose cost was estimated *)
  complete : bool;           (** false when the enumeration budget tripped *)
  elapsed_ms : float;        (** wall-clock running time *)
}

val search : ?budget:Cover_space.budget -> Objective.t -> result
(** Exhaustive search over the cover space of the objective's query. *)

(** GCov (Section 4.3, Algorithm 1): the greedy, anytime query-cover
    algorithm.

    GCov starts from the all-singletons cover [C0 = {{t1},…,{tn}}] and
    explores {e moves}: adding to one fragment an extra triple connected to
    it by a join variable.  A move can reduce the estimated cost by (i)
    making a fragment more selective and/or (ii) rendering other fragments
    redundant — after each addition, fragments are examined in decreasing
    cost order and coverage-redundant ones are removed.  Candidate moves
    are kept sorted by the estimated cost of the resulting cover; the best
    cover seen so far is returned.

    The benefits GCov hunts for (Section 4.3): avoiding the blow-up of
    reformulating many multi-reformulation triples together, and avoiding
    fragments with very large results that are costly to materialize and
    join — achieved by placing highly selective, few-reformulation triples
    in several cover fragments.  This is orthogonal to join ordering, which
    the underlying engine still performs per fragment. *)

type result = {
  cover : Query.Jucq.cover;  (** the best cover found *)
  cost : float;              (** its estimated cost *)
  explored : int;            (** covers whose cost was estimated *)
  moves_applied : int;       (** moves popped from the queue *)
  elapsed_ms : float;        (** wall-clock running time *)
}

type move_ordering =
  | Cost_sorted  (** Algorithm 1: pop the smallest-estimated-cost move *)
  | Fifo         (** ablation: plain breadth-first move order *)

type stop_condition =
  | Exhausted
      (** default: stop when the move queue empties (or [max_moves]) *)
  | Improvement_ratio of float
      (** stop once the best cost has dropped below [ratio × cost(C0)] —
          the "diminished by a certain ratio" policy of Section 4.3 *)
  | Timeout_ms of float
      (** stop after the given wall-clock search time — the anytime
          policy *)

val search :
  ?max_moves:int ->
  ?ordering:move_ordering ->
  ?stop:stop_condition ->
  Objective.t ->
  result
(** Runs Algorithm 1.  [max_moves] bounds the moves popped (anytime
    behaviour; default 10,000); [ordering] (default {!Cost_sorted}) exists
    for the move-ordering ablation benchmark; [stop] (default {!Exhausted})
    selects one of the early-stop policies Section 4.3 suggests.  The
    query must be connected (the all-singletons initial cover requires
    every atom to join another); single-atom queries return the trivial
    cover immediately. *)

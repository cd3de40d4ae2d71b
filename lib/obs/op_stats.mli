(** Per-operator runtime metrics, as a tree mirroring the physical plan.

    Every physical operator instance the executor runs — index scan,
    union, duplicate elimination, hash-join build/probe, block-nested-loop
    join, projection — gets one node recording its observed row counts,
    probe/insert counts and charged work units, next to the cost model's
    {e estimated} cardinality for the same node.  The executor exposes the
    finished tree per statement; {!to_string} renders it as an
    [EXPLAIN ANALYZE]-style plan. *)

type kind =
  | Index_scan  (** one atom of an index-nested-loop CQ pipeline *)
  | Cq  (** a conjunctive query (the scan pipeline's root) *)
  | Union  (** UCQ disjunct concatenation *)
  | Dedup  (** hash-based duplicate elimination *)
  | Hash_join  (** fragment hash join (build + probe counters) *)
  | Bnl_join  (** MySQL-profile block-nested-loop join *)
  | Project  (** head projection *)
  | Result  (** statement root *)

type t = {
  kind : kind;
  label : string;
  mutable rows_in : int;  (** input rows examined *)
  mutable rows_out : int;  (** rows produced (the {e actual} cardinality) *)
  mutable index_probes : int;  (** index lookups issued (scans) *)
  mutable hash_inserts : int;  (** distinct keys inserted (builds/dedups) *)
  mutable hash_collisions : int;  (** keyed rows landing on an existing key *)
  mutable work_units : int;  (** operation-budget units charged here *)
  mutable est_rows : float;  (** estimated cardinality; negative = unknown *)
  mutable children_rev : t list;  (** inputs, in reverse attach order *)
}

val make : ?label:string -> ?est_rows:float -> kind -> t
(** A fresh zeroed node ([est_rows] defaults to unknown). *)

val add_child : t -> t -> unit
(** [add_child parent child] attaches an input operator. *)

val children : t -> t list
(** Children in attach order. *)

val kind_name : kind -> string
(** Lowercase stable name (["index_scan"], ["hash_join"], …) used by the
    JSON exporters and their schema. *)

val q_error : t -> float option
(** The node's {!Trace.q_error} when an estimate was recorded. *)

val fold : ('a -> path:string -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold; [path] is the dotted child-index path from the root
    (root = ["0"], its second child = ["0.1"], …). *)

val to_string : t -> string
(** Multi-line [EXPLAIN ANALYZE] tree: every node shows its estimated and
    actual cardinality, its q-error, and its non-zero operator counters. *)

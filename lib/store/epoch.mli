(** Epoch-based reader/writer coordination for in-place stores.

    {!Encoded_store} mutates in place — deletes swap-remove triple ids and
    relabel posting lists — so a reader racing a writer can observe a torn
    store: a posting list pointing at a relabeled id, or a column shorter
    than the index that references it.  This module serializes that
    interaction without copying the store:

    - readers {e pin an epoch at admission}: {!read} admits the caller only
      while no writer is active or waiting, and for the whole read section
      the store's [schema_version]/[data_version] pair cannot move;
    - writers {e drain the pinned epoch}: {!write} blocks new readers,
      waits until every admitted reader has left, applies the mutation and
      bumps the epoch counter — in-place mutation never executes under a
      live reader.

    Writers have preference (a waiting writer stops new readers from being
    admitted) so a steady read stream cannot starve mutations.  Both
    sections are exception-safe: a raising callback releases its slot. *)

type t

val create : unit -> t
(** A fresh coordinator at epoch 0 with no pinned readers. *)

val epoch : t -> int
(** The current epoch: the number of completed {!write} sections.  A reader
    that pinned epoch [e] is guaranteed the store state of epoch [e] for
    its whole section. *)

val read : t -> (int -> 'a) -> 'a
(** [read t f] admits the caller as a reader — blocking while a writer is
    active or waiting — and runs [f pinned] where [pinned] is the epoch in
    force for the whole section.  Multiple readers run concurrently. *)

val write : t -> (unit -> 'a) -> 'a
(** [write t f] serializes the caller with other writers, stops admitting
    readers, waits for every active reader to drain, then runs [f].  After
    [f] returns the epoch is bumped and readers are re-admitted. *)

(** {1 Introspection} — feed the [server.*] gauges. *)

val active_readers : t -> int
(** Readers currently inside a {!read} section. *)

val waiting_writers : t -> int
(** Writers blocked in {!write} waiting for admission or drain. *)

val reads : t -> int
(** Completed read sections since {!create}. *)

val writes : t -> int
(** Completed write sections since {!create} (equals {!epoch}). *)

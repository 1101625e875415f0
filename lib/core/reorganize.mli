module Relation = Ghost_relation.Relation
module Public_store = Ghost_public.Public_store

(** Offline reorganization's read pass: the logical snapshot.

    {!Reorg} runs the one reorganizer — the journaled, crash-safe
    shadow build behind {!Ghost_db.reorganize} — and calls {!snapshot}
    for its first phase, and the fleet's replica repair calls it to
    copy a healthy peer. This module only reads; it writes no Flash.

    Reconstructs the database's current logical content — loaded rows,
    plus the insert delta, minus the tombstoned rows — by reading the
    hidden columns off the device (metered on the old device's clock)
    and the visible columns from the public store. Root ids are
    compacted to stay dense (tombstoned gaps close), so root keys
    change across a reorganization; dimension ids are stable. The
    caller reloads the snapshot through {!Loader} to obtain fresh SKTs,
    climbing indexes and empty logs. *)

val snapshot : Catalog.t -> Public_store.t -> (string * Relation.tuple list) list
(** Full rows per table, loader-ready (dense keys). Refuses to run
    (raises [Failure]) while a delta or tombstone log needs recovery
    after a power cut — run {!Ghost_db.recover} first, so the rebuilt
    database reflects exactly the acknowledged operations. *)

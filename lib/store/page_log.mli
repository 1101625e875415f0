module Flash = Ghost_flash.Flash

(** Crash-safe append-only page log of fixed-width records.

    NAND Flash forbids in-place writes, so inserts and deletes are
    appended to logs until an offline reorganization folds them back.
    This module is the page protocol both logs share — the delta log's
    unsorted prefix (L0) and the tombstone log:

    - every append programs the tail as a {e fresh} page; the
      superseded tail program stays on Flash as dead bytes until
      reorganization, so the previous tail still holds every
      acknowledged record when a power cut tears the new one;
    - a [Checksummed] page carries a 20-byte header — magic, the
      sequence number of its first record, a record count and a CRC-32
      over header and payload — so {!recover} finds the longest valid
      prefix after a crash; a [Plain] page holds the records alone;
    - reads are metered on the Flash clock, one partial-page read per
      live page covering its records.

    All state is plain data, so a log survives a marshalled device
    image. *)

type format =
  | Plain  (** raw records, no torn-write detection (the seed format) *)
  | Checksummed
      (** header per page (see above), enabling post-crash recovery at
          the price of 20 bytes per page *)

type t

val create :
  ?format:format ->
  ?cache:Ghost_device.Page_cache.t ->
  Flash.t ->
  magic:int ->
  record_bytes:int ->
  t
(** [format] defaults to [Plain]. [magic] tags a [Checksummed] page's
    header, so pages of different logs never parse as one another.
    [cache] — the device's shared page cache; each append invalidates
    the page it programs there, since {!Flash.append} recycles erased
    pages the cache may still hold. Raises [Invalid_argument] when a
    record does not fit a page. *)

val format : t -> format

val count : t -> int
(** Records ever appended (and recovered), {!release}d ones included. *)

val size_bytes : t -> int
(** Record bytes of the live pages (full pages + current tail). *)

val dead_bytes : t -> int
(** Bytes of superseded tail programs and released pages. *)

val pages : t -> int
(** Live pages: full pages plus the tail program, if any. *)

val full_pages : t -> int list
(** Live full pages, oldest first. *)

val append : t -> string -> unit
(** Appends one record (exactly [record_bytes] long) and programs the
    tail page. The append is {e acknowledged} only when this call
    returns: if the program is torn by a simulated power cut,
    [Flash.Power_cut] propagates, the record is not durable, and the
    log refuses further appends until {!recover} runs. *)

val iter : t -> (bytes -> int -> unit) -> unit
(** Metered sequential read of every live record, oldest first: [f b
    off] sees each record at offset [off] of its page's buffer [b]. *)

val page_records : t -> int -> string list
(** The records of one full page, oldest first (metered). *)

val release : t -> int list -> unit
(** Drops full pages from the log — the oldest ones, whose records the
    caller moved elsewhere (a spill into a sorted run). Their records
    stay counted and their bytes turn dead; later pages keep their
    sequence numbers. *)

val needs_recovery : t -> bool
(** True after a power cut tore a program of this log (or one the
    owner reported with {!mark_power_cut}) and until {!recover}. *)

val mark_power_cut : t -> page:int -> unit
(** Records that a program the log's owner issued on its behalf (a
    compaction output page) was torn at [page]: the log refuses appends
    until {!recover}, which counts [page] among the torn pages. *)

type recovery = {
  lost : int;  (** in-memory records dropped (never acknowledged) *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : ?on_record:(string -> unit) -> t -> recovery
(** Post-crash scan (metered): re-reads the live pages and keeps the
    longest checksum-valid prefix continuing the released sequence —
    exactly the acknowledged appends, no phantom records.
    [on_record] sees every record kept, oldest first. Only a
    [Checksummed] log can recover; raises [Invalid_argument] on a
    [Plain] one. Idempotent; clears {!needs_recovery}. *)

module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation

(** The demonstration dataset: the Figure 3 medical schema (diabetes
    scenario) populated synthetically. The paper's demo uses one
    million prescriptions; scales below keep the same shape at smaller
    sizes for tests and default benchmark runs.

    Generation is deterministic in the seed. Value frequencies are
    Zipf-skewed so that equality predicates span a wide selectivity
    range, and visit dates are uniform over a fixed window so that a
    date cutoff dials visible selectivity continuously. *)

type scale = {
  doctors : int;
  patients : int;
  medicines : int;
  visits : int;
  prescriptions : int;
  theta : float;  (** Zipf exponent for categorical columns *)
}

val tiny : scale  (** 400 prescriptions — unit tests *)

val small : scale  (** 10 k prescriptions — default benches *)

val medium : scale  (** 100 k prescriptions *)

val paper : scale  (** 1 M prescriptions, the demo cardinality *)

val scale_with_prescriptions : int -> scale
(** A proportional scale with the given root cardinality. *)

val ddl : string
(** The [CREATE TABLE] script, [HIDDEN] markers included (the Visit
    declaration is the paper's Section 2 example). *)

val schema : unit -> Schema.t

val date_lo : int
val date_hi : int
(** Visit dates are uniform in [[date_lo, date_hi]] (2004-01-01 to
    2006-12-31). *)

val date_cutoff_for_selectivity : float -> int
(** [date_cutoff_for_selectivity s] — the date [d] such that
    [Date > d] selects a fraction [s] of visits. *)

val purposes : string array
(** Visit purposes by Zipf rank (rank 1 first). Includes
    ["Sclerosis"]. *)

val medicine_types : string array
(** Medicine types by Zipf rank. Includes ["Antibiotic"]. *)

val countries : string array

val prescriptions :
  Ghost_kernel.Rng.t -> scale -> first:int -> int -> Relation.tuple list
(** [prescriptions rng scale ~first n] — [n] Prescription rows with
    keys [first .. first + n - 1], drawn from [rng] and referencing
    rows of [scale]'s Medicine and Visit tables: the generator's own
    draw, also used to make rows for inserts. *)

val generate : ?seed:int -> scale -> (string * Relation.tuple list) list
(** Full rows per table (key first), dense ids 1..N — ready for both
    the public store and the GhostDB loader. *)

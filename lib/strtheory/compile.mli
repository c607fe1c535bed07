(** Constraint → QUBO compilation and sample decoding.

    The single dispatch point between the constraint AST and the
    per-operation encoders; the inverse direction turns an annealer
    sample (a bit vector over the constraint's variables) back into a
    {!Constr.value}. *)

val op_name : Constr.t -> string
(** Stable lowercase tag of the constraint's operation ("equals",
    "indexof", …) — the key telemetry counters and events are named
    under. *)

val to_qubo :
  ?params:Params.t -> ?telemetry:Qsmt_util.Telemetry.t -> Constr.t -> Qsmt_qubo.Qubo.t
(** [telemetry] records per-operator encoding totals — counters
    [encode.<op>.vars] and [encode.<op>.penalty_terms] (quadratic
    interactions) — plus one [encode.done] event with the same numbers
    and the constant offset.
    @raise Invalid_argument if the constraint fails
    {!Constr.validate}. *)

val decode : Constr.t -> Qsmt_util.Bitvec.t -> Constr.value
(** String constraints decode all [7n] bits through the ASCII codec
    (unconstrained bits fall where the sampler left them); {!Constr.Includes}
    decodes the one-hot position. [decode c] validates [c] once, so a
    partially applied decoder is cheap to call per sample.
    @raise Invalid_argument if the sample length does not match
    [Constr.num_vars]. *)

(** Bit-blasting string constraints to CNF.

    The classical route the paper compares against: the same constraint
    language, the same 7-bit character layout, but compiled to clauses
    for a complete SAT solver instead of to an energy function. Two
    differences from the QUBO encodings are deliberate and documented:

    - {!Qsmt_strtheory.Constr.Contains} is encoded {e correctly} (a
      selector variable per start position, exactly-one, selector implies
      the substring's bits there) rather than with the paper's
      overwrite approximation — the baseline represents what a sound
      classical solver would do;
    - {!Qsmt_strtheory.Constr.Regex} uses the unrolled DFA (state
      variables per position, exactly-one state per step, transition and
      acceptance clauses), so it is exact for {e every} regex, not just
      the product-form fragment.

    Auxiliary variables (selectors, DFA states) are appended after the
    [7n] string bits, so a model's prefix decodes with the same
    {!Qsmt_strtheory.Compile.decode} as annealer samples. *)

val validate : Qsmt_strtheory.Constr.t -> (unit, string) result
(** The check {!encode} makes: {!Qsmt_strtheory.Constr.validate}, except
    that a regex only needs a non-negative length (its unrolled-DFA
    encoding has no product-form restriction). [Error] carries the
    reason, e.g. a literal outside 7-bit ASCII. *)

val encode : Qsmt_strtheory.Constr.t -> Cnf.t
(** @raise Invalid_argument if the constraint fails {!validate}. *)

val decode : Qsmt_strtheory.Constr.t -> Qsmt_util.Bitvec.t -> Qsmt_strtheory.Constr.value
(** Reads a SAT model (over {!encode}'s variables) back to a value. *)

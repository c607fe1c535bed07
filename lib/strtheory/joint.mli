(** Joint encoding of constraint conjunctions (extension of §4.12).

    The paper combines constraints sequentially — each operation is its
    own annealing run and strings flow between them. That cannot express
    a {e conjunction} ("a palindrome that contains 'ab'"): transformation
    pipelines compose functions, not predicates. This module provides the
    alternative the paper leaves open: merge the QUBOs of several
    string-generating constraints over the {e same} [7·L] variables by
    adding their coefficient matrices, then anneal once.

    Additive merging is sound in the sense that any string satisfying all
    conjuncts sits at the sum of their (individually minimal) energies;
    it is not complete — penalties from one constraint can overwhelm
    another's and the joint ground state may satisfy neither exactly
    (measured in the Ext-5 bench). The solver therefore verifies each
    conjunct classically, as always. *)

val compatible : Constr.t -> int option
(** [compatible c] is [Some length] if [c] generates a string of a fixed
    known length (every operation except {!Constr.Includes}), [None]
    otherwise. *)

val common_length : Constr.t list -> (int, string) result
(** The single string length every conjunct generates, or why there
    isn't one (empty list, an {!Constr.Includes}, disagreeing lengths,
    a failed validation). *)

val merge_frozen : num_vars:int -> Qsmt_qubo.Qubo.t list -> Qsmt_qubo.Qubo.t
(** [merge_frozen ~num_vars parts] adds the parts' coefficient matrices
    and offsets (in list order) and freezes over [num_vars] variables.
    This is {e the} merge fold: {!encode} goes through it, and the
    incremental solver re-merges cached per-conjunct encodings through it
    so the result is bit-exact identical to a full recompile. *)

val encode : ?params:Params.t -> Constr.t list -> (Qsmt_qubo.Qubo.t * int, string) result
(** [encode cs] merges the encodings; the result's second component is
    the common string length. [Error] if the list is empty, a conjunct
    is {!Constr.Includes}, lengths disagree, or any conjunct fails its
    own validation. *)

type outcome = {
  qubo : Qsmt_qubo.Qubo.t;
  samples : Qsmt_anneal.Sampleset.t;
  value : string;  (** decoded best candidate *)
  satisfied : bool;  (** all conjuncts verified *)
  per_constraint : (Constr.t * bool) list;  (** which conjuncts the value satisfies *)
  decided : Absint.analysis option;
      (** [Some] iff the abstract interpreter decided the conjunction
          statically: [qubo] is an empty placeholder, [samples] is empty
          (zero reads), and on unsat [value = ""] with every conjunct
          reported unsatisfied. A static unsat is a proof. *)
}

val solve :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t list ->
  (outcome, string) result
(** Samples once over the merged QUBO and scans in energy order for the
    first string satisfying {e all} conjuncts; if none does, the
    lowest-energy decode is reported with its per-conjunct verdicts.

    [absint] (default [`On]) runs {!Absint.analyze} over the conjunction
    first: a static verdict skips merging and sampling entirely, and an
    undecided analysis clamps the statically-forced codec bits so the
    sampler anneals only the free subspace (answers and energies are
    unchanged — samples are lifted back and verified classically; pass
    [`Off] for a bit-exact replay of the unshrunk pipeline). *)

val solve_with :
  sampler:Qsmt_anneal.Sampler.t ->
  absint:Absint.gate ->
  telemetry:Qsmt_util.Telemetry.t ->
  encode:(num_vars:int -> Qsmt_qubo.Qubo.t) ->
  search:Solver.search ->
  Constr.t list ->
  (outcome, string) result
(** {!solve} over {!Solver.chain} with the QUBO source and the search
    policy supplied by the caller — how {!Incremental} reuses the joint
    chain with its cached, patched merges and warm starts. [encode]
    receives the variable count [7·L] of the common length and must
    return a QUBO bit-exact equal to {!encode}'s. *)

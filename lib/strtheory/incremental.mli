(** Incremental solving: cached encodings, delta-patched QUBOs,
    warm-started anneals.

    The SMT-LIB front end's [push]/[pop]/[check-sat-assuming] produce
    sequences of closely related queries; solving each from scratch
    re-encodes, re-merges, and re-anneals everything. A session value of
    this module amortizes that work across queries, in the spirit of
    Bian et al.'s incremental embedding reuse (arXiv:1811.02524):

    - {b per-conjunct encoding cache} — each {!Constr.t} compiles (and
      passes the lint gate) once; [Constr.t] is structural, so the cache
      keys on the constraint itself;
    - {b delta-patched merge} — when a joint query extends the previous
      conjunct list, the new parts are coefficient-patched onto the
      previous merged QUBO ({!Qsmt_qubo.Qubo.patch_parts}) instead of
      rebuilding; a matrix-level lint re-check runs on the patched
      encoding. Any other change re-merges from cached parts through
      {!Joint.merge_frozen}. All paths are bit-exact equal to a full
      recompile — the embedding cache downstream keys on the interaction
      graph, which patching never changes;
    - {b warm starts} — samplers seed their first read from the previous
      best assignment (reverse-anneal style, [?init]) and may early-exit
      on the first verified read; a warm run that fails to verify
      retries the exact cold configuration, so incremental verdicts are
      never worse than from-scratch ones;
    - {b model reuse} — when the previous satisfying string still
      verifies against the new constraints (the [pop] case), sampling is
      skipped entirely.

    Both query kinds run the shared solve chain ({!Solver.chain}); the
    session supplies only the QUBO source (encode cache, patch,
    re-merge) and one search policy (model reuse, warm start, cold
    retry), so a query traces the same [solve] span family as
    {!Solver.solve}.

    Telemetry counters: [incr.encode_hit], [incr.cache_hit],
    [incr.patched], [incr.patched_coeffs], [incr.remerged],
    [incr.warm_start], [incr.model_reuse], [incr.cold_retry]. *)

type t
(** An incremental solving session. Not domain-safe: one session per
    interpreter. *)

val create :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?lint_config:Lint.config ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  unit ->
  t
(** The sampler defaults to {!Solver.default_sampler}[ ~seed:0]; the
    lint gate (default [`Off]) vets each conjunct encoding once at cache
    insertion and re-checks patched merges at the matrix level, raising
    {!Lint.Rejected} like {!Solver.solve} does.

    [absint] (default [`On]) re-runs {!Absint.analyze} on every query —
    push/pop deltas change the conjunct list, and the pass is cheaper
    than even an encode-cache hit. Statically-decided queries return
    without touching the caches, the pool, or the warm state (their
    outcomes carry [decided = Some _] and zero sampler reads); undecided
    queries anneal a residual with the statically-forced codec bits
    clamped, with warm-start seeds projected onto it. [`Off] replays
    today's pipeline bit-exactly. *)

val reset : t -> unit
(** Drops every cache (encodings, merged QUBO, warm state). *)

val solve_generate : t -> Constr.t -> Solver.outcome
(** Incremental counterpart of {!Solver.solve}: same outcome, but the
    encoding comes from the cache when the constraint was seen before,
    the sampler is warm-started from the previous best assignment when
    the problem size matches, and a still-valid previous model
    short-circuits sampling. A constraint that fails {!Constr.validate}
    (e.g. a non-7-bit literal) yields {!Solver.unanswered} instead of
    raising. *)

val solve_joint : t -> Constr.t list -> (Joint.outcome, string) result
(** Incremental counterpart of {!Joint.solve} for conjunctions in
    canonical conjunct order. The merged QUBO is delta-patched when the
    list extends the previous query's, re-merged from cached parts
    otherwise; either way it is bit-exact equal to what {!Joint.encode}
    would build. *)

(** The quantum-annealing string solver (Figure 1 end to end).

    Encode the constraint to QUBO, hand it to a sampler, decode samples
    back to values, verify classically. The returned {!outcome} keeps
    every intermediate artifact so callers (CLI, benches, tests) can
    inspect the pipeline the way the paper's Table 1 presents it:
    constraint → matrix → output. *)

type outcome = {
  constr : Constr.t;
  qubo : Qsmt_qubo.Qubo.t;
  samples : Qsmt_anneal.Sampleset.t;
  value : Constr.value;  (** see [solve] for how it is chosen *)
  satisfied : bool;  (** every conjunct's {!Constr.checker} accepts [value] *)
  conjuncts_ok : bool list;
      (** per conjunct of the solved conjunction, in order: does its
          checker accept [value]? One entry for a single constraint; all
          [false] after a static refutation. *)
  energy : float;  (** energy of the sample behind [value] *)
  hardware : Qsmt_anneal.Hardware.stats option;
      (** chain/embedding diagnostics — qubits used, chain-break
          fraction, embedding-cache hit, degradation — when the sampler
          went through the hardware-emulation path; [None] for
          all-to-all samplers *)
  decided : Absint.analysis option;
      (** [Some] iff the abstract interpreter decided the constraint
          statically ([V_sat]/[V_unsat]): [qubo] is then an empty
          placeholder, [samples] is {!Qsmt_anneal.Sampleset.empty} (zero
          reads — no sampler ran), and [energy] is [0.]. A [V_unsat]
          here is a proof, unlike an ordinary [satisfied = false]. *)
}

type stage_timing = {
  encode_s : float;  (** wall-clock seconds building the QUBO *)
  sample_s : float;
      (** annealing, raw wall time (includes any in-sampler verification
          a portfolio's early-exit callback performed) *)
  decode_s : float;
      (** the decode scan over the sample set, verification excluded *)
  verify_s : float;
      (** total verification work — the sampler's early-exit callbacks
          (decode + check, previously hidden inside [sample_s]) plus the
          checks of the decode scan, accumulated across domains *)
}

val default_sampler : seed:int -> Qsmt_anneal.Sampler.t
(** Simulated annealing, 32 reads × 1000 sweeps — the configuration the
    experiments use unless stated otherwise. *)

val lift_samples :
  qubo:Qsmt_qubo.Qubo.t ->
  Qsmt_qubo.Preprocess.t ->
  Qsmt_anneal.Sampleset.t ->
  Qsmt_anneal.Sampleset.t
(** The absint shrink path's lift: expands every residual entry through
    {!Qsmt_qubo.Preprocess.expand} and recomputes its energy on the full
    [qubo], so shrunk solves report energies bit-identical to what an
    unshrunk solve would report for the same assignments. *)

(** {2 The solve chain}

    Every entry point — {!solve_timed}, {!Joint.solve},
    {!Incremental.solve_generate}, {!Incremental.solve_joint} — is a
    thin wrapper over {!chain}: validate → absint → static outcome, or
    encode → (lint) → clamp the forced bits → sample → lift → lazy
    decode-and-verify scan. What differs between callers is passed in:
    the conjunct list, how the QUBO is obtained, and the {!search}
    policy that decides which assignments to try. *)

val unanswered : Constr.t -> outcome
(** The outcome of a query that produced no candidate: an empty
    placeholder QUBO over the constraint's variables (none for a
    constraint that fails {!Constr.validate}), zero reads,
    [satisfied = false], [conjuncts_ok = [false]], [decided = None], and
    the constraint kind's empty value ([Pos None] for [Includes], [Str ""]
    otherwise). *)

type search =
  qubo:Qsmt_qubo.Qubo.t ->
  model:(Qsmt_util.Bitvec.t -> outcome) ->
  anneal:(Qsmt_util.Bitvec.t option -> outcome) ->
  outcome
(** How the chain turns an encoded QUBO into an outcome. [model bits]
    decodes and verifies one full assignment without sampling (model
    reuse); [anneal init] clamps the forced bits, samples (warm-started
    from the full-size [init], projected onto the free variables, with
    early exit on the first verified read), lifts the samples back and
    scans them. Either may be called any number of times. *)

val cold : search
(** Anneal once, from scratch: [anneal None]. *)

val chain :
  sampler:Qsmt_anneal.Sampler.t ->
  absint:Absint.gate ->
  telemetry:Qsmt_util.Telemetry.t ->
  gc_probe:bool ->
  lint:(Qsmt_qubo.Qubo.t -> unit) option ->
  encode:(unit -> Qsmt_qubo.Qubo.t) ->
  search:search ->
  Constr.t list ->
  (outcome * stage_timing, string) result
(** Solves the conjunction of the given constraints, which must all
    generate the same variables (a single constraint, or conjuncts that
    passed {!Joint.common_length}); the first conjunct's
    {!Compile.decode} decodes samples and a value is satisfied when every
    conjunct's {!Constr.checker} accepts it. The checkers are built once
    per call, after a static verdict would have returned, and shared by
    the sampler's early-exit callbacks, the decode scan and model reuse.
    [Error] when the list is empty, a conjunct fails
    {!Constr.validate}, or the sampler returns no samples.

    A static absint verdict returns {!unanswered} with the verdict in
    [decided] (and the candidate on [V_sat]) before [encode] is called.
    Otherwise [encode] runs inside an [encode] span, [lint] (when given)
    inside a [lint] span, and [search] picks the outcome. Every call
    past validation opens one [solve] span (with [absint] / [encode] / [sample] /
    [decode] children), emits one [solve.done] event and counts the
    conjuncts in [solve.constraints]. [gc_probe] wraps the span in
    {!Qsmt_util.Telemetry.with_gc_probe}; callers nested in another
    probe pass [false]. *)

val solve :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?lint_config:Lint.config ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t ->
  outcome
(** Samples once and scans the sample set in ascending energy order for
    the first decoded value that verifies; if none verifies, the
    lowest-energy decode is returned with [satisfied = false]. The
    sampler defaults to [default_sampler ~seed:0].

    [lint] (default [`Off]) runs the static linter between encoding and
    sampling and raises {!Lint.Rejected} when any finding reaches the
    gate severity — no annealing time is spent on an encoding the linter
    can already prove broken. [lint_config] tunes the checks.
    @raise Invalid_argument if the constraint fails {!Constr.validate}
    or the sampler returns an empty sample set. *)

val solve_timed :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?lint_config:Lint.config ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Constr.t ->
  outcome * stage_timing
(** {!solve} plus per-stage wall-clock timing (the Figure 1 trace).
    Passes the constraint verifier down to the sampler so portfolio
    samplers can early-exit on the first satisfying read. The lint gate
    (when on) runs inside the [solve] span as a [lint] child; its cost is
    not attributed to any of the four timing buckets.

    [telemetry] wraps the whole call in a [solve] span with [encode] /
    [sample] / [decode] children, shares the handle with the encoder (per
    operator counters) and the sampler (sweep streams, portfolio
    lifecycle), and emits one [solve.done] event (op, satisfied, energy,
    reads) plus a [solve.constraints] counter. Instrumentation never
    consumes PRNG values, so the outcome is identical with or without
    it. *)

val solve_batch :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?lint_config:Lint.config ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  ?jobs:int ->
  Constr.t list ->
  (outcome * stage_timing) list
(** Solves many independent constraints concurrently over the shared
    domain pool ([jobs <= 0], the default, means
    {!Qsmt_util.Parallel.recommended_domains}). Results are in input
    order, each with its own per-stage timings. Each solve is identical
    to a standalone {!solve_timed} call, so batching never changes
    results — only wall-clock. *)

type pipeline_error = {
  stage_index : int;
      (** 0 = the initial constraint, [i > 0] = the [i]-th stage *)
  blocking_value : Constr.value;  (** the non-string decode *)
  completed : outcome list;
      (** all outcomes solved before the run stopped, including the
          blocking one (always non-empty, the blocker last) *)
}
(** A pipeline stage needs the previous decode as its input string; a
    positional decode (from an [Includes] initial constraint) has no
    string form, so the run stops rather than silently feeding [""]
    forward — which is what earlier revisions did. *)

val solve_pipeline :
  ?params:Params.t ->
  ?sampler:Qsmt_anneal.Sampler.t ->
  ?lint:Lint.gate ->
  ?lint_config:Lint.config ->
  ?absint:Absint.gate ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Pipeline.t ->
  (outcome list, pipeline_error) result
(** Runs the initial constraint, then each stage on the previous decoded
    string (§4.12). [Ok outcomes] lists them in stage order; a stage that
    merely fails to verify still yields its best-effort {e string} decode
    to the next stage (the [satisfied] flags record where things went
    wrong). [Error] is reserved for a non-string decode blocking a
    downstream stage; a non-string decode of the {e final} constraint is
    [Ok] (there is nothing downstream to block). *)

val pipeline_output : outcome list -> string option
(** Final decoded string of a pipeline run, [None] for an empty run or a
    non-string final value. *)

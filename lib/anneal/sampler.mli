(** Uniform sampler interface.

    The string-theory solver and the benchmark harness are parametric in
    the sampler; this type is the common currency. Constructors wrap
    each concrete sampler with its parameter record baked in. *)

type t

val name : t -> string

val run :
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?init:Qsmt_util.Bitvec.t ->
  ?early_exit:bool ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** May raise the underlying sampler's exceptions (e.g.
    {!Hardware.Embedding_failed}, {!Exact}'s size cap).

    [verify] by itself is consumed only by {!portfolio} samplers (see
    {!race}); every other sampler ignores it, keeping their output
    deterministic. With [early_exit] (default [false]) every sampler that
    reports its reads (SA, packed SA, SQA, PT, tabu, greedy and hardware,
    also as a {!decomposed} sampler's fitting-problem fallback) stops at
    its next poll point once any read verifies — exactly the hook a
    portfolio member gets, minus the shared cancellation. The incremental
    solver's warm re-solves opt in; cold solves keep the exhaustive
    deterministic sample sets.

    [init] seeds the first read/restart of the heuristic samplers with
    the given assignment (reverse-anneal-style warm start, see
    {!Sa.sample}); exact, hardware and custom samplers ignore it.

    [telemetry] is handed to the underlying sampler
    (ignored by {!exact} and {!make} samplers); instrumentation never
    consumes PRNG values, so samples are identical with or without it. *)

val run_detailed :
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?init:Qsmt_util.Bitvec.t ->
  ?early_exit:bool ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t * Hardware.stats option
(** {!run} plus the hardware diagnostics when the sampler went through
    the hardware-emulation path: a {!hardware} / {!hardware_auto} sampler
    always yields [Some], a {!portfolio} yields the first hardware
    member's stats (if it has one), everything else [None]. This is how
    the string solver surfaces chain-break fractions, embedding-cache
    hits, and {!Hardware.degradation} in its outcomes. *)

val make : name:string -> (Qsmt_qubo.Qubo.t -> Sampleset.t) -> t
(** Wrap an arbitrary sampling function (used by tests to inject oracles
    and failure modes). {!with_seed} leaves such samplers unchanged. *)

val simulated_annealing : ?params:Sa.params -> unit -> t

val simulated_annealing_packed : ?params:Sa.params -> unit -> t
(** {!Sa.run_packed}: the same multi-read SA through the bit-parallel
    multi-spin kernel — reads are packed 64 to a word, so high-reads
    workloads pay one CSR pass per site per sweep for the whole group.
    Named ["sa_packed"]. *)

val simulated_quantum_annealing : ?params:Sqa.params -> unit -> t
val tabu : ?params:Tabu.params -> unit -> t
val parallel_tempering : ?params:Pt.params -> unit -> t
val greedy : ?params:Greedy.params -> unit -> t
val exact : ?keep:int -> unit -> t
val hardware : params:Hardware.params -> t
(** The full QPU-workflow sampler. Chain statistics, cache hits and
    degradation travel through {!run_detailed}; {!run} keeps only the
    samples. *)

val hardware_auto : (Qsmt_qubo.Qubo.t -> Hardware.params) -> t
(** Like {!hardware}, but the parameters (typically the topology, via
    {!Hardware.auto_topology}) are derived from each problem at sampling
    time — what the CLI uses so one [--sampler hardware] flag serves
    problems of any size. *)

val portfolio : ?members:t list -> ?jobs:int -> ?budget:float -> unit -> t
(** A sampler that {!race}s [members] (default {!default_suite}
    [~seed:0]) with the given [jobs] (default [0]) and [budget] and
    returns the merged sample set; honors {!run}'s [verify] for early
    exit. {!with_seed} reseeds every member. Call {!race} directly when
    you need the per-member reports. *)

val decomposed : ?params:Qsmt_qubo.Decompose.params -> t -> t
(** [decomposed ~params inner] solves through
    {!Qsmt_qubo.Decompose.solve}, using [inner] (reseeded per
    shard-and-round from [params.seed]) as the shard solver and taking
    each shard's best read as its proposal. The sample set is the single
    stitched assignment with its whole-problem re-priced energy. Named
    ["<inner>+decompose"].

    Problems no larger than [params.subsize] fit one embedding, so they
    {e bypass} decomposition entirely: the call delegates to [inner] with
    the caller's exact arguments (bit-identical samples) and bumps the
    [decomp.fallback] counter. On the decomposition path [init]
    warm-starts the global assignment, while [verify]/[early_exit] are
    not consumed (the stitched assignment only exists once stitching
    finishes; constraint-level verification happens in the solver's
    decode scan as usual).

    Per-shard hardware diagnostics (when [inner] samples through the
    hardware emulation) aggregate into the [decomp.chain_break_fraction]
    histogram and the [decomp.shard_degraded] counter, and
    {!run_detailed} returns the worst shard's stats (highest chain-break
    fraction) as the representative. *)

val with_seed : t -> int -> t
(** A sampler identical to the input but reseeded. Samplers without a
    seed ({!exact}, {!make}) are returned unchanged. *)

val default_suite : seed:int -> t list
(** The ablation suite: SA, SQA, parallel tempering, tabu, greedy —
    everything that scales past {!Exact.max_vars} — with matching
    seeds. *)

(** {1 Racing samplers}

    No single heuristic dominates across QUBO instances (Oshiyama &
    Ohzeki's benchmark), so instead of betting on one sampler a portfolio
    races several concurrently over the shared
    {!Qsmt_util.Parallel.Pool} and merges their sample sets. When the
    caller supplies a [verify] predicate (the string-theory solver passes
    its constraint checker on decoded bits), the first read that verifies
    wins: a shared stop flag trips and every other member cancels
    cooperatively at its next poll point, so time-to-solution is the
    fastest member's, not the slowest's. A per-member wall-clock [budget]
    bounds each member independently, so one slow member (e.g. {!exact}
    on a 30-variable problem) cannot hang the race past its deadline. *)

type member_report = {
  member_name : string;  (** the member's {!name} *)
  samples : Sampleset.t;  (** possibly empty if cancelled before any read *)
  elapsed : float;  (** wall-clock seconds this member ran *)
  cancelled : bool;  (** stopped early (win elsewhere or budget) *)
  failed : string option;
      (** exception text if the member (or the verify scan over its
          samples) raised — a crashed member never aborts the race, it
          surfaces here while the survivors keep running, and each
          failure bumps the [portfolio.member_failed] counter *)
  hardware : Hardware.stats option;
      (** chain/embedding diagnostics, for {!hardware} members only *)
}

type race_result = {
  merged : Sampleset.t;  (** all members' samples, re-aggregated *)
  winner : (string * Qsmt_util.Bitvec.t) option;
      (** first verified (member, bits), if [verify] was given and hit *)
  reports : member_report list;  (** one per member, in member order *)
  wall_time : float;
}

val race :
  ?jobs:int ->
  ?budget:float ->
  ?init:Qsmt_util.Bitvec.t ->
  ?verify:(Qsmt_util.Bitvec.t -> bool) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  t list ->
  Qsmt_qubo.Qubo.t ->
  race_result
(** Races the members, at most [jobs] at a time ([<= 0], the default,
    means {!Qsmt_util.Parallel.recommended_domains}); [budget] is the
    per-member wall-clock budget in seconds (default unbounded). Members
    run with their internal read parallelism off ([domains = 1]): the
    race spends its concurrency across members, not within them. Each
    member is run exactly as {!run} would run it, with the race's own
    stop and read hooks. [init] warm-starts the first read/restart of
    every heuristic member (ignored by exact and hardware members); see
    {!Sa.sample}. Without [verify] (and with no budget) every member runs
    to completion and [merged] is deterministic — a pure function of the
    members, independent of [jobs]. With [verify], member sample sets may
    be truncated by early exit, but [merged] always contains the winning
    read.

    [telemetry] is shared with every member (their sweep streams and
    counters interleave in the trace) and additionally records the member
    lifecycle: [portfolio.member.start] (member, index),
    [portfolio.member.done] (member, index, elapsed_s, reads, cancelled,
    failed), [portfolio.winner] (member, elapsed_s since the race
    started) the instant a verified read is published, and a
    [portfolio.member_failed] counter per failed member. The telemetry sink
    is mutex-serialised, so concurrent members may emit freely.
    @raise Invalid_argument on an empty member list or non-positive
    budget. *)

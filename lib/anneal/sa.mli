(** Simulated annealing sampler.

    The classical stand-in for D-Wave's quantum annealer — and the solver
    the paper actually ran ("we use DWave's Simulated Annealer"). Each
    read is an independent single-spin-flip Metropolis chain over the
    Ising form of the problem, following a β schedule from hot to cold;
    reads can run in parallel across domains (each read owns a PRNG
    stream derived from the master seed, so results are independent of
    the domain count).

    {b Closed form on factorizable problems.} A sweep proposes a flip at
    every spin in ascending index order, and a proposal at spin [i] reads
    only the spins of [i]'s connected component of the coupler graph. So
    components evolve independently, and a read's final state is
    distributed as the product of the per-component distributions. When
    every component of [s] spins satisfies [2^s <= reads], {!sample}
    carries each distinct component's [2^s]-state distribution through
    the schedule once (same site order, same Ising deltas
    [-2 s_i field_i], same acceptance rule [d <= 0 || u < exp (-β d)]),
    then draws each read from the product with one uniform per component
    from that read's own stream. That costs no more than simulating the
    reads, and usually far less (the string encodings' residuals split
    into components of one or two spins). The output {e distribution} is
    the kernel's; the per-seed {e bits} are not, because the random
    stream is consumed differently. Every other input runs the simulated
    kernel, unchanged. Eligibility depends on the input alone: there is
    no flag.

    {b Frozen tail.} A simulated read ends early once a sweep accepts
    nothing and leaves every spin uphill with [beta *. delta >= 37.5] at
    the next β: on the non-decreasing schedule every remaining sweep
    must reject every proposal, so its spins and energy are final
    ({!Qsmt_qubo.Fields.anneal}). The skipped sweeps draw no uniforms;
    a read differs from running them only if one of those draws would
    have been exactly 0 (probability 2^-53 each). *)

type params = {
  reads : int;  (** independent annealing runs (default 32) *)
  sweeps : int;  (** full-lattice Metropolis sweeps per read (default 1000) *)
  schedule : Schedule.t option;
      (** β schedule; [None] (default) derives one from the problem via
          {!Schedule.auto} with [sweeps] steps *)
  seed : int;  (** master PRNG seed (default 0) *)
  domains : int;  (** parallel domains for reads (default 1 = sequential) *)
  postprocess : bool;
      (** run steepest-descent to a local minimum after each read
          (default false) *)
}

val default : params

val sweep_stride : int -> int
(** [sweep_stride sweeps] is the sweep-event decimation every sweep-loop
    sampler uses: one telemetry event every [max 1 (sweeps / 32)] sweeps
    (plus the final sweep), so traces stay proportional to reads, not to
    reads × sweeps. *)

val throughput_gauges :
  Qsmt_util.Telemetry.t ->
  name:string ->
  sweeps_done:float ->
  flips_done:float ->
  dt:float ->
  unit
(** Sets the [<name>.sweeps_per_s] and [<name>.flips_per_s] gauges every
    sweep-loop sampler publishes after its reads complete (flips =
    attempted Metropolis proposals, sweeps × spins). No-op when [dt] or
    [sweeps_done] is zero. *)

val sample :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** Anneals and returns all reads as a sample set (energies are QUBO
    energies, offset included). A zero-variable problem yields a set with
    one empty assignment.

    [init] warm-starts read 0 from the given assignment (reverse-anneal
    style — the incremental solver passes the previous best sample);
    every other read keeps its random start so the set stays diverse.
    Passing [init] changes the PRNG draw sequence, so warm and cold runs
    are not sample-for-sample comparable.
    @raise Invalid_argument if [init] has the wrong length.

    [stop] is a cooperative cancellation flag, polled before each read
    starts and between sweeps inside a read: once it returns [true],
    unstarted reads are skipped and in-flight reads finish their current
    sweep and return early (their partial configurations are still
    included). The returned set may then hold fewer than [reads] samples,
    or none. [on_read] observes each completed read's final bits — the
    portfolio solver uses it to verify decodes and trip [stop] as soon as
    one read solves the constraint. Without [stop]/[on_read] the result is
    a pure function of [params], independent of [domains].

    On a factorizable input (see above) every read is drawn from the
    closed form: read 0 with [init] starts from the point mass of [init]
    restricted to each component, [postprocess] descends from the drawn
    state, an explicit [schedule] is honoured, and [stop]/[on_read] act
    per read (a read is drawn whole, so [stop] is not polled inside one).

    [telemetry] (default {!Qsmt_util.Telemetry.null}) records an
    [sa.reads] counter, an [sa.sweeps] counter (nominal: [sweeps] per
    completed read) and an [sa.read_energy] histogram on both paths. The
    simulated kernel adds strided [sa.sweep] events (read, sweep, β,
    tracked energy, acceptance rate; a frozen tail's skipped sweeps
    appear with their unchanged energy and zero acceptance), an
    [sa.settled_sweeps] counter (the sweeps frozen-tail exits skipped)
    and the [sa.sweeps_per_s] / [sa.flips_per_s] gauges, which count
    only the sweeps actually simulated; the closed form emits one [sa.closed_form]
    event instead (components, distinct component classes, largest
    component, states propagated), since it makes no proposals.
    Instrumentation never touches the PRNG, so samples are bit-identical
    with telemetry on or off. *)

val closed_form_distribution :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  Qsmt_qubo.Qubo.t ->
  (Qsmt_util.Bitvec.t -> float) option
(** [closed_form_distribution q] is the exact distribution {!sample}
    draws read 0 from before [postprocess] (with [init], the warm read;
    without, every read): the probability of each full assignment as the
    product of the propagated component distributions. [None] when [q]
    is not factorizable under [params.reads], i.e. when {!sample} runs
    the simulated kernel. For tests and analysis; each call propagates
    afresh.
    @raise Invalid_argument as {!sample}. *)

type packed_mode =
  | Bucketed
      (** Fast path: one bulk PRNG stream per 64-read group; accept
          decisions for all lanes come from geometric octave bucketing
          ({!Qsmt_qubo.Multispin.accept_mask}). Exact Metropolis
          marginals, but a different draw sequence than {!sample}. *)
  | Lockstep
      (** Parity path: each lane consumes its own per-read stream with
          the scalar sweep's exact conditional-draw discipline
          ({!Qsmt_qubo.Multispin.accept_mask_lockstep}); decoded samples
          are bit-identical to {!sample}'s (with [postprocess] off),
          except where a draw that {!sample}'s frozen-tail exit skips
          would have been exactly 0 (probability 2^-53 per skipped
          draw): Lockstep runs every sweep. Slower — this is the
          oracle-check vehicle, not the perf path. *)

val run_packed :
  ?params:params ->
  ?mode:packed_mode ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** Multi-read SA through the bit-parallel {!Qsmt_qubo.Multispin}
    kernel: reads are packed 64 to a word-parallel state ([reads] not a
    multiple of 64 leaves the last group with masked tail lanes), so one
    CSR pass per site per sweep advances a whole group. Semantics match
    {!sample}: same per-read starting configurations (derived from the
    same streams), same schedule, same warm-start rule for [init], same
    [stop] polling granularity (between sweeps, whole group), same
    [on_read] observation of each decoded read, and [postprocess] runs
    the same steepest descent per decoded lane. [mode] defaults to
    {!Bucketed}. [domains] parallelises across groups, so it only helps
    past 64 reads. Telemetry: strided [sa.packed_sweep] events (group,
    lanes, sweep, β, best tracked energy, acceptance across lanes) plus
    the same [sa.reads] / [sa.read_energy] aggregates as {!sample}.

    A factorizable input (see the top of this module) takes {!sample}'s
    closed form instead, in either mode, so the result equals
    {!sample}'s read for read. *)

val anneal_ising :
  rng:Qsmt_util.Prng.t ->
  schedule:Schedule.t ->
  ?init:Qsmt_util.Bitvec.t ->
  ?on_sweep:(sweep:int -> energy:float -> accepted:int -> unit) ->
  ?stop:(unit -> bool) ->
  Qsmt_qubo.Ising.t ->
  Qsmt_util.Bitvec.t * float
(** One annealing read over an Ising problem: starts from [init] (random
    if omitted), runs the full schedule, returns the final spin
    configuration and its (incrementally tracked) energy. Exposed for
    composition ({!Convergence} records trajectories with it).
    The whole read runs on {!Qsmt_qubo.Fields.anneal}, so proposals are
    O(1), the energy is always available, the read ends at a frozen tail
    (see above) and no sweep allocates; [on_sweep] observes the energy
    after every sweep, skipped ones included, together with the number
    of accepted flips that sweep. [stop] is polled between sweeps; when
    it returns [true] the read returns its current configuration
    immediately. *)

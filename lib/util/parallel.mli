(** Fork-join parallelism over a reusable pool of OCaml 5 domains.

    The annealers are embarrassingly parallel across reads: each read is an
    independent Markov chain with its own PRNG stream. This module provides
    the small fork-join helpers they need without pulling in domainslib
    (not available in the sealed container).

    Worker domains are spawned once into a process-wide {!Pool} and reused
    across calls — earlier revisions spawned fresh domains per call, which
    dominated wall-clock for short reads and made concurrent samplers
    (the portfolio) oversubscribe the machine. Callers pass [~domains:1]
    to run sequentially (the default), which is what tests use for full
    determinism of shared-PRNG call sites. *)

val recommended_domains : unit -> int
(** Number of domains worth using on this machine:
    [Domain.recommended_domain_count], capped at 16. *)

val partition : int -> int -> (int * int) list
(** [partition n d] splits [0, n) into at most [d] contiguous
    [(offset, length)] blocks whose lengths differ by at most one.
    Exposed for callers that schedule their own pool jobs. *)

(** A persistent pool of worker domains.

    Workers sleep between jobs; submitting work never spawns a domain.
    Acquisition is non-blocking: a submission that finds every worker busy
    simply runs on the calling domain, so nested parallel calls degrade to
    sequential instead of deadlocking. *)
module Pool : sig
  type t

  val create : int -> t
  (** [create n] spawns a pool of [n] worker domains ([n = 0] is legal:
      every job then runs on the caller). *)

  val global : unit -> t
  (** The process-wide shared pool, created on first use with
      [recommended_domains () - 1] workers (the calling domain is the
      remaining slot). Never shut down; idle workers sleep on a condition
      variable and cost nothing between calls. *)

  val size : t -> int
  (** Number of worker domains in the pool. *)

  val run_list : ?telemetry:Telemetry.t -> t -> (unit -> unit) list -> unit
  (** [run_list pool jobs] runs every job to completion, distributing them
      over idle workers plus the calling domain via a shared work index
      (a fast job's worker steals the next pending job). Returns when all
      jobs have finished. If any job raises, the first exception is
      re-raised in the caller — with the backtrace captured at the raise
      site — after the remaining jobs complete; the raising job's worker
      slot is released normally, so the pool stays fully reusable and no
      exception ever escapes on a worker domain.

      With an enabled [?telemetry] handle the call reports through the
      [pool.*] vocabulary: a [pool.jobs] counter, [pool.submit_latency_s]
      (submit→start) and [pool.queue_depth] histograms plus a
      [pool.queue_depth] gauge, one [pool.worker] event per participant
      (jobs run, busy and idle seconds — participant 0 is the calling
      domain), a [pool.worker_busy_s] histogram, [pool.utilization] and
      [pool.participants] gauges, and a closing [pool.stats] event. The
      minor words the worker domains allocated are credited to the handle
      ({!Telemetry.credit_minor_words}), so a {!Telemetry.with_gc_probe}
      around the call counts them. The untracked path is byte-identical
      to previous revisions. *)

  val shutdown : t -> unit
  (** [shutdown pool] terminates and joins the worker domains. Only needed
      for pools from {!create}; the {!global} pool lives for the process.
      Subsequent [run_list] calls on a shut-down pool run sequentially. *)
end

val map_array : ?telemetry:Telemetry.t -> ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~domains f a] maps [f] over [a], splitting the work across
    up to [domains] blocks scheduled on the shared pool ([1] = sequential,
    the default). [f] must be safe to run concurrently on distinct
    elements. Preserves order. Exceptions raised by [f] are re-raised in
    the caller. An enabled [?telemetry] handle records the [pool.*]
    vocabulary of {!Pool.run_list}; the sequential path reports as one
    inline job run by the caller (utilization 1), so tracked solves
    always expose scheduling metrics. *)

val init_array : ?telemetry:Telemetry.t -> ?domains:int -> int -> (int -> 'a) -> 'a array
(** [init_array ~domains n f] is [Array.init n f] with the same parallel
    contract as {!map_array}. *)

val reduce :
  ?telemetry:Telemetry.t -> ?domains:int -> ('a -> 'b) -> ('b -> 'b -> 'b) -> 'b -> 'a array -> 'b
(** [reduce ~domains f combine zero a] maps then folds with [combine]
    (which must be associative); [zero] is the unit. *)

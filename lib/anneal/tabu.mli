(** Tabu-search sampler.

    A deterministic-given-seed local search baseline in the spirit of
    D-Wave's [TabuSampler]: best-improvement moves with a recency-based
    tabu list, aspiration (a tabu move is allowed if it beats the best
    energy seen), and random restarts. Often stronger than plain greedy
    descent on frustrated landscapes, cheaper than a long anneal. *)

type params = {
  restarts : int;  (** independent searches (default 8) *)
  iterations : int;  (** moves per search (default 500) *)
  tenure : int option;
      (** sweeps a flipped variable stays tabu; [None] (default) picks
          [min (n/2 + 1) 20] for an [n]-variable problem — a shorter
          tenure lets the lowest-index tie-break cycle on zero-delta
          plateaus of small problems *)
  seed : int;
  domains : int;  (** parallel domains (default 1) *)
}

val default : params

val sample :
  ?params:params ->
  ?init:Qsmt_util.Bitvec.t ->
  ?stop:(unit -> bool) ->
  ?on_read:(Qsmt_util.Bitvec.t -> unit) ->
  ?telemetry:Qsmt_util.Telemetry.t ->
  Qsmt_qubo.Qubo.t ->
  Sampleset.t
(** Returns the best assignment found by each restart. [init] warm-starts
    restart 0 from the given assignment (see {!Sa.sample}). [stop] and
    [on_read] follow the cooperative cancellation contract documented at
    {!Sa.sample} ([stop] is polled every 64 iterations inside a
    restart). [telemetry] streams strided [tabu.iter] events (restart,
    iteration, current and best energy) plus [tabu.aspirations] /
    [tabu.kicks] counters (tenure overridden by aspiration; random kick
    when every move is tabu) and [tabu.reads] / [tabu.read_energy]. *)

(** Annealing temperature schedules.

    A schedule is the sequence of inverse temperatures β (one per sweep)
    that a Metropolis annealer follows from hot (accept almost anything)
    to cold (accept almost nothing). The default range is derived from the
    problem the same way D-Wave's neal does it: hot enough that the
    largest single-spin move is accepted with probability ~1/2, cold
    enough that the smallest nonzero move is accepted with probability
    ~1/100. *)

type kind =
  | Geometric  (** β multiplied by a constant ratio each sweep (default) *)
  | Linear  (** β increased by a constant step each sweep *)

type t

val make : ?kind:kind -> beta_hot:float -> beta_cold:float -> sweeps:int -> unit -> t
(** @raise Invalid_argument if [sweeps < 1], a β is non-positive, or
    [beta_hot > beta_cold]. *)

val default_beta_range : Qsmt_qubo.Ising.t -> float * float
(** [(beta_hot, beta_cold)] derived from the problem's energy scales.
    Falls back to [(0.1, 10.)] for an all-zero problem. *)

val auto : ?kind:kind -> sweeps:int -> Qsmt_qubo.Ising.t -> t
(** {!make} over {!default_beta_range}. *)

val sweeps : t -> int
val beta : t -> int -> float
(** [beta t k] for sweep [k] in [\[0, sweeps)]. Monotone non-decreasing
    in [k]. *)

val betas : t -> float array
(** A fresh copy of every sweep's β. *)

val shared_betas : t -> float array
(** The schedule's own β array, not a copy, for kernels that read β
    straight into an unboxed sweep ({!Qsmt_qubo.Fields.anneal}). Must
    not be mutated. *)

val kind : t -> kind
val pp : Format.formatter -> t -> unit

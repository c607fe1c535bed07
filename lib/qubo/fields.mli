(** Incremental sweep state for annealing-style samplers.

    Every sampler's inner loop asks the same two questions millions of
    times: "what would flipping spin [i] cost?" and "what is the current
    energy?". Answering them from scratch is O(degree i) and O(n + nnz)
    respectively. This module wraps a frozen {!Ising.t} plus a live spin
    assignment and maintains

    - the {e local field} array [f_i = h_i + sum_j J_ij s_j], and
    - the running energy [H(s)],

    so that {!delta} is O(1) and {!energy} is O(1), at the price of an
    O(degree i) neighbor update inside {!flip}. A full Metropolis sweep
    drops from O(n · avg_degree) to O(n + accepted_flips · avg_degree) —
    the local-field trick quantum-inspired QUBO solvers (and D-Wave's
    neal) get their throughput from.

    Invariants (restored by every {!flip}):

    {v f_i  = h_i + sum_j J_ij s_j        for all i
   energy = offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j v}

    Floating-point drift: each accepted flip updates [energy] and the
    neighbor fields incrementally, so rounding error can accumulate over
    very long runs. {!refresh} recomputes both from scratch; {!drift}
    measures the current energy error without mutating. Callers either
    refresh on a fixed cadence ([?refresh_every]) or rely on the string
    encodings' dyadic coefficients, for which every update is exact (see
    DESIGN.md, "Incremental local-field kernel"). *)

type t

val create : ?refresh_every:int -> Ising.t -> Ising.spins -> t
(** [create ising spins] builds the tracked state in O(n + nnz). [spins]
    is {e adopted}, not copied: {!flip} mutates it in place and {!spins}
    returns it. Mutating it behind the kernel's back invalidates the
    invariants (call {!refresh} if you must). [refresh_every], when
    positive, recomputes from scratch after that many accepted flips;
    [0] is the documented "never refresh" sentinel (the default) and the
    only admissible non-positive value.
    @raise Invalid_argument on spin-count mismatch or negative
    [refresh_every]. *)

val problem : t -> Ising.t
val num_spins : t -> int

val spins : t -> Ising.spins
(** The live assignment — aliased, not a copy. *)

val energy : t -> float
(** Tracked [H(s)], O(1). *)

val field : t -> int -> float
(** Tracked local field [f_i], O(1). *)

val delta : t -> int -> float
(** [delta t i] is [H(s with spin i flipped) - H(s)], O(1). Numerically
    identical to [Ising.flip_delta] evaluated fresh, up to the rounding
    of the incremental field updates. *)

val flip : t -> int -> unit
(** Flips spin [i]: applies {!delta} to the energy, toggles the bit, and
    updates the neighbors' fields. O(degree i). *)

val accept_uphill : int -> float -> bool
(** [accept_uphill u x] is the uphill half of the Metropolis test:
    [float_of_int u *. 0x1.0p-53 < Float.exp (-. x)] for a drawn
    [u = Qsmt_util.Prng.bits53 rng] and [x = beta *. delta] (or
    [-. log_ratio] for a replica swap). It returns that value bit for
    bit, but decides without [exp] when [u <> 0] and [x >= 37.5]: every
    nonzero uniform is at least [2^-53], more than twice [exp (-37.5)],
    so those proposals reject. [u = 0] and a NaN [x] are decided by the
    comparison itself. Every sampler that draws a uniform for an uphill
    Metropolis move or a replica swap decides through this function. *)

val metropolis_sweep : t -> rng:Qsmt_util.Prng.t -> beta:float -> int
(** [metropolis_sweep t ~rng ~beta] proposes a flip of every spin once,
    in index order, and returns the number accepted. A proposal with
    [delta <= 0.] is always accepted without a draw; otherwise one
    uniform [u] (the value {!Qsmt_util.Prng.float} would return) is
    drawn and the flip accepted iff [u < exp (-. beta *. delta)],
    decided by {!accept_uphill}: [exp] is evaluated only when
    [beta *. delta < 37.5], when it is NaN, or when the drawn uniform is
    exactly 0. Does not allocate. *)

val refresh : t -> unit
(** Recomputes every field and the energy from the current spins in
    O(n + nnz), zeroing accumulated drift. *)

val drift : t -> float
(** [|tracked energy - recomputed energy|], without mutating. *)

val reset : t -> Ising.spins -> unit
(** [reset t spins] adopts a new assignment (same problem) and
    recomputes, reusing the field array — for running many reads through
    one kernel without reallocation.
    @raise Invalid_argument on spin-count mismatch. *)

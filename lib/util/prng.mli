(** Deterministic pseudo-random number generation.

    Every stochastic component in this repository (annealers, tabu search,
    workload generators, property tests) draws randomness through this
    module rather than [Stdlib.Random], so that a single integer seed
    reproduces a whole experiment bit-for-bit, including across parallel
    reads: each read derives an independent stream with {!split}.

    The generator is xoshiro256** seeded through SplitMix64, the standard
    seeding recipe recommended by the xoshiro authors. *)

type t
(** Mutable generator state. Not thread-safe; use {!split} to hand
    independent streams to concurrent domains. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Equal seeds yield
    equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent from the remainder of [t]'s stream. Used to
    derive per-read / per-domain streams from one master seed. *)

val stream : seed:int -> int -> t
(** [stream ~seed k] is the [k]-th derived generator of master [seed]
    ([k >= 0]): the seed is xored with [(k + 1)] times the full 64-bit
    golden-ratio constant [0x9E3779B97F4A7C15] before SplitMix64
    expansion, decorrelating consecutive stream indices even for adjacent
    seeds. This is the one sanctioned way to give each annealing read /
    portfolio member its own independent stream — do not hand-roll the
    mixing constant at call sites. Deterministic: equal [(seed, k)] yield
    equal streams, and [stream] does not consume randomness from any
    other generator.
    @raise Invalid_argument if [k < 0]. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val bits53 : t -> int
(** [bits53 t] is the 53 high bits of the next {!bits64} output, as an
    immediate int in [\[0, 2^53)]. Unlike {!bits64} and {!float}, its
    result is never boxed, so callers in other modules can draw a
    uniform ([float_of_int (bits53 t) *. 0x1.0p-53], the value {!float}
    returns) without allocating. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. Unbiased
    (rejection sampling). *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)

val choose : t -> 'a array -> 'a
(** [choose t a] is a uniformly random element of [a].
    @raise Invalid_argument if [a] is empty. *)

val char_printable : t -> char
(** [char_printable t] is a uniformly random printable ASCII character
    (codes 32-126). *)

val string_printable : t -> int -> string
(** [string_printable t n] is a string of [n] printable ASCII characters. *)

val string_lowercase : t -> int -> string
(** [string_lowercase t n] is a string of [n] characters in [a-z]. *)

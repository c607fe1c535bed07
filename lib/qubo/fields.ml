module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng

type t = {
  ising : Ising.t;
  row_ptr : int array;
  col : int array;
  value : float array;
  mutable spins : Ising.spins;
  field : float array;
  energy : float array;
      (* one cell: a mutable float field in this mixed record would box
         on every accepted flip, a float array stores it flat *)
  refresh_every : int; (* accepted flips between from-scratch refreshes; 0 = never *)
  mutable flips : int; (* accepted flips since the last refresh *)
}

let check_length ising spins =
  let n = Ising.num_spins ising in
  if Bitvec.length spins <> n then
    invalid_arg
      (Printf.sprintf "Fields: assignment has %d spins, problem has %d" (Bitvec.length spins) n)

let recompute t =
  let n = Ising.num_spins t.ising in
  for i = 0 to n - 1 do
    t.field.(i) <- Ising.local_field t.ising t.spins i
  done;
  t.energy.(0) <- Ising.energy t.ising t.spins;
  t.flips <- 0

let check_refresh_every refresh_every =
  if refresh_every < 0 then
    invalid_arg
      (Printf.sprintf "Fields: refresh_every %d is negative (0 means never refresh)" refresh_every)

let create ?(refresh_every = 0) ising spins =
  check_refresh_every refresh_every;
  check_length ising spins;
  let row_ptr, col, value = Ising.csr ising in
  let t =
    {
      ising;
      row_ptr;
      col;
      value;
      spins;
      field = Array.make (Ising.num_spins ising) 0.;
      energy = [| 0. |];
      refresh_every;
      flips = 0;
    }
  in
  recompute t;
  t

let problem t = t.ising
let num_spins t = Ising.num_spins t.ising
let spins t = t.spins
let energy t = t.energy.(0)
let field t i = t.field.(i)
let[@inline] spin_sign t i = if Bitvec.get t.spins i then 1. else -1.

(* Same expression shape as Ising.flip_delta so the two agree exactly
   whenever the tracked field does. *)
let[@inline] delta t i = -2. *. spin_sign t i *. t.field.(i)

let refresh t = recompute t

let flip t i =
  t.energy.(0) <- t.energy.(0) +. delta t i;
  Bitvec.flip t.spins i;
  (* s_i changed by (new - old) = 2 * new, so f_j += 2 * J_ij * new_s_i;
     f_i itself does not depend on s_i and is untouched. *)
  let two_s = 2. *. spin_sign t i in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    let j = t.col.(k) in
    t.field.(j) <- t.field.(j) +. (t.value.(k) *. two_s)
  done;
  t.flips <- t.flips + 1;
  if t.refresh_every > 0 && t.flips >= t.refresh_every then recompute t

(* A nonzero u makes a uniform of at least 2^-53 ~ 1.1e-16, more than
   twice exp (-37.5) ~ 5.2e-17, so from x >= 37.5 on the comparison can
   only fail and [exp] is skipped. u = 0 and NaN x still reach [exp],
   which decides them as before. *)
let uphill_cutoff = 37.5

let[@inline] accept_uphill u x =
  if u <> 0 && x >= uphill_cutoff then false else float_of_int u *. 0x1.0p-53 < Float.exp (-.x)

(* Every spin uphill with beta *. d past [accept_uphill]'s cutoff: a
   sweep at beta, or at any larger beta, rejects every proposal unless
   its uniform is exactly 0. Stops at the first spin that fails, and a
   NaN delta fails. *)
let[@inline] frozen_at t beta =
  let n = num_spins t in
  let i = ref 0 in
  while
    !i < n
    &&
    let d = delta t !i in
    d > 0. && beta *. d >= uphill_cutoff
  do
    incr i
  done;
  !i = n

(* No beta from sweep [k] on falls below [betas.(k)], so a state
   [frozen_at] that beta stays frozen for the rest of the schedule. A
   NaN after [k] fails. Schedule.make only builds such arrays; it is checked here,
   once per exit, rather than assumed. *)
let never_below (betas : float array) k =
  let b = Array.unsafe_get betas k and j = ref (k + 1) in
  while !j < Array.length betas && Array.unsafe_get betas !j >= b do
    incr j
  done;
  !j = Array.length betas

(* The one Metropolis sweep every scalar sampler runs. It lives here,
   not in the samplers, so [delta], [flip] and [accept_uphill] are
   same-module calls: they stay unboxed even when the build turns off
   cross-module inlining (dune's dev profile compiles with -opaque). The
   draw is [Prng.float]'s value, taken only when [delta > 0]. *)
let[@inline] sweep_at t rng beta =
  let accepted = ref 0 in
  for i = 0 to num_spins t - 1 do
    let d = delta t i in
    if d <= 0. || accept_uphill (Prng.bits53 rng) (beta *. d) then begin
      flip t i;
      incr accepted
    end
  done;
  !accepted

let metropolis_sweep t ~rng ~beta = sweep_at t rng beta

(* The schedule loop, here rather than in the sampler so each beta goes
   from the array into the inlined sweep without being boxed. After a
   sweep that accepted nothing, [frozen_at] the next beta means every
   remaining sweep rejects everything, provided no later beta is smaller:
   beta *. d then never falls back under the cutoff while no spin moves.
   The read ends there, and [on_sweep] still sees each skipped sweep with
   its unchanged energy. *)
let anneal t ~rng ~betas ?on_sweep ?stop () =
  let sweeps = Array.length betas in
  let stopped () = match stop with Some f -> f () | None -> false in
  let observe k accepted =
    match on_sweep with Some f -> f ~sweep:k ~energy:t.energy.(0) ~accepted | None -> ()
  in
  let k = ref 0 and settled = ref 0 in
  while !k < sweeps && not (stopped ()) do
    let accepted = sweep_at t rng (Array.unsafe_get betas !k) in
    observe !k accepted;
    incr k;
    if
      accepted = 0 && !k < sweeps
      && frozen_at t (Array.unsafe_get betas !k)
      && never_below betas !k
    then begin
      settled := sweeps - !k;
      if Option.is_some on_sweep then
        while !k < sweeps && not (stopped ()) do
          observe !k 0;
          incr k
        done;
      k := sweeps
    end
  done;
  !settled

let drift t = Float.abs (t.energy.(0) -. Ising.energy t.ising t.spins)

let reset t spins =
  check_length t.ising spins;
  t.spins <- spins;
  recompute t

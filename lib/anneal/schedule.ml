module Ising = Qsmt_qubo.Ising

type kind = Geometric | Linear
type t = { kind : kind; betas : float array }

let make ?(kind = Geometric) ~beta_hot ~beta_cold ~sweeps () =
  if sweeps < 1 then invalid_arg "Schedule.make: sweeps < 1";
  if beta_hot <= 0. || beta_cold <= 0. then invalid_arg "Schedule.make: beta must be positive";
  if beta_hot > beta_cold then invalid_arg "Schedule.make: beta_hot > beta_cold";
  let betas =
    if sweeps = 1 then [| beta_cold |]
    else begin
      let steps = float_of_int (sweeps - 1) in
      match kind with
      | Geometric ->
        let ratio = (beta_cold /. beta_hot) ** (1. /. steps) in
        Array.init sweeps (fun k -> beta_hot *. (ratio ** float_of_int k))
      | Linear ->
        let step = (beta_cold -. beta_hot) /. steps in
        Array.init sweeps (fun k -> beta_hot +. (step *. float_of_int k))
    end
  in
  { kind; betas }

let default_beta_range ising =
  let n = Ising.num_spins ising in
  if n = 0 then (0.1, 10.)
  else begin
    (* Largest possible |ΔE| for one spin flip: 2(|h_i| + Σ_j |J_ij|),
       maximized over i. Smallest: twice the smallest nonzero coefficient.
       Folds straight over the CSR row so deriving a schedule allocates
       nothing (no per-spin neighbor lists). *)
    let row_ptr, _, value = Ising.csr ising in
    let max_delta = ref 0. in
    for i = 0 to n - 1 do
      let reach = ref (Float.abs (Ising.field ising i)) in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        reach := !reach +. Float.abs value.(k)
      done;
      max_delta := Float.max !max_delta (2. *. !reach)
    done;
    if !max_delta = 0. then
      (* Every field and coupler is zero: flips never change the energy,
         so no schedule can be derived from the problem — keep the
         historical fallback. A coupler-only model (all fields zero but
         couplers present) does NOT land here: its row sums give a
         perfectly usable range. *)
      (0.1, 10.)
    else begin
      let min_delta = 2. *. Ising.min_abs_nonzero ising in
      let beta_hot = Float.log 2. /. !max_delta in
      let beta_cold = Float.log 100. /. min_delta in
      if beta_hot < beta_cold then (beta_hot, beta_cold) else (beta_cold /. 2., beta_cold)
    end
  end

let auto ?kind ~sweeps ising =
  let beta_hot, beta_cold = default_beta_range ising in
  make ?kind ~beta_hot ~beta_cold ~sweeps ()

let sweeps t = Array.length t.betas
let beta t k = t.betas.(k)
let betas t = Array.copy t.betas
let shared_betas t = t.betas
let kind t = t.kind

let pp ppf t =
  let name = match t.kind with Geometric -> "geometric" | Linear -> "linear" in
  Format.fprintf ppf "%s schedule: %d sweeps, beta %.4g -> %.4g" name (sweeps t) t.betas.(0)
    t.betas.(Array.length t.betas - 1)

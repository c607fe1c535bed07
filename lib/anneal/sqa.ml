module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  trotter : int;
  beta : float option;
  gamma_hot : float option;
  gamma_cold : float;
  seed : int;
  domains : int;
}

let default =
  {
    reads = 16;
    sweeps = 500;
    trotter = 8;
    beta = None;
    gamma_hot = None;
    gamma_cold = 1e-2;
    seed = 0;
    domains = 1;
  }

let spin_sign slice i = if Bitvec.get slice i then 1. else -1.

(* Inter-slice coupling strength at transverse field gamma. beta_slice is
   beta/P. The coupling enters the energy as -j_perp * s_{i,k} s_{i,k+1},
   so positive j_perp favors aligned world lines. *)
let j_perp ~beta_slice gamma =
  let t = Float.tanh (beta_slice *. gamma) in
  (* tanh is within (0,1) for positive arguments, so log is negative and
     j_perp positive; clamp guards against underflow at tiny gamma. *)
  let t = Float.max t 1e-300 in
  -0.5 /. beta_slice *. Float.log t

(* Packed path: the P Trotter slices of one read become the P lanes of a
   {!Multispin} state, so one CSR pass per site serves every slice. The
   inter-slice ring couples lane l to lanes l±1 (mod P), so flipping all
   lanes of a site at once is not a valid Metropolis move — adjacent
   slices' deltas depend on each other's current spins. We 2-color the
   ring and run the local moves in colored passes (even lanes, then odd);
   an odd P leaves the wrap lane P-1 adjacent to lane 0 of the same
   color, so it gets a third pass of its own. Within a pass no two
   updated lanes are coupled, so the word-wide decision is exact.

   The transverse-field delta needs each lane's agreement with its ring
   neighbors: rotating the packed word by one lane position (with
   wraparound inside the low P bits) aligns every lane's neighbor under
   its own bit, and XOR marks the disagreeing lanes — two rotations and
   two XORs replace 2P bit reads. *)
let run_read_packed ~ising ~params ~beta ~gamma_hot ?init ?stop ?on_sweep rng =
  let stopped () = match stop with Some f -> f () | None -> false in
  let n = Ising.num_spins ising in
  let p = params.trotter in
  let pf = float_of_int p in
  let beta_slice = beta /. pf in
  let start () =
    match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n
  in
  let ms = Multispin.create ising (Array.init p (fun _ -> start ())) in
  let dr = Multispin.draws rng in
  let all = Multispin.lane_mask ms in
  let even = ref 0L and odd = ref 0L in
  for l = 0 to p - 1 do
    let bit = Int64.shift_left 1L l in
    if l land 1 = 0 then even := Int64.logor !even bit else odd := Int64.logor !odd bit
  done;
  (* prebuilt options, so passing one to [decide] allocates nothing *)
  let passes =
    if p land 1 = 0 then [| Some !even; Some !odd |]
    else begin
      let wrap = Int64.shift_left 1L (p - 1) in
      [| Some (Int64.logand !even (Int64.lognot wrap)); Some !odd; Some wrap |]
    end
  in
  let betas = Array.make p beta in
  let deltas = Array.make p 0. in
  let ratio =
    if params.sweeps <= 1 then 1.
    else (params.gamma_cold /. gamma_hot) ** (1. /. float_of_int (params.sweeps - 1))
  in
  let gamma = ref gamma_hot in
  let sweep = ref 0 in
  while !sweep < params.sweeps && not (stopped ()) do
    let jp = j_perp ~beta_slice !gamma in
    let jp2 = 2. *. jp in
    (* Local moves: per site, each colored pass re-reads the word (earlier
       passes' flips must be visible) and decides its lanes at once. *)
    for i = 0 to n - 1 do
      for pass = 0 to Array.length passes - 1 do
        let only = passes.(pass) in
        let w = Multispin.word ms i in
        let up =
          Int64.logand
            (Int64.logor (Int64.shift_right_logical w 1) (Int64.shift_left w (p - 1)))
            all
        and down =
          Int64.logand
            (Int64.logor (Int64.shift_left w 1) (Int64.shift_right_logical w (p - 1)))
            all
        in
        let dis_up = Int64.logxor w up and dis_down = Int64.logxor w down in
        Multispin.deltas ms i deltas;
        for l = 0 to p - 1 do
          let au =
            if Int64.logand (Int64.shift_right_logical dis_up l) 1L = 0L then 1. else -1.
          and ad =
            if Int64.logand (Int64.shift_right_logical dis_down l) 1L = 0L then 1. else -1.
          in
          deltas.(l) <- (deltas.(l) /. pf) +. (jp2 *. (au +. ad))
        done;
        Multispin.decide ms ~draws:dr ?only ~betas deltas;
        ignore (Multispin.flip_decided ms i)
      done
    done;
    (* World-line moves: inter-slice terms cancel, the cost is the mean
       classical delta, and the accepted flip is one word-wide XOR. *)
    for i = 0 to n - 1 do
      Multispin.deltas ms i deltas;
      let d = ref 0. in
      for l = 0 to p - 1 do
        d := !d +. (deltas.(l) /. pf)
      done;
      if !d <= 0. || Fields.accept_uphill (Prng.bits53 rng) (beta *. !d) then
        Multispin.flip ms i all
    done;
    (match on_sweep with
    | None -> ()
    | Some f ->
      let lo = ref infinity and hi = ref neg_infinity in
      for l = 0 to p - 1 do
        let e = Multispin.energy ms l in
        if e < !lo then lo := e;
        if e > !hi then hi := e
      done;
      f ~sweep:!sweep ~gamma:!gamma ~best:!lo ~spread:(!hi -. !lo));
    gamma := !gamma *. ratio;
    incr sweep
  done;
  let bl = Multispin.best_lane ms in
  (Multispin.lane_spins ms bl, Multispin.energy ms bl)

let run_read ~ising ~params ~beta ~gamma_hot ?init ?stop ?on_sweep rng =
  let stopped () = match stop with Some f -> f () | None -> false in
  let n = Ising.num_spins ising in
  let p = params.trotter in
  let pf = float_of_int p in
  let beta_slice = beta /. pf in
  (* One incremental Fields state per Trotter slice: local moves read an
     O(1) cached delta, and the world-line move sums P cached deltas
     instead of rescanning P adjacency rows per variable. A warm start
     seeds every slice with the same assignment — a fully coherent world
     line, which is exactly the reverse-anneal starting condition. *)
  let start () =
    match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n
  in
  let slices = Array.init p (fun _ -> Fields.create ising (start ())) in
  (* Audited for the Pt single-step edge case: sweeps = 1 is guarded
     before the [sweeps - 1] divisor, so the ratio is never inf/NaN —
     gamma simply stays at gamma_hot for the only sweep. *)
  let ratio =
    if params.sweeps <= 1 then 1.
    else (params.gamma_cold /. gamma_hot) ** (1. /. float_of_int (params.sweeps - 1))
  in
  let gamma = ref gamma_hot in
  let sweep = ref 0 in
  while !sweep < params.sweeps && not (stopped ()) do
    let jp = j_perp ~beta_slice !gamma in
    (* Local moves: every (slice, spin). *)
    for k = 0 to p - 1 do
      let up = Fields.spins slices.((k + 1) mod p)
      and down = Fields.spins slices.((k + p - 1) mod p) in
      let slice = slices.(k) in
      let bits = Fields.spins slice in
      for i = 0 to n - 1 do
        let d_classical = Fields.delta slice i /. pf in
        let s = spin_sign bits i in
        let d_perp = 2. *. jp *. s *. (spin_sign up i +. spin_sign down i) in
        let delta = d_classical +. d_perp in
        if delta <= 0. || Fields.accept_uphill (Prng.bits53 rng) (beta *. delta) then
          Fields.flip slice i
      done
    done;
    (* World-line moves: flip variable i in every slice; inter-slice terms
       cancel, so the delta is the mean classical delta. *)
    for i = 0 to n - 1 do
      let delta = ref 0. in
      Array.iter (fun slice -> delta := !delta +. (Fields.delta slice i /. pf)) slices;
      if !delta <= 0. || Fields.accept_uphill (Prng.bits53 rng) (beta *. !delta) then
        Array.iter (fun slice -> Fields.flip slice i) slices
    done;
    (match on_sweep with
    | None -> ()
    | Some f ->
      (* Tracked classical energies of every slice: the spread between
         the best and worst world line is the replica-coherence signal
         SQA diagnostics watch. *)
      let lo = ref infinity and hi = ref neg_infinity in
      Array.iter
        (fun slice ->
          let e = Fields.energy slice in
          if e < !lo then lo := e;
          if e > !hi then hi := e)
        slices;
      f ~sweep:!sweep ~gamma:!gamma ~best:!lo ~spread:(!hi -. !lo));
    gamma := !gamma *. ratio;
    incr sweep
  done;
  (* Read out the best slice by (tracked) classical energy. *)
  let best = ref slices.(0) and best_e = ref (Fields.energy slices.(0)) in
  Array.iter
    (fun slice ->
      let e = Fields.energy slice in
      if e < !best_e then begin
        best_e := e;
        best := slice
      end)
    slices;
  (Fields.spins !best, !best_e)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Sqa.sample: reads < 1";
  if params.sweeps < 1 then invalid_arg "Sqa.sample: sweeps < 1";
  if params.trotter < 2 then invalid_arg "Sqa.sample: trotter < 2";
  if params.gamma_cold <= 0. then invalid_arg "Sqa.sample: gamma_cold <= 0";
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "Sqa.sample: init has %d bits, problem has %d vars" (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then Sampleset.of_bits q [ Bitvec.create 0 ]
  else begin
    let ising = Ising.of_qubo q in
    let beta =
      match params.beta with
      | Some b ->
        if b <= 0. then invalid_arg "Sqa.sample: beta <= 0";
        b
      | None -> snd (Schedule.default_beta_range ising)
    in
    let gamma_hot =
      match params.gamma_hot with
      | Some g ->
        if g < params.gamma_cold then invalid_arg "Sqa.sample: gamma_hot < gamma_cold";
        g
      | None -> Float.max 1. (3. *. Ising.max_abs_field ising)
    in
    let stopped () = match stop with Some f -> f () | None -> false in
    let tracked = Telemetry.enabled telemetry in
    let stride = Sa.sweep_stride params.sweeps in
    let run r =
      if stopped () then None
      else begin
        let rng = Prng.stream ~seed:params.seed r in
        let on_sweep =
          if not tracked then None
          else
            Some
              (fun ~sweep ~gamma ~best ~spread ->
                if sweep mod stride = 0 || sweep = params.sweeps - 1 then
                  Telemetry.emit telemetry "sqa.sweep"
                    [
                      ("read", Telemetry.Int r);
                      ("sweep", Telemetry.Int sweep);
                      ("gamma", Telemetry.Float gamma);
                      ("energy", Telemetry.Float best);
                      ("replica_spread", Telemetry.Float spread);
                    ])
        in
        let init = if r = 0 then init else None in
        (* Slices fit in one packed word up to 64; wider Trotter numbers
           keep the scalar per-slice states. *)
        let run_read =
          if params.trotter <= Multispin.max_lanes then run_read_packed else run_read
        in
        let ((bits, e) as sample) =
          run_read ~ising ~params ~beta ~gamma_hot ?init ?stop ?on_sweep rng
        in
        if tracked then begin
          Telemetry.count telemetry "sqa.reads" 1;
          Telemetry.count telemetry "sqa.sweeps" params.sweeps;
          Telemetry.observe telemetry "sqa.read_energy" e
        end;
        (match on_read with Some f -> f bits | None -> ());
        Some sample
      end
    in
    let t0 = if tracked then Qsmt_util.Mclock.now () else 0. in
    let samples = Parallel.init_array ~telemetry ~domains:params.domains params.reads run in
    if tracked then begin
      let done_reads =
        Array.fold_left (fun a s -> match s with Some _ -> a + 1 | None -> a) 0 samples
      in
      let sweeps_done = float_of_int (done_reads * params.sweeps) in
      (* one SQA sweep proposes a flip per spin per Trotter slice *)
      Sa.throughput_gauges telemetry ~name:"sqa" ~sweeps_done
        ~flips_done:(sweeps_done *. float_of_int (n * params.trotter))
        ~dt:(Qsmt_util.Mclock.now () -. t0)
    end;
    Sampleset.of_tracked q (List.filter_map Fun.id (Array.to_list samples))
  end

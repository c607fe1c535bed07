module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Mclock = Qsmt_util.Mclock
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  schedule : Schedule.t option;
  seed : int;
  domains : int;
  postprocess : bool;
}

let default = { reads = 32; sweeps = 1000; schedule = None; seed = 0; domains = 1; postprocess = false }

let read_rng ~seed r = Prng.stream ~seed r

(* The Metropolis loop over an already-built incremental state: O(1) per
   proposal, O(degree) per accepted flip. *)
let anneal_fields ~rng ~schedule ?on_sweep ?stop fields =
  let stopped () = match stop with Some f -> f () | None -> false in
  let k = ref 0 in
  let sweeps = Schedule.sweeps schedule in
  while !k < sweeps && not (stopped ()) do
    let accepted = Fields.metropolis_sweep fields ~rng ~beta:(Schedule.beta schedule !k) in
    (match on_sweep with
    | Some f -> f ~sweep:!k ~energy:(Fields.energy fields) ~accepted
    | None -> ());
    incr k
  done

let anneal_ising ~rng ~schedule ?init ?on_sweep ?stop ising =
  let n = Ising.num_spins ising in
  let spins = match init with Some s -> Bitvec.copy s | None -> Bitvec.random rng n in
  let fields = Fields.create ising spins in
  anneal_fields ~rng ~schedule ?on_sweep ?stop fields;
  (spins, Fields.energy fields)

let descend_fields fields =
  (* Steepest descent over cached deltas: picking the best move is an
     O(n) scan of O(1) reads instead of n adjacency-row rescans.
     Terminates because energy strictly decreases. *)
  let n = Fields.num_spins fields in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_i = ref (-1) and best_delta = ref 0. in
    for i = 0 to n - 1 do
      let d = Fields.delta fields i in
      if d < !best_delta then begin
        best_delta := d;
        best_i := i
      end
    done;
    if !best_i >= 0 then begin
      Fields.flip fields !best_i;
      improved := true
    end
  done

(* Strided sweep instrumentation: full trajectories at telemetry
   resolution would be reads x sweeps events; one event every
   [sweeps/32] sweeps (plus the final sweep) keeps traces readable while
   preserving the curve's shape. Shared by every sweep-loop sampler. *)
let sweep_stride sweeps = max 1 (sweeps / 32)

(* Post-run throughput gauges shared by the sweep-loop samplers:
   [<name>.sweeps_per_s] and [<name>.flips_per_s] (flips = attempted
   Metropolis proposals, sweeps × spins — the same convention the flip
   throughput bench uses). Nominal sweep counts: an early-exited read is
   charged its full budget, which overstates throughput by at most the
   truncated tail. *)
let throughput_gauges telemetry ~name ~sweeps_done ~flips_done ~dt =
  if dt > 0. && sweeps_done > 0. then begin
    Telemetry.gauge telemetry (name ^ ".sweeps_per_s") (sweeps_done /. dt);
    Telemetry.gauge telemetry (name ^ ".flips_per_s") (flips_done /. dt)
  end

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Sa.sample: reads < 1";
  if params.sweeps < 1 then invalid_arg "Sa.sample: sweeps < 1";
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "Sa.sample: init has %d bits, problem has %d vars" (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then Sampleset.of_bits q [ Bitvec.create 0 ]
  else begin
    let ising = Ising.of_qubo q in
    let schedule =
      match params.schedule with
      | Some s -> s
      | None -> Schedule.auto ~sweeps:params.sweeps ising
    in
    let stopped () = match stop with Some f -> f () | None -> false in
    let tracked = Telemetry.enabled telemetry in
    let sweeps = Schedule.sweeps schedule in
    let stride = sweep_stride sweeps in
    let run_read r =
      if stopped () then None
      else begin
        let rng = read_rng ~seed:params.seed r in
        (* Warm start: read 0 anneals from the caller's seed assignment
           (reverse-anneal style); the other reads stay random so the set
           retains diversity. *)
        let start =
          match init with
          | Some b when r = 0 -> Bitvec.copy b
          | _ -> Bitvec.random rng n
        in
        let fields = Fields.create ising start in
        let on_sweep =
          if not tracked then None
          else
            Some
              (fun ~sweep ~energy ~accepted ->
                if sweep mod stride = 0 || sweep = sweeps - 1 then
                  Telemetry.emit telemetry "sa.sweep"
                    [
                      ("read", Telemetry.Int r);
                      ("sweep", Telemetry.Int sweep);
                      ("beta", Telemetry.Float (Schedule.beta schedule sweep));
                      ("energy", Telemetry.Float energy);
                      ("acceptance", Telemetry.Float (float_of_int accepted /. float_of_int n));
                    ])
        in
        anneal_fields ~rng ~schedule ?on_sweep ?stop fields;
        if params.postprocess then descend_fields fields;
        let spins = Fields.spins fields in
        if tracked then begin
          Telemetry.count telemetry "sa.reads" 1;
          Telemetry.count telemetry "sa.sweeps" sweeps;
          Telemetry.observe telemetry "sa.read_energy" (Fields.energy fields)
        end;
        (match on_read with Some f -> f spins | None -> ());
        Some (spins, Fields.energy fields)
      end
    in
    let t0 = if tracked then Mclock.now () else 0. in
    let samples = Parallel.init_array ~telemetry ~domains:params.domains params.reads run_read in
    if tracked then begin
      let done_reads =
        Array.fold_left (fun a s -> match s with Some _ -> a + 1 | None -> a) 0 samples
      in
      let sweeps_done = float_of_int (done_reads * sweeps) in
      throughput_gauges telemetry ~name:"sa" ~sweeps_done
        ~flips_done:(sweeps_done *. float_of_int n) ~dt:(Mclock.now () -. t0)
    end;
    Sampleset.of_tracked q (List.filter_map Fun.id (Array.to_list samples))
  end

type packed_mode = Bucketed | Lockstep

let popcount64 w =
  let c = ref 0 in
  let m = ref w in
  while !m <> 0L do
    incr c;
    m := Int64.logand !m (Int64.sub !m 1L)
  done;
  !c

(* Multi-read SA over the packed kernel: reads are grouped 64 to a
   Multispin state, so one sweep's CSR traffic serves a whole group of
   reads. Starts come from the same per-read streams the scalar path
   uses, so the two paths explore from identical configurations; in
   [Lockstep] mode acceptance also consumes those streams with the
   scalar discipline and the decoded samples are bit-identical to
   {!sample}'s (postprocess off). [Bucketed] is the fast path: exact
   Metropolis marginals from a per-group bulk stream. *)
let run_packed ?(params = default) ?(mode = Bucketed) ?init ?stop ?on_read
    ?(telemetry = Telemetry.null) q =
  if params.reads < 1 then invalid_arg "Sa.run_packed: reads < 1";
  if params.sweeps < 1 then invalid_arg "Sa.run_packed: sweeps < 1";
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "Sa.run_packed: init has %d bits, problem has %d vars" (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then Sampleset.of_bits q [ Bitvec.create 0 ]
  else begin
    let ising = Ising.of_qubo q in
    let schedule =
      match params.schedule with
      | Some s -> s
      | None -> Schedule.auto ~sweeps:params.sweeps ising
    in
    let stopped () = match stop with Some f -> f () | None -> false in
    let tracked = Telemetry.enabled telemetry in
    let sweeps = Schedule.sweeps schedule in
    let stride = sweep_stride sweeps in
    let groups = (params.reads + Multispin.max_lanes - 1) / Multispin.max_lanes in
    let run_group g =
      if stopped () then None
      else begin
        let r0 = g * Multispin.max_lanes in
        let lanes = min Multispin.max_lanes (params.reads - r0) in
        (* Same per-read streams and warm-start rule as the scalar path:
           lane l of group g is read r0 + l. *)
        let rngs = Array.init lanes (fun l -> read_rng ~seed:params.seed (r0 + l)) in
        let starts =
          Array.init lanes (fun l ->
              match init with
              | Some b when r0 + l = 0 -> Bitvec.copy b
              | _ -> Bitvec.random rngs.(l) n)
        in
        let ms = Multispin.create ising starts in
        (* The bucketed accept path draws from one stream per group,
           disjoint from every per-read stream. *)
        let bulk_rng = read_rng ~seed:params.seed (params.reads + g) in
        let dr = Multispin.draws bulk_rng in
        let betas = Array.make lanes 0. in
        let deltas = Array.make lanes 0. in
        let k = ref 0 in
        while !k < sweeps && not (stopped ()) do
          let beta = Schedule.beta schedule !k in
          let accepted = ref 0 in
          (match mode with
          | Bucketed -> accepted := Multispin.metropolis_sweep ms ~draws:dr ~beta
          | Lockstep ->
            Array.fill betas 0 lanes beta;
            for i = 0 to n - 1 do
              Multispin.deltas ms i deltas;
              let mask = Multispin.accept_mask_lockstep ms ~rngs ~betas deltas in
              if mask <> 0L then begin
                Multispin.flip ms i mask;
                if tracked then accepted := !accepted + popcount64 mask
              end
            done);
          if tracked && (!k mod stride = 0 || !k = sweeps - 1) then
            Telemetry.emit telemetry "sa.packed_sweep"
              [
                ("group", Telemetry.Int g);
                ("lanes", Telemetry.Int lanes);
                ("sweep", Telemetry.Int !k);
                ("beta", Telemetry.Float beta);
                ("best_energy", Telemetry.Float (Multispin.energy ms (Multispin.best_lane ms)));
                ( "acceptance",
                  Telemetry.Float (float_of_int !accepted /. float_of_int (n * lanes)) );
              ];
          incr k
        done;
        let out =
          Array.init lanes (fun l ->
              let spins = Multispin.lane_spins ms l in
              let energy =
                if params.postprocess then begin
                  let fields = Fields.create ising spins in
                  descend_fields fields;
                  Fields.energy fields
                end
                else Multispin.energy ms l
              in
              (match on_read with Some f -> f spins | None -> ());
              (spins, energy))
        in
        if tracked then begin
          Telemetry.count telemetry "sa.reads" lanes;
          (* lane-sweeps, so packed and scalar throughput are comparable *)
          Telemetry.count telemetry "sa.sweeps" (sweeps * lanes);
          Array.iter (fun (_, e) -> Telemetry.observe telemetry "sa.read_energy" e) out
        end;
        Some out
      end
    in
    let t0 = if tracked then Mclock.now () else 0. in
    let packed = Parallel.init_array ~telemetry ~domains:params.domains groups run_group in
    if tracked then begin
      let done_lanes =
        Array.fold_left (fun a g -> match g with Some o -> a + Array.length o | None -> a) 0 packed
      in
      let sweeps_done = float_of_int (done_lanes * sweeps) in
      throughput_gauges telemetry ~name:"sa" ~sweeps_done
        ~flips_done:(sweeps_done *. float_of_int n) ~dt:(Mclock.now () -. t0)
    end;
    Sampleset.of_tracked q
      (List.concat_map
         (function None -> [] | Some a -> Array.to_list a)
         (Array.to_list packed))
  end

(* The bench ledger: every gated measurement of the repository, one
   section each, sharing one copy of the timing, JSON and gate plumbing
   (Qsmt_bench).

     kernel       flip throughput of the incremental local-field kernel
                  against the seed's CSR-row rescans (BENCH_2.json) and
                  the bit-parallel multi-spin kernel against 64 scalar
                  states (BENCH_8.json)
     chain-break  chain-break fraction vs chain strength on embedded
                  hardware (BENCH_3.json, ungated)
     incremental  push/pop re-solving, cold vs warm (BENCH_6.json)
     decompose    decomposition scaling past one embedding (BENCH_7.json)
     absint       pre-encode abstract interpretation: static decisions
                  and encoding shrink over Table 1 (BENCH_10.json)

   Everything is fixed-seed. Each section writes its BENCH_<n>.json in the
   current directory and runs its gates against that document and the
   committed full-run baseline under bench/baselines/; the run exits 1
   when any gate fails.

     dune exec bench/ledger.exe                    full run
     QSMT_BENCH_FAST=1 dune exec bench/ledger.exe  reduced (CI smoke) run *)

open Qsmt_bench
module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin
module Decompose = Qsmt_qubo.Decompose
module Preprocess = Qsmt_qubo.Preprocess
module Schedule = Qsmt_anneal.Schedule
module Topology = Qsmt_anneal.Topology
module Spinglass = Qsmt_anneal.Spinglass
module Sa = Qsmt_anneal.Sa
module Sampler = Qsmt_anneal.Sampler
module Sampleset = Qsmt_anneal.Sampleset
module Hardware = Qsmt_anneal.Hardware
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Absint = Qsmt_strtheory.Absint
module Solver = Qsmt_strtheory.Solver
module Incremental = Qsmt_strtheory.Incremental
module Workload = Qsmt_strtheory.Workload
module Rparser = Qsmt_regex.Parser

let banner title params =
  Format.printf "@.== %s%s (%s, seeds fixed)@." title (if fast then " [FAST]" else "") params

(* ================================================================== *)
(* kernel: the incremental local-field kernel (Qsmt_qubo.Fields) against
   the seed implementation's from-scratch CSR-row rescans, and the
   bit-parallel multi-replica kernel (Qsmt_qubo.Multispin), on the two
   landscape shapes that matter:

     - sparse Chimera-like spin glass (hardware-native, degree <= 6)
     - dense random QUBOs (>= 50% coupler density, the regime where an
       O(degree) rescan per proposal hurts most) *)

module Kernel = struct
  let kernel_sweeps = if fast then 60 else 250
  let seed = 9

  let dense_qubo ~seed ~n ~density =
    let rng = Prng.create seed in
    let b = Qubo.builder () in
    for i = 0 to n - 1 do
      Qubo.set b i i (float_of_int (Prng.int rng 7 - 3));
      for j = i + 1 to n - 1 do
        if Prng.float rng < density then
          Qubo.set b i j (float_of_int (1 + Prng.int rng 3) *. if Prng.bool rng then 1. else -1.)
      done
    done;
    Qubo.freeze ~num_vars:n b

  let instances =
    let chimera =
      let rng = Prng.create 42 in
      ( "chimera_m4_sparse",
        Spinglass.random_on_graph ~rng ~field:0.5 (Topology.graph (Topology.chimera ~m:4 ())) )
    in
    let dense128 = ("dense_p50_n128", dense_qubo ~seed:43 ~n:128 ~density:0.5) in
    let dense192 = ("dense_p75_n192", dense_qubo ~seed:44 ~n:192 ~density:0.75) in
    if fast then [ chimera; dense128 ] else [ chimera; dense128; dense192 ]

  (* --- Fields kernel: raw Metropolis proposals/sec, naive vs Fields,
     same seed, same schedule (BENCH_2). *)

  (* The seed SA inner loop: flip_delta rescans the CSR row per proposal. *)
  let naive_kernel ~rng ~schedule ising spins =
    let n = Ising.num_spins ising in
    for k = 0 to Schedule.sweeps schedule - 1 do
      let beta = Schedule.beta schedule k in
      for i = 0 to n - 1 do
        let delta = Ising.flip_delta ising spins i in
        if delta <= 0. || Prng.float rng < Float.exp (-.beta *. delta) then Bitvec.flip spins i
      done
    done

  (* The same loop through the incremental state: O(1) per proposal. *)
  let fields_kernel ~rng ~schedule fields =
    let n = Fields.num_spins fields in
    for k = 0 to Schedule.sweeps schedule - 1 do
      let beta = Schedule.beta schedule k in
      for i = 0 to n - 1 do
        let delta = Fields.delta fields i in
        if delta <= 0. || Prng.float rng < Float.exp (-.beta *. delta) then Fields.flip fields i
      done
    done

  let kernel_throughput ising =
    let n = Ising.num_spins ising in
    let schedule = Schedule.auto ~sweeps:kernel_sweeps ising in
    let proposals = float_of_int (kernel_sweeps * n) in
    let naive_t =
      best_of (fun () ->
          let rng = Prng.stream ~seed 0 in
          naive_kernel ~rng ~schedule ising (Bitvec.random rng n))
    in
    let fields_t =
      best_of (fun () ->
          let rng = Prng.stream ~seed 0 in
          fields_kernel ~rng ~schedule (Fields.create ising (Bitvec.random rng n)))
    in
    (proposals /. naive_t, proposals /. fields_t)

  let flip_row (name, q) =
    let ising = Ising.of_qubo q in
    let n = Qubo.num_vars q in
    let nnz = Qubo.num_interactions q in
    let density = float_of_int nnz /. (float_of_int (n * (n - 1)) /. 2.) in
    Format.printf "@.instance %s: n=%d couplers=%d density=%.1f%%@." name n nnz (100. *. density);
    let (naive_ps, fields_ps), gc = with_gc (fun () -> kernel_throughput ising) in
    Format.printf "  kernel: naive %.2fM props/s, fields %.2fM props/s, speedup %.2fx@."
      (naive_ps /. 1e6) (fields_ps /. 1e6) (fields_ps /. naive_ps);
    Format.printf "  gc: %.1fM minor words, %d major collections@." (gc.minor_words /. 1e6)
      gc.major_collections;
    obj
      [
        ("name", str name);
        ("n", int n);
        ("couplers", int nnz);
        ("density", num density);
        ( "kernel",
          obj
            [
              ("naive_proposals_per_sec", num naive_ps);
              ("fields_proposals_per_sec", num fields_ps);
              ("speedup", num (fields_ps /. naive_ps));
            ] );
        ("gc", gc_json gc);
      ]

  (* --- Multi-spin kernel: bit-parallel multi-replica coding (BENCH_8).

     The scalar side is 64 independent Fields states driven by the plain
     Metropolis loop; the packed side is one Multispin state whose fused
     sweep advances all 64 lanes per CSR pass. Both are measured at a
     fixed equilibrium beta (the cold end of the instance's default
     schedule), which isolates the kernel as above: at equilibrium the
     accept rate is low and the packed side's amortized proposal loop,
     bulk PRNG and shared exp calls dominate; in the hot phase both sides
     are bound by the identical per-accepted-flip field updates, which the
     full-schedule sampler comparison captures. *)

  let replica_lanes = Multispin.max_lanes
  let packed_sweeps = if fast then 40 else 150

  (* Both sides are warmed into equilibrium (state construction plus a
     burn-in from the random starts) before the timer starts: the
     equilibrium regime is what this measurement isolates, and the hot
     burn-in transient — where both kernels are bound by the same
     per-accepted-flip field updates — is the sampler comparison's job. *)
  let multispin_kernel_throughput ising =
    let n = Ising.num_spins ising in
    let beta = snd (Schedule.default_beta_range ising) in
    let warmup = packed_sweeps / 2 in
    let starts rng = Array.init replica_lanes (fun _ -> Bitvec.random rng n) in
    let timed build sweep =
      let best = ref infinity in
      for _ = 1 to 3 do
        let rng = Prng.stream ~seed 1 in
        let state = build rng in
        for _ = 1 to warmup do
          sweep rng state
        done;
        let t0 = now () in
        for _ = 1 to packed_sweeps do
          sweep rng state
        done;
        best := Float.min !best (now () -. t0)
      done;
      !best
    in
    let scalar_t =
      timed
        (fun rng -> Array.map (fun s -> Fields.create ising (Bitvec.copy s)) (starts rng))
        (fun rng fields ->
          Array.iter
            (fun f ->
              for i = 0 to n - 1 do
                let d = Fields.delta f i in
                if d <= 0. || Prng.float rng < Float.exp (-.beta *. d) then Fields.flip f i
              done)
            fields)
    in
    let packed_t =
      timed
        (fun rng ->
          let ms = Multispin.create ising (starts rng) in
          (ms, Multispin.draws rng))
        (fun _ (ms, dr) -> ignore (Multispin.metropolis_sweep ms ~draws:dr ~beta))
    in
    let rsweeps = float_of_int (packed_sweeps * replica_lanes) in
    (beta, rsweeps /. scalar_t, rsweeps /. packed_t)

  (* Full annealing schedule, 64 reads: Sa.sample (one read at a time)
     against Sa.run_packed (one packed group). run_packed's Bucketed mode
     draws differently, so only the times are compared, not the bits. *)
  let multispin_sampler_times q =
    let params = { Sa.default with Sa.reads = replica_lanes; sweeps = packed_sweeps * 2; seed } in
    let scalar_t = best_of (fun () -> ignore (Sa.sample ~params q)) in
    let packed_t = best_of (fun () -> ignore (Sa.run_packed ~params q)) in
    (scalar_t, packed_t)

  let packed_row (name, q) =
    let ising = Ising.of_qubo q in
    let (beta, scalar_rs, packed_rs, sampler_scalar_s, sampler_packed_s), gc =
      with_gc (fun () ->
          let beta, scalar_rs, packed_rs = multispin_kernel_throughput ising in
          let sampler_scalar_s, sampler_packed_s = multispin_sampler_times q in
          (beta, scalar_rs, packed_rs, sampler_scalar_s, sampler_packed_s))
    in
    Format.printf
      "  %-18s beta=%-6.2f scalar %7.0f rsweeps/s  packed %7.0f rsweeps/s  speedup %5.2fx  \
       (sampler %.2fx)@."
      name beta scalar_rs packed_rs (packed_rs /. scalar_rs)
      (sampler_scalar_s /. sampler_packed_s);
    obj
      [
        ("name", str name);
        ("n", int (Qubo.num_vars q));
        ("couplers", int (Qubo.num_interactions q));
        ( "kernel",
          obj
            [
              ("beta", num beta);
              ("scalar_replica_sweeps_per_sec", num scalar_rs);
              ("packed_replica_sweeps_per_sec", num packed_rs);
              ("speedup", num (packed_rs /. scalar_rs));
            ] );
        ( "sampler",
          obj
            [
              ("scalar_64_reads_s", num sampler_scalar_s);
              ("packed_64_reads_s", num sampler_packed_s);
              ("speedup", num (sampler_scalar_s /. sampler_packed_s));
            ] );
        ("gc", gc_json gc);
      ]

  let run () =
    banner "kernel: flip throughput" (Printf.sprintf "kernel_sweeps=%d, reps=3" kernel_sweeps);
    let flip =
      emit ~bench:"flip_throughput" ~number:2
        [
          ("kernel_sweeps", int kernel_sweeps);
          ("instances", Telemetry.J_list (List.map flip_row instances));
        ]
    in
    Format.printf "@.multi-spin kernel (%d lanes, fixed-beta sweeps=%d)@." replica_lanes
      packed_sweeps;
    let packed =
      emit ~bench:"multispin_throughput" ~number:8
        [
          ("lanes", int replica_lanes);
          ("fixed_beta_sweeps", int packed_sweeps);
          ("instances", Telemetry.J_list (List.map packed_row instances));
        ]
    in
    [
      ("BENCH_2.json", kernel_gate flip ~baseline:(read "bench/baselines/BENCH_2.json"));
      ("BENCH_8.json", packed_gate packed);
    ]
end

(* ================================================================== *)
(* chain-break: chain-break fraction vs chain strength on embedded
   hardware.

   The chain penalty is the one free parameter a QPU submission must get
   right: too weak and chains break (majority-vote garbage), too strong
   and it drowns the logical energy scale (ground-state probability
   collapses). This sweeps the strength at fixed topology over the
   densest Table-1 constraint (Includes — a complete interaction graph,
   hence the longest chains) and records the trade-off curve, plus what
   the adaptive escalation loop picks when left to its own devices. *)

module Chain_break = struct
  let reads = if fast then 16 else 64
  let sweeps = if fast then 300 else 1000

  let instances =
    [
      ("includes-k7", Constr.Includes { haystack = "hello world"; needle = "world" });
      ("includes-k7-dense", Constr.Includes { haystack = "abcabcabc"; needle = "abc" });
      ("palindrome-6", Constr.Palindrome { length = 6 });
    ]

  let strengths =
    if fast then [ 0.25; 1.0; 8.0 ] else [ 0.125; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ]

  let run_instance (name, constr) =
    let qubo = Compile.to_qubo constr in
    let topology = Hardware.auto_topology ~seed:5 ~kind:`Chimera qubo in
    let base =
      { (Hardware.default_params topology) with
        Hardware.embed_tries = 64;
        anneal = { Sa.default with Sa.seed = 5; reads; sweeps }
      }
    in
    Format.printf "@.%s: %s on %s@." name (Constr.describe constr) (Topology.name topology);
    Format.printf "%10s %8s %9s %9s@." "strength" "breaks" "groundP" "verified";
    let measure params =
      let r = Hardware.sample ~params qubo in
      let s = r.Hardware.stats in
      let verified =
        Constr.verify constr
          (Compile.decode constr (Sampleset.best r.Hardware.samples).Sampleset.bits)
      in
      (s, Sampleset.ground_probability r.Hardware.samples ~tol:1e-9, verified)
    in
    let points =
      List.map
        (fun strength ->
          (* pinned strength: escalation off, we want the raw curve *)
          let s, ground_p, verified =
            measure { base with Hardware.chain_strength = Some strength; max_escalations = 0 }
          in
          Format.printf "%10.3f %7.1f%% %8.1f%% %9s@." strength
            (100. *. s.Hardware.mean_chain_break_fraction)
            (100. *. ground_p)
            (if verified then "yes" else "no");
          obj
            [
              ("strength", num strength);
              ("break_fraction", num s.Hardware.mean_chain_break_fraction);
              ("ground_p", num ground_p);
              ("verified", bool verified);
            ])
        strengths
    in
    let s, _, _ = measure base in
    Format.printf "adaptive: strength %g after %d escalations, breaks %.1f%%%s@."
      s.Hardware.chain_strength s.Hardware.escalations
      (100. *. s.Hardware.mean_chain_break_fraction)
      (if s.Hardware.degraded <> None then " DEGRADED" else "");
    obj
      [
        ("name", str name);
        ("topology", str s.Hardware.topology);
        ("logical_vars", int (Qubo.num_vars qubo));
        ("qubits_used", int s.Hardware.qubits_used);
        ("max_chain", int s.Hardware.max_chain_length);
        ("sweep", Telemetry.J_list points);
        ( "adaptive",
          obj
            [
              ("strength", num s.Hardware.chain_strength);
              ("break_fraction", num s.Hardware.mean_chain_break_fraction);
              ("escalations", int s.Hardware.escalations);
              ("degraded", bool (s.Hardware.degraded <> None));
            ] );
      ]

  let run () =
    banner "chain-break" (Printf.sprintf "reads=%d, sweeps=%d" reads sweeps);
    ignore
      (emit ~bench:"chain_break" ~number:3
         [
           ("reads", int reads);
           ("sweeps", int sweeps);
           ("instances", Telemetry.J_list (List.map run_instance instances));
         ]);
    []
end

(* ================================================================== *)
(* incremental: push/pop re-solving, cold vs warm.

   The push/pop workload re-checks near-identical queries. This measures
   the tiers a session can answer from, against solving the same query
   from scratch each time:

   - cold      : fresh session, full encode + merge + anneal
   - warm push : extend a solved conjunction (delta-patched QUBO, anneal
                 warm-started from the previous best sample with
                 verified-read early exit)
   - warm pop  : retract back to a solved prefix (the cached model still
                 verifies, so no sampling happens at all)

   The pop tier is the headline, gated at >= 5x the cold solve of the
   same prefix. *)

module Incremental_tiers = struct
  let reads = if fast then 8 else 32
  let sweeps = if fast then 200 else 800
  let trials = if fast then 3 else 10

  let sampler =
    Sampler.simulated_annealing ~params:{ Sa.default with Sa.reads; sweeps; seed = 11 } ()

  (* prefix conjunction, then the conjunct push adds *)
  let scenarios =
    [
      ( "equals-contains-6",
        [ Constr.Equals "banana" ],
        [ Constr.Contains { length = 6; substring = "an" } ] );
      ( "palindrome-contains-6",
        [ Constr.Palindrome { length = 6 } ],
        [ Constr.Contains { length = 6; substring = "ab" } ] );
      ( "regex-contains-6",
        [ Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 6 } ],
        [ Constr.Contains { length = 6; substring = "cb" } ] );
    ]

  let speedup ~cold ~warm = cold /. Float.max warm 1e-9

  let run_scenario (name, prefix, ext) =
    let full = prefix @ ext in
    let fresh () = Incremental.create ~sampler () in
    let solve s cs =
      match Incremental.solve_joint s cs with
      | Ok o -> o
      | Error e -> failwith (name ^ ": " ^ e)
    in
    let cold cs = mean (List.init trials (fun _ -> fst (time (fun () -> solve (fresh ()) cs)))) in
    let cold_prefix_s = cold prefix in
    let cold_full_s = cold full in
    let warm_push_s =
      mean
        (List.init trials (fun _ ->
             let s = fresh () in
             ignore (solve s prefix);
             fst (time (fun () -> solve s full))))
    in
    let pop_sat = ref false in
    let warm_pop_s =
      mean
        (List.init trials (fun _ ->
             let s = fresh () in
             ignore (solve s full);
             let dt, o = time (fun () -> solve s prefix) in
             pop_sat := o.Qsmt_strtheory.Joint.satisfied;
             dt))
    in
    let push_speedup = speedup ~cold:cold_full_s ~warm:warm_push_s in
    let pop_speedup = speedup ~cold:cold_prefix_s ~warm:warm_pop_s in
    Format.printf "%-24s cold %8.2fms | push %8.2fms (%5.1fx) | pop %8.3fms (%5.1fx)%s@." name
      (1e3 *. cold_full_s) (1e3 *. warm_push_s) push_speedup (1e3 *. warm_pop_s) pop_speedup
      (if !pop_sat then "" else " [pop not sat]");
    ( pop_speedup,
      obj
        [
          ("name", str name);
          ("cold_prefix_s", num cold_prefix_s);
          ("cold_full_s", num cold_full_s);
          ("warm_push_s", num warm_push_s);
          ("push_speedup", num push_speedup);
          ("warm_pop_s", num warm_pop_s);
          ("pop_speedup", num pop_speedup);
          ("pop_sat", bool !pop_sat);
        ] )

  let run () =
    banner "incremental re-solve"
      (Printf.sprintf "reads=%d, sweeps=%d, trials=%d" reads sweeps trials);
    let speedups, rows = List.split (List.map run_scenario scenarios) in
    let headline = List.fold_left Float.max 0. speedups in
    Format.printf "headline pop speedup: %.1fx@." headline;
    let doc =
      emit ~bench:"incremental" ~number:6
        [
          ("reads", int reads);
          ("sweeps", int sweeps);
          ("trials", int trials);
          ("scenarios", Telemetry.J_list rows);
          ("headline_pop_speedup", num headline);
        ]
    in
    [ ("BENCH_6.json", incremental_gate doc) ]
end

(* ================================================================== *)
(* decompose: decomposition scaling past one embedding.

   Every other section stops where one sampler call stops — the largest
   Table-1 instance (palindrome-6, 42 logical variables). This scales the
   palindrome family to 4x that size, solving each instance two ways
   with the same SA budget: whole-problem (one sampler call over all
   variables) and decomposed (qbsolv-style shards of at most 42
   variables, solved concurrently over the domain pool, boundaries
   iterated to convergence). Recorded per instance: shard/round/accept
   counts from the decomp telemetry, both best energies and wall times,
   whether the decoded value verifies, and whether the stitched energy
   re-prices bit-exactly (the string encodings' coefficients are dyadic;
   a mismatch means the incremental pricing broke). *)

module Decomposition = struct
  let reads = if fast then 8 else 32
  let sweeps = if fast then 300 else 1000
  let subsize = 42 (* the largest single embedding the Table-1 suite uses *)

  let instances =
    [
      (* fits one shard: the decomposed path must fall back (identical work) *)
      ("palindrome-6", Constr.Palindrome { length = 6 });
      ("palindrome-12", Constr.Palindrome { length = 12 });
      ("palindrome-18", Constr.Palindrome { length = 18 });
      (* the acceptance instance: 4x the largest single embedding *)
      ("palindrome-24", Constr.Palindrome { length = 24 });
    ]

  let sa_sampler () =
    Sampler.simulated_annealing ~params:{ Sa.default with Sa.seed = 5; reads; sweeps } ()

  let counter t name = Option.value ~default:0 (Telemetry.find_counter t name)

  let run_instance (name, constr) =
    let qubo = Compile.to_qubo constr in
    let whole_s, whole = time (fun () -> Sampler.run (sa_sampler ()) qubo) in
    let whole_energy = Sampleset.lowest_energy whole in
    let t = Telemetry.aggregate_only () in
    let decomposed =
      Sampler.decomposed
        ~params:{ Decompose.default with Decompose.subsize; seed = 5 }
        (sa_sampler ())
    in
    let decomp_s, samples = time (fun () -> Sampler.run ~telemetry:t decomposed qubo) in
    let best = Sampleset.best samples in
    let verified = Constr.verify constr (Compile.decode constr best.Sampleset.bits) in
    let fallback = counter t "decomp.fallback" > 0 in
    let shards = counter t "decomp.shards" and rounds = counter t "decomp.rounds" in
    Format.printf
      "%-14s %4d vars %2d shards %2d rounds  whole %8.1f (%6.1fms)  decomp %8.1f (%6.1fms) %s%s@."
      name (Qubo.num_vars qubo) shards rounds whole_energy (1e3 *. whole_s) best.Sampleset.energy
      (1e3 *. decomp_s)
      (if verified then "verified" else "NOT-VERIFIED")
      (if fallback then " [fallback]" else "");
    obj
      [
        ("name", str name);
        ("vars", int (Qubo.num_vars qubo));
        ("shards", int shards);
        ("rounds", int rounds);
        ("accepted", int (counter t "decomp.accepted"));
        ("fallback", bool fallback);
        ("whole_energy", num whole_energy);
        ("whole_s", num whole_s);
        ("decomp_energy", num best.Sampleset.energy);
        ("decomp_s", num decomp_s);
        ("verified", bool verified);
        (* the reprice_mismatch counter fires exactly when stitching was
           not bit-exact; fallback runs never stitch *)
        ("bit_exact", bool (counter t "decomp.reprice_mismatch" = 0));
      ]

  let run () =
    banner "decomposition scaling"
      (Printf.sprintf "reads=%d, sweeps=%d, subsize=%d" reads sweeps subsize);
    let doc =
      emit ~bench:"decompose" ~number:7
        [
          ("reads", int reads);
          ("sweeps", int sweeps);
          ("subsize", int subsize);
          ("instances", Telemetry.J_list (List.map run_instance instances));
        ]
    in
    [ ("BENCH_7.json", decompose_gate doc ~baseline:(read "bench/baselines/BENCH_7.json")) ]
end

(* ================================================================== *)
(* absint: pre-encode abstract interpretation over the Table 1 corpus
   (plus a seeded workload). For every instance the annealed search space
   is compared with and without the absint pass:

   - statically decided instances (verdict sat/unsat) anneal zero
     variables — the whole QUBO evaporates;
   - undecided instances anneal only the residual left after clamping
     the statically-forced codec bits ({!Qsmt_qubo.Preprocess.clamp});
   - every solve still goes through the classical verifier, and each
     fixed-seed row must come back satisfied, so the shrink never costs
     an answer.

   The headline is the aggregate logical-variable reduction across the
   corpus (sum of annealed variables, absint on vs off). *)

module Absint_shrink = struct
  let reads = if fast then 8 else 32
  let sweeps = if fast then 200 else 1000
  let trials = if fast then 2 else 5

  let sampler =
    Sampler.simulated_annealing ~params:{ Sa.default with Sa.reads; sweeps; seed = 0 } ()

  let table1 =
    [
      Constr.Reverse "hello";
      Constr.Palindrome { length = 6 };
      Constr.Regex { pattern = Rparser.parse_exn "a[bc]+"; length = 5 };
      Constr.Concat [ "hello"; " "; "world" ];
      Constr.Index_of { length = 6; substring = "hi"; index = 2 };
      Constr.Includes { haystack = "hello world"; needle = "world" };
    ]

  let corpus = table1 @ Workload.suite ~seed:7 ~max_length:6 ~count:4 ()

  let run_instance c =
    let name = Constr.describe c in
    let vars = Constr.num_vars c in
    let verdict, annealed =
      match Absint.analyze [ c ] with
      | Ok { Absint.verdict = Absint.V_sat _; _ } -> ("sat", 0)
      | Ok { Absint.verdict = Absint.V_unsat _; _ } -> ("unsat", 0)
      | Ok ({ Absint.verdict = Absint.V_undecided; _ } as a) -> begin
        match Absint.forced_bits a with
        | [] -> ("undecided", vars)
        | forced ->
          let red = Preprocess.clamp (Compile.to_qubo c) forced in
          ("undecided", Preprocess.num_free red)
      end
      | Error _ -> ("n/a", vars)
    in
    let solve absint = Solver.solve ~sampler ~absint c in
    let off_s = mean (List.init trials (fun _ -> fst (time (fun () -> solve `Off)))) in
    let on_s, outcome =
      let samples = List.init trials (fun _ -> time (fun () -> solve `On)) in
      (mean (List.map fst samples), snd (List.hd samples))
    in
    (* a static unsat is a correct answer too: the row only fails when the
       solver neither satisfied the constraint nor proved it unsatisfiable *)
    let sat =
      outcome.Solver.satisfied
      ||
      match outcome.Solver.decided with
      | Some { Absint.verdict = Absint.V_unsat _; _ } -> true
      | _ -> false
    in
    Format.printf "%-44s %-9s vars %3d -> %3d | off %7.2fms on %7.2fms%s@." name verdict vars
      annealed (1e3 *. off_s) (1e3 *. on_s)
      (if sat then "" else " [NOT SAT]");
    ( (vars, annealed),
      obj
        [
          ("name", str name);
          ("verdict", str verdict);
          ("vars", int vars);
          ("annealed", int annealed);
          ("off_s", num off_s);
          ("on_s", num on_s);
          ("sat", bool sat);
        ] )

  let run () =
    banner "absint shrink" (Printf.sprintf "reads=%d, sweeps=%d, trials=%d" reads sweeps trials);
    let counts, rows = List.split (List.map run_instance corpus) in
    let full = List.fold_left (fun acc (v, _) -> acc + v) 0 counts in
    let annealed = List.fold_left (fun acc (_, a) -> acc + a) 0 counts in
    let reduction = 1. -. (float_of_int annealed /. float_of_int (max full 1)) in
    Format.printf "logical variables annealed: %d of %d (%.1f%% reduction)@." annealed full
      (100. *. reduction);
    let doc =
      emit ~bench:"absint" ~number:10
        [
          ("reads", int reads);
          ("sweeps", int sweeps);
          ("trials", int trials);
          ("rows", Telemetry.J_list rows);
          ("headline_var_reduction", num reduction);
        ]
    in
    [ ("BENCH_10.json", absint_gate doc) ]
end

(* ================================================================== *)

let () =
  let gates =
    List.concat_map
      (fun run -> run ())
      [ Kernel.run; Chain_break.run; Incremental_tiers.run; Decomposition.run; Absint_shrink.run ]
  in
  Format.printf "@.== gates@.";
  let failures =
    List.concat_map
      (fun (file, checks) ->
        Format.printf "%s@." file;
        List.filter_map
          (fun c ->
            Format.printf "  %-4s %s@." (if c.ok then "ok" else "FAIL") c.what;
            if c.ok then None else Some (file ^ ": " ^ c.what))
          checks)
      gates
  in
  if failures <> [] then begin
    Format.printf "@.BENCH GATE FAILURES:@.";
    List.iter (fun f -> Format.printf "  %s@." f) failures;
    exit 1
  end

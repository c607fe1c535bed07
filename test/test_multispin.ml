(* The bit-parallel multi-replica kernel (Qsmt_qubo.Multispin) against
   its scalar oracle (Qsmt_qubo.Fields):

   - property tests drive random flip-mask sequences through a packed
     state next to one scalar Fields state per lane and require bitwise
     identical spins, fields, deltas and energies (the float-exactness
     contract from multispin.mli);
   - the bucketed accept path's marginals are checked against the
     closed-form min(1, exp(-beta*delta)) at a grid of deltas;
   - Sa.run_packed in Lockstep mode must return sample-identical sets to
     Sa.sample from the same seed, including tail-lane groups (reads not
     a multiple of 64) and a single read;
   - drift/refresh parity with the scalar kernel, and the refresh_every
     validation shared by both kernels. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Qgraph = Qsmt_qubo.Qgraph
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin
module Sa = Qsmt_anneal.Sa
module Sampleset = Qsmt_anneal.Sampleset
module Spinglass = Qsmt_anneal.Spinglass

(* ------------------------------------------------------------------ *)
(* instances *)

let random_ising ~seed ~n ~density =
  let rng = Prng.create seed in
  let g = Qgraph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Prng.float rng < density then Qgraph.add_edge g i j
    done
  done;
  let q = Spinglass.random_on_graph ~rng ~coupling:Spinglass.Gaussian ~field:0.3 g in
  (q, Ising.of_qubo q)

let gen_case =
  QCheck.make ~print:(fun (seed, n, density, lanes) ->
      Printf.sprintf "seed=%d n=%d density=%.2f lanes=%d" seed n density lanes)
    QCheck.Gen.(
      let* seed = int_bound 1000 in
      let* n = int_range 2 40 in
      let* density = float_range 0.05 0.9 in
      let* lanes = int_range 1 Multispin.max_lanes in
      return (seed, n, density, lanes))

let qtest ~count name gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* packed kernel vs per-lane scalar Fields oracle *)

let oracle_parity (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 1) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  let oracle = Array.map (fun s -> Fields.create ising (Bitvec.copy s)) starts in
  let check_all step =
    for l = 0 to lanes - 1 do
      let f = oracle.(l) in
      if Multispin.energy ms l <> Fields.energy f then
        QCheck.Test.fail_reportf "energy diverged at step %d lane %d: %h <> %h" step l
          (Multispin.energy ms l) (Fields.energy f);
      if not (Bitvec.equal (Multispin.lane_spins ms l) (Fields.spins f)) then
        QCheck.Test.fail_reportf "spins diverged at step %d lane %d" step l;
      for i = 0 to n - 1 do
        if Multispin.field ms i l <> Fields.field f i then
          QCheck.Test.fail_reportf "field diverged at step %d lane %d site %d" step l i;
        if Multispin.delta ms i l <> Fields.delta f i then
          QCheck.Test.fail_reportf "delta diverged at step %d lane %d site %d" step l i
      done
    done
  in
  check_all (-1);
  for step = 0 to 99 do
    let i = Prng.int rng n in
    let mask = Int64.of_int (Prng.int rng (1 lsl min lanes 30)) in
    Multispin.flip ms i mask;
    for l = 0 to lanes - 1 do
      if Int64.logand (Int64.shift_right_logical mask l) 1L = 1L then Fields.flip oracle.(l) i
    done;
    check_all step
  done;
  true

(* The packed word at a site must read back each lane's bit. *)
let word_readback (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 2) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  for i = 0 to n - 1 do
    let w = Multispin.word ms i in
    if Int64.logand w (Int64.lognot (Multispin.lane_mask ms)) <> 0L then
      QCheck.Test.fail_reportf "tail bits set at site %d" i;
    for l = 0 to lanes - 1 do
      let bit = Int64.logand (Int64.shift_right_logical w l) 1L = 1L in
      if bit <> Bitvec.get starts.(l) i then
        QCheck.Test.fail_reportf "word bit mismatch at site %d lane %d" i l
    done
  done;
  true

let drift_refresh_parity (seed, n, density, lanes) =
  let _, ising = random_ising ~seed ~n ~density in
  let rng = Prng.create (seed + 3) in
  let starts = Array.init lanes (fun _ -> Bitvec.random rng n) in
  let ms = Multispin.create ising starts in
  for _ = 0 to 199 do
    Multispin.flip ms (Prng.int rng n) (Int64.of_int (Prng.int rng (1 lsl min lanes 30)))
  done;
  (* Tracked state follows the scalar op order exactly, so with dyadic
     or not, drift against a fresh recompute stays tiny; refresh must
     zero it. *)
  if Multispin.drift ms > 1e-6 then
    QCheck.Test.fail_reportf "drift %g after 200 masked flips" (Multispin.drift ms);
  Multispin.refresh ms;
  if Multispin.drift ms <> 0. then
    QCheck.Test.fail_reportf "drift %g after refresh" (Multispin.drift ms);
  true

let kernel_props =
  [
    qtest ~count:60 "packed tracks per-lane scalar Fields bitwise" gen_case oracle_parity;
    qtest ~count:60 "packed words read back lane spins" gen_case word_readback;
    qtest ~count:40 "drift stays tiny; refresh zeroes it" gen_case drift_refresh_parity;
  ]

(* ------------------------------------------------------------------ *)
(* bucketed accept marginals *)

let marginal_exactness () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 42 in
  let dr = Multispin.draws rng in
  let trials = 30000 in
  List.iter
    (fun x ->
      let ms = Multispin.create ising (Array.init 64 (fun _ -> Bitvec.create 1)) in
      let betas = Array.make 64 1.0 in
      let deltas = Array.make 64 x in
      let count = ref 0 in
      for _ = 1 to trials do
        let m = Multispin.accept_mask ms ~draws:dr ~betas deltas in
        let c = ref 0 and w = ref m in
        while !w <> 0L do
          incr c;
          w := Int64.logand !w (Int64.sub !w 1L)
        done;
        count := !count + !c
      done;
      let freq = float_of_int !count /. float_of_int (trials * 64) in
      let expect = Float.exp (-.x) in
      (* 64*30000 lane-draws: a 5-sigma band on the binomial proportion. *)
      let sigma = Float.sqrt (expect *. (1. -. expect) /. float_of_int (trials * 64)) in
      if Float.abs (freq -. expect) > (5. *. sigma) +. 1e-9 then
        Alcotest.failf "accept marginal at x=%g: observed %.5f, expected %.5f (sigma %.5f)" x freq
          expect sigma)
    [ 0.05; 0.3; 0.6931; 1.5; 3.0; 8.0 ]

let downhill_always_accepts () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 7 in
  let dr = Multispin.draws rng in
  let ms = Multispin.create ising (Array.init 5 (fun _ -> Bitvec.create 1)) in
  let betas = Array.make 5 2.0 in
  let deltas = [| -1.0; 0.; -0.5; 1e9; -0.1 |] in
  for _ = 1 to 100 do
    let m = Multispin.accept_mask ms ~draws:dr ~betas deltas in
    Alcotest.(check int64) "downhill lanes accept, the huge-uphill lane never does" 0b10111L
      (Int64.logor m 0b00111L)
  done

let only_restricts () =
  let b = Qubo.builder () in
  Qubo.add b 0 0 1.0;
  let q = Qubo.freeze b in
  let ising = Ising.of_qubo q in
  let rng = Prng.create 8 in
  let dr = Multispin.draws rng in
  let ms = Multispin.create ising (Array.init 8 (fun _ -> Bitvec.create 1)) in
  let betas = Array.make 8 1.0 in
  let deltas = Array.make 8 (-1.) in
  for _ = 1 to 50 do
    let m = Multispin.accept_mask ms ~draws:dr ~only:0b1010L ~betas deltas in
    Alcotest.(check int64) "only-masked lanes decide" 0b1010L m
  done

let accept_units =
  [
    Alcotest.test_case "bucketed marginals are exact Metropolis" `Slow marginal_exactness;
    Alcotest.test_case "downhill always accepts" `Quick downhill_always_accepts;
    Alcotest.test_case "only restricts the decision" `Quick only_restricts;
  ]

(* ------------------------------------------------------------------ *)
(* Sa.run_packed: lockstep sample parity, tail lanes, postprocess *)

let sample_parity ?(mode = Sa.Lockstep) ~reads ~sweeps ~seed q =
  let params = { Sa.default with Sa.reads; sweeps; seed } in
  let scalar = Sa.sample ~params q in
  let packed = Sa.run_packed ~params ~mode q in
  let entries s =
    List.map
      (fun e -> (Bitvec.to_string e.Sampleset.bits, e.Sampleset.energy, e.Sampleset.occurrences))
      (Sampleset.entries s)
  in
  Alcotest.(check (list (triple string (float 0.) int)))
    (Printf.sprintf "reads=%d sample parity" reads)
    (entries scalar) (entries packed)

let lockstep_parity () =
  let q, _ = random_ising ~seed:5 ~n:48 ~density:0.3 in
  (* 70 reads: one full group and a 6-lane tail. 1 read: a single lane.
     64: exactly one full group. *)
  List.iter (fun reads -> sample_parity ~reads ~sweeps:60 ~seed:3 q) [ 1; 7; 64; 70 ];
  (* Coupled pairs plus a free spin: factorizable from 4 reads on, where
     both packed modes take the scalar closed form. *)
  let b = Qubo.builder () in
  for k = 0 to 9 do
    Qubo.add b (2 * k) (2 * k) (if k mod 2 = 0 then -1. else 0.5);
    Qubo.add b (2 * k) ((2 * k) + 1) (if k mod 3 = 0 then 2. else -1.5)
  done;
  let pairs = Qubo.freeze ~num_vars:21 b in
  List.iter
    (fun mode -> List.iter (fun reads -> sample_parity ~mode ~reads ~sweeps:60 ~seed:3 pairs) [ 4; 70 ])
    [ Sa.Lockstep; Sa.Bucketed ]

let postprocess_parity () =
  let q, _ = random_ising ~seed:6 ~n:40 ~density:0.4 in
  let params = { Sa.default with Sa.reads = 20; sweeps = 40; seed = 4; postprocess = true } in
  let scalar = Sa.sample ~params q in
  let packed = Sa.run_packed ~params ~mode:Sa.Lockstep q in
  (* The scalar path descends the Fields state carried through the
     anneal; the packed path descends a fresh state built from the
     decoded lane — same assignment, ulp-different accumulators. *)
  Alcotest.(check (float 1e-9))
    "postprocessed best energies agree" (Sampleset.lowest_energy scalar)
    (Sampleset.lowest_energy packed)

let bucketed_tracked_energies () =
  (* The fast path draws differently, so only invariants are checked:
     every read present, every tracked energy = full recompute. *)
  let q, _ = random_ising ~seed:9 ~n:40 ~density:0.4 in
  let params = { Sa.default with Sa.reads = 70; sweeps = 50; seed = 2 } in
  let ss = Sa.run_packed ~params q in
  Alcotest.(check int) "all reads decoded" 70 (Sampleset.total_reads ss);
  List.iter
    (fun e ->
      let recomputed = Qubo.energy q e.Sampleset.bits in
      if Float.abs (e.Sampleset.energy -. recomputed) > 1e-9 then
        Alcotest.failf "tracked energy %.12g, recomputed %.12g" e.Sampleset.energy recomputed)
    (Sampleset.entries ss)

let of_multispin_roundtrip () =
  let q, ising = random_ising ~seed:10 ~n:30 ~density:0.5 in
  let rng = Prng.create 11 in
  let starts = Array.init 10 (fun _ -> Bitvec.random rng 30) in
  let ms = Multispin.create ising starts in
  let ss = Sampleset.of_multispin q ms in
  Alcotest.(check int) "one read per lane" 10 (Sampleset.total_reads ss);
  List.iter
    (fun e ->
      if Float.abs (e.Sampleset.energy -. Qubo.energy q e.Sampleset.bits) > 1e-9 then
        Alcotest.failf "of_multispin energy mismatch")
    (Sampleset.entries ss)

let run_packed_units =
  [
    Alcotest.test_case "lockstep run_packed = scalar sample (incl. tail lanes)" `Quick
      lockstep_parity;
    Alcotest.test_case "postprocess descends to the same best" `Quick postprocess_parity;
    Alcotest.test_case "bucketed path: reads + tracked energies" `Quick bucketed_tracked_energies;
    Alcotest.test_case "Sampleset.of_multispin decodes every lane" `Quick of_multispin_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* validation *)

let invalid_arg_of f = try ignore (f ()); None with Invalid_argument m -> Some m

let validation_units =
  let mk_ising () = snd (random_ising ~seed:20 ~n:8 ~density:0.5) in
  let starts lanes n =
    let rng = Prng.create 21 in
    Array.init lanes (fun _ -> Bitvec.random rng n)
  in
  [
    Alcotest.test_case "create: 0 lanes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) [||]) <> None));
    Alcotest.test_case "create: 65 lanes rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) (starts 65 8)) <> None));
    Alcotest.test_case "create: lane length mismatch rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () -> Multispin.create (mk_ising ()) (starts 3 7)) <> None));
    Alcotest.test_case "create: negative refresh_every rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () ->
               Multispin.create ~refresh_every:(-1) (mk_ising ()) (starts 2 8))
          <> None));
    Alcotest.test_case "Fields: negative refresh_every rejected" `Quick (fun () ->
        let ising = mk_ising () in
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () ->
               Fields.create ~refresh_every:(-3) ising (Bitvec.create 8))
          <> None));
    Alcotest.test_case "Fields: refresh_every 0 means never" `Quick (fun () ->
        let ising = mk_ising () in
        let f = Fields.create ~refresh_every:0 ising (Bitvec.create 8) in
        for _ = 0 to 99 do
          Fields.flip f 3
        done;
        Alcotest.(check (float 1e-9)) "still consistent" 0. (Fields.drift f));
    Alcotest.test_case "run_packed: reads < 1 rejected" `Quick (fun () ->
        let q, _ = random_ising ~seed:22 ~n:6 ~density:0.5 in
        Alcotest.(check bool) "raises" true
          (invalid_arg_of (fun () ->
               Sa.run_packed ~params:{ Sa.default with Sa.reads = 0 } q)
          <> None));
  ]

let () =
  Alcotest.run "qsmt_multispin"
    [
      ("kernel-vs-scalar-oracle", kernel_props);
      ("bucketed-accept", accept_units);
      ("run-packed", run_packed_units);
      ("validation", validation_units);
    ]

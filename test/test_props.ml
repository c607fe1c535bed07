(* Cross-cutting property tests: algebraic laws that span libraries and
   catch representation drift that unit tests scoped to one module would
   miss — charset boolean algebra, QUBO/Ising scaling laws, sample-set
   aggregation laws, regex print/parse and semantics identities, chain
   embedding round trips on random problems, and solver cross-checks. *)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Qgraph = Qsmt_qubo.Qgraph
module Preprocess = Qsmt_qubo.Preprocess
module Charset = Qsmt_regex.Charset
module Syntax = Qsmt_regex.Syntax
module Rparser = Qsmt_regex.Parser
module Dfa = Qsmt_regex.Dfa
module Nfa = Qsmt_regex.Nfa
module Minimize = Qsmt_regex.Minimize
module Sampleset = Qsmt_anneal.Sampleset
module Sa = Qsmt_anneal.Sa
module Exact = Qsmt_anneal.Exact
module Topology = Qsmt_anneal.Topology
module Embedding = Qsmt_anneal.Embedding
module Chain = Qsmt_anneal.Chain
module Spinglass = Qsmt_anneal.Spinglass
module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Semantics = Qsmt_strtheory.Semantics
module Workload = Qsmt_strtheory.Workload
module Brute = Qsmt_classical.Brute
module Strsolver = Qsmt_classical.Strsolver

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* generators *)

let gen_charset =
  QCheck2.Gen.(
    map (fun chars -> Charset.of_list chars) (list_size (int_range 0 20) (map Char.chr (int_range 0 127))))

let gen_qubo =
  let open QCheck2.Gen in
  let* n = int_range 1 10 in
  let* entries =
    list_size (int_range 0 (3 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (map float_of_int (int_range (-6) 6)))
  in
  return
    (let b = Qubo.builder () in
     List.iter (fun (i, j, v) -> Qubo.add b i j v) entries;
     Qubo.freeze ~num_vars:n b)

let gen_qubo_bits =
  let open QCheck2.Gen in
  let* q = gen_qubo in
  let* seed = int_range 0 9999 in
  return (q, Bitvec.random (Prng.create seed) (Qubo.num_vars q))

(* random syntax trees (not via the parser, to exercise printing) *)
let gen_syntax =
  let open QCheck2.Gen in
  let atom =
    oneof
      [
        map Syntax.literal (map Char.chr (int_range 97 122));
        map Syntax.char_class (list_size (int_range 1 4) (map Char.chr (int_range 97 122)));
      ]
  in
  let wrap r =
    oneof
      [
        return r;
        return (Syntax.Star r);
        return (Syntax.Plus r);
        return (Syntax.Opt r);
        map (fun lo -> Syntax.Rep (r, lo, Some (lo + 2))) (int_range 0 2);
      ]
  in
  let* atoms = list_size (int_range 1 4) atom in
  let* pieces =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* p = wrap a in
        return (p :: acc))
      (return []) atoms
  in
  let* alt = bool in
  return (if alt && List.length pieces > 1 then Syntax.Alt pieces else Syntax.Concat pieces)

(* ------------------------------------------------------------------ *)
(* charset algebra *)

let charset_props =
  [
    qtest "union commutative" QCheck2.Gen.(pair gen_charset gen_charset) (fun (a, b) ->
        Charset.equal (Charset.union a b) (Charset.union b a));
    qtest "intersection distributes over union"
      QCheck2.Gen.(triple gen_charset gen_charset gen_charset)
      (fun (a, b, c) ->
        Charset.equal
          (Charset.inter a (Charset.union b c))
          (Charset.union (Charset.inter a b) (Charset.inter a c)));
    qtest "de morgan" QCheck2.Gen.(pair gen_charset gen_charset) (fun (a, b) ->
        Charset.equal
          (Charset.complement (Charset.union a b))
          (Charset.inter (Charset.complement a) (Charset.complement b)));
    qtest "double complement" gen_charset (fun a ->
        Charset.equal a (Charset.complement (Charset.complement a)));
    qtest "diff = inter complement" QCheck2.Gen.(pair gen_charset gen_charset) (fun (a, b) ->
        Charset.equal (Charset.diff a b) (Charset.inter a (Charset.complement b)));
    qtest "cardinal of union" QCheck2.Gen.(pair gen_charset gen_charset) (fun (a, b) ->
        Charset.cardinal (Charset.union a b)
        = Charset.cardinal a + Charset.cardinal b - Charset.cardinal (Charset.inter a b));
  ]

(* ------------------------------------------------------------------ *)
(* QUBO / Ising laws *)

let qubo_props =
  [
    qtest "scaling scales energy" QCheck2.Gen.(pair gen_qubo_bits (int_range (-3) 3))
      (fun ((q, x), c) ->
        let c = float_of_int c in
        Float.abs (Qubo.energy (Qubo.scale q c) x -. (c *. Qubo.energy q x)) < 1e-9);
    qtest "relabel by reversal preserves spectrum" gen_qubo_bits (fun (q, x) ->
        let n = Qubo.num_vars q in
        let r = Qubo.relabel q (fun i -> n - 1 - i) ~num_vars:n in
        let x' = Bitvec.init n (fun i -> Bitvec.get x (n - 1 - i)) in
        Float.abs (Qubo.energy q x -. Qubo.energy r x') < 1e-9);
    qtest "ising offset equals mean energy" gen_qubo (fun q ->
        (* sum of H over all spin configs = 2^n * offset for couplers and
           fields canceling; check via direct averaging on small n *)
        let n = Qubo.num_vars q in
        n > 12
        ||
        let ising = Ising.of_qubo q in
        let total = ref 0. in
        for v = 0 to (1 lsl n) - 1 do
          total := !total +. Ising.energy ising (Bitvec.init n (fun i -> v land (1 lsl i) <> 0))
        done;
        Float.abs ((!total /. float_of_int (1 lsl n)) -. Ising.offset ising) < 1e-6);
    qtest "preprocess idempotent on residual" gen_qubo (fun q ->
        let t = Preprocess.reduce q in
        let t2 = Preprocess.reduce (Preprocess.residual t) in
        (* the rules already ran to fixpoint, so nothing further fixes *)
        Preprocess.num_fixed t2 = 0);
  ]

(* ------------------------------------------------------------------ *)
(* sample set laws *)

let gen_entries =
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (map
         (fun (bits, e, occ) ->
           {
             Sampleset.bits = Bitvec.of_bool_array (Array.of_list bits);
             energy = float_of_int e;
             occurrences = 1 + occ;
           })
         (triple (list_size (return 4) bool) (int_range (-5) 5) (int_range 0 3))))

(* duplicate assignments must carry one energy; rebuild consistently *)
let normalize entries =
  List.map
    (fun e ->
      { e with Sampleset.energy = float_of_int (Bitvec.popcount e.Sampleset.bits) })
    entries

let sampleset_props =
  [
    qtest "total reads preserved by aggregation" gen_entries (fun entries ->
        let entries = normalize entries in
        let s = Sampleset.of_entries entries in
        Sampleset.total_reads s
        = List.fold_left (fun acc e -> acc + e.Sampleset.occurrences) 0 entries);
    qtest "merge = of_entries of concatenation" QCheck2.Gen.(pair gen_entries gen_entries)
      (fun (a, b) ->
        let a = normalize a and b = normalize b in
        let merged = Sampleset.merge (Sampleset.of_entries a) (Sampleset.of_entries b) in
        let direct = Sampleset.of_entries (a @ b) in
        Sampleset.entries merged = Sampleset.entries direct);
    qtest "energies ascending" gen_entries (fun entries ->
        let s = Sampleset.of_entries (normalize entries) in
        let es = Sampleset.energies s in
        let ok = ref true in
        for i = 1 to Array.length es - 1 do
          if es.(i) < es.(i - 1) then ok := false
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* regex identities *)

let regex_props =
  [
    qtest ~count:100 "print/parse identity on generated trees" gen_syntax (fun r ->
        match Rparser.parse (Syntax.to_string r) with
        | Error _ -> false
        | Ok r' ->
          Minimize.equivalent (Dfa.of_syntax r) (Dfa.of_syntax r'));
    qtest ~count:100 "minimize preserves count_matching" gen_syntax (fun r ->
        let dfa = Dfa.of_syntax r in
        let min = Minimize.minimize dfa in
        List.for_all (fun len -> Dfa.count_matching dfa ~len = Dfa.count_matching min ~len)
          [ 0; 1; 2; 3 ]);
    qtest ~count:60 "sampled strings always match" QCheck2.Gen.(pair gen_syntax (int_range 0 6))
      (fun (r, len) ->
        let dfa = Dfa.of_syntax r in
        let rng = Prng.create (len * 7) in
        match Dfa.sample dfa ~len ~rng with
        | None -> Dfa.count_matching dfa ~len = 0
        | Some s -> String.length s = len && Dfa.matches dfa s);
    qtest ~count:100 "nullable agrees with matching epsilon" gen_syntax (fun r ->
        Syntax.nullable r = Nfa.matches (Nfa.of_syntax r) "");
    qtest ~count:100 "min_length agrees with the DFA" gen_syntax (fun r ->
        let dfa = Dfa.of_syntax r in
        let reported = Syntax.min_length r in
        (* no shorter string matches, and some string of that length does
           (search a window above in case of saturation) *)
        let shorter_ok =
          List.for_all
            (fun len -> len >= reported || Dfa.count_matching dfa ~len = 0)
            [ 0; 1; 2; 3; 4; 5 ]
        in
        shorter_ok && (reported > 5 || Dfa.count_matching dfa ~len:reported > 0));
  ]

(* ------------------------------------------------------------------ *)
(* embedding / chain round trips on random problems *)

let chain_props =
  [
    qtest ~count:25 "embedded ground state projects onto logical ground" gen_qubo (fun q ->
        let n = Qubo.num_vars q in
        n > 6
        ||
        let problem = Qgraph.of_qubo q in
        let hardware = Topology.graph (Topology.chimera ~m:2 ()) in
        match Embedding.find ~tries:16 ~problem ~hardware () with
        | None -> false (* <=6 logical vars always embed into C2 *)
        | Some e ->
          let e = Embedding.trim ~problem ~hardware e in
          let strength = Chain.default_strength q +. 1. in
          let physical = Chain.embed_qubo q ~embedding:e ~hardware ~chain_strength:strength in
          let samples =
            Sa.sample ~params:{ Sa.default with Sa.reads = 24; sweeps = 500; seed = 3 } physical
          in
          let logical = Chain.unembed ~embedding:e (Sampleset.best samples).Sampleset.bits in
          Float.abs (Qubo.energy q logical -. Exact.minimum_energy q) < 1e-6);
    qtest ~count:50 "unembed inverts a faithful embedding" QCheck2.Gen.(int_range 0 9999)
      (fun seed ->
        (* embed a planted problem, write the target through the chains,
           and read it back *)
        let rng = Prng.create seed in
        let graph = Qgraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
        let q, target, _ = Spinglass.planted ~rng graph in
        let problem = Qgraph.of_qubo q in
        let hardware = Topology.graph (Topology.chimera ~m:1 ()) in
        match Embedding.find ~tries:8 ~problem ~hardware () with
        | None -> false
        | Some e ->
          let n_phys = Qgraph.num_vertices hardware in
          let physical_bits =
            Bitvec.init n_phys (fun qb ->
                let rec owner v = if v >= 4 then false
                  else if List.mem qb (Embedding.chain e v) then Bitvec.get target v
                  else owner (v + 1)
                in
                owner 0)
          in
          Bitvec.equal (Chain.unembed ~embedding:e physical_bits) target);
  ]

(* ------------------------------------------------------------------ *)
(* solver cross-checks on workload constraints *)

let solver_props =
  [
    qtest ~count:25 "brute and CDCL agree on tiny constraints"
      QCheck2.Gen.(int_range 0 9999)
      (fun seed ->
        let rng = Prng.create seed in
        let c =
          Workload.generate_satisfiable ~rng
            ~kinds:
              [ Workload.K_includes; Workload.K_palindrome; Workload.K_contains; Workload.K_regex ]
            ~max_length:3 ()
        in
        let cdcl = Strsolver.solve c in
        let lowercase = List.init 26 (fun i -> Char.chr (97 + i)) in
        let brute = Brute.solve ~alphabet:lowercase ~limit:500_000 c in
        (* workloads are satisfiable: CDCL must prove it; brute may only
           miss when the witness needs characters outside a-z, which
           these kinds never do *)
        cdcl.Strsolver.result = `Sat
        && (match brute with Some v -> Constr.verify c v | None -> false));
    qtest ~count:20 "exact ground of encodings verifies" QCheck2.Gen.(int_range 0 9999)
      (fun seed ->
        let rng = Prng.create seed in
        let c =
          Workload.generate_satisfiable ~rng
            ~kinds:[ Workload.K_equals; Workload.K_reverse; Workload.K_replace_all ]
            ~max_length:3 ()
        in
        let q = Compile.to_qubo c in
        Qubo.num_vars q > Exact.max_vars
        ||
        let states, _ = Exact.ground_states q in
        List.for_all (fun s -> Constr.verify c (Compile.decode c s)) states);
  ]

let () =
  Alcotest.run "qsmt_props"
    [
      ("charset-algebra", charset_props);
      ("qubo-laws", qubo_props);
      ("sampleset-laws", sampleset_props);
      ("regex-identities", regex_props);
      ("chain-roundtrips", chain_props);
      ("solver-crosschecks", solver_props);
    ]

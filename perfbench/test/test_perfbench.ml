(* Tests of the benchmark itself: its inputs are a function of the seed,
   every expected answer matches its script (checked with the complete
   CDCL string solver), the oracle rejects what it must, and the
   capturing wrappers leave the interpreter's answers unchanged. *)

open Qsmt_perfbench
module Constr = Qsmt_strtheory.Constr
module Strsolver = Qsmt_classical.Strsolver
module Interp = Qsmt_smtlib.Interp
module Parser = Qsmt_smtlib.Parser
module Eval = Qsmt_smtlib.Eval
module Qubo = Qsmt_qubo.Qubo
module Solver = Qsmt_strtheory.Solver

let texts scripts = List.map (fun s -> (s.Corpus.name, s.Corpus.text, s.Corpus.expect)) scripts

let test_deterministic () =
  let cold seed = texts (Corpus.cold ~seed ~per_kind:3) in
  let session seed = texts (Corpus.session ~seed ~groups:3) in
  let qubo seed =
    List.map
      (fun i -> (i.Corpus.iname, Qubo.to_dense i.Corpus.qubo, i.Corpus.planted_energy))
      (Corpus.qubo_instances ~seed ~count:6)
  in
  Alcotest.(check bool) "smt-cold repeats" true (cold 7 = cold 7);
  Alcotest.(check bool) "smt-session repeats" true (session 7 = session 7);
  Alcotest.(check bool) "qubo-coupled repeats" true (qubo 7 = qubo 7);
  Alcotest.(check bool) "smt-cold follows the seed" false (cold 7 = cold 8);
  Alcotest.(check bool) "smt-session follows the seed" false (session 7 = session 8);
  Alcotest.(check bool) "qubo-coupled follows the seed" false (qubo 7 = qubo 8);
  Alcotest.(check int) "ten kinds plus twelve examples" ((10 * 3) + 12)
    (List.length (Corpus.cold ~seed:7 ~per_kind:3));
  Alcotest.(check int) "three unsat examples" 3
    (List.length (List.filter (fun (_, e, _) -> e = Corpus.Unsat) Corpus.examples))

(* A complete theory backend: CDCL bit-blasting decides every query of
   the corpus, so its verdicts grade the hand-written expectations. *)
let classical_backend () =
  let value = function
    | Constr.Str s -> `Value (Eval.V_str s)
    | Constr.Pos (Some i) -> `Value (Eval.V_int i)
    | Constr.Pos None -> `Unknown
  in
  {
    Interp.backend_name = "classical";
    solve_generate =
      (fun c ->
        let o = Strsolver.solve c in
        match (o.Strsolver.result, o.Strsolver.value) with
        | `Unsat, _ -> `Unsat
        | `Sat, Some v when o.Strsolver.satisfied -> value v
        | _ -> `Unknown);
    solve_joint =
      (fun cs ->
        match Strsolver.Session.solve_joint (Strsolver.Session.create ()) cs with
        | Ok (`Sat s, _) -> `Value (Eval.V_str s)
        | Ok (`Unsat, _) -> `Unsat
        | Ok (`Unknown, _) | Error _ -> `Unknown);
  }

(* Runs scripts through one interpreter per [fresh] group and checks
   each verdict against its expectation with the benchmark's oracle. *)
let check_expectations ~fresh scripts =
  let shared = Interp.create ~backend:(classical_backend ()) () in
  let scope = ref (Oracle.scope ()) in
  List.iter
    (fun (s : Corpus.script) ->
      let st =
        if fresh then begin
          scope := Oracle.scope ();
          Interp.create ~backend:(classical_backend ()) ()
        end
        else shared
      in
      let commands = Result.get_ok (Parser.parse_script s.Corpus.text) in
      let verdict, in_scope =
        List.fold_left
          (fun acc cmd ->
            let out = Interp.exec st cmd in
            match Oracle.step !scope cmd with
            | Some terms -> ((match out with Ok [ v ] -> v | _ -> "error"), terms)
            | None -> acc)
          ("none", []) commands
      in
      let model = if verdict = "sat" then Interp.model st else None in
      match Oracle.judge ~expect:s.Corpus.expect ~verdict ~model ~in_scope with
      | Oracle.Solved -> ()
      | Oracle.Unsolved -> Alcotest.failf "%s: the complete solver said %s" s.Corpus.name verdict
      | Oracle.Wrong why -> Alcotest.failf "%s: %s" s.Corpus.name why)
    scripts

let test_cold_expectations () = check_expectations ~fresh:true (Corpus.cold ~seed:3 ~per_kind:16)
let test_session_expectations () = check_expectations ~fresh:false (Corpus.session ~seed:3 ~groups:3)

let test_oracle_canary () =
  let x = Qsmt_smtlib.Ast.Var "x" in
  let terms =
    [
      Qsmt_smtlib.Ast.App ("=", [ Qsmt_smtlib.Ast.App ("str.len", [ x ]); Qsmt_smtlib.Ast.Int 3 ]);
      Qsmt_smtlib.Ast.App ("str.contains", [ x; Qsmt_smtlib.Ast.Str "ab" ]);
    ]
  in
  let model = [ ("x", Eval.V_str "abz") ] in
  Alcotest.(check bool) "the true model is accepted" true (Oracle.accepts terms model);
  Alcotest.(check bool) "its mutant is rejected" false (Oracle.accepts terms (Oracle.mutate model));
  let judge verdict model expect = Oracle.judge ~expect ~verdict ~model ~in_scope:terms in
  Alcotest.(check bool) "a mutated sat model is a wrong answer" true
    (match judge "sat" (Some (Oracle.mutate model)) Corpus.Sat with Oracle.Wrong _ -> true | _ -> false);
  Alcotest.(check bool) "unsat on a sat entry is a wrong answer" true
    (match judge "unsat" None Corpus.Sat with Oracle.Wrong _ -> true | _ -> false);
  Alcotest.(check bool) "sat on an unsat entry is a wrong answer" true
    (match judge "sat" (Some model) Corpus.Unsat with Oracle.Wrong _ -> true | _ -> false);
  Alcotest.(check bool) "unknown is only unsolved" true (judge "unknown" None Corpus.Sat = Oracle.Unsolved);
  Alcotest.(check bool) "an Int unknown moves" false
    (Oracle.accepts
       [ Qsmt_smtlib.Ast.App ("=", [ Qsmt_smtlib.Ast.Var "i"; Qsmt_smtlib.Ast.Int 4 ]) ]
       (Oracle.mutate [ ("i", Eval.V_int 4) ]))

(* The capturing wrappers of the smt-cold workload print exactly what
   the interpreter prints with its default backend. *)
let test_wrappers_transparent () =
  List.iter
    (fun (s : Corpus.script) ->
      let plain = Interp.run_string s.Corpus.text in
      let lt = Layers.create ~on:true in
      let cap = Layers.capture () in
      let sampler = Layers.wrap_sampler lt cap (Solver.default_sampler ~seed:0) in
      let backend = Layers.wrap_backend lt cap (Interp.annealing_backend ~sampler ()) in
      let commands = Result.get_ok (Parser.parse_script s.Corpus.text) in
      let wrapped = Interp.run_script (Interp.create ~backend ()) commands in
      Alcotest.(check (result (list string) string)) s.Corpus.name plain wrapped)
    (Corpus.cold ~seed:5 ~per_kind:6)

let () =
  Alcotest.run "perfbench"
    [
      ( "corpus",
        [
          Alcotest.test_case "deterministic for a seed" `Quick test_deterministic;
          Alcotest.test_case "smt-cold expectations" `Quick test_cold_expectations;
          Alcotest.test_case "smt-session expectations" `Quick test_session_expectations;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "canary" `Quick test_oracle_canary;
          Alcotest.test_case "wrappers transparent" `Quick test_wrappers_transparent;
        ] );
    ]

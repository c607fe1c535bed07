(* Seeded inputs of the three workloads and their expected answers.

   Every generator here is a pure function of the seed and a size, so a
   run can be replayed query by query. The amount of work per workload
   is fixed by the size (derived from --seconds in Main), never by
   elapsed time, so counts such as solved_frac repeat exactly. *)

module Prng = Qsmt_util.Prng
module Workload = Qsmt_strtheory.Workload
module Smtgen = Qsmt_strtheory.Smtgen
module Topology = Qsmt_anneal.Topology
module Spinglass = Qsmt_anneal.Spinglass

type expect = Sat | Unsat

(* One SMT-LIB text run as a unit: a whole script on smt-cold, one
   chunk of the session stream on smt-session. Either way it holds
   exactly one check-sat or check-sat-assuming, whose expected answer is
   [expect]. *)
type script = { name : string; text : string; expect : expect }

(* ------------------------------------------------------------------ *)
(* smt-cold                                                            *)

(* The twelve scripts of examples/smt2 (top level and absint/), copied
   so the benchmark keeps a fixed corpus when the examples change. The
   expected statuses are hand-written: the static-unsat-* scripts are
   contradictions, everything else has a model. *)
let examples =
  [
    ( "contains",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (str.contains x "cat"))
(assert (= (str.len x) 5))
(check-sat)
(get-model)|}
    );
    ( "equality",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= x "hello"))
(check-sat)
(get-value (x))|} );
    ( "includes",
      Sat,
      {|(set-logic QF_SLIA)
(declare-const i Int)
(assert (= i (str.indexof "hello world" "world" 0)))
(check-sat)
(get-value (i))|}
    );
    ( "indexof",
      Sat,
      {|(set-logic QF_SLIA)
(declare-const x String)
(assert (= (str.indexof x "hi" 0) 2))
(assert (= (str.len x) 6))
(check-sat)
(get-value (x))|}
    );
    ( "regex",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (str.in_re x (re.++ (str.to_re "a")
                            (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
(assert (= (str.len x) 5))
(check-sat)
(get-model)|}
    );
    ( "absint/shrink-regex",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 5))
(assert (str.in_re x (re.++ (str.to_re "a")
                            (re.+ (re.union (str.to_re "b") (str.to_re "c"))))))
(check-sat)
(get-model)|}
    );
    ( "absint/shrink-window",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 6))
(assert (= (str.at x 2) "h"))
(assert (= (str.at x 3) "i"))
(check-sat)
(get-model)|}
    );
    ( "absint/static-sat-affixes",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 3))
(assert (str.prefixof "ab" x))
(assert (str.suffixof "bc" x))
(check-sat)
(get-model)|}
    );
    ( "absint/static-sat-palindrome",
      Sat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 4))
(assert (str.palindrome x))
(assert (= (str.substr x 0 2) "ab"))
(check-sat)
(get-model)|}
    );
    ( "absint/static-unsat-contains",
      Unsat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 2))
(assert (str.contains x "ab"))
(assert (str.contains x "ba"))
(check-sat)|}
    );
    ( "absint/static-unsat-palindrome",
      Unsat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 2))
(assert (str.palindrome x))
(assert (str.prefixof "ab" x))
(check-sat)|}
    );
    ( "absint/static-unsat-regex",
      Unsat,
      {|(set-logic QF_S)
(declare-const x String)
(assert (= (str.len x) 3))
(assert (str.in_re x (re.+ (re.range "a" "b"))))
(assert (= (str.at x 1) "c"))
(check-sat)|}
    );
  ]

let kind_name = function
  | Workload.K_equals -> "equals"
  | Workload.K_concat -> "concat"
  | Workload.K_contains -> "contains"
  | Workload.K_includes -> "includes"
  | Workload.K_index_of -> "indexof"
  | Workload.K_replace_all -> "replace_all"
  | Workload.K_replace_first -> "replace_first"
  | Workload.K_reverse -> "reverse"
  | Workload.K_palindrome -> "palindrome"
  | Workload.K_regex -> "regex"

let cold_max_length = 16

let shuffle ~seed items =
  let a = Array.of_list items in
  Prng.shuffle (Prng.stream ~seed 1_000) a;
  Array.to_list a

(* String length a constraint generates (haystack length for Includes). *)
let length = function
  | Qsmt_strtheory.Constr.Includes { haystack; _ } -> String.length haystack
  | c -> Qsmt_strtheory.Constr.num_vars c / 7

(* One satisfiable constraint of [kind] from Workload's generator,
   stratified by size: the i-th of a kind asks for length 1 + i mod 16
   and redraws until it gets it (concat and includes, whose length is
   not the drawn one, take their first draw at that maximum). So the
   seed changes the content of the queries but not their size mix. *)
let stratified rng kind i =
  let target = 1 + (i mod cold_max_length) in
  let draw () = Workload.generate_satisfiable ~rng ~kinds:[ kind ] ~max_length:target () in
  match kind with
  | Workload.K_concat | Workload.K_includes -> draw ()
  | _ ->
    let rec go attempts =
      let c = draw () in
      if length c = target || attempts = 0 then c else go (attempts - 1)
    in
    go 1_000

(* [per_kind] satisfiable constraints of each of the ten kinds (a fixed
   kind and size mix, so the share of statically decided queries does
   not swing with the seed), rendered by Smtgen, plus the twelve
   examples; in a seeded order. Generated constraints are satisfiable
   by construction, so their expected answer is sat. *)
let cold ~seed ~per_kind =
  let generated =
    List.concat
      (List.mapi
         (fun k kind ->
           let rng = Prng.stream ~seed k in
           List.init per_kind (fun i ->
               match Smtgen.script (stratified rng kind i) with
               | Ok text -> { name = Printf.sprintf "%s-%d" (kind_name kind) i; text; expect = Sat }
               | Error e -> failwith ("Smtgen.script: " ^ e)))
         Workload.all_kinds)
  in
  let examples = List.map (fun (name, expect, text) -> { name; text; expect }) examples in
  shuffle ~seed (generated @ examples)

(* ------------------------------------------------------------------ *)
(* smt-session                                                         *)

let lit s = "\"" ^ Smtgen.escape_string s ^ "\""

(* One group of the session stream. A hidden palindrome [s] witnesses
   every sat check: each asserted conjunct is read off [s] (a substring,
   its first two characters, a per-position character class holding
   s's character, palindromicity). The one unsat check adds a
   one-character prefix that contradicts the asserted two-character
   prefix. The length cycles through 6..12 with the group index, so the
   seed changes the content of the problems but not their sizes.

   Ten chunks, each ending in a check. By design three re-check the
   joint assertions their predecessor already solved (answered from the
   model), two re-check the single contains constraint, one is the
   static unsat and the rest sample, so the median query sits in the
   middle of the model-reuse tier rather than on a tier boundary. The
   group opens with a push and its last chunk pops back to the empty
   stack: the session carries only the backend's caches and warm state
   from group to group. *)
let session_group rng g =
  let len = 6 + (g mod 7) in
  let half = Prng.string_lowercase rng ((len + 1) / 2) in
  let s = String.init len (fun i -> if i < String.length half then half.[i] else half.[len - 1 - i]) in
  let sub_len = 2 + (g mod 2) in
  let sub = String.sub s (Prng.int rng (len - sub_len + 1)) sub_len in
  let pre = String.sub s 0 2 in
  let other c =
    let d = Char.chr (97 + Prng.int rng 25) in
    if d >= c then Char.chr (Char.code d + 1) else d
  in
  let re =
    String.concat " "
      (List.init len (fun i ->
           Printf.sprintf "(re.union (str.to_re %s) (str.to_re %s))"
             (lit (String.make 1 s.[i]))
             (lit (String.make 1 (other s.[i])))))
  in
  let bad = String.make 1 (other s.[0]) in
  let chunk i expect text = { name = Printf.sprintf "group%d.%d" g i; text; expect } in
  [
    chunk 1 Sat
      (Printf.sprintf
         "(push 1)(declare-const x String)(assert (= (str.len x) %d))(assert (str.contains x %s))(check-sat)"
         len (lit sub));
    chunk 2 Sat (Printf.sprintf "(push 1)(assert (str.prefixof %s x))(check-sat)" (lit pre));
    chunk 3 Sat "(check-sat)";
    chunk 4 Sat (Printf.sprintf "(push 1)(assert (str.in_re x (re.++ %s)))(check-sat)" re);
    chunk 5 Sat "(pop 1)(check-sat)";
    chunk 6 Sat (Printf.sprintf "(check-sat-assuming ((str.prefixof %s x)))" (lit (String.sub s 0 1)));
    chunk 7 Unsat (Printf.sprintf "(push 1)(assert (str.prefixof %s x))(check-sat)" (lit bad));
    chunk 8 Sat "(pop 1)(check-sat-assuming ((str.palindrome x)))";
    chunk 9 Sat "(pop 1)(check-sat)";
    chunk 10 Sat "(check-sat)(pop 1)";
  ]

let session ~seed ~groups =
  List.concat (List.init groups (fun g -> session_group (Prng.stream ~seed (2_000 + g)) g))

(* ------------------------------------------------------------------ *)
(* qubo-coupled                                                        *)

type instance = {
  iname : string;
  qubo : Qsmt_qubo.Qubo.t;
  planted_energy : float;  (** energy of the planted ground state *)
}

(* King and Chimera graphs of 64..144 variables, cycled in this order so
   every run holds the same size mix whatever the seed. *)
let topologies =
  [|
    Topology.king ~rows:8 ~cols:8;
    Topology.chimera ~m:3 ();
    Topology.king ~rows:10 ~cols:10;
    Topology.chimera ~m:4 ();
    Topology.king ~rows:12 ~cols:12;
  |]

let qubo_instances ~seed ~count =
  List.init count (fun i ->
      let topo = topologies.(i mod Array.length topologies) in
      let rng = Prng.stream ~seed (3_000 + i) in
      let qubo, _target, planted_energy =
        Spinglass.planted ~rng ~coupling:Spinglass.Gaussian (Topology.graph topo)
      in
      { iname = Printf.sprintf "%s#%d" (Topology.name topo) i; qubo; planted_energy })

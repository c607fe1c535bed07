(* Tests for qsmt_regex: character sets, parser, NFA/DFA equivalence,
   counting/sampling/enumeration, and fixed-length unrolling. *)

module Charset = Qsmt_regex.Charset
module Syntax = Qsmt_regex.Syntax
module Parser = Qsmt_regex.Parser
module Nfa = Qsmt_regex.Nfa
module Dfa = Qsmt_regex.Dfa
module Unroll = Qsmt_regex.Unroll
module Minimize = Qsmt_regex.Minimize
module Prng = Qsmt_util.Prng

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let parse s = Parser.parse_exn s

(* ------------------------------------------------------------------ *)
(* Charset *)

let test_charset_basics () =
  let s = Charset.of_list [ 'a'; 'c'; 'z' ] in
  check Alcotest.bool "mem a" true (Charset.mem 'a' s);
  check Alcotest.bool "not mem b" false (Charset.mem 'b' s);
  check Alcotest.int "cardinal" 3 (Charset.cardinal s);
  check (Alcotest.list Alcotest.char) "to_list ascending" [ 'a'; 'c'; 'z' ] (Charset.to_list s)

let test_charset_set_ops () =
  let a = Charset.of_string "abc" and b = Charset.of_string "bcd" in
  check (Alcotest.list Alcotest.char) "union" [ 'a'; 'b'; 'c'; 'd' ]
    (Charset.to_list (Charset.union a b));
  check (Alcotest.list Alcotest.char) "inter" [ 'b'; 'c' ] (Charset.to_list (Charset.inter a b));
  check (Alcotest.list Alcotest.char) "diff" [ 'a' ] (Charset.to_list (Charset.diff a b));
  check Alcotest.int "complement" (128 - 3) (Charset.cardinal (Charset.complement a))

let test_charset_range () =
  let s = Charset.of_range 'a' 'e' in
  check Alcotest.int "cardinal" 5 (Charset.cardinal s);
  check Alcotest.bool "boundary" true (Charset.mem 'e' s);
  Alcotest.check_raises "bad range" (Invalid_argument "Charset.of_range: lo > hi") (fun () ->
      ignore (Charset.of_range 'z' 'a'))

let test_charset_full_empty () =
  check Alcotest.int "full" 128 (Charset.cardinal Charset.full);
  check Alcotest.bool "empty" true (Charset.is_empty Charset.empty);
  check Alcotest.int "printable" 95 (Charset.cardinal Charset.printable)

let test_charset_choose () =
  check (Alcotest.option Alcotest.char) "choose min" (Some 'a')
    (Charset.choose (Charset.of_string "cba"));
  check (Alcotest.option Alcotest.char) "choose empty" None (Charset.choose Charset.empty)

let test_charset_high_codes () =
  (* codes >= 64 exercise the second word of the bitset *)
  let s = Charset.of_list [ '\000'; '@'; '\127' ] in
  check Alcotest.bool "code 0" true (Charset.mem '\000' s);
  check Alcotest.bool "code 64" true (Charset.mem '@' s);
  check Alcotest.bool "code 127" true (Charset.mem '\127' s);
  check Alcotest.int "cardinal" 3 (Charset.cardinal s)

let prop_charset_list_roundtrip =
  qtest "of_list/to_list roundtrip"
    QCheck2.Gen.(list_size (int_range 0 30) (map Char.chr (int_range 0 127)))
    (fun chars ->
      let dedup = List.sort_uniq compare chars in
      Charset.to_list (Charset.of_list chars) = dedup)

(* ------------------------------------------------------------------ *)
(* Parser *)

let test_parse_literal_concat () =
  check Alcotest.bool "abc" true (Syntax.equal (parse "abc") (Syntax.string "abc"))

let test_parse_class () =
  match parse "[bc]" with
  | Syntax.Chars s -> check (Alcotest.list Alcotest.char) "chars" [ 'b'; 'c' ] (Charset.to_list s)
  | _ -> Alcotest.fail "expected Chars"

let test_parse_class_range () =
  match parse "[a-c9]" with
  | Syntax.Chars s ->
    check (Alcotest.list Alcotest.char) "chars" [ '9'; 'a'; 'b'; 'c' ] (Charset.to_list s)
  | _ -> Alcotest.fail "expected Chars"

let test_parse_negated_class () =
  match parse "[^a]" with
  | Syntax.Chars s ->
    check Alcotest.bool "not a" false (Charset.mem 'a' s);
    check Alcotest.bool "has b" true (Charset.mem 'b' s);
    check Alcotest.int "127 chars" 127 (Charset.cardinal s)
  | _ -> Alcotest.fail "expected Chars"

let test_parse_postfix () =
  (match parse "a+" with
  | Syntax.Plus (Syntax.Chars _) -> ()
  | _ -> Alcotest.fail "expected Plus");
  (match parse "a*" with
  | Syntax.Star (Syntax.Chars _) -> ()
  | _ -> Alcotest.fail "expected Star");
  match parse "a?" with
  | Syntax.Opt (Syntax.Chars _) -> ()
  | _ -> Alcotest.fail "expected Opt"

let test_parse_alternation_precedence () =
  (* ab|c = (ab)|c *)
  match parse "ab|c" with
  | Syntax.Alt [ Syntax.Concat [ _; _ ]; Syntax.Chars _ ] -> ()
  | r -> Alcotest.failf "unexpected shape: %s" (Syntax.to_string r)

let test_parse_group () =
  match parse "(ab)+" with
  | Syntax.Plus (Syntax.Concat [ _; _ ]) -> ()
  | r -> Alcotest.failf "unexpected shape: %s" (Syntax.to_string r)

let test_parse_dot () =
  match parse "." with
  | Syntax.Chars s -> check Alcotest.int "full" 128 (Charset.cardinal s)
  | _ -> Alcotest.fail "expected Chars"

let test_parse_escapes () =
  (match parse "\\d" with
  | Syntax.Chars s -> check Alcotest.int "digits" 10 (Charset.cardinal s)
  | _ -> Alcotest.fail "expected digit class");
  (match parse "\\w" with
  | Syntax.Chars s -> check Alcotest.int "word chars" 63 (Charset.cardinal s)
  | _ -> Alcotest.fail "expected word class");
  match parse "\\+" with
  | Syntax.Chars s -> check (Alcotest.list Alcotest.char) "plus literal" [ '+' ] (Charset.to_list s)
  | _ -> Alcotest.fail "expected literal plus"

let test_parse_errors () =
  let fails s = match Parser.parse s with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "dangling +" true (fails "+a");
  check Alcotest.bool "unclosed group" true (fails "(ab");
  check Alcotest.bool "unmatched )" true (fails "ab)");
  check Alcotest.bool "unterminated class" true (fails "[ab");
  check Alcotest.bool "bad escape" true (fails "\\q");
  check Alcotest.bool "dangling backslash" true (fails "ab\\");
  check Alcotest.bool "bad range" true (fails "[z-a]");
  check Alcotest.bool "empty class" true (fails "[]")

let test_parse_empty_is_epsilon () =
  check Alcotest.bool "empty pattern" true (Syntax.equal (parse "") Syntax.Epsilon)

(* ------------------------------------------------------------------ *)
(* Syntax analysis *)

let test_nullable () =
  check Alcotest.bool "a* nullable" true (Syntax.nullable (parse "a*"));
  check Alcotest.bool "a+ not nullable" false (Syntax.nullable (parse "a+"));
  check Alcotest.bool "a? nullable" true (Syntax.nullable (parse "a?"));
  check Alcotest.bool "a|b* nullable" true (Syntax.nullable (parse "a|b*"));
  check Alcotest.bool "ab not nullable" false (Syntax.nullable (parse "ab"))

let test_min_max_length () =
  check Alcotest.int "a[bc]+b min" 3 (Syntax.min_length (parse "a[bc]+b"));
  check (Alcotest.option Alcotest.int) "a[bc]+b max" None (Syntax.max_length (parse "a[bc]+b"));
  check Alcotest.int "a?b min" 1 (Syntax.min_length (parse "a?b"));
  check (Alcotest.option Alcotest.int) "a?b max" (Some 2) (Syntax.max_length (parse "a?b"));
  check (Alcotest.option Alcotest.int) "alt max" (Some 3) (Syntax.max_length (parse "a|bcd"))

let test_syntax_print_reparse () =
  List.iter
    (fun pat ->
      let r = parse pat in
      let printed = Syntax.to_string r in
      match Parser.parse printed with
      | Error e -> Alcotest.failf "reparse of %S (printed %S) failed: %s" pat printed e
      | Ok r' ->
        if not (Syntax.equal r r') then
          Alcotest.failf "%S printed as %S reparses differently" pat printed)
    [ "abc"; "a[bc]+"; "a|b|c"; "(ab)+c?"; "a\\+b"; "[a-z]*"; "x(y|z)w" ]

(* ------------------------------------------------------------------ *)
(* NFA / DFA matching *)

let cases_for pattern yes no =
  let nfa = Nfa.of_syntax (parse pattern) in
  let dfa = Dfa.of_nfa nfa in
  List.iter
    (fun s ->
      if not (Nfa.matches nfa s) then Alcotest.failf "NFA /%s/ should match %S" pattern s;
      if not (Dfa.matches dfa s) then Alcotest.failf "DFA /%s/ should match %S" pattern s)
    yes;
  List.iter
    (fun s ->
      if Nfa.matches nfa s then Alcotest.failf "NFA /%s/ should not match %S" pattern s;
      if Dfa.matches dfa s then Alcotest.failf "DFA /%s/ should not match %S" pattern s)
    no

let test_match_literals () = cases_for "abc" [ "abc" ] [ ""; "ab"; "abcd"; "abd" ]

let test_match_paper_example () =
  (* a[tyz]+b from the paper: 'atytyzb', 'azb', 'atyzb' are valid *)
  cases_for "a[tyz]+b" [ "atytyzb"; "azb"; "atyzb" ] [ "ab"; "aqb"; "atyz"; "tyb" ]

let test_match_star_plus_opt () =
  cases_for "ab*" [ "a"; "ab"; "abbb" ] [ ""; "b"; "aab" ];
  cases_for "ab+" [ "ab"; "abb" ] [ "a"; "b" ];
  cases_for "ab?c" [ "ac"; "abc" ] [ "abbc"; "a" ]

let test_match_alternation () = cases_for "cat|dog" [ "cat"; "dog" ] [ ""; "catdog"; "ca"; "og" ]

let test_match_nested () =
  cases_for "(a|b)*c" [ "c"; "ac"; "bc"; "abababc" ] [ ""; "ab"; "ca" ]

let test_match_dot () = cases_for "a.c" [ "abc"; "a.c"; "a c" ] [ "ac"; "abbc" ]

let test_match_epsilon () = cases_for "" [ "" ] [ "a" ]

(* Reference brute-force matcher on a tiny alphabet, for equivalence
   testing: enumerate all strings up to length 4 over {a,b}. *)
let gen_pattern =
  let open QCheck2.Gen in
  let atom = oneofl [ "a"; "b"; "[ab]"; "." ] in
  let piece = map2 (fun a suffix -> a ^ suffix) atom (oneofl [ ""; "*"; "+"; "?" ]) in
  let branch = map (String.concat "") (list_size (int_range 1 4) piece) in
  map (String.concat "|") (list_size (int_range 1 2) branch)

let all_ab_strings =
  let rec go len = if len = 0 then [ "" ] else List.concat_map (fun s -> [ s ^ "a"; s ^ "b" ]) (go (len - 1)) in
  List.concat_map go [ 0; 1; 2; 3; 4 ]

let prop_nfa_dfa_equivalent =
  qtest ~count:100 "NFA and DFA agree on all short strings" gen_pattern (fun pat ->
      match Parser.parse pat with
      | Error _ -> true
      | Ok r ->
        let nfa = Nfa.of_syntax r in
        let dfa = Dfa.of_nfa nfa in
        List.for_all (fun s -> Nfa.matches nfa s = Dfa.matches dfa s) all_ab_strings)

(* ------------------------------------------------------------------ *)
(* DFA counting / sampling / enumeration *)

let test_count_matching () =
  let dfa = Dfa.of_syntax (parse "a[bc]+") in
  (* length 5: a then 4 positions from {b,c} -> 16 *)
  check Alcotest.int "a[bc]+ len 5" 16 (Dfa.count_matching dfa ~len:5);
  check Alcotest.int "len 1" 0 (Dfa.count_matching dfa ~len:1);
  check Alcotest.int "len 2" 2 (Dfa.count_matching dfa ~len:2);
  check Alcotest.int "len 0" 0 (Dfa.count_matching dfa ~len:0)

let test_count_epsilon () =
  let dfa = Dfa.of_syntax (parse "a*") in
  check Alcotest.int "len 0" 1 (Dfa.count_matching dfa ~len:0);
  check Alcotest.int "len 3" 1 (Dfa.count_matching dfa ~len:3)

let test_enumerate () =
  let dfa = Dfa.of_syntax (parse "a[bc]") in
  check (Alcotest.list Alcotest.string) "both strings" [ "ab"; "ac" ] (Dfa.enumerate dfa ~len:2);
  check (Alcotest.list Alcotest.string) "limit" [ "ab" ] (Dfa.enumerate ~limit:1 dfa ~len:2);
  check (Alcotest.list Alcotest.string) "no matches" [] (Dfa.enumerate dfa ~len:3)

let test_sample_matches () =
  let r = parse "a[bc]+z?" in
  let dfa = Dfa.of_syntax r in
  let rng = Prng.create 42 in
  for _ = 1 to 50 do
    match Dfa.sample dfa ~len:5 ~rng with
    | None -> Alcotest.fail "expected a sample"
    | Some s ->
      check Alcotest.int "right length" 5 (String.length s);
      if not (Dfa.matches dfa s) then Alcotest.failf "sample %S does not match" s
  done

let test_sample_none_when_empty () =
  let dfa = Dfa.of_syntax (parse "abc") in
  let rng = Prng.create 1 in
  check (Alcotest.option Alcotest.string) "no length-2 match" None (Dfa.sample dfa ~len:2 ~rng)

let test_restrict () =
  let dfa = Dfa.of_syntax (parse ".+") in
  let restricted = Dfa.restrict dfa (Charset.of_string "xy") in
  check Alcotest.int "only xy strings" 4 (Dfa.count_matching restricted ~len:2);
  check Alcotest.bool "matches xy" true (Dfa.matches restricted "xy");
  check Alcotest.bool "rejects ab" false (Dfa.matches restricted "ab")

let test_accepts_nothing () =
  check Alcotest.bool "a& empty inter" false (Dfa.accepts_nothing (Dfa.of_syntax (parse "a")));
  let empty = Dfa.restrict (Dfa.of_syntax (parse "a")) (Charset.of_string "b") in
  (* 'a' restricted to alphabet {b} accepts nothing of length >= 1, and
     epsilon is not in L(a) *)
  check Alcotest.bool "restricted empty" true (Dfa.accepts_nothing empty)

let prop_count_agrees_with_enumeration =
  qtest ~count:60 "count = |enumerate| on tiny alphabet" gen_pattern (fun pat ->
      match Parser.parse pat with
      | Error _ -> true
      | Ok r ->
        let dfa = Dfa.restrict (Dfa.of_syntax r) (Charset.of_string "ab") in
        List.for_all
          (fun len ->
            Dfa.count_matching dfa ~len = List.length (Dfa.enumerate ~limit:max_int dfa ~len))
          [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Unroll *)

let sets_exn r ~len =
  match Unroll.to_position_sets r ~len with
  | Ok sets -> sets
  | Error msg -> Alcotest.failf "unroll failed: %s" msg

let test_unroll_paper_example () =
  (* a[bc]+ at length 5 -> a, then 4x [bc] *)
  let sets = sets_exn (parse "a[bc]+") ~len:5 in
  check Alcotest.int "5 positions" 5 (Array.length sets);
  check (Alcotest.list Alcotest.char) "pos 0" [ 'a' ] (Charset.to_list sets.(0));
  for p = 1 to 4 do
    check (Alcotest.list Alcotest.char) "class pos" [ 'b'; 'c' ] (Charset.to_list sets.(p))
  done

let test_unroll_middle_plus () =
  (* a[tyz]+b at length 7 -> a, 5x class, b *)
  let sets = sets_exn (parse "a[tyz]+b") ~len:7 in
  check (Alcotest.list Alcotest.char) "pos 0" [ 'a' ] (Charset.to_list sets.(0));
  check (Alcotest.list Alcotest.char) "pos 6" [ 'b' ] (Charset.to_list sets.(6));
  for p = 1 to 5 do
    check (Alcotest.list Alcotest.char) "class" [ 't'; 'y'; 'z' ] (Charset.to_list sets.(p))
  done

let test_unroll_star_zero () =
  (* ab*c at length 2 -> star contributes nothing *)
  let sets = sets_exn (parse "ab*c") ~len:2 in
  check (Alcotest.list Alcotest.char) "pos 0" [ 'a' ] (Charset.to_list sets.(0));
  check (Alcotest.list Alcotest.char) "pos 1" [ 'c' ] (Charset.to_list sets.(1))

let test_unroll_greedy_left () =
  (* a+b+ at length 4: left-to-right greedy gives aaab *)
  let sets = sets_exn (parse "a+b+") ~len:4 in
  let rendered =
    String.concat ""
      (Array.to_list (Array.map (fun s -> String.make 1 (Option.get (Charset.choose s))) sets))
  in
  check Alcotest.string "greedy left" "aaab" rendered

let test_unroll_length_errors () =
  (match Unroll.to_position_sets (parse "abc") ~len:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too short should fail");
  match Unroll.to_position_sets (parse "ab?") ~len:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too long should fail"

let test_unroll_rejects_non_product () =
  (match Unroll.to_position_sets (parse "ab|c") ~len:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "multi-char alternation should be rejected");
  match Unroll.to_position_sets (parse "(ab)+") ~len:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "group repetition should be rejected"

let test_unroll_single_char_alternation_is_class () =
  (* a|b ≡ [ab]; SMT-LIB's re.union produces this shape *)
  let sets = sets_exn (parse "(a|b)+") ~len:3 in
  for p = 0 to 2 do
    check (Alcotest.list Alcotest.char) "class" [ 'a'; 'b' ] (Charset.to_list sets.(p))
  done

let prop_unroll_product_strings_match =
  (* every per-position choice yields a matching string *)
  qtest ~count:50 "unrolled products match the regex"
    QCheck2.Gen.(
      pair (oneofl [ "a[bc]+"; "x+y"; "a?b+"; "[ab][cd]e*"; "a[xy]?z+" ]) (int_range 1 6))
    (fun (pat, len) ->
      let r = parse pat in
      match Unroll.to_position_sets r ~len with
      | Error _ -> true
      | Ok sets ->
        let dfa = Dfa.of_syntax r in
        let rng = Prng.create (len * 31) in
        let ok = ref true in
        for _ = 1 to 20 do
          let s =
            String.init len (fun p ->
                let chars = Array.of_list (Charset.to_list sets.(p)) in
                Prng.choose rng chars)
          in
          if not (Dfa.matches dfa s) then ok := false
        done;
        !ok)


(* ------------------------------------------------------------------ *)
(* Minimize *)

let test_minimize_shrinks () =
  (* (a|b)(a|b) via alternation duplicates states; the minimal DFA for
     two chars over {a,b} has 3 live states *)
  let dfa = Dfa.of_syntax (parse "(a|b)(a|b)") in
  let min = Minimize.minimize dfa in
  check Alcotest.bool "not larger" true (Dfa.num_states min <= Dfa.num_states dfa);
  check Alcotest.int "minimal size" 3 (Dfa.num_states min)

let test_minimize_preserves_language () =
  List.iter
    (fun pat ->
      let dfa = Dfa.of_syntax (parse pat) in
      let min = Minimize.minimize dfa in
      List.iter
        (fun s ->
          if Dfa.matches dfa s <> Dfa.matches min s then
            Alcotest.failf "/%s/ disagrees on %S after minimization" pat s)
        all_ab_strings)
    [ "a[ab]+"; "(a|b)*a"; "ab|ba"; "a?b?a?"; "" ]

let test_minimize_idempotent () =
  let dfa = Minimize.minimize (Dfa.of_syntax (parse "(a|b)+ab")) in
  check Alcotest.int "fixed point" (Dfa.num_states dfa)
    (Dfa.num_states (Minimize.minimize dfa))

let test_equivalent_positive () =
  let a = Dfa.of_syntax (parse "a|b") in
  let b = Dfa.of_syntax (parse "[ab]") in
  check Alcotest.bool "same language" true (Minimize.equivalent a b);
  let c = Dfa.of_syntax (parse "aa*") in
  let d = Dfa.of_syntax (parse "a+") in
  check Alcotest.bool "aa* = a+" true (Minimize.equivalent c d)

let test_equivalent_negative () =
  let a = Dfa.of_syntax (parse "a") in
  let b = Dfa.of_syntax (parse "b") in
  check Alcotest.bool "different" false (Minimize.equivalent a b);
  let c = Dfa.of_syntax (parse "a*") in
  let d = Dfa.of_syntax (parse "a+") in
  check Alcotest.bool "a* != a+ (epsilon)" false (Minimize.equivalent c d)

let prop_minimize_equivalent =
  qtest ~count:80 "minimize preserves the language" gen_pattern (fun pat ->
      match Parser.parse pat with
      | Error _ -> true
      | Ok r ->
        let dfa = Dfa.of_syntax r in
        let min = Minimize.minimize dfa in
        Minimize.equivalent dfa min && Dfa.num_states min <= Dfa.num_states dfa)


(* ------------------------------------------------------------------ *)
(* Bounded repetition {m,n} *)

let test_rep_parse () =
  (match parse "a{3}" with
  | Syntax.Rep (Syntax.Chars _, 3, Some 3) -> ()
  | r -> Alcotest.failf "bad {3}: %s" (Syntax.to_string r));
  (match parse "a{2,4}" with
  | Syntax.Rep (Syntax.Chars _, 2, Some 4) -> ()
  | r -> Alcotest.failf "bad {2,4}: %s" (Syntax.to_string r));
  match parse "a{2,}" with
  | Syntax.Rep (Syntax.Chars _, 2, None) -> ()
  | r -> Alcotest.failf "bad {2,}: %s" (Syntax.to_string r)

let test_rep_parse_errors () =
  let fails s = match Parser.parse s with Error _ -> true | Ok _ -> false in
  check Alcotest.bool "reversed bounds" true (fails "a{4,2}");
  check Alcotest.bool "no number" true (fails "a{}");
  check Alcotest.bool "unterminated" true (fails "a{2");
  check Alcotest.bool "garbage" true (fails "a{2,x}")

let test_rep_matching () =
  cases_for "a{3}" [ "aaa" ] [ ""; "a"; "aa"; "aaaa" ];
  cases_for "a{2,4}" [ "aa"; "aaa"; "aaaa" ] [ "a"; "aaaaa" ];
  cases_for "a{2,}" [ "aa"; "aaaaaa" ] [ "a"; "" ];
  cases_for "x[ab]{2}y" [ "xaby"; "xbay"; "xaay" ] [ "xay"; "xabby" ]

let test_rep_lengths () =
  let r = parse "a{2,5}" in
  check Alcotest.int "min" 2 (Syntax.min_length r);
  check (Alcotest.option Alcotest.int) "max" (Some 5) (Syntax.max_length r);
  check (Alcotest.option Alcotest.int) "unbounded" None (Syntax.max_length (parse "a{2,}"));
  check Alcotest.bool "a{0,2} nullable" true (Syntax.nullable (parse "a{0,2}"));
  check Alcotest.bool "a{1,2} not nullable" false (Syntax.nullable (parse "a{1,2}"))

let test_rep_unroll () =
  let sets = sets_exn (parse "a[bc]{2,4}z") ~len:5 in
  check (Alcotest.list Alcotest.char) "pos 0" [ 'a' ] (Charset.to_list sets.(0));
  check (Alcotest.list Alcotest.char) "pos 4" [ 'z' ] (Charset.to_list sets.(4));
  for p = 1 to 3 do
    check (Alcotest.list Alcotest.char) "class" [ 'b'; 'c' ] (Charset.to_list sets.(p))
  done;
  (* infeasible lengths rejected *)
  match Unroll.to_position_sets (parse "a[bc]{2,4}z") ~len:2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "too short should fail"

let test_rep_print_reparse () =
  List.iter
    (fun pat ->
      let r = parse pat in
      let printed = Syntax.to_string r in
      match Parser.parse printed with
      | Error e -> Alcotest.failf "reparse of %S (%S) failed: %s" pat printed e
      | Ok r2 ->
        if not (Syntax.equal r r2) then Alcotest.failf "%S reparses differently" pat)
    [ "a{3}"; "a{2,4}"; "a{2,}"; "[ab]{1,3}c" ]

let test_rep_count () =
  let dfa = Dfa.of_syntax (parse "[ab]{2}") in
  check Alcotest.int "4 strings" 4 (Dfa.count_matching dfa ~len:2);
  check Alcotest.int "none at 3" 0 (Dfa.count_matching dfa ~len:3)

(* ------------------------------------------------------------------ *)
(* Pinned subset-construction tables *)

(* The whole table as one string: state count, start, then per state its
   accepting flag and all 128 successors. *)
let dfa_table dfa =
  let b = Buffer.create 4096 in
  let n = Dfa.num_states dfa in
  Buffer.add_string b (Printf.sprintf "%d;%d;" n (Dfa.start_state dfa));
  for s = 0 to n - 1 do
    Buffer.add_char b (if Dfa.is_accepting dfa s then '1' else '0');
    for code = 0 to 127 do
      Buffer.add_string b
        (match Dfa.transition dfa s (Char.chr code) with
        | Some t -> string_of_int t ^ ","
        | None -> "-,")
    done
  done;
  Buffer.contents b

(* Recorded before the subset construction learned to skip empty moves
   and close each distinct move set once: state numbering and every
   transition must not move. The first four patterns are the Table 1 and
   Ext-3 regexes; the rest are [Workload] regex draws (max length 6 for
   seeds 1-6, 16 for seeds 7-12). *)
let pinned_tables =
  [
    ("a[bc]+", 3, "e3cec4c1744df33980f0e211df6d8b2d");
    ("[ab]+", 2, "1e499facb05cf8d1bb19e680d370c5f4");
    ("cat|dog", 7, "92e64542dd3b033a473691cc06dcde14");
    ("[a-z]+z", 3, "e150e19885c7273678c9886ab78b1169");
    ("(a|b)+ab", 5, "1e3e7bab01f82e505d846cf2f68b10e8");
    (".+", 2, "ad85b46e7866271abe700c5b3ddcbdab");
  ]

let pinned_draws =
  [
    (2, "b19dcf92b9e8d1d604d6a7fb27ee8ea7");
    (2, "9c9a00c92a8d4cbfacdda7239dbf48c4");
    (3, "f5545fee6892f12cbd8b20d4d93e4386");
    (3, "addcc779fc8a94f09639cb0c497bb9ca");
    (2, "bcb9a9f6c8486326f5c88e898b4756c6");
    (2, "507be8030f4956fc9f3ba9595993c3a9");
    (3, "644788f5cf2c8e24191b7238a57255ee");
    (3, "a42fc51bd8a4be12ffe42840a3a59e94");
    (8, "b2bc926bb71f66a1a79a421e341c51e5");
    (7, "94655a7c6bd3438dc530620a16903318");
    (5, "60f6f238cf78636dda984aba5ef5e6e5");
    (3, "5875d5bd9f2704181474841840731d98");
  ]

let check_pinned label pattern (states, digest) =
  let dfa = Dfa.of_syntax pattern in
  check Alcotest.int (label ^ " states") states (Dfa.num_states dfa);
  check Alcotest.string (label ^ " table") digest (Digest.to_hex (Digest.string (dfa_table dfa)))

let test_pinned_tables () =
  List.iter
    (fun (src, states, digest) -> check_pinned src (parse src) (states, digest))
    pinned_tables

let test_pinned_workload_draws () =
  List.iteri
    (fun i pin ->
      let seed = i + 1 in
      let rng = Prng.create seed in
      let max_length = if seed <= 6 then 6 else 16 in
      match
        Qsmt_strtheory.Workload.generate ~rng ~kinds:[ Qsmt_strtheory.Workload.K_regex ]
          ~max_length ()
      with
      | Qsmt_strtheory.Constr.Regex { pattern; _ } ->
        check_pinned (Printf.sprintf "draw %d /%s/" seed (Syntax.to_string pattern)) pattern pin
      | _ -> Alcotest.fail "K_regex drew a non-regex constraint")
    pinned_draws

let () =
  Alcotest.run "qsmt_regex"
    [
      ( "charset",
        [
          Alcotest.test_case "basics" `Quick test_charset_basics;
          Alcotest.test_case "set ops" `Quick test_charset_set_ops;
          Alcotest.test_case "range" `Quick test_charset_range;
          Alcotest.test_case "full/empty/printable" `Quick test_charset_full_empty;
          Alcotest.test_case "choose" `Quick test_charset_choose;
          Alcotest.test_case "high codes" `Quick test_charset_high_codes;
          prop_charset_list_roundtrip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "literal concat" `Quick test_parse_literal_concat;
          Alcotest.test_case "class" `Quick test_parse_class;
          Alcotest.test_case "class range" `Quick test_parse_class_range;
          Alcotest.test_case "negated class" `Quick test_parse_negated_class;
          Alcotest.test_case "postfix" `Quick test_parse_postfix;
          Alcotest.test_case "alternation precedence" `Quick test_parse_alternation_precedence;
          Alcotest.test_case "group" `Quick test_parse_group;
          Alcotest.test_case "dot" `Quick test_parse_dot;
          Alcotest.test_case "escapes" `Quick test_parse_escapes;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "empty = epsilon" `Quick test_parse_empty_is_epsilon;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "nullable" `Quick test_nullable;
          Alcotest.test_case "min/max length" `Quick test_min_max_length;
          Alcotest.test_case "print/reparse" `Quick test_syntax_print_reparse;
        ] );
      ( "matching",
        [
          Alcotest.test_case "literals" `Quick test_match_literals;
          Alcotest.test_case "paper example" `Quick test_match_paper_example;
          Alcotest.test_case "star/plus/opt" `Quick test_match_star_plus_opt;
          Alcotest.test_case "alternation" `Quick test_match_alternation;
          Alcotest.test_case "nested" `Quick test_match_nested;
          Alcotest.test_case "dot" `Quick test_match_dot;
          Alcotest.test_case "epsilon" `Quick test_match_epsilon;
          prop_nfa_dfa_equivalent;
        ] );
      ( "dfa-queries",
        [
          Alcotest.test_case "count" `Quick test_count_matching;
          Alcotest.test_case "count epsilon" `Quick test_count_epsilon;
          Alcotest.test_case "enumerate" `Quick test_enumerate;
          Alcotest.test_case "sample matches" `Quick test_sample_matches;
          Alcotest.test_case "sample none" `Quick test_sample_none_when_empty;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "accepts nothing" `Quick test_accepts_nothing;
          prop_count_agrees_with_enumeration;
          Alcotest.test_case "pinned tables" `Quick test_pinned_tables;
          Alcotest.test_case "pinned workload draws" `Quick test_pinned_workload_draws;
        ] );
      ( "rep",
        [
          Alcotest.test_case "parse" `Quick test_rep_parse;
          Alcotest.test_case "parse errors" `Quick test_rep_parse_errors;
          Alcotest.test_case "matching" `Quick test_rep_matching;
          Alcotest.test_case "lengths" `Quick test_rep_lengths;
          Alcotest.test_case "unroll" `Quick test_rep_unroll;
          Alcotest.test_case "print/reparse" `Quick test_rep_print_reparse;
          Alcotest.test_case "count" `Quick test_rep_count;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "shrinks" `Quick test_minimize_shrinks;
          Alcotest.test_case "preserves language" `Quick test_minimize_preserves_language;
          Alcotest.test_case "idempotent" `Quick test_minimize_idempotent;
          Alcotest.test_case "equivalent positive" `Quick test_equivalent_positive;
          Alcotest.test_case "equivalent negative" `Quick test_equivalent_negative;
          prop_minimize_equivalent;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "paper example" `Quick test_unroll_paper_example;
          Alcotest.test_case "middle plus" `Quick test_unroll_middle_plus;
          Alcotest.test_case "star zero" `Quick test_unroll_star_zero;
          Alcotest.test_case "greedy left" `Quick test_unroll_greedy_left;
          Alcotest.test_case "length errors" `Quick test_unroll_length_errors;
          Alcotest.test_case "rejects non-product" `Quick test_unroll_rejects_non_product;
          Alcotest.test_case "single-char alternation = class" `Quick
            test_unroll_single_char_alternation_is_class;
          prop_unroll_product_strings_match;
        ] );
    ]

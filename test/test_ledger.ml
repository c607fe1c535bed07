(* The bench ledger's gates (bench/qsmt_bench.ml): each gate is fed one
   fabricated failing row and must report a failure, and the same
   document with the row repaired must pass. A gate lost or loosened in
   a refactor of the ledger fails here instead of passing silently. *)

open Qsmt_bench

let fails checks = List.exists (fun c -> not c.ok) checks
let passes checks = checks <> [] && not (fails checks)
let expect_fail what checks = Alcotest.(check bool) (what ^ " fails") true (fails checks)
let expect_pass what checks = Alcotest.(check bool) (what ^ " passes") true (passes checks)
let list rows = Telemetry.J_list rows
let instances rows = obj [ ("instances", list rows) ]

(* ------------------------------------------------------------------ *)
(* kernel: speedup < 0.4x recorded *)

let kernel_row name speedup =
  obj [ ("name", str name); ("kernel", obj [ ("speedup", num speedup) ]) ]

let test_kernel_floor () =
  let baseline = Some (instances [ kernel_row "chimera" 2.0 ]) in
  expect_fail "speedup 0.7x of recorded 2.0x"
    (kernel_gate (instances [ kernel_row "chimera" 0.7 ]) ~baseline);
  expect_pass "speedup 0.8x of recorded 2.0x"
    (kernel_gate (instances [ kernel_row "chimera" 0.8 ]) ~baseline)

(* ------------------------------------------------------------------ *)
(* kernel: dense packed < scalar *)

let packed_row name ~packed ~scalar =
  obj
    [
      ("name", str name);
      ( "kernel",
        obj
          [
            ("scalar_replica_sweeps_per_sec", num scalar);
            ("packed_replica_sweeps_per_sec", num packed);
          ] );
    ]

let test_packed_dense () =
  expect_fail "dense packed below scalar"
    (packed_gate (instances [ packed_row "dense_p50_n128" ~packed:1. ~scalar:2. ]));
  expect_pass "dense packed above scalar, sparse ungated"
    (packed_gate
       (instances
          [
            packed_row "chimera_m4_sparse" ~packed:1. ~scalar:2.;
            packed_row "dense_p50_n128" ~packed:3. ~scalar:2.;
          ]))

(* ------------------------------------------------------------------ *)
(* incremental: pop tier < 5x *)

let test_pop_tier () =
  let doc s = obj [ ("headline_pop_speedup", num s) ] in
  expect_fail "pop speedup 4.9x" (incremental_gate (doc 4.9));
  expect_pass "pop speedup 5x" (incremental_gate (doc 5.))

(* ------------------------------------------------------------------ *)
(* decompose: bit-exact stitching, palindrome-24, ratio drift *)

let decomp_row ?(bit_exact = true) ?(fallback = false) ?(verified = true) ?(whole_s = 1.)
    ?(decomp_s = 1.) name =
  obj
    [
      ("name", str name);
      ("fallback", bool fallback);
      ("whole_s", num whole_s);
      ("decomp_s", num decomp_s);
      ("verified", bool verified);
      ("bit_exact", bool bit_exact);
    ]

let decompose rows = decompose_gate (instances rows) ~baseline:None

let test_decompose_bit_exact () =
  expect_fail "a stitch that does not re-price bit-exactly"
    (decompose [ decomp_row ~bit_exact:false "palindrome-12"; decomp_row "palindrome-24" ]);
  expect_pass "bit-exact stitching"
    (decompose [ decomp_row "palindrome-12"; decomp_row "palindrome-24" ])

let test_decompose_acceptance () =
  expect_fail "palindrome-24 falling back"
    (decompose [ decomp_row ~fallback:true "palindrome-24" ]);
  expect_fail "palindrome-24 not verifying"
    (decompose [ decomp_row ~verified:false "palindrome-24" ]);
  expect_fail "palindrome-24 missing" (decompose [ decomp_row "palindrome-12" ])

let test_decompose_drift () =
  let baseline = Some (instances [ decomp_row "palindrome-24" ~whole_s:1. ~decomp_s:1. ]) in
  expect_fail "ratio 3.0 against a baseline 1.0"
    (decompose_gate (instances [ decomp_row "palindrome-24" ~decomp_s:3. ]) ~baseline);
  expect_fail "a baseline-verified instance that stops verifying"
    (decompose_gate
       (instances [ decomp_row "palindrome-12" ~verified:false; decomp_row "palindrome-24" ])
       ~baseline:(Some (instances [ decomp_row "palindrome-12" ])));
  expect_pass "ratio 2.4 against a baseline 1.0"
    (decompose_gate (instances [ decomp_row "palindrome-24" ~decomp_s:2.4 ]) ~baseline)

(* ------------------------------------------------------------------ *)
(* absint: reduction < 15%, a row neither sat nor proven unsat *)

let absint_doc ?(sat = true) reduction =
  obj
    [
      ("rows", list [ obj [ ("name", str "palindrome"); ("sat", bool sat) ] ]);
      ("headline_var_reduction", num reduction);
    ]

let test_absint_reduction () =
  expect_fail "a 14% reduction" (absint_gate (absint_doc 0.14));
  expect_pass "a 15% reduction" (absint_gate (absint_doc 0.15))

let test_absint_rows () = expect_fail "an unsatisfied row" (absint_gate (absint_doc ~sat:false 0.6))

(* ------------------------------------------------------------------ *)
(* Table 1: a deterministic row that does not reproduce the paper *)

let test_table1_mismatch () =
  let label = "Reverse 'hello' and replace 'e' with 'a'" in
  expect_fail "ollah reproduced as olleh" [ table1_check ~label ~want:"ollah" ~got:"olleh" ];
  expect_pass "ollah reproduced" [ table1_check ~label ~want:"ollah" ~got:"ollah" ]

(* ------------------------------------------------------------------ *)
(* a key the gate reads that the document lacks *)

let test_missing_key () =
  expect_fail "kernel row without a speedup"
    (kernel_gate
       (instances [ obj [ ("name", str "chimera") ] ])
       ~baseline:(Some (instances [ kernel_row "chimera" 2.0 ])));
  expect_fail "no headline" (incremental_gate (obj []));
  expect_fail "no rows" (absint_gate (obj [ ("headline_var_reduction", num 0.5) ]))

let () =
  Alcotest.run "qsmt-ledger"
    [
      ( "gates",
        [
          Alcotest.test_case "kernel speedup below 0.4x recorded" `Quick test_kernel_floor;
          Alcotest.test_case "dense packed below scalar" `Quick test_packed_dense;
          Alcotest.test_case "pop tier below 5x" `Quick test_pop_tier;
          Alcotest.test_case "decomposition not bit-exact" `Quick test_decompose_bit_exact;
          Alcotest.test_case "palindrome-24 falls back or fails to verify" `Quick
            test_decompose_acceptance;
          Alcotest.test_case "decomp/whole ratio drifts past 2.5x" `Quick test_decompose_drift;
          Alcotest.test_case "absint reduction below 15%" `Quick test_absint_reduction;
          Alcotest.test_case "absint row neither sat nor proven unsat" `Quick test_absint_rows;
          Alcotest.test_case "Table 1 deterministic row mismatches" `Quick test_table1_mismatch;
          Alcotest.test_case "missing keys fail the gate" `Quick test_missing_key;
        ] );
    ]

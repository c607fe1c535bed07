(* Shared plumbing of the bench executables (bench/ledger.exe and
   bench/main.exe), and the ledger's gates.

   Every gate is a pure function of the JSON document a ledger section
   writes and, where it compares against history, of the committed
   baseline under bench/baselines/. A gate therefore reads exactly the
   keys the BENCH_*.json files carry, and a key that goes missing fails
   the gate instead of passing it silently. *)

module Telemetry = Qsmt_util.Telemetry

let fast = Sys.getenv_opt "QSMT_BENCH_FAST" <> None

(* ------------------------------------------------------------------ *)
(* Timing and allocation *)

(* Monotonic (never steps backwards with wall-clock adjustments). *)
let now = Qsmt_util.Mclock.now

(* [time f] is [(seconds, f ())]. *)
let time = Qsmt_util.Mclock.elapsed

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let best_of ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (fst (time f))
  done;
  !best

type gc = { minor_words : float; major_collections : int }

(* GC pressure while [f] ran, on the calling domain (exact for
   single-domain sections, the coordinating domain's share otherwise).
   Minor words come from [Gc.minor_words]: [Gc.quick_stat]'s figure only
   moves when a minor collection runs. *)
let with_gc f =
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = Gc.minor_words () -. w0;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* ------------------------------------------------------------------ *)
(* JSON: rows are built as values and written with one writer *)

let num x = Telemetry.J_num x
let int n = Telemetry.J_num (float_of_int n)
let str s = Telemetry.J_str s
let bool b = Telemetry.J_bool b
let obj members = Telemetry.J_obj members

let gc_json g =
  obj [ ("minor_words", num g.minor_words); ("major_collections", int g.major_collections) ]

(* One ledger section's document: the identifying header, then
   [fields]. Written to BENCH_<number>.json in the current directory;
   the header keeps the committed baselines' key for that number. *)
let emit ~bench ~number fields =
  let doc = obj (("bench", str bench) :: ("pr", int number) :: ("fast", bool fast) :: fields) in
  let path = Printf.sprintf "BENCH_%d.json" number in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Telemetry.json_to_string doc);
      output_char oc '\n');
  Format.printf "wrote %s@." path;
  doc

(* A missing or unparseable baseline reads as [None]: the gates that
   compare against history are then skipped, as on a fresh checkout. *)
let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Result.to_option (Telemetry.parse_json text)

let find keys doc =
  List.fold_left
    (fun acc k -> match acc with Some (Telemetry.J_obj kvs) -> List.assoc_opt k kvs | _ -> None)
    (Some doc) keys

let num_opt keys doc = match find keys doc with Some (Telemetry.J_num x) -> Some x | _ -> None
let str_opt keys doc = match find keys doc with Some (Telemetry.J_str s) -> Some s | _ -> None
let bool_opt keys doc = match find keys doc with Some (Telemetry.J_bool b) -> Some b | _ -> None
let list_opt keys doc = match find keys doc with Some (Telemetry.J_list l) -> Some l | _ -> None

(* The run's own document must carry every key a gate reads. *)
exception Missing of string

let need get keys doc =
  match get keys doc with Some v -> v | None -> raise (Missing (String.concat "." keys))

let get_num = need num_opt
let get_str = need str_opt
let get_bool = need bool_opt
let get_list = need list_opt

(* ------------------------------------------------------------------ *)
(* Gates *)

type check = { ok : bool; what : string }

let check ok fmt = Printf.ksprintf (fun what -> { ok; what }) fmt

let guarded gate f = try f () with Missing key -> [ check false "%s: missing key %S" gate key ]

(* Kernel trajectory (BENCH_2): the Fields kernel's speedup over the
   naive rescan must stay at >= 0.4x of the committed full run's.
   Absolute throughput is machine-specific; the ratio is not. *)
let kernel_gate doc ~baseline =
  guarded "kernel" (fun () ->
      match baseline with
      | None -> [ check true "no kernel baseline; trajectory gate skipped" ]
      | Some base ->
        let recorded =
          List.filter_map
            (fun i ->
              match (str_opt [ "name" ] i, num_opt [ "kernel"; "speedup" ] i) with
              | Some name, Some s -> Some (name, s)
              | _ -> None)
            (Option.value ~default:[] (list_opt [ "instances" ] base))
        in
        List.map
          (fun inst ->
            let name = get_str [ "name" ] inst in
            let got = get_num [ "kernel"; "speedup" ] inst in
            match List.assoc_opt name recorded with
            | None -> check true "%s: no baseline entry, skipped" name
            | Some want ->
              check (got >= 0.4 *. want) "%s: kernel speedup %.2fx vs recorded %.2fx (floor 0.4x)"
                name got want)
          (get_list [ "instances" ] doc))

(* Packed multi-spin kernel (BENCH_8): on the dense instances, where one
   CSR pass is amortized over 64 lanes of real work, packed must not
   trail scalar. Sparse rows are too short to amortize and stay
   ungated. *)
let packed_gate doc =
  guarded "packed" (fun () ->
      List.filter_map
        (fun inst ->
          let name = get_str [ "name" ] inst in
          if not (String.starts_with ~prefix:"dense" name) then None
          else
            let packed = get_num [ "kernel"; "packed_replica_sweeps_per_sec" ] inst in
            let scalar = get_num [ "kernel"; "scalar_replica_sweeps_per_sec" ] inst in
            Some
              (check (packed >= scalar) "%s: packed %.0f vs scalar %.0f replica-sweeps/s" name
                 packed scalar))
        (get_list [ "instances" ] doc))

(* Incremental pop tier (BENCH_6): a warm pop re-solve must be >= 5x
   faster than the cold solve of the same prefix. *)
let incremental_gate doc =
  guarded "incremental" (fun () ->
      let headline = get_num [ "headline_pop_speedup" ] doc in
      [ check (headline >= 5.) "headline pop speedup %.1fx (floor 5x)" headline ])

(* Decomposition (BENCH_7): bit-exact stitching everywhere; the 4x
   instance (palindrome-24) decomposes and verifies; every instance the
   baseline verified still verifies, and the decomposed/whole time ratio
   stays within 2.5x of the baseline's (ratios are machine-robust where
   absolute times are not). *)
let decompose_gate doc ~baseline =
  guarded "decompose" (fun () ->
      let insts = get_list [ "instances" ] doc in
      let by_name name = List.find_opt (fun i -> str_opt [ "name" ] i = Some name) insts in
      let stitching =
        List.map
          (fun i ->
            check (get_bool [ "bit_exact" ] i) "%s: stitched energy re-prices bit-exactly"
              (get_str [ "name" ] i))
          insts
      in
      let acceptance =
        match by_name "palindrome-24" with
        | None -> [ check false "palindrome-24 missing from the run" ]
        | Some i ->
          [
            check (not (get_bool [ "fallback" ] i)) "palindrome-24: decomposed (no fallback)";
            check (get_bool [ "verified" ] i) "palindrome-24: decomposed solve verifies";
          ]
      in
      let trajectory =
        match baseline with
        | None -> [ check true "no decomposition baseline; trajectory gate skipped" ]
        | Some base ->
          List.concat_map
            (fun b ->
              match
                ( str_opt [ "name" ] b,
                  bool_opt [ "verified" ] b,
                  num_opt [ "whole_s" ] b,
                  num_opt [ "decomp_s" ] b )
              with
              | Some name, Some bverified, Some ws, Some ds when ws > 0. -> begin
                match by_name name with
                | None -> []
                | Some i ->
                  let verified = get_bool [ "verified" ] i in
                  let whole_s = get_num [ "whole_s" ] i and decomp_s = get_num [ "decomp_s" ] i in
                  let bratio = ds /. ws in
                  let ratio = if whole_s > 0. then decomp_s /. whole_s else 0. in
                  [
                    check ((not bverified) || verified) "%s: verifies as in the baseline" name;
                    (* generous: catches "stitching became pathologically
                       slower than whole-problem solving", not jitter *)
                    check
                      (not (ratio > 2.5 *. bratio && ratio > 1.5))
                      "%s: decomp/whole time ratio %.2f vs baseline %.2f (drift bound 2.5x)" name
                      ratio bratio;
                  ]
              end
              | _ -> [])
            (Option.value ~default:[] (list_opt [ "instances" ] base))
      in
      stitching @ acceptance @ trajectory)

(* Table 1 reproduction (bench/main.exe): a row whose output the paper's
   encoding forces classically must reproduce it exactly. *)
let table1_check ~label ~want ~got = check (want = got) "%s: expected %S, got %S" label want got

(* Absint shrink (BENCH_10): the aggregate logical-variable reduction
   over the corpus stays >= 15%, and every row is satisfied or proven
   unsat with absint on. *)
let absint_gate doc =
  guarded "absint" (fun () ->
      let reduction = get_num [ "headline_var_reduction" ] doc in
      check (reduction >= 0.15) "aggregate variable reduction %.1f%% (floor 15%%)"
        (100. *. reduction)
      :: List.map
           (fun r ->
             check (get_bool [ "sat" ] r) "%s: satisfied or proven unsat" (get_str [ "name" ] r))
           (get_list [ "rows" ] doc))

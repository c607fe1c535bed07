(* qsmt benchmark: one command, three workloads.

     main.exe --workload smt-cold|smt-session|qubo-coupled --seed N
              --seconds S --trace 0|1

   Builds the seeded inputs (several times, to time set-up), runs the
   workload once untraced for the end-to-end metrics and, with
   --trace 1, once more traced over the same inputs for the per-layer
   metrics, checking that both runs gave identical answers. The last
   line of stdout is one JSON object; the exit code is 1 on any wrong
   answer, rejected canary, fidelity mismatch or domain-guard breach. *)

open Qsmt_perfbench
module Telemetry = Qsmt_util.Telemetry
module Metrics = Qsmt_anneal.Metrics
module Sa = Qsmt_anneal.Sa
module Sampler = Qsmt_anneal.Sampler
module Interp = Qsmt_smtlib.Interp

type inputs = Scripts of Corpus.script list | Instances of Corpus.instance list

let workloads = [ "smt-cold"; "smt-session"; "qubo-coupled" ]

(* Work per run is fixed by --seconds (and the seed), never by a clock,
   so every count repeats exactly; the rates are sized so that a run
   takes about --seconds on a 2-core x86-64 container at its typical
   speed. *)
let build workload ~seed ~seconds =
  match workload with
  | "smt-cold" -> Scripts (Corpus.cold ~seed ~per_kind:(5 * seconds / 2))
  | "smt-session" -> Scripts (Corpus.session ~seed ~groups:(5 * seconds / 2))
  | _ -> Instances (Corpus.qubo_instances ~seed ~count:(4 * seconds))

(* First-call initialisation, part of set-up: one fixed annealed solve
   through the same entry point the workload uses. *)
let warm_up workload =
  match workload with
  | "qubo-coupled" ->
    let inst = List.hd (Corpus.qubo_instances ~seed:0 ~count:1) in
    ignore (Sampler.run (Sampler.simulated_annealing ()) inst.Corpus.qubo)
  | _ ->
    let _, _, text = List.hd Corpus.examples in
    ignore (Interp.run_string text)

(* Set-up time in nominal-host seconds (see Speed), with its inputs. *)
let setup workload ~seed ~seconds =
  let before = Speed.factor () in
  let t0 = Speed.now () in
  let inputs = build workload ~seed ~seconds in
  warm_up workload;
  let dt = Speed.now () -. t0 in
  (dt /. ((before +. Speed.factor ()) /. 2.), inputs)

let run workload ~trace inputs =
  match (workload, inputs) with
  | "smt-cold", Scripts s -> Runner.smt_cold ~trace s
  | "smt-session", Scripts s -> Runner.smt_session ~trace s
  | _, Instances i -> Runner.qubo_coupled ~trace i
  | _ -> invalid_arg "run"

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)

(* Threads of this process. A pool domain is a thread, and the pool
   never shuts its domains down, so an unchanged count after a run
   proves no work ran on one; that keeps the calling domain's minor-word
   counter complete for alloc_mwords_per_query and minor_words_per_flip. *)
let threads () = Array.length (Sys.readdir "/proc/self/task")

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
    | _ -> find ()
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, and the
   value there. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let sum f qs = List.fold_left (fun acc q -> acc +. f q) 0. qs
let count p qs = List.length (List.filter p qs)
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (untraced run)                                   *)

let end_to_end workload (r : Runner.run) ~setup_s =
  let qs = r.Runner.queries in
  let n = List.length qs in
  let lat = List.map (fun q -> q.Runner.latency_s) qs in
  let busy = sum (fun q -> q.Runner.latency_s) qs in
  let solved = count (fun q -> q.Runner.judgement = Oracle.Solved) qs in
  let solved_frac = ratio solved n in
  let tail_s, tail_pct = tail lat in
  (* Time to solution at 99% (Oshiyama & Ohzeki) from the pooled time
     per read and the pooled per-read success rate of the sampled
     queries. Pooling matters: a success rate from one query's 32 reads
     carries about +-0.08 of binomial noise, so a median over per-query
     TTS values swings with the seed about three times more. *)
  let read_success_frac, time_per_read =
    match workload with
    | "smt-session" ->
      (* The session's sampler calls hide behind the incremental tiers
         (wrapping them would drop the warm starts), so here a read is
         one check: its success is a solved answer. *)
      (solved_frac, median lat)
    | _ ->
      let sampled = List.filter (fun q -> q.Runner.reads > 0) qs in
      let reads = List.fold_left (fun a q -> a + q.Runner.reads) 0 sampled in
      let hits = List.fold_left (fun a q -> a + q.Runner.hits) 0 sampled in
      (ratio hits reads, sum (fun q -> q.Runner.latency_s) sampled /. float_of_int reads)
  in
  let tts99_s =
    match Metrics.time_to_solution ~time_per_read ~p_success:read_success_frac () with
    | Some t -> t
    | None -> infinity
  in
  ( [
      ("setup_s", setup_s, "s");
      ("queries_per_s", float_of_int n /. busy, "1/s");
      ("latency_p50_ms", 1e3 *. median lat, "ms");
      ("latency_tail_ms", 1e3 *. tail_s, "ms");
      ("solved_frac", solved_frac, "fraction");
      ("read_success_frac", read_success_frac, "fraction");
      ("tts99_ms", 1e3 *. tts99_s, "ms");
      ("alloc_mwords_per_query", sum (fun q -> q.Runner.minor_words) qs /. float_of_int n /. 1e6, "Mwords");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ],
    tail_pct )

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run)                                      *)

let per_layer (r : Runner.run) ~untraced_s =
  let lt = r.Runner.layers in
  let qs = r.Runner.queries in
  let n = List.length qs in
  let traced_s = sum (fun q -> q.Runner.latency_s) qs in
  let calls = List.concat_map (fun q -> q.Runner.calls) qs in
  let undecided = List.filter (fun (a : Layers.analysis) -> not a.Layers.static) calls in
  let sampler_calls = List.concat_map (fun q -> q.Runner.sampler_calls) qs in
  let isum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let logical = isum (fun (a : Layers.analysis) -> a.Layers.logical_vars) undecided in
  let reads = isum (fun (s : Layers.reads) -> s.Layers.reads) sampler_calls in
  let flips =
    List.fold_left
      (fun a (s : Layers.reads) ->
        a +. (float_of_int s.Layers.vars *. float_of_int (s.Layers.reads * Sa.default.Sa.sweeps)))
      0. sampler_calls
  in
  let per a b = if b = 0. then 0. else a /. b in
  let counter name =
    match r.Runner.snapshot with
    | Some s -> float_of_int (Option.value ~default:0 (List.assoc_opt name s.Telemetry.snap_counters))
    | None -> 0.
  in
  let bytes = isum (fun q -> q.Runner.bytes) qs in
  let in_band =
    lt.Layers.parse.Layers.self_s +. lt.Layers.exec.Layers.self_s +. lt.Layers.theory.Layers.self_s
    +. lt.Layers.sample.Layers.self_s
  in
  [
    ("sample.calls", float_of_int (List.length sampler_calls), "count");
    ("sample.self_s", lt.Layers.sample.Layers.self_s, "s");
    ("sample.vars", float_of_int (isum (fun (s : Layers.reads) -> s.Layers.vars) sampler_calls), "count");
    ("sample.flips", flips, "count");
    ("sample.flips_per_s", per flips lt.Layers.sample.Layers.self_s, "1/s");
    ("sample.minor_words_per_flip", per lt.Layers.sample.Layers.self_words flips, "words");
    ( "sample.verified_read_frac",
      ratio (isum (fun (s : Layers.reads) -> s.Layers.verified) sampler_calls) reads,
      "fraction" );
    ("absint.static_frac", ratio (List.length calls - List.length undecided) (List.length calls), "fraction");
    ("absint.forced_bit_frac", ratio (isum (fun (a : Layers.analysis) -> a.Layers.forced) undecided) logical, "fraction");
    ("absint.self_s", lt.Layers.absint.Layers.self_s, "s");
    ("encode.logical_vars", float_of_int logical, "count");
    ("encode.couplers", float_of_int (isum (fun (a : Layers.analysis) -> a.Layers.couplers) undecided), "count");
    ("encode.self_s", lt.Layers.encode.Layers.self_s, "s");
    ("decode.self_s", lt.Layers.decode.Layers.self_s, "s");
    ( "decode.scanned_per_call",
      per
        (float_of_int (isum (fun (s : Layers.reads) -> s.Layers.scanned) sampler_calls))
        (float_of_int lt.Layers.decode.Layers.calls),
      "count" );
    ("smtlib.parse.calls", float_of_int lt.Layers.parse.Layers.calls, "count");
    ("smtlib.parse.self_s", lt.Layers.parse.Layers.self_s, "s");
    ("smtlib.parse.kb_per_s", per (float_of_int bytes /. 1024.) lt.Layers.parse.Layers.self_s, "KiB/s");
    ("smtlib.exec.calls", float_of_int lt.Layers.exec.Layers.calls, "count");
    ("smtlib.exec.self_s", lt.Layers.exec.Layers.self_s, "s");
    ("theory.calls", float_of_int lt.Layers.theory.Layers.calls, "count");
    ("theory.self_s", lt.Layers.theory.Layers.self_s, "s");
    ("incremental.model_reuse", counter "incr.model_reuse", "count");
    ("incremental.cache_hit", counter "incr.cache_hit", "count");
    ("incremental.patched", counter "incr.patched", "count");
    ("incremental.warm_start", counter "incr.warm_start", "count");
    ("incremental.cold_retry", counter "incr.cold_retry", "count");
    ("incremental.sampled_frac", ratio (count (fun q -> q.Runner.sampled) qs) n, "fraction");
    ("unattributed_s", traced_s -. in_band, "s");
    ("trace.overhead_frac", per (traced_s -. untraced_s) untraced_s, "fraction");
  ]

(* ------------------------------------------------------------------ *)
(* Checks and output                                                   *)

let problems ~threads0 (r : Runner.run) =
  let wrong =
    List.filter_map
      (fun q ->
        match q.Runner.judgement with
        | Oracle.Wrong why -> Some (Printf.sprintf "wrong answer on %s: %s" q.Runner.name why)
        | _ -> None)
      r.Runner.queries
  in
  let canary =
    List.filter_map
      (fun q ->
        if q.Runner.canary_ok then None
        else Some (Printf.sprintf "canary: the oracle accepted a mutated model on %s" q.Runner.name))
      r.Runner.queries
  in
  let guard =
    let now = threads () in
    let participants =
      match r.Runner.snapshot with
      | Some s -> Option.value ~default:1. (List.assoc_opt "pool.participants" s.Telemetry.snap_gauges)
      | None -> 1.
    in
    (if now = threads0 then []
     else [ Printf.sprintf "domain guard: %d threads at start, %d after the run" threads0 now ])
    @
    if participants <= 1. then []
    else [ Printf.sprintf "domain guard: a pool job ran on %.0f domains" participants ]
  in
  wrong @ canary @ guard

(* The traced run must give the untraced run's answers, query by query:
   the wrappers and the collector change nothing. *)
let fidelity (a : Runner.run) (b : Runner.run) =
  if List.length a.Runner.queries <> List.length b.Runner.queries then
    [ "fidelity: the traced and untraced runs differ in length" ]
  else
    List.concat
      (List.map2
         (fun (x : Runner.query) (y : Runner.query) ->
           if x.Runner.answer = y.Runner.answer && x.Runner.failed = y.Runner.failed then []
           else
             [
               Printf.sprintf "fidelity: %s answered %S untraced, %S traced" x.Runner.name
                 x.Runner.answer y.Runner.answer;
             ])
         a.Runner.queries b.Runner.queries)

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed body

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-30s %16.6g %s\n" name v unit) metrics

let usage () =
  prerr_endline
    "usage: main.exe --workload smt-cold|smt-session|qubo-coupled --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace") as key :: value :: rest ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" <> 0 in
  if seconds < 1 then usage ();
  let threads0 = threads () in
  let setups = List.init 5 (fun _ -> setup workload ~seed ~seconds) in
  let setup_s = median (List.map fst setups) in
  let inputs = snd (List.hd (List.rev setups)) in
  let base = run workload ~trace:false inputs in
  let e2e, tail_pct = end_to_end workload base ~setup_s in
  let qs = base.Runner.queries in
  let attempted = List.length qs in
  let failed = count (fun q -> q.Runner.failed <> None) qs in
  List.iter
    (fun q ->
      match q.Runner.failed with
      | Some msg -> Printf.printf "failed: %s: %s\n" q.Runner.name msg
      | None -> ())
    qs;
  let traced = if trace then Some (run workload ~trace:true inputs) else None in
  let problems =
    problems ~threads0 base
    @ match traced with Some t -> problems ~threads0 t @ fidelity base t | None -> []
  in
  List.iter (fun p -> Printf.printf "ERROR %s\n" p) problems;
  Printf.printf "workload %s seed %d: %d queries, %d failed (%.4f), tail at p%.2f of %d samples\n"
    workload seed attempted failed (ratio failed attempted) tail_pct attempted;
  Printf.printf "query wall time %.3f s as measured, %.3f s at nominal host speed\n"
    (sum (fun q -> q.Runner.raw_s) qs) (sum (fun q -> q.Runner.latency_s) qs);
  print_table "end-to-end (untraced)" e2e;
  let metrics =
    match traced with
    | None -> e2e
    | Some t ->
      let layers = per_layer t ~untraced_s:(sum (fun q -> q.Runner.latency_s) qs) in
      print_table "per-layer (traced; absint/encode/decode measured out of band)" layers;
      layers
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "ERROR a metric is not finite";
  let correct = problems = [] && finite in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)

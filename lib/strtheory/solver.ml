module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler
module Sa = Qsmt_anneal.Sa
module Bitvec = Qsmt_util.Bitvec
module Mclock = Qsmt_util.Mclock
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Preprocess = Qsmt_qubo.Preprocess

type outcome = {
  constr : Constr.t;
  qubo : Qsmt_qubo.Qubo.t;
  samples : Sampleset.t;
  value : Constr.value;
  satisfied : bool;
  conjuncts_ok : bool list;
  energy : float;
  hardware : Qsmt_anneal.Hardware.stats option;
  decided : Absint.analysis option;
}

type stage_timing = {
  encode_s : float;
  sample_s : float;
  decode_s : float;
  verify_s : float;
}

let default_sampler ~seed =
  Sampler.simulated_annealing ~params:{ Sa.default with Sa.seed } ()

(* Lift a residual sample set back over the original variables,
   recomputing each energy against the full QUBO so shrunk and unshrunk
   solves report identical energies for identical assignments (the
   residual's folded offset is equal only up to float association). *)
let lift_samples ~qubo red samples =
  Sampleset.of_entries
    (List.map
       (fun e ->
         let bits = Preprocess.expand red e.Sampleset.bits in
         {
           Sampleset.bits;
           energy = Qubo.energy qubo bits;
           occurrences = e.Sampleset.occurrences;
         })
       (Sampleset.entries samples))

(* The outcome of a query that produced no candidate: an empty
   placeholder QUBO, zero reads, nothing satisfied. *)
let unanswered constr =
  let num_vars = try Constr.num_vars constr with Invalid_argument _ -> 0 in
  {
    constr;
    qubo = Qubo.freeze ~num_vars (Qubo.builder ());
    samples = Sampleset.empty;
    value = (match constr with Constr.Includes _ -> Constr.Pos None | _ -> Constr.Str "");
    satisfied = false;
    conjuncts_ok = [ false ];
    energy = 0.;
    hardware = None;
    decided = None;
  }

type search =
  qubo:Qubo.t -> model:(Bitvec.t -> outcome) -> anneal:(Bitvec.t option -> outcome) -> outcome

let cold ~qubo:_ ~model:_ ~anneal = anneal None

exception Empty_sample_set

(* First (= lowest-energy) sample whose decode verifies; otherwise the
   overall best sample. Decoding is lazy: a best read that verifies
   costs exactly one decode. *)
let pick ~decode ~verify samples =
  let rec scan first = function
    | [] -> ( match first with Some f -> f | None -> raise Empty_sample_set)
    | e :: rest ->
      let value = decode e.Sampleset.bits in
      if verify value then (value, true, e.Sampleset.energy)
      else scan (if Option.is_none first then Some (value, false, e.Sampleset.energy) else first) rest
  in
  scan None (Sampleset.entries samples)

let no_time = { encode_s = 0.; sample_s = 0.; decode_s = 0.; verify_s = 0. }

(* The chain past an undecided (or skipped) analysis: encode → lint →
   clamp → sample → lift → scan, with [search] choosing what to try. *)
let solve_encoded ~sampler ~telemetry ~span ~lint ~encode ~search ~analysis conjuncts constr =
  (* Verification happens in two places — inside the sampler (the
     portfolio's early-exit callback, possibly from several domains at
     once) and in the decode scan — so its cost is accumulated under a
     mutex rather than read off checkpoints. [sample_s] stays raw
     sampler time; [verify_s] is the total verification work wherever
     it ran; [decode_s] is the decode scan minus its share of it. *)
  let lock = Mutex.create () in
  let encode_s = ref 0. and sample_s = ref 0. and decode_s = ref 0. and verify_s = ref 0. in
  let timed acc f =
    let s = Mclock.now () in
    let r = f () in
    let dt = Mclock.now () -. s in
    Mutex.protect lock (fun () -> acc := !acc +. dt);
    r
  in
  let stage acc name f = Telemetry.with_span telemetry ~parent:span name (fun _ -> timed acc f) in
  let qubo = stage encode_s "encode" encode in
  (* Optional pre-sample gate: reject statically-broken encodings before
     any annealing time is spent. *)
  Option.iter (fun gate -> Telemetry.with_span telemetry ~parent:span "lint" (fun _ -> gate qubo)) lint;
  (* Every conjunct of a conjunction generates the same 7·L bits, so the
     first one's decode serves them all. *)
  let decode = Compile.decode constr in
  (* Checks are compiled once per chain call and shared by the sampler's
     callbacks, the scan and model reuse. *)
  let checks = timed verify_s (fun () -> List.map Constr.checker conjuncts) in
  let verify value = timed verify_s (fun () -> List.for_all (fun check -> check value) checks) in
  let scan samples hardware =
    let verified = !verify_s in
    let value, satisfied, energy = stage decode_s "decode" (fun () -> pick ~decode ~verify samples) in
    decode_s := !decode_s -. (!verify_s -. verified);
    let conjuncts_ok = List.map (fun check -> satisfied || check value) checks in
    { constr; qubo; samples; value; satisfied; conjuncts_ok; energy; hardware; decided = None }
  in
  (* Built on the first anneal only: a query answered by model reuse
     never pays for the forced-bit scan or the clamp. *)
  let reduction =
    lazy
      (match Option.map Absint.forced_bits analysis with
      | None | Some [] -> None
      | Some forced ->
        Telemetry.count telemetry "absint.shrunk" 1;
        Some (Preprocess.clamp qubo forced))
  in
  (* The verifier lets portfolio samplers exit as soon as any read
     decodes to a satisfying value; deterministic samplers ignore it
     unless [init] asks for a warm run's early exit. *)
  let run ?init q verify_bits =
    Sampler.run_detailed ~verify:verify_bits ?init ~early_exit:(init <> None) ~telemetry sampler q
  in
  let verify_bits bits = verify (timed verify_s (fun () -> decode bits)) in
  let anneal init =
    let samples, hardware =
      stage sample_s "sample" (fun () ->
          match Lazy.force reduction with
          | None -> run ?init qubo verify_bits
          | Some red when Preprocess.num_free red = 0 ->
            (Sampleset.of_bits qubo [ Preprocess.expand red (Bitvec.create 0) ], None)
          | Some red ->
            (* Anneal only the free subspace: a full-size warm start is
               projected onto it, and samples lift back to full
               assignments before the decode scan. *)
            let free = Preprocess.free_indices red in
            let init =
              Option.map
                (fun bits -> Bitvec.init (Array.length free) (fun r -> Bitvec.get bits free.(r)))
                init
            in
            let samples, hardware =
              run ?init (Preprocess.residual red) (fun bits ->
                  verify_bits (Preprocess.expand red bits))
            in
            (lift_samples ~qubo red samples, hardware))
    in
    scan samples hardware
  in
  let model bits = scan (Sampleset.of_bits qubo [ bits ]) None in
  match search ~qubo ~model ~anneal with
  | outcome ->
    Ok
      ( outcome,
        { encode_s = !encode_s; sample_s = !sample_s; decode_s = !decode_s; verify_s = !verify_s } )
  | exception Empty_sample_set -> Error "sampler returned an empty sample set"

let chain ~sampler ~absint ~telemetry ~gc_probe ~lint ~encode ~search conjuncts =
  let invalid =
    List.find_map
      (fun c -> match Constr.validate c with Ok () -> None | Error msg -> Some msg)
      conjuncts
  in
  match (conjuncts, invalid) with
  | [], _ -> Error "empty conjunction"
  | _, Some msg -> Error msg
  | constr :: _, None ->
    let span = Telemetry.span telemetry "solve" in
    let body () =
      (* Pre-encode abstract interpretation: a static verdict returns
         before any QUBO exists — no encoding, no domain pool, no sampler
         reads. An undecided analysis still pays off by clamping the
         codec bits it proved forced. [`Off] replays the unshrunk path
         bit-exactly. *)
      let analysis =
        match absint with
        | `Off -> None
        | `On ->
          Telemetry.with_span telemetry ~parent:span "absint" (fun _ ->
              match Absint.analyze conjuncts with
              | Ok a ->
                Absint.emit telemetry a;
                Some a
              | Error _ -> None)
      in
      let result =
        let static a ok =
          let conjuncts_ok = List.map (fun _ -> ok) conjuncts in
          { (unanswered constr) with satisfied = ok; conjuncts_ok; decided = Some a }
        in
        match analysis with
        | Some ({ Absint.verdict = Absint.V_sat value; _ } as a) ->
          Ok ({ (static a true) with value }, no_time)
        | Some ({ Absint.verdict = Absint.V_unsat _; _ } as a) -> Ok (static a false, no_time)
        | None | Some { Absint.verdict = Absint.V_undecided; _ } ->
          solve_encoded ~sampler ~telemetry ~span ~lint ~encode ~search ~analysis conjuncts constr
      in
      (match result with
      | Ok (o, _) when Telemetry.enabled telemetry ->
        Telemetry.count telemetry "solve.constraints" (List.length conjuncts);
        Telemetry.emit telemetry ~span "solve.done"
          [
            ("op", Telemetry.Str (String.concat "+" (List.map Compile.op_name conjuncts)));
            ("satisfied", Telemetry.Bool o.satisfied);
            ("energy", Telemetry.Float o.energy);
            ("reads", Telemetry.Int (Sampleset.total_reads o.samples));
          ]
      | _ -> ());
      Telemetry.finish telemetry span;
      result
    in
    (* GC pressure probe for the whole solve span: encode + sample +
       decode dominate this process's allocation, and the delta lands in
       gc.* counters/histograms plus one gc.delta event on the span. *)
    if gc_probe then Telemetry.with_gc_probe telemetry ~span body else body ()

let solve_timed ?params ?sampler ?(lint = `Off) ?lint_config ?(absint = `On)
    ?(telemetry = Telemetry.null) constr =
  let sampler = match sampler with Some s -> s | None -> default_sampler ~seed:0 in
  let lint =
    match lint with
    | `Off -> None
    | (`Error | `Warning) as gate -> Some (Lint.gate_check ?config:lint_config ~telemetry ~gate constr)
  in
  match
    chain ~sampler ~absint ~telemetry ~gc_probe:true ~lint ~search:cold
      ~encode:(fun () -> Compile.to_qubo ?params ~telemetry constr)
      [ constr ]
  with
  | Ok result -> result
  | Error msg -> invalid_arg ("Solver: " ^ msg)

let solve ?params ?sampler ?lint ?lint_config ?absint ?telemetry constr =
  fst (solve_timed ?params ?sampler ?lint ?lint_config ?absint ?telemetry constr)

let solve_batch ?params ?sampler ?lint ?lint_config ?absint ?telemetry ?(jobs = 0) constrs =
  let jobs = if jobs > 0 then jobs else Parallel.recommended_domains () in
  let constrs = Array.of_list constrs in
  Array.to_list (Parallel.init_array ?telemetry ~domains:jobs (Array.length constrs) (fun i ->
      solve_timed ?params ?sampler ?lint ?lint_config ?absint ?telemetry constrs.(i)))

type pipeline_error = {
  stage_index : int;
  blocking_value : Constr.value;
  completed : outcome list;
}

let solve_pipeline ?params ?sampler ?lint ?lint_config ?absint ?telemetry pipeline =
  let first = solve ?params ?sampler ?lint ?lint_config ?absint ?telemetry pipeline.Pipeline.initial in
  (* Stages transform a string; a positional decode (only the initial
     constraint can produce one, via Includes) has no string to feed
     forward, so the run stops with a typed error instead of silently
     degrading the input to "". *)
  let rec go index input acc = function
    | [] -> Ok (List.rev acc)
    | stage :: rest ->
      let constr = Pipeline.constraint_for stage ~input in
      let outcome = solve ?params ?sampler ?lint ?lint_config ?absint ?telemetry constr in
      let acc = outcome :: acc in
      (match outcome.value with
      | Constr.Str s -> go (index + 1) s acc rest
      | Constr.Pos _ when rest = [] -> Ok (List.rev acc)
      | Constr.Pos _ ->
        Error { stage_index = index; blocking_value = outcome.value; completed = List.rev acc })
  in
  match first.value with
  | Constr.Str s -> go 1 s [ first ] pipeline.Pipeline.stages
  | Constr.Pos _ when pipeline.Pipeline.stages = [] -> Ok [ first ]
  | Constr.Pos _ ->
    Error { stage_index = 0; blocking_value = first.value; completed = [ first ] }

let pipeline_output outcomes =
  match List.rev outcomes with
  | [] -> None
  | last :: _ -> ( match last.value with Constr.Str s -> Some s | Constr.Pos _ -> None)

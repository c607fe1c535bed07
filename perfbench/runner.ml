(* The three workloads as closed loops: one client on the calling
   domain issues the next query only after the previous one returned.
   Every query runs inside an exception guard; an exception is a failed
   operation, recorded with its message, and the loop goes on. *)

module Telemetry = Qsmt_util.Telemetry
module Parser = Qsmt_smtlib.Parser
module Interp = Qsmt_smtlib.Interp
module Solver = Qsmt_strtheory.Solver
module Sampler = Qsmt_anneal.Sampler
module Sampleset = Qsmt_anneal.Sampleset
module Qubo = Qsmt_qubo.Qubo

type query = {
  name : string;
  latency_s : float;  (** wall seconds over the host speed factor (see Speed) *)
  raw_s : float;  (** wall seconds as measured *)
  minor_words : float;  (** allocated on the calling domain during the query *)
  answer : string;  (** verdict and model, or best energy: what the fidelity check compares *)
  judgement : Oracle.judgement;
  failed : string option;  (** the exception, when the query raised *)
  canary_ok : bool;  (** the oracle rejected the mutant of an accepted model *)
  sampled : bool;  (** the query reached a sampler (as far as the benchmark can see) *)
  reads : int;  (** observed sampler reads *)
  hits : int;  (** reads that verify (SMT) or reach the planted energy (QUBO) *)
  calls : Layers.analysis list;  (** out-of-band analyses of its theory calls *)
  sampler_calls : Layers.reads list;  (** the sampler calls the benchmark observed *)
  bytes : int;  (** SMT-LIB text parsed *)
}

type run = {
  queries : query list;
  layers : Layers.t;
  snapshot : Telemetry.snapshot option;  (** the traced run's collector *)
}

(* The one place a query is timed: wall time and minor words on this
   domain around [f], nothing else in the window. The host speed factor
   is the mean of the factors read just before and just after (the
   latter a fresh probe only when the query took long enough for the
   host to have changed pace); it also scales the layer self times of
   the query and of the out-of-band work that follows it. Returns the
   result with a query record that carries the cost, to be completed. *)
let measure lt ~name f =
  Layers.commit lt;
  let before = Speed.factor () in
  let w0 = Gc.minor_words () in
  let t0 = Speed.now () in
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let t1 = Speed.now () in
  let w1 = Gc.minor_words () in
  let speed = (before +. Speed.factor ()) /. 2. in
  lt.Layers.speed <- speed;
  let q =
    {
      name;
      latency_s = (t1 -. t0) /. speed;
      raw_s = t1 -. t0;
      minor_words = w1 -. w0;
      answer = "exception";
      judgement = Oracle.Unsolved;
      failed = None;
      canary_ok = true;
      sampled = false;
      reads = 0;
      hits = 0;
      calls = [];
      sampler_calls = [];
      bytes = 0;
    }
  in
  match r with Ok v -> Ok (v, q) | Error msg -> Error { q with failed = Some msg }

(* ------------------------------------------------------------------ *)
(* SMT-LIB workloads                                                   *)

(* Parse and execute one script or chunk against [st], mirroring the
   assertion stack in [scope]; returns the check's verdict line and the
   assertions it was asked about. Errors the interpreter reports (a
   get-value after unknown, say) are output, not failures. *)
let exec_text lt st scope text =
  match Layers.timed lt lt.Layers.parse (fun () -> Parser.parse_script text) with
  | Error e -> ("parse-error: " ^ e, [])
  | Ok commands ->
    List.fold_left
      (fun (verdict, in_scope) cmd ->
        let out = Layers.timed lt lt.Layers.exec (fun () -> Interp.exec st cmd) in
        match Oracle.step scope cmd with
        | Some terms ->
          let v = match out with Ok [ v ] -> v | Ok _ -> "no-verdict" | Error e -> "error: " ^ e in
          (v, terms)
        | None -> (verdict, in_scope))
      ("no-check", []) commands

(* Grades a finished query with the oracle and fills in what the
   out-of-band analyses of its theory calls saw. *)
let smt_answer (script : Corpus.script) st (verdict, in_scope) ~sampled ~calls q =
  let model = if verdict = "sat" then Interp.model st else None in
  let judgement = Oracle.judge ~expect:script.Corpus.expect ~verdict ~model ~in_scope in
  let canary_ok =
    match (judgement, model) with
    | Oracle.Solved, Some m -> not (Oracle.accepts in_scope (Oracle.mutate m))
    | _ -> true
  in
  let sampler_calls = List.concat_map (fun a -> a.Layers.sampler_calls) calls in
  {
    q with
    answer = (match model with Some m -> verdict ^ " " ^ Oracle.render_model m | None -> verdict);
    judgement;
    canary_ok;
    sampled;
    reads = List.fold_left (fun n s -> n + s.Layers.reads) 0 sampler_calls;
    hits = List.fold_left (fun n s -> n + s.Layers.verified) 0 sampler_calls;
    calls;
    sampler_calls;
    bytes = String.length script.Corpus.text;
  }

(* The traced run's collector; the untraced run passes the null handle. *)
let collector trace = if trace then Telemetry.aggregate_only () else Telemetry.null

let run lt telemetry queries =
  Layers.commit lt;
  let snapshot = if Telemetry.enabled telemetry then Some (Telemetry.snapshot telemetry) else None in
  { queries; layers = lt; snapshot }

(* smt-cold: every script in a fresh interpreter with the default
   annealing backend (its sampler seen through a capturing wrapper). *)
let smt_cold ~trace scripts =
  let lt = Layers.create ~on:trace in
  let telemetry = collector trace in
  let query (script : Corpus.script) =
    let cap = Layers.capture () in
    match
      measure lt ~name:script.Corpus.name (fun () ->
          let sampler = Layers.wrap_sampler lt cap (Solver.default_sampler ~seed:0) in
          let backend =
            Layers.wrap_backend lt cap (Interp.annealing_backend ~sampler ~telemetry ())
          in
          let st = Interp.create ~backend () in
          (st, exec_text lt st (Oracle.scope ()) script.Corpus.text))
    with
    | Error q -> q
    | Ok ((st, checked), q) ->
      let calls = List.rev_map (Layers.analyze lt) cap.Layers.calls in
      let sampled = List.exists (fun c -> c.Layers.sampled <> []) cap.Layers.calls in
      smt_answer script st checked ~sampled ~calls q
  in
  let queries = List.map query scripts in
  run lt telemetry queries

(* smt-session: one interpreter for the whole stream, so later chunks
   meet the incremental tiers. The sampler is the backend's own: a
   wrapper would drop the warm starts this workload exists to measure.
   The traced run gives the backend a collector, and a query reached a
   sampler when the collector's sa.reads counter moved. *)
let smt_session ~trace chunks =
  let lt = Layers.create ~on:trace in
  let telemetry = collector trace in
  let cap = Layers.capture () in
  let backend = Layers.wrap_backend lt cap (Interp.annealing_backend ~telemetry ()) in
  let st = Interp.create ~backend () in
  let scope = Oracle.scope () in
  let sa_reads () = Option.value ~default:0 (Telemetry.find_counter telemetry "sa.reads") in
  let query (script : Corpus.script) =
    cap.Layers.calls <- [];
    let reads0 = sa_reads () in
    match measure lt ~name:script.Corpus.name (fun () -> exec_text lt st scope script.Corpus.text) with
    | Error q -> q
    | Ok (checked, q) ->
      let calls = if trace then List.rev_map (Layers.analyze lt) cap.Layers.calls else [] in
      smt_answer script st checked ~sampled:(sa_reads () > reads0) ~calls q
  in
  let queries = List.map query chunks in
  run lt telemetry queries

(* ------------------------------------------------------------------ *)
(* qubo-coupled                                                        *)

let energy_tol e = 1e-6 *. Float.max 1. (Float.abs e)

(* Every read re-priced with Qubo.energy: a read at the planted energy
   is a hit; one below it would contradict the planted optimum and is a
   wrong answer. *)
let qubo_coupled ~trace instances =
  let lt = Layers.create ~on:trace in
  let sampler = Sampler.simulated_annealing () in
  let query (inst : Corpus.instance) =
    let qubo = inst.Corpus.qubo in
    match
      measure lt ~name:inst.Corpus.iname (fun () ->
          Layers.timed lt lt.Layers.sample (fun () -> fst (Sampler.run_detailed sampler qubo)))
    with
    | Error q -> q
    | Ok (samples, q) ->
      let target = inst.Corpus.planted_energy in
      let tol = energy_tol target in
      let best, hits =
        List.fold_left
          (fun (best, hits) e ->
            let energy = Qubo.energy qubo e.Sampleset.bits in
            ( Float.min best energy,
              if energy <= target +. tol then hits + e.Sampleset.occurrences else hits ))
          (infinity, 0) (Sampleset.entries samples)
      in
      let reads = Sampleset.total_reads samples in
      {
        q with
        answer = Printf.sprintf "%.17g" best;
        judgement =
          (if best < target -. tol then Oracle.Wrong "read below the planted optimum"
           else if best <= target +. tol then Oracle.Solved
           else Oracle.Unsolved);
        sampled = true;
        reads;
        hits;
        sampler_calls = [ { Layers.vars = Qubo.num_vars qubo; reads; verified = hits; scanned = 0 } ];
      }
  in
  let queries = List.map query instances in
  run lt Telemetry.null queries

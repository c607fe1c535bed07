module Bitvec = Qsmt_util.Bitvec
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Mclock = Qsmt_util.Mclock
module Decompose = Qsmt_qubo.Decompose

type member_report = {
  member_name : string;
  samples : Sampleset.t;
  elapsed : float;
  cancelled : bool;
  failed : string option;
  hardware : Hardware.stats option;
}

type race_result = {
  merged : Sampleset.t;
  winner : (string * Bitvec.t) option;
  reports : member_report list;
  wall_time : float;
}

type recipe =
  | R_sa of Sa.params
  | R_sa_packed of Sa.params
  | R_sqa of Sqa.params
  | R_tabu of Tabu.params
  | R_pt of Pt.params
  | R_greedy of Greedy.params
  | R_exact of int option
  | R_hardware of (Qsmt_qubo.Qubo.t -> Hardware.params)
  | R_portfolio of { members : t list; jobs : int; budget : float option }
  | R_decomposed of { inner : t; dparams : Decompose.params }
  | R_custom of (Qsmt_qubo.Qubo.t -> Sampleset.t)

and t = { name : string; recipe : recipe }

let name t = t.name

(* The one traversal of every family's parameters. [seed] reseeds;
   [solo] turns internal read parallelism off ([domains = 1]) — portfolio
   members run one per job slot, so the race spends its concurrency
   budget across members, not within them. *)
let rec retune ?seed ~solo t =
  let reseed s = Option.value seed ~default:s in
  let domains d = if solo then 1 else d in
  let sa p = { p with Sa.seed = reseed p.Sa.seed; domains = domains p.Sa.domains } in
  let recipe =
    match t.recipe with
    | R_sa p -> R_sa (sa p)
    | R_sa_packed p -> R_sa_packed (sa p)
    | R_sqa p -> R_sqa { p with Sqa.seed = reseed p.Sqa.seed; domains = domains p.Sqa.domains }
    | R_tabu p -> R_tabu { p with Tabu.seed = reseed p.Tabu.seed; domains = domains p.Tabu.domains }
    | R_pt p -> R_pt { p with Pt.seed = reseed p.Pt.seed; domains = domains p.Pt.domains }
    | R_greedy p ->
      R_greedy { p with Greedy.seed = reseed p.Greedy.seed; domains = domains p.Greedy.domains }
    | R_hardware f ->
      R_hardware
        (fun q ->
          let p = f q in
          { p with Hardware.anneal = sa p.Hardware.anneal })
    | R_portfolio r -> R_portfolio { r with members = List.map (retune ?seed ~solo) r.members }
    | R_decomposed { inner; dparams } ->
      R_decomposed
        {
          inner = retune ?seed ~solo inner;
          dparams = { dparams with Decompose.seed = reseed dparams.Decompose.seed };
        }
    | (R_exact _ | R_custom _) as r -> r
  in
  { t with recipe }

let with_seed t seed = retune ~seed ~solo:false t

(* The one per-family dispatch. [stop]/[on_read] reach every family that
   polls them; [verify] only matters to a portfolio, which builds its own
   per-member hooks from it. *)
let rec sample ?init ?stop ?on_read ?verify ~telemetry t q =
  match t.recipe with
  | R_sa params -> (Sa.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_sa_packed params -> (Sa.run_packed ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_sqa params -> (Sqa.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_tabu params -> (Tabu.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_pt params -> (Pt.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_greedy params -> (Greedy.sample ~params ?init ?stop ?on_read ~telemetry q, None)
  | R_exact keep -> (Exact.solve ?keep ?stop q, None)
  | R_hardware f ->
    (* The hardware path samples over physical qubits behind a minor
       embedding; a logical warm start has no direct physical image, so
       it is ignored rather than guessed. Its [on_read] already sees
       logical bits, so a verifier applies unchanged. *)
    let r = Hardware.sample ~params:(f q) ?stop ?on_read ~telemetry q in
    (r.Hardware.samples, Some r.Hardware.stats)
  | R_portfolio { members; jobs; budget } ->
    let r = run_race ~jobs ~budget ~init ~verify ~telemetry members q in
    (r.merged, List.find_map (fun rep -> rep.hardware) r.reports)
  | R_decomposed { inner; dparams } ->
    if Qsmt_qubo.Qubo.num_vars q <= dparams.Decompose.subsize then begin
      (* The problem fits one embedding: delegate to the inner sampler
         with the caller's exact arguments, so --decompose on a fitting
         problem is bit-identical to the inner sampler alone. *)
      Telemetry.count telemetry "decomp.fallback" 1;
      sample ?init ?stop ?on_read ?verify ~telemetry inner q
    end
    else begin
      let tracked = Telemetry.enabled telemetry in
      (* Representative hardware diagnostics: keep the worst shard (the
         highest chain-break fraction) — the one whose reads bound the
         trustworthiness of the stitched answer. *)
      let worst = Atomic.make None in
      let solve_shard ~shard ~round sub =
        (* distinct seed per (shard, round) so repeated rounds explore
           rather than replay; 1024 shards per round is comfortably more
           than any partition produces *)
        let s = with_seed inner (dparams.Decompose.seed + (1024 * round) + shard) in
        let samples, hw = sample ~telemetry s sub in
        (match hw with
        | None -> ()
        | Some st ->
          if tracked then begin
            Telemetry.observe telemetry "decomp.chain_break_fraction"
              st.Hardware.mean_chain_break_fraction;
            if st.Hardware.degraded <> None then
              Telemetry.count telemetry "decomp.shard_degraded" 1
          end;
          let rec publish () =
            let cur = Atomic.get worst in
            let worse =
              match cur with
              | None -> true
              | Some prev ->
                st.Hardware.mean_chain_break_fraction
                > prev.Hardware.mean_chain_break_fraction
            in
            if worse && not (Atomic.compare_and_set worst cur (Some st)) then publish ()
          in
          publish ());
        match Sampleset.best_opt samples with
        | Some e -> e.Sampleset.bits
        | None -> failwith "Sampler.decomposed: inner sampler returned no reads"
      in
      let bits, report = Decompose.solve ~params:dparams ?init ~telemetry ~solve_shard q in
      (* [report.energy] is the whole-problem re-pricing of [bits], so
         the tracked energy is exact by construction. *)
      (Sampleset.of_tracked q [ (bits, report.Decompose.energy) ], Atomic.get worst)
    end
  | R_custom f -> (f q, None)

and run_race ~jobs ~budget ~init ~verify ~telemetry members q =
  if members = [] then invalid_arg "Sampler.race: no members";
  (match budget with Some b when b <= 0. -> invalid_arg "Sampler.race: budget <= 0" | _ -> ());
  let members = Array.of_list (List.map (retune ~solo:true) members) in
  let n = Array.length members in
  let jobs = if jobs > 0 then min jobs n else min (Parallel.recommended_domains ()) n in
  let t0 = Mclock.now () in
  (* Set once a verified sample is found (or, defensively, never): every
     member's stop closure reads it, so one member's win cancels the rest
     at their next poll point. *)
  let stop_all = Atomic.make false in
  let winner = Atomic.make None in
  let tracked = Telemetry.enabled telemetry in
  let try_win name bits =
    (* Copy before publishing: heuristic reads hand us their live buffer. *)
    if Atomic.compare_and_set winner None (Some (name, Bitvec.copy bits)) then begin
      Atomic.set stop_all true;
      if tracked then
        Telemetry.emit telemetry "portfolio.winner"
          [
            ("member", Telemetry.Str name);
            ("elapsed_s", Telemetry.Float (Mclock.now () -. t0));
          ]
    end
  in
  let reports = Array.make n None in
  let run_one k =
    let m = members.(k) in
    if tracked then
      Telemetry.emit telemetry "portfolio.member.start"
        [ ("member", Telemetry.Str m.name); ("index", Telemetry.Int k) ];
    let started = Mclock.now () in
    let deadline = Option.map (fun b -> started +. b) budget in
    let stop () =
      Atomic.get stop_all || match deadline with Some d -> Mclock.now () > d | None -> false
    in
    let on_read bits =
      match verify with Some ok -> if ok bits then try_win m.name bits | None -> ()
    in
    (* The whole member — its sampler run AND the verify scan below (the
       predicate is caller code and may raise too) — reports failure as
       data, never as an exception: one crashed member must not abort the
       race, the survivors keep running and the caller reads the typed
       [failed] field. *)
    let samples, hardware, failed =
      if Atomic.get stop_all then (Sampleset.empty, None, None)
      else
        match sample ?init ~stop ~on_read ?verify ~telemetry m q with
        | samples, hardware ->
          (* Polling members verify through [on_read]; exact only yields
             a sample set at the end, so scan it here. Re-scanning a
             heuristic's set is a harmless no-op once a winner exists. *)
          (match verify with
          | Some ok ->
            (match
               List.iter
                 (fun e ->
                   if Atomic.get winner = None && ok e.Sampleset.bits then
                     try_win m.name e.Sampleset.bits)
                 (Sampleset.entries samples)
             with
            | () -> (samples, hardware, None)
            | exception e -> (samples, hardware, Some (Printexc.to_string e)))
          | None -> (samples, hardware, None))
        | exception e -> (Sampleset.empty, None, Some (Printexc.to_string e))
    in
    if failed <> None then Telemetry.count telemetry "portfolio.member_failed" 1;
    let finished = Mclock.now () in
    let cancelled =
      (Atomic.get stop_all || match deadline with Some d -> finished > d | None -> false)
      && failed = None
    in
    if tracked then
      Telemetry.emit telemetry "portfolio.member.done"
        [
          ("member", Telemetry.Str m.name);
          ("index", Telemetry.Int k);
          ("elapsed_s", Telemetry.Float (finished -. started));
          ("reads", Telemetry.Int (Sampleset.total_reads samples));
          ("cancelled", Telemetry.Bool cancelled);
          ("failed", Telemetry.Bool (failed <> None));
        ];
    reports.(k) <-
      Some
        { member_name = m.name; samples; elapsed = finished -. started; cancelled; failed; hardware }
  in
  (* Cap concurrency at [jobs] by folding members into that many
     sequential chains; the pool schedules the chains over idle workers
     plus this domain. *)
  let chains =
    List.map
      (fun (lo, size) () ->
        for k = lo to lo + size - 1 do
          run_one k
        done)
      (Parallel.partition n jobs)
  in
  Parallel.Pool.run_list ~telemetry (Parallel.Pool.global ()) chains;
  (* [run_one] is total, so every slot should be filled; if a worker job
     nevertheless died before reaching member [k] (a pool-level failure,
     not a member exception), the member surfaces as a typed per-member
     failure rather than aborting the whole race. *)
  let reports =
    Array.to_list reports
    |> List.mapi (fun k -> function
         | Some r -> r
         | None ->
           Telemetry.count telemetry "portfolio.member_failed" 1;
           {
             member_name = members.(k).name;
             samples = Sampleset.empty;
             elapsed = 0.;
             cancelled = false;
             failed = Some "member produced no result (worker job aborted)";
             hardware = None;
           })
  in
  let merged =
    List.fold_left (fun acc r -> Sampleset.merge acc r.samples) Sampleset.empty reports
  in
  { merged; winner = Atomic.get winner; reports; wall_time = Mclock.now () -. t0 }

let race ?(jobs = 0) ?budget ?init ?verify ?(telemetry = Telemetry.null) members q =
  run_race ~jobs ~budget ~init ~verify ~telemetry members q

let run_detailed ?verify ?init ?(early_exit = false) ?(telemetry = Telemetry.null) t q =
  (* Early exit is opt-in (and needs a verifier): the stop/on_read hooks
     truncate the polling samplers' read loops on the first verified
     read, which changes the sample set — cold solves keep the exhaustive
     deterministic behavior, incremental warm re-solves turn this on. *)
  match verify with
  | Some ok when early_exit ->
    let found = Atomic.make false in
    let stop () = Atomic.get found in
    let on_read bits = if (not (Atomic.get found)) && ok bits then Atomic.set found true in
    sample ?init ~stop ~on_read ?verify ~telemetry t q
  | _ -> sample ?init ?verify ~telemetry t q

let run ?verify ?init ?early_exit ?telemetry t q =
  fst (run_detailed ?verify ?init ?early_exit ?telemetry t q)

let make ~name f = { name; recipe = R_custom f }
let simulated_annealing ?(params = Sa.default) () = { name = "sa"; recipe = R_sa params }

let simulated_annealing_packed ?(params = Sa.default) () =
  { name = "sa_packed"; recipe = R_sa_packed params }

let simulated_quantum_annealing ?(params = Sqa.default) () = { name = "sqa"; recipe = R_sqa params }

let tabu ?(params = Tabu.default) () = { name = "tabu"; recipe = R_tabu params }
let parallel_tempering ?(params = Pt.default) () = { name = "pt"; recipe = R_pt params }
let greedy ?(params = Greedy.default) () = { name = "greedy"; recipe = R_greedy params }
let exact ?keep () = { name = "exact"; recipe = R_exact keep }
let hardware_auto f = { name = "hardware"; recipe = R_hardware f }
let hardware ~params = hardware_auto (fun _ -> params)

let default_suite ~seed =
  [
    simulated_annealing ~params:{ Sa.default with Sa.seed } ();
    simulated_quantum_annealing ~params:{ Sqa.default with Sqa.seed } ();
    parallel_tempering ~params:{ Pt.default with Pt.seed } ();
    tabu ~params:{ Tabu.default with Tabu.seed } ();
    greedy ~params:{ Greedy.default with Greedy.seed } ();
  ]

let portfolio ?(members = default_suite ~seed:0) ?(jobs = 0) ?budget () =
  { name = "portfolio"; recipe = R_portfolio { members; jobs; budget } }

let decomposed ?(params = Decompose.default) inner =
  { name = inner.name ^ "+decompose"; recipe = R_decomposed { inner; dparams = params } }

module Bitvec = Qsmt_util.Bitvec
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Mclock = Qsmt_util.Mclock

type member =
  | M_sa of Sa.params
  | M_sa_packed of Sa.params
  | M_sqa of Sqa.params
  | M_tabu of Tabu.params
  | M_pt of Pt.params
  | M_greedy of Greedy.params
  | M_exact of int option
  | M_hardware of Hardware.params

type params = {
  members : member list;
  jobs : int;
  budget : float option;
}

type member_report = {
  member_name : string;
  samples : Sampleset.t;
  elapsed : float;
  cancelled : bool;
  failed : string option;
  hardware : Hardware.stats option;
}

type result = {
  merged : Sampleset.t;
  winner : (string * Bitvec.t) option;
  reports : member_report list;
  wall_time : float;
}

let member_name = function
  | M_sa _ -> "sa"
  | M_sa_packed _ -> "sa_packed"
  | M_sqa _ -> "sqa"
  | M_tabu _ -> "tabu"
  | M_pt _ -> "pt"
  | M_greedy _ -> "greedy"
  | M_exact _ -> "exact"
  | M_hardware _ -> "hardware"

(* Portfolio members run one per job slot, so their internal read
   parallelism stays off ([domains = 1]) — the concurrency budget is
   spent across members, not within them. *)
let member_with_seed seed = function
  | M_sa p -> M_sa { p with Sa.seed; domains = 1 }
  | M_sa_packed p -> M_sa_packed { p with Sa.seed; domains = 1 }
  | M_sqa p -> M_sqa { p with Sqa.seed; domains = 1 }
  | M_tabu p -> M_tabu { p with Tabu.seed; domains = 1 }
  | M_pt p -> M_pt { p with Pt.seed; domains = 1 }
  | M_greedy p -> M_greedy { p with Greedy.seed; domains = 1 }
  | M_exact _ as m -> m
  | M_hardware p ->
    M_hardware { p with Hardware.anneal = { p.Hardware.anneal with Sa.seed; domains = 1 } }

let default_members ~seed =
  List.map (member_with_seed seed)
    [
      M_sa Sa.default;
      M_sqa Sqa.default;
      M_pt Pt.default;
      M_tabu Tabu.default;
      M_greedy Greedy.default;
    ]

let default = { members = default_members ~seed:0; jobs = 0; budget = None }

let reseed params seed = { params with members = List.map (member_with_seed seed) params.members }

(* Returns the member's samples plus the hardware diagnostics when the
   member is the QPU-workflow emulation (its [on_read] already sees
   logical bits, so the shared verifier applies unchanged). *)
let run_member ?init ~stop ~on_read ~telemetry member q =
  match member with
  | M_sa params -> (Sa.sample ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_sa_packed params -> (Sa.run_packed ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_sqa params -> (Sqa.sample ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_tabu params -> (Tabu.sample ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_pt params -> (Pt.sample ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_greedy params -> (Greedy.sample ~params ?init ~stop ~on_read ~telemetry q, None)
  | M_exact keep -> (Exact.solve ?keep ~stop q, None)
  | M_hardware params ->
    (* The hardware path samples over physical qubits behind a minor
       embedding; a logical warm start has no direct physical image, so
       it is ignored rather than guessed. *)
    let r = Hardware.sample ~params ~stop ~on_read ~telemetry q in
    (r.Hardware.samples, Some r.Hardware.stats)

let run ?(params = default) ?init ?verify ?(telemetry = Telemetry.null) q =
  if params.members = [] then invalid_arg "Portfolio.run: no members";
  (match params.budget with
  | Some b when b <= 0. -> invalid_arg "Portfolio.run: budget <= 0"
  | _ -> ());
  let members = Array.of_list params.members in
  let n = Array.length members in
  let jobs =
    if params.jobs > 0 then min params.jobs n else min (Parallel.recommended_domains ()) n
  in
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
    let name = member_name m in
    if tracked then
      Telemetry.emit telemetry "portfolio.member.start"
        [ ("member", Telemetry.Str name); ("index", Telemetry.Int k) ];
    let started = Mclock.now () in
    let deadline =
      match params.budget with Some b -> Some (started +. b) | None -> None
    in
    let stop () =
      Atomic.get stop_all
      || match deadline with Some d -> Mclock.now () > d | None -> false
    in
    let on_read bits =
      match verify with
      | Some ok -> if ok bits then try_win name bits
      | None -> ()
    in
    (* The whole member — its sampler run AND the verify scan below (the
       predicate is caller code and may raise too) — reports failure as
       data, never as an exception: one crashed member must not abort the
       race, the survivors keep running and the caller reads the typed
       [failed] field. *)
    let samples, hardware, failed =
      if Atomic.get stop_all then (Sampleset.empty, None, None)
      else
        match run_member ?init ~stop ~on_read ~telemetry m q with
        | samples, hardware ->
          (* Heuristic members verify through [on_read]; [Exact] only
             yields a sample set at the end, so scan it here. Re-scanning
             a heuristic's set is a harmless no-op once a winner exists. *)
          (match verify with
          | Some ok ->
            (match
               List.iter
                 (fun e ->
                   if Atomic.get winner = None && ok e.Sampleset.bits then
                     try_win name e.Sampleset.bits)
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
          ("member", Telemetry.Str name);
          ("index", Telemetry.Int k);
          ("elapsed_s", Telemetry.Float (finished -. started));
          ("reads", Telemetry.Int (Sampleset.total_reads samples));
          ("cancelled", Telemetry.Bool cancelled);
          ("failed", Telemetry.Bool (failed <> None));
        ];
    reports.(k) <-
      Some
        { member_name = name; samples; elapsed = finished -. started; cancelled; failed; hardware }
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
             member_name = member_name members.(k);
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
  {
    merged;
    winner = Atomic.get winner;
    reports;
    wall_time = Mclock.now () -. t0;
  }

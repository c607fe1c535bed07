module Qubo = Qsmt_qubo.Qubo
module Analyze = Qsmt_qubo.Analyze
module Ascii7 = Qsmt_util.Ascii7
module Bitvec = Qsmt_util.Bitvec
module Telemetry = Qsmt_util.Telemetry
module Sampleset = Qsmt_anneal.Sampleset
module Sampler = Qsmt_anneal.Sampler

type t = {
  params : Params.t option;
  sampler : Sampler.t;
  lint : Lint.gate;
  lint_config : Lint.config option;
  absint : Absint.gate;
  telemetry : Telemetry.t;
  (* Per-conjunct frozen encodings, gated once at insertion. [Constr.t]
     is a plain structural value, so it keys the table directly. *)
  encode_cache : (Constr.t, Qubo.t) Hashtbl.t;
  (* The last joint conjunction solved: conjuncts in canonical order and
     their merged QUBO. When the next query extends this list, the
     merged matrix is coefficient-patched instead of rebuilt. *)
  mutable merged : (Constr.t list * Qubo.t) option;
  (* Best assignment of the previous anneal, as (num_vars, bits) — the
     reverse-anneal seed for the next query of the same size. *)
  mutable warm : (int * Bitvec.t) option;
  (* The previous satisfying string: if it still verifies against the
     new conjuncts (the pop case — constraints only got weaker), no
     sampling is needed at all. *)
  mutable last_sat : string option;
}

let create ?params ?sampler ?(lint = `Off) ?lint_config ?(absint = `On)
    ?(telemetry = Telemetry.null) () =
  let sampler = match sampler with Some s -> s | None -> Solver.default_sampler ~seed:0 in
  {
    params;
    sampler;
    lint;
    lint_config;
    absint;
    telemetry;
    encode_cache = Hashtbl.create 16;
    merged = None;
    warm = None;
    last_sat = None;
  }

let reset t =
  Hashtbl.reset t.encode_cache;
  t.merged <- None;
  t.warm <- None;
  t.last_sat <- None

(* ------------------------------------------------------------------ *)
(* Encoding: per-conjunct cache, delta-patched merge                   *)

let encode_cached t constr =
  match Hashtbl.find_opt t.encode_cache constr with
  | Some q ->
    Telemetry.count t.telemetry "incr.encode_hit" 1;
    q
  | None ->
    let q = Compile.to_qubo ?params:t.params ~telemetry:t.telemetry constr in
    (* Gate each conjunct once, at insertion: everything later built
       from cached parts is a sum of individually-vetted encodings. *)
    (match t.lint with
    | `Off -> ()
    | (`Error | `Warning) as gate ->
      Lint.gate_check ?config:t.lint_config ~telemetry:t.telemetry ~gate constr q);
    Hashtbl.replace t.encode_cache constr q;
    q

(* Matrix-only re-check of a patched or re-merged conjunction QUBO.
   The constraint-aware lint ran per part in [encode_cached]; what can
   still go wrong in the sum is what a matrix alone reveals — non-finite
   entries, dynamic range blowing past analog precision. Rejections
   carry the first conjunct as the location anchor. *)
let gate_merged t cs qubo =
  match t.lint with
  | `Off -> ()
  | (`Error | `Warning) as gate ->
    let config =
      match t.lint_config with
      | Some c -> c.Lint.analyze
      | None -> Analyze.default_config
    in
    let findings = Analyze.check_finite qubo @ Analyze.check_dynamic_range ~config qubo in
    let threshold = match gate with `Error -> 2 | `Warning -> 1 in
    let rejected =
      List.exists (fun f -> Analyze.severity_rank f.Analyze.severity >= threshold) findings
    in
    if rejected then begin
      Telemetry.count t.telemetry "lint.rejected" 1;
      raise (Lint.Rejected (List.hd cs, findings))
    end

(* [i] is a strict prefix of [cs] -> Some suffix, else None. *)
let rec strict_prefix prev cs =
  match (prev, cs) with
  | [], [] -> None
  | [], suffix -> Some suffix
  | _, [] -> None
  | p :: prev, c :: cs -> if p = c then strict_prefix prev cs else None

(* The merged QUBO for [cs] (canonical conjunct order), with three
   tiers: exact cache hit, coefficient patch of the previous merge
   (strict-prefix extension), full re-merge from cached parts. All
   three are bit-exact equal to [Joint.encode]'s result: the patch adds
   coefficients in the same left-fold order the builder would, and the
   re-merge goes through the same [Joint.merge_frozen]. *)
let obtain t cs ~num_vars =
  let fresh () =
    let parts = List.map (encode_cached t) cs in
    Telemetry.count t.telemetry "incr.remerged" 1;
    Joint.merge_frozen ~num_vars parts
  in
  let qubo =
    match t.merged with
    | Some (prev_cs, prev_q) when prev_cs = cs && Qubo.num_vars prev_q = num_vars ->
      Telemetry.count t.telemetry "incr.cache_hit" 1;
      prev_q
    | Some (prev_cs, prev_q) when Qubo.num_vars prev_q = num_vars -> begin
      match strict_prefix prev_cs cs with
      | None -> fresh ()
      | Some suffix -> begin
        let parts = List.map (encode_cached t) suffix in
        match Qubo.patch_parts prev_q parts with
        | Some (patched, coeffs) ->
          Telemetry.count t.telemetry "incr.patched" 1;
          Telemetry.count t.telemetry "incr.patched_coeffs" coeffs;
          gate_merged t cs patched;
          patched
        | None -> fresh ()
      end
    end
    | _ -> fresh ()
  in
  t.merged <- Some (cs, qubo);
  qubo

(* ------------------------------------------------------------------ *)
(* Model reuse, warm start + cold retry: the search policy both query
   kinds hand to the shared solve chain                               *)

let note_warm t samples =
  match Sampleset.best_opt samples with
  | Some e -> t.warm <- Some (Bitvec.length e.Sampleset.bits, Bitvec.copy e.Sampleset.bits)
  | None -> ()

let note_sat t value satisfied =
  match (satisfied, value) with
  | true, Constr.Str s -> t.last_sat <- Some s
  | _ -> ()

(* The previous satisfying string, when it spans exactly the query's
   variables and still verifies (the pop case — constraints only got
   weaker), short-circuits sampling entirely. Otherwise the anneal is
   seeded from the previous best assignment of the same size and may
   early-exit on the first verified read; a failed warm run retries the
   exact cold configuration, so an incremental verdict is never worse
   than a from-scratch one. *)
let search t ~qubo ~model ~anneal =
  let num_vars = Qubo.num_vars qubo in
  let reused =
    match t.last_sat with
    | Some s when 7 * String.length s = num_vars ->
      let o = model (Ascii7.encode s) in
      if o.Solver.satisfied then Some o else None
    | _ -> None
  in
  let outcome =
    match (reused, t.warm) with
    | Some o, _ ->
      Telemetry.count t.telemetry "incr.model_reuse" 1;
      o
    | None, Some (n, bits) when n = num_vars ->
      Telemetry.count t.telemetry "incr.warm_start" 1;
      let o = anneal (Some (Bitvec.copy bits)) in
      if o.Solver.satisfied then o
      else begin
        Telemetry.count t.telemetry "incr.cold_retry" 1;
        anneal None
      end
    | None, _ -> anneal None
  in
  note_warm t outcome.Solver.samples;
  outcome

let solve_generate t constr =
  let outcome =
    match
      Solver.chain ~sampler:t.sampler ~absint:t.absint ~telemetry:t.telemetry ~gc_probe:false
        ~lint:None ~search:(search t)
        ~encode:(fun () -> encode_cached t constr)
        [ constr ]
    with
    | Ok (o, _) -> o
    | Error _ -> Solver.unanswered constr
  in
  note_sat t outcome.Solver.value outcome.Solver.satisfied;
  outcome

let solve_joint t cs =
  let result =
    Joint.solve_with ~sampler:t.sampler ~absint:t.absint ~telemetry:t.telemetry
      ~encode:(obtain t cs) ~search:(search t) cs
  in
  Result.iter (fun o -> note_sat t (Constr.Str o.Joint.value) o.Joint.satisfied) result;
  result

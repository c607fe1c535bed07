module Analyze = Qsmt_qubo.Analyze
module Qubo = Qsmt_qubo.Qubo
module Qgraph = Qsmt_qubo.Qgraph
module Chain = Qsmt_anneal.Chain
module Embedding = Qsmt_anneal.Embedding
module Hardware = Qsmt_anneal.Hardware
module Topology = Qsmt_anneal.Topology
module Telemetry = Qsmt_util.Telemetry

type finding = Analyze.finding
type severity = Analyze.severity

(* ------------------------------------------------------------------ *)
(* configuration *)

type chain_spec = {
  kind : Hardware.topology_kind;
  size : int;
  strength : float option;
  embed_seed : int;
  embed_tries : int;
}

let chain_spec ?(size = 0) ?strength ?(seed = 0) ?(tries = 16) kind =
  { kind; size; strength; embed_seed = seed; embed_tries = tries }

type config = {
  analyze : Analyze.config;
  soundness : bool;
  chain : chain_spec option;
}

let default_config = { analyze = Analyze.default_config; soundness = true; chain = None }

let finding severity check location message =
  { Analyze.severity; check; location; message }

(* ------------------------------------------------------------------ *)
(* soundness / gap (exhaustive, against the classical oracle) *)

let soundness_findings config constr q =
  match Analyze.enumerate ~max_vars:config.analyze.Analyze.max_enum_vars q with
  | Error free ->
    [
      finding Analyze.Info "enumeration-skipped" Analyze.Global
        (Printf.sprintf
           "residual keeps %d free variables (> %d): ground-set soundness not statically checked"
           free config.analyze.Analyze.max_enum_vars);
    ]
  | Ok e ->
    let tol = Analyze.ground_tolerance e in
    let max_abs = Qubo.max_abs_coefficient q in
    let gap_threshold = config.analyze.Analyze.gap_fraction *. max_abs in
    let unsound_examples = ref [] in
    let unsound_count = ref 0 in
    let min_violating = ref infinity in
    let sat_above_ground = ref 0 in
    let n = Array.length e.Analyze.energies in
    let check = Constr.checker constr in
    for k = 0 to n - 1 do
      let energy = e.Analyze.energies.(k) in
      let value = Compile.decode constr (Analyze.assignment e k) in
      let sat = check value in
      if energy <= e.Analyze.ground_energy +. tol then begin
        if not sat then begin
          incr unsound_count;
          if List.length !unsound_examples < 3 then
            unsound_examples := (value, energy) :: !unsound_examples
        end
      end
      else if sat then incr sat_above_ground
      else if energy < !min_violating then min_violating := energy
    done;
    let unsound =
      List.rev_map
        (fun (value, energy) ->
          finding Analyze.Error "unsound-ground-state" Analyze.Global
            (Format.asprintf
               "ground state (energy %g) decodes to %a, which violates the constraint" energy
               Constr.pp_value value))
        !unsound_examples
    in
    let unsound =
      if !unsound_count > List.length unsound then
        unsound
        @ [
            finding Analyze.Error "unsound-ground-state" Analyze.Global
              (Printf.sprintf "%d further violating ground state(s) not listed"
                 (!unsound_count - List.length unsound));
          ]
      else unsound
    in
    let gap =
      if Float.is_finite !min_violating then begin
        let g = !min_violating -. e.Analyze.ground_energy in
        if g < gap_threshold then
          [
            finding Analyze.Warning "penalty-gap" Analyze.Global
              (Printf.sprintf
                 "minimum gap between satisfying and violating assignments is %g (< %g = %g x \
                  max|Q|): noise this small flips the answer"
                 g gap_threshold config.analyze.Analyze.gap_fraction);
          ]
        else []
      end
      else []
    in
    let shallow =
      match e.Analyze.min_flip_gap with
      | Some g when g < gap_threshold ->
        [
          finding Analyze.Warning "shallow-excitation" Analyze.Global
            (Printf.sprintf
               "shallowest single-bit excitation from a ground state is %g (< %g = %g x max|Q|): \
                a soft bias this weak is easily lost to thermal noise or rounding"
               g gap_threshold config.analyze.Analyze.gap_fraction);
        ]
      | _ -> []
    in
    let preference =
      if !sat_above_ground > 0 then
        [
          finding Analyze.Info "soft-preference" Analyze.Global
            (Printf.sprintf
               "%d satisfying assignment(s) lie above the ground energy: soft biases / \
                first-match preference steer the sampler to a subset of the solutions"
               !sat_above_ground);
        ]
      else []
    in
    unsound @ gap @ shallow @ preference

(* ------------------------------------------------------------------ *)
(* chain-strength adequacy *)

let chain_findings config spec q =
  if Qubo.num_vars q = 0 then []
  else begin
    let topology =
      if spec.size > 0 then
        Ok
          (match spec.kind with
          | `Chimera -> Topology.chimera ~m:spec.size ()
          | `King -> Topology.king ~rows:spec.size ~cols:spec.size
          | `Complete -> Topology.complete spec.size)
      else
        match Hardware.auto_topology ~seed:spec.embed_seed ~kind:spec.kind q with
        | topo -> Ok topo
        | exception Hardware.Embedding_failed msg -> Error msg
    in
    match topology with
    | Error msg -> [ finding Analyze.Error "no-embedding" Analyze.Global msg ]
    | Ok topo -> begin
      let problem = Qgraph.of_qubo q in
      let hardware = Topology.graph topo in
      match
        Embedding.find ~seed:spec.embed_seed ~tries:spec.embed_tries ~problem ~hardware ()
      with
      | None ->
        [
          finding Analyze.Error "no-embedding" Analyze.Global
            (Printf.sprintf "problem does not embed into %s within %d tries" (Topology.name topo)
               spec.embed_tries);
        ]
      | Some embedding ->
        let embedding = Embedding.trim ~problem ~hardware embedding in
        let recommended = Chain.default_strength q in
        let bound = Chain.max_local_field q in
        let strength = Option.value spec.strength ~default:recommended in
        let summary =
          finding Analyze.Info "embedding" Analyze.Global
            (Printf.sprintf "embeds into %s: %d/%d qubits, max chain %d, chain strength %g"
               (Topology.name topo)
               (Embedding.total_qubits_used embedding)
               (Topology.num_qubits topo)
               (Embedding.max_chain_length embedding)
               strength)
        in
        let strength_findings =
          if (not (Float.is_finite strength)) || strength <= 0. then
            [
              finding Analyze.Error "chain-strength" Analyze.Global
                (Printf.sprintf "chain strength %g is not a positive finite value" strength);
            ]
          else if strength < recommended then
            [
              finding Analyze.Warning "chain-strength" Analyze.Global
                (Printf.sprintf
                   "chain strength %g is below the recommended %g (2 x max|Q|): chains break in \
                    practice and the hardware sampler's escalation loop would have to rescue \
                    this setting"
                   strength recommended);
            ]
          else if strength < bound then
            [
              finding Analyze.Info "chain-strength-bound" Analyze.Global
                (Printf.sprintf
                   "chain strength %g is below the worst-case no-break bound %g (max local \
                    field): ground-state chain breaks are unlikely but not excluded"
                   strength bound);
            ]
          else []
        in
        let precision_findings =
          if (not (Float.is_finite strength)) || strength <= 0. then []
          else
            Chain.embed_qubo q ~embedding ~hardware ~chain_strength:strength
            |> Analyze.check_dynamic_range ~config:config.analyze
            |> List.map (fun f ->
                   {
                     f with
                     Analyze.check = "chain-dynamic-range";
                     message = "after embedding: " ^ f.Analyze.message;
                   })
        in
        (summary :: strength_findings) @ precision_findings
    end
  end

(* ------------------------------------------------------------------ *)
(* drivers *)

let order_findings findings =
  (* Most severe first; List.stable_sort keeps check order within a
     severity, so output is deterministic. *)
  List.stable_sort
    (fun a b ->
      compare
        (Analyze.severity_rank b.Analyze.severity)
        (Analyze.severity_rank a.Analyze.severity))
    findings

let record_telemetry telemetry findings =
  if Telemetry.enabled telemetry then
    List.iter
      (fun f ->
        Telemetry.count telemetry ("lint." ^ Analyze.severity_name f.Analyze.severity) 1;
        Telemetry.count telemetry ("lint.check." ^ f.Analyze.check) 1)
      findings

let lint_compiled ?(config = default_config) ?(overwrites = []) ?(telemetry = Telemetry.null)
    constr q =
  let structural = Analyze.structural ~config:config.analyze ~overwrites q in
  let expected_vars = Constr.num_vars constr in
  let mismatch = Qubo.num_vars q <> expected_vars in
  let oracle =
    if mismatch then
      [
        finding Analyze.Error "variable-count-mismatch" Analyze.Global
          (Printf.sprintf "QUBO has %d variables but the constraint decodes %d" (Qubo.num_vars q)
             expected_vars);
      ]
    else if config.soundness then soundness_findings config constr q
    else []
  in
  let chain =
    match config.chain with
    | Some spec when not mismatch -> chain_findings config spec q
    | _ -> []
  in
  let findings = order_findings (structural @ oracle @ chain) in
  record_telemetry telemetry findings;
  findings

let lint ?(config = default_config) ?params ?telemetry constr =
  let q, overwrites = Qubo.with_overwrite_log (fun () -> Compile.to_qubo ?params constr) in
  lint_compiled ~config ~overwrites ?telemetry constr q

(* ------------------------------------------------------------------ *)
(* pre-sample gate *)

type gate = [ `Off | `Error | `Warning ]

exception Rejected of Constr.t * finding list

let gate_check ?(config = default_config) ?(telemetry = Telemetry.null) ~gate constr q =
  match gate with
  | `Off -> ()
  | (`Error | `Warning) as level ->
    let findings = lint_compiled ~config ~telemetry constr q in
    let threshold =
      match level with `Error -> Analyze.severity_rank Analyze.Error | `Warning -> Analyze.severity_rank Analyze.Warning
    in
    let triggered =
      List.exists (fun f -> Analyze.severity_rank f.Analyze.severity >= threshold) findings
    in
    if triggered then begin
      Telemetry.count telemetry "lint.rejected" 1;
      raise (Rejected (constr, findings))
    end

(* ------------------------------------------------------------------ *)
(* rendering *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let location_to_json = function
  | Analyze.Global -> {|{"kind":"global"}|}
  | Analyze.Var i -> Printf.sprintf {|{"kind":"var","i":%d}|} i
  | Analyze.Coupler (i, j) -> Printf.sprintf {|{"kind":"coupler","i":%d,"j":%d}|} i j

let finding_to_json f =
  Printf.sprintf {|{"severity":"%s","check":"%s","location":%s,"message":"%s"}|}
    (Analyze.severity_name f.Analyze.severity)
    (json_escape f.Analyze.check)
    (location_to_json f.Analyze.location)
    (json_escape f.Analyze.message)

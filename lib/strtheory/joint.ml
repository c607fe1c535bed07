module Qubo = Qsmt_qubo.Qubo
module Sampleset = Qsmt_anneal.Sampleset

let ( let* ) = Result.bind

let compatible c =
  match c with
  | Constr.Includes _ -> None
  | Constr.Equals _ | Constr.Concat _ | Constr.Contains _ | Constr.Index_of _
  | Constr.Has_length _ | Constr.Replace_all _ | Constr.Replace_first _ | Constr.Reverse _
  | Constr.Palindrome _ | Constr.Regex _ -> begin
    match Constr.validate c with Ok () -> Some (Constr.num_vars c / 7) | Error _ -> None
  end

let common_length cs =
  match cs with
  | [] -> Error "Joint.encode: empty conjunction"
  | first :: rest -> begin
    match compatible first with
    | None -> Error ("not joint-encodable: " ^ Constr.describe first)
    | Some len ->
      List.fold_left
        (fun acc c ->
          let* len = acc in
          match compatible c with
          | Some l when l = len -> Ok len
          | Some l ->
            Error
              (Printf.sprintf "length mismatch: %s has length %d, expected %d"
                 (Constr.describe c) l len)
          | None -> Error ("not joint-encodable: " ^ Constr.describe c))
        (Ok len) rest
  end

(* The one true merge fold. The incremental solver re-merges cached
   per-conjunct QUBOs through this exact function, so its result is
   bit-exact equal to a full recompile by construction — float additions
   happen in the same order, per coefficient slot. *)
let merge_frozen ~num_vars parts =
  let merged = Qubo.builder () in
  List.iter
    (fun q ->
      Qubo.iter_linear q (fun i v -> Qubo.add merged i i v);
      Qubo.iter_quadratic q (fun i j v -> Qubo.add merged i j v);
      Qubo.add_offset merged (Qubo.offset q))
    parts;
  Qubo.freeze ~num_vars merged

let encode ?params cs =
  let* length = common_length cs in
  let parts = List.map (fun c -> Compile.to_qubo ?params c) cs in
  Ok (merge_frozen ~num_vars:(7 * length) parts, length)

type outcome = {
  qubo : Qubo.t;
  samples : Sampleset.t;
  value : string;
  satisfied : bool;
  per_constraint : (Constr.t * bool) list;
  decided : Absint.analysis option;
}

let solve_with ~sampler ~absint ~telemetry ~encode ~search cs =
  let* length = common_length cs in
  let* o, _ =
    Solver.chain ~sampler ~absint ~telemetry ~gc_probe:false ~lint:None ~search
      ~encode:(fun () -> encode ~num_vars:(7 * length))
      cs
  in
  let value = match o.Solver.value with Constr.Str s -> s | Constr.Pos _ -> "" in
  Ok
    {
      qubo = o.Solver.qubo;
      samples = o.Solver.samples;
      value;
      satisfied = o.Solver.satisfied;
      per_constraint = List.combine cs o.Solver.conjuncts_ok;
      decided = o.Solver.decided;
    }

let solve ?params ?sampler ?(absint = `On) ?(telemetry = Qsmt_util.Telemetry.null) cs =
  let sampler = match sampler with Some s -> s | None -> Solver.default_sampler ~seed:0 in
  solve_with ~sampler ~absint ~telemetry ~search:Solver.cold
    ~encode:(fun ~num_vars ->
      merge_frozen ~num_vars (List.map (Compile.to_qubo ?params ~telemetry) cs))
    cs

(* The benchmark's own correctness oracle.

   A sat answer is accepted only when the model the interpreter returns
   makes every assertion in scope evaluate to true under
   Qsmt_smtlib.Eval, re-evaluated here from the script's own commands;
   sat on an entry labelled unsat, unsat on an entry labelled sat, or a
   rejected model is a wrong answer. unknown is merely unsolved. *)

module Ast = Qsmt_smtlib.Ast
module Eval = Qsmt_smtlib.Eval

type model = (string * Eval.value) list

type judgement = Solved | Unsolved | Wrong of string

let accepts terms (model : model) =
  List.for_all
    (fun t -> match Eval.term ~model t with Ok (Eval.V_bool true) -> true | _ -> false)
    terms

let judge ~(expect : Corpus.expect) ~verdict ~model ~in_scope =
  match (verdict, expect) with
  | "sat", Corpus.Sat -> begin
    match model with
    | Some m when accepts in_scope m -> Solved
    | Some _ -> Wrong "sat model rejected by the oracle"
    | None -> Wrong "sat without a model"
  end
  | "sat", Corpus.Unsat -> Wrong "sat on an entry labelled unsat"
  | "unsat", Corpus.Sat -> Wrong "unsat on an entry labelled sat"
  | "unsat", Corpus.Unsat -> Solved
  | _ -> Unsolved

(* Mirror of the interpreter's assertion stack, kept from the commands
   the benchmark feeds it, so the oracle sees exactly the assertions in
   scope at each check (plus that check's assumptions). *)
type scope = { mutable frames : Ast.term list list (* innermost first *) }

let scope () = { frames = [ [] ] }

(* Applies one command; returns the terms in scope when it is a check. *)
let step sc = function
  | Ast.Assert t -> (
    match sc.frames with
    | top :: rest -> sc.frames <- (t :: top) :: rest
    | [] -> sc.frames <- [ [ t ] ]);
    None
  | Ast.Push n ->
    for _ = 1 to n do
      sc.frames <- [] :: sc.frames
    done;
    None
  | Ast.Pop n ->
    for _ = 1 to n do
      match sc.frames with _ :: (_ :: _ as rest) -> sc.frames <- rest | _ -> ()
    done;
    None
  | Ast.Check_sat -> Some (List.concat sc.frames)
  | Ast.Check_sat_assuming extra -> Some (extra @ List.concat sc.frames)
  | _ -> None

(* A model with its first value changed in a way every corpus entry
   forbids: each entry fixes its string's length (and an Int unknown is
   a first-occurrence position), so a string grows by one character and
   an integer moves by one. The oracle must reject it. *)
let mutate (model : model) =
  match model with
  | (name, Eval.V_str s) :: rest -> (name, Eval.V_str (s ^ "a")) :: rest
  | (name, Eval.V_int i) :: rest -> (name, Eval.V_int (i + 1)) :: rest
  | (name, Eval.V_bool b) :: rest -> (name, Eval.V_bool (not b)) :: rest
  | [] -> []

let render_model (model : model) =
  String.concat " "
    (List.map (fun (name, v) -> Format.asprintf "(%s %a)" name Eval.pp_value v) model)

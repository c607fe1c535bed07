(* Per-layer accounting, timed from outside the program.

   In-band layers (parse, exec, theory, sample) are timed around calls
   into each layer's public functions, nested through a span stack so
   each layer's self time excludes the layers it calls: exec minus the
   theory calls inside it, theory minus the sampler calls inside it.
   Out-of-band layers (absint, encode, decode) re-run the same pure
   functions the program runs internally on the same inputs, after the
   query has finished, so they never add to a query's latency.

   Self times are in nominal-host seconds: raw times wait in
   [pending_s] until [commit] divides them by the speed factor of the
   query they belong to.
   With [on = false] nothing is timed and the wrappers only capture what
   crossed the theory boundary, which the smt-cold workload needs for
   its per-read success rate. *)

module Constr = Qsmt_strtheory.Constr
module Compile = Qsmt_strtheory.Compile
module Joint = Qsmt_strtheory.Joint
module Absint = Qsmt_strtheory.Absint
module Solver = Qsmt_strtheory.Solver
module Interp = Qsmt_smtlib.Interp
module Sampler = Qsmt_anneal.Sampler
module Sampleset = Qsmt_anneal.Sampleset
module Qubo = Qsmt_qubo.Qubo
module Preprocess = Qsmt_qubo.Preprocess

type acc = {
  mutable calls : int;
  mutable self_s : float;  (** committed, in nominal-host seconds *)
  mutable pending_s : float;  (** raw seconds not yet divided by a speed factor *)
  mutable self_words : float;
}

type frame = { mutable child_s : float; mutable child_words : float }

type t = {
  on : bool;
  mutable speed : float;  (** host speed factor of the current query, see Speed *)
  mutable stack : frame list;
  parse : acc;
  exec : acc;
  theory : acc;
  sample : acc;
  absint : acc;
  encode : acc;
  decode : acc;
}

let acc () = { calls = 0; self_s = 0.; pending_s = 0.; self_words = 0. }

let create ~on =
  {
    on;
    speed = 1.;
    stack = [];
    parse = acc ();
    exec = acc ();
    theory = acc ();
    sample = acc ();
    absint = acc ();
    encode = acc ();
    decode = acc ();
  }

let timed t a f =
  if not t.on then f ()
  else begin
    let frame = { child_s = 0.; child_words = 0. } in
    t.stack <- frame :: t.stack;
    let w0 = Gc.minor_words () in
    let t0 = Speed.now () in
    let finish () =
      let dt = Speed.now () -. t0 in
      let dw = Gc.minor_words () -. w0 in
      (match t.stack with
      | _ :: (parent :: _ as rest) ->
        parent.child_s <- parent.child_s +. dt;
        parent.child_words <- parent.child_words +. dw;
        t.stack <- rest
      | _ -> t.stack <- []);
      a.calls <- a.calls + 1;
      a.pending_s <- a.pending_s +. dt -. frame.child_s;
      a.self_words <- a.self_words +. dw -. frame.child_words
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let commit t =
  List.iter
    (fun a ->
      a.self_s <- a.self_s +. (a.pending_s /. t.speed);
      a.pending_s <- 0.)
    [ t.parse; t.exec; t.theory; t.sample; t.absint; t.encode; t.decode ]

(* ------------------------------------------------------------------ *)
(* Wrappers at the theory and sampler boundaries                       *)

type call = {
  joint : bool;  (** solve_joint (else solve_generate) *)
  cs : Constr.t list;
  mutable sampled : (Qubo.t * Sampleset.t) list;  (** newest first *)
}

type capture = { mutable calls : call list; (* newest first *) mutable current : call option }

let capture () = { calls = []; current = None }

let wrap_backend t cap (b : Interp.backend) =
  let around joint cs solve =
    let call = { joint; cs; sampled = [] } in
    cap.calls <- call :: cap.calls;
    cap.current <- Some call;
    Fun.protect ~finally:(fun () -> cap.current <- None) (fun () -> timed t t.theory solve)
  in
  {
    b with
    Interp.solve_generate = (fun c -> around false [ c ] (fun () -> b.Interp.solve_generate c));
    solve_joint = (fun cs -> around true cs (fun () -> b.Interp.solve_joint cs));
  }

(* The real sampler behind Sampler.make. Only for fresh sessions: a make
   sampler drops [init] and [early_exit], which a cold first query never
   passes, and SA ignores [verify], so the samples are the real ones. *)
let wrap_sampler t cap real =
  Sampler.make ~name:(Sampler.name real) (fun q ->
      let samples = timed t t.sample (fun () -> fst (Sampler.run_detailed real q)) in
      (match cap.current with
      | Some call -> call.sampled <- (q, samples) :: call.sampled
      | None -> ());
      samples)

(* ------------------------------------------------------------------ *)
(* Out-of-band layers over one captured theory call                    *)

type reads = {
  vars : int;  (** variables the sampler annealed *)
  reads : int;
  verified : int;  (** reads whose decode verifies *)
  scanned : int;  (** entries the decode scan looked at, up to the first that verifies *)
}

type analysis = {
  static : bool;  (** absint decided the call *)
  logical_vars : int;  (** encoded variables (undecided calls only) *)
  forced : int;  (** codec bits absint forced (undecided calls only) *)
  couplers : int;
  sampler_calls : reads list;
}

let encode cs ~joint =
  if joint then Result.map fst (Joint.encode cs)
  else match cs with [ c ] -> Ok (Compile.to_qubo c) | _ -> Error "not a single constraint"

(* Lift a residual sample set over the full encoding, exactly as the
   solver does before its own decode scan, then scan it: time the scan
   up to the first entry that verifies (what the program does), and
   count every read that verifies (what a read-success rate needs). *)
let decode_reads t cs ~qubo ~forced (q_res, samples) =
  let samples =
    match forced with
    | [] -> samples
    | forced -> Solver.lift_samples ~qubo (Preprocess.clamp qubo forced) samples
  in
  let first = List.hd cs in
  let verifies bits =
    let v = Compile.decode first bits in
    List.for_all (fun c -> Constr.verify c v) cs
  in
  let entries = Sampleset.entries samples in
  let scanned =
    timed t t.decode (fun () ->
        let rec scan n = function
          | [] -> n
          | e :: rest -> if verifies e.Sampleset.bits then n + 1 else scan (n + 1) rest
        in
        scan 0 entries)
  in
  let verified =
    List.fold_left
      (fun acc e -> if verifies e.Sampleset.bits then acc + e.Sampleset.occurrences else acc)
      0 entries
  in
  { vars = Qubo.num_vars q_res; reads = Sampleset.total_reads samples; verified; scanned }

let analyze t call =
  let cs = call.cs in
  let static = { static = true; logical_vars = 0; forced = 0; couplers = 0; sampler_calls = [] } in
  match timed t t.absint (fun () -> Absint.analyze cs) with
  | Ok { Absint.verdict = Absint.V_sat _ | Absint.V_unsat _; _ } -> static
  | result -> (
    let forced = match result with Ok a -> Absint.forced_bits a | Error _ -> [] in
    match timed t t.encode (fun () -> try encode cs ~joint:call.joint with e -> Error (Printexc.to_string e)) with
    | Error _ -> { static with static = false }
    | Ok qubo ->
      {
        static = false;
        logical_vars = Qubo.num_vars qubo;
        forced = List.length forced;
        couplers = Qubo.num_interactions qubo;
        sampler_calls = List.rev_map (decode_reads t cs ~qubo ~forced) call.sampled;
      })

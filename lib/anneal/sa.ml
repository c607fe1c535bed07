module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Mclock = Qsmt_util.Mclock
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields
module Multispin = Qsmt_qubo.Multispin

type params = {
  reads : int;
  sweeps : int;
  schedule : Schedule.t option;
  seed : int;
  domains : int;
  postprocess : bool;
}

let default = { reads = 32; sweeps = 1000; schedule = None; seed = 0; domains = 1; postprocess = false }

let read_rng ~seed r = Prng.stream ~seed r

(* The Metropolis loop over an already-built incremental state: O(1) per
   proposal, O(degree) per accepted flip. Returns the sweeps settled by
   the frozen-tail exit (see {!Fields.anneal}). *)
let anneal_fields ~rng ~schedule ?on_sweep ?stop fields =
  Fields.anneal fields ~rng ~betas:(Schedule.shared_betas schedule) ?on_sweep ?stop ()

let anneal_ising ~rng ~schedule ?init ?on_sweep ?stop ising =
  let n = Ising.num_spins ising in
  let spins = match init with Some s -> Bitvec.copy s | None -> Bitvec.random rng n in
  let fields = Fields.create ising spins in
  let (_ : int) = anneal_fields ~rng ~schedule ?on_sweep ?stop fields in
  (spins, Fields.energy fields)

let descend_fields fields =
  (* Steepest descent over cached deltas: picking the best move is an
     O(n) scan of O(1) reads instead of n adjacency-row rescans.
     Terminates because energy strictly decreases. *)
  let n = Fields.num_spins fields in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_i = ref (-1) and best_delta = ref 0. in
    for i = 0 to n - 1 do
      let d = Fields.delta fields i in
      if d < !best_delta then begin
        best_delta := d;
        best_i := i
      end
    done;
    if !best_i >= 0 then begin
      Fields.flip fields !best_i;
      improved := true
    end
  done

(* Strided sweep instrumentation: full trajectories at telemetry
   resolution would be reads x sweeps events; one event every
   [sweeps/32] sweeps (plus the final sweep) keeps traces readable while
   preserving the curve's shape. Shared by every sweep-loop sampler. *)
let sweep_stride sweeps = max 1 (sweeps / 32)

(* Post-run throughput gauges shared by the sweep-loop samplers:
   [<name>.sweeps_per_s] and [<name>.flips_per_s] (flips = attempted
   Metropolis proposals, sweeps × spins — the same convention the flip
   throughput bench uses). SA passes its nominal sweeps minus those its
   frozen-tail exits skipped; a read cut short by [stop] is still charged
   its full budget, which overstates throughput by at most the truncated
   tail. *)
let throughput_gauges telemetry ~name ~sweeps_done ~flips_done ~dt =
  if dt > 0. && sweeps_done > 0. then begin
    Telemetry.gauge telemetry (name ^ ".sweeps_per_s") (sweeps_done /. dt);
    Telemetry.gauge telemetry (name ^ ".flips_per_s") (flips_done /. dt)
  end

(* ------------------------------------------------------------------ *)
(* Closed form on factorizable problems.

   Single-flip Metropolis in ascending site order factorises over the
   connected components of the coupler graph: a proposal at spin i reads
   only the spins of i's own component, so components evolve
   independently and a read's final state is distributed as the product
   of the per-component distributions. A component of s spins has 2^s
   states; carrying that distribution through the schedule once costs
   sweeps · s · 2^(s-1) pair updates, never more than simulating the
   reads when 2^s <= reads. Each read then draws every component's state
   from its own stream. *)

(* Largest s with 2^s <= reads, without shifting by 63 or more (whose
   result OCaml leaves unspecified). *)
let max_component_spins reads =
  let s = ref 0 in
  while !s < 61 && 1 lsl (!s + 1) <= reads do
    incr s
  done;
  !s

let rec uf_find uf i =
  if uf.(i) < 0 then i
  else begin
    let r = uf_find uf uf.(i) in
    uf.(i) <- r;
    r
  end

(* Union-find over the nonzero couplers (a root holds minus its
   component's size): [Some uf] when every component has at most [limit]
   spins, [None] at the first union that would exceed it. *)
let components_within ising ~limit =
  let n = Ising.num_spins ising in
  let row_ptr, col, value = Ising.csr ising in
  let uf = Array.make n (-1) in
  let fits = ref (limit >= 1) and i = ref 0 in
  while !fits && !i < n do
    let k = ref row_ptr.(!i) in
    while !fits && !k < row_ptr.(!i + 1) do
      if value.(!k) <> 0. then begin
        let a = uf_find uf !i and b = uf_find uf col.(!k) in
        if a <> b then begin
          let size = -(uf.(a) + uf.(b)) in
          if size > limit then fits := false
          else if uf.(a) <= uf.(b) then begin
            uf.(b) <- a;
            uf.(a) <- -size
          end
          else begin
            uf.(a) <- b;
            uf.(b) <- -size
          end
        end
      end;
      incr k
    done;
    incr i
  done;
  if !fits then Some uf else None

let[@inline] accept beta d = if d <= 0. then 1. else Float.exp (-.beta *. d)

(* The distribution over a component's 2^s local states (bit k = local
   spin k up) after the whole schedule, returned as its CDF. [field] is
   [s] rows of [2^s] local fields, row k holding h_k + Σ_l J_kl s_l at
   every state; a start below 0 is uniform, otherwise a point mass. Each
   sweep visits the spins in ascending order; the proposal at spin k
   pairs state x (spin down) with x + 2^k (spin up), prices both with
   the kernel's delta -2 s f (exactly 2f and -2f) and moves mass both
   ways with the kernel's acceptance rule. *)
let propagate ~schedule ~field ~start s =
  let size = 1 lsl s in
  let p = Array.make size (if start < 0 then 1. /. float_of_int size else 0.) in
  if start >= 0 then p.(start) <- 1.;
  for sweep = 0 to Schedule.sweeps schedule - 1 do
    let beta = Schedule.beta schedule sweep in
    for k = 0 to s - 1 do
      let bit = 1 lsl k and row = k * size in
      for x = 0 to size - 1 do
        if x land bit = 0 then begin
          let y = x lor bit and f = field.(row + x) in
          let px = p.(x) and py = p.(y) in
          let up = px *. accept beta (2. *. f) and down = py *. accept beta (-2. *. f) in
          p.(x) <- px -. up +. down;
          p.(y) <- py -. down +. up
        end
      done
    done
  done;
  for x = 1 to size - 1 do
    p.(x) <- p.(x - 1) +. p.(x)
  done;
  p

(* A local state drawn from [cdf] with one uniform: the first state whose
   cumulative mass exceeds it, so zero-mass states are never drawn. *)
let draw cdf rng =
  let last = Array.length cdf - 1 in
  let u = float_of_int (Prng.bits53 rng) *. 0x1.0p-53 *. cdf.(last) in
  let lo = ref 0 and hi = ref last in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

(* Component [sites]' local state in [bits]: bit k is spin [sites.(k)]. *)
let local_state bits sites =
  let x = ref 0 in
  Array.iteri (fun k i -> if Bitvec.get bits i then x := !x lor (1 lsl k)) sites;
  !x

type factors = {
  sites : int array array;  (** component c's spins, ascending *)
  cdfs : float array array;  (** one propagated CDF per distinct component class *)
  cold : int array;  (** component c's class from a uniform start *)
  warm : int array;  (** its class for read 0 ([cold] without [init]) *)
  largest : int;
  states : int;  (** Σ 2^s over the propagated classes *)
}

(* Splits the problem along [uf]'s components (ordered by their lowest
   spin) and propagates one distribution per distinct (fields, couplers,
   start) class; the table lives for this call only. *)
let factorize ising uf ~schedule ~init =
  let n = Ising.num_spins ising in
  let row_ptr, col, value = Ising.csr ising in
  let comp_of = Array.make n (-1) and sizes = Array.make n 0 and num = ref 0 in
  for i = 0 to n - 1 do
    let r = uf_find uf i in
    if comp_of.(r) < 0 then begin
      comp_of.(r) <- !num;
      incr num
    end;
    comp_of.(i) <- comp_of.(r);
    sizes.(comp_of.(i)) <- sizes.(comp_of.(i)) + 1
  done;
  let sites = Array.init !num (fun c -> Array.make sizes.(c) 0) in
  let local = Array.make n 0 in
  Array.fill sizes 0 n 0;
  for i = 0 to n - 1 do
    let c = comp_of.(i) in
    local.(i) <- sizes.(c);
    sites.(c).(sizes.(c)) <- i;
    sizes.(c) <- sizes.(c) + 1
  done;
  let table = Hashtbl.create 16 and cdfs = ref [] and classes = ref 0 in
  let largest = ref 0 and states = ref 0 in
  let class_of c start =
    let sc = sites.(c) in
    let s = Array.length sc in
    let h = Array.map (Ising.field ising) sc in
    let couplers = ref [] in
    for k = s - 1 downto 0 do
      for p = row_ptr.(sc.(k) + 1) - 1 downto row_ptr.(sc.(k)) do
        if value.(p) <> 0. then couplers := (k, local.(col.(p)), value.(p)) :: !couplers
      done
    done;
    let key = (h, !couplers, start) in
    match Hashtbl.find_opt table key with
    | Some id -> id
    | None ->
      let size = 1 lsl s in
      (* same summation order as Ising.local_field: h, then CSR order *)
      let field = Array.make (s * size) 0. in
      for x = 0 to size - 1 do
        for k = 0 to s - 1 do
          field.((k * size) + x) <- h.(k)
        done;
        List.iter
          (fun (k, l, j) ->
            let sign = if x land (1 lsl l) <> 0 then 1. else -1. in
            field.((k * size) + x) <- field.((k * size) + x) +. (j *. sign))
          !couplers
      done;
      let id = !classes in
      Hashtbl.add table key id;
      cdfs := propagate ~schedule ~field ~start s :: !cdfs;
      incr classes;
      largest := max !largest s;
      states := !states + size;
      id
  in
  let cold = Array.init !num (fun c -> class_of c (-1)) in
  let warm =
    match init with
    | None -> cold
    | Some b ->
      Array.init !num (fun c -> class_of c (local_state b sites.(c)))
  in
  { sites; cdfs = Array.of_list (List.rev !cdfs); cold; warm; largest = !largest; states = !states }

(* Shared front of [sample] and [run_packed]: argument checks, then the
   Ising form and the schedule ([None] for the zero-variable problem). *)
let setup ~who params init q =
  if params.reads < 1 then invalid_arg (who ^ ": reads < 1");
  if params.sweeps < 1 then invalid_arg (who ^ ": sweeps < 1");
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "%s: init has %d bits, problem has %d vars" who (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then None
  else begin
    let ising = Ising.of_qubo q in
    let schedule =
      match params.schedule with
      | Some s -> s
      | None -> Schedule.auto ~sweeps:params.sweeps ising
    in
    Some (ising, schedule)
  end

(* The read driver of both SA paths: [read r rng] produces read [r]'s
   final spins and energy from its own stream ([postprocess] included);
   the driver owns the [stop]/[on_read] polling, the per-read telemetry
   and the [Parallel.init_array] loop. [settled], given on the simulated
   kernel only, sums the sweeps the reads' frozen-tail exits skipped; it
   adds the [sa.settled_sweeps] counter and the throughput gauges, which
   only simulated proposals have. *)
let run_reads ~params ?stop ?on_read ?settled ~telemetry ~sweeps ~n q read =
  let stopped () = match stop with Some f -> f () | None -> false in
  let tracked = Telemetry.enabled telemetry in
  let run_read r =
    if stopped () then None
    else begin
      let ((spins, energy) as out) = read r (read_rng ~seed:params.seed r) in
      if tracked then begin
        Telemetry.count telemetry "sa.reads" 1;
        Telemetry.count telemetry "sa.sweeps" sweeps;
        Telemetry.observe telemetry "sa.read_energy" energy
      end;
      (match on_read with Some f -> f spins | None -> ());
      Some out
    end
  in
  let t0 = if tracked && Option.is_some settled then Mclock.now () else 0. in
  let samples = Parallel.init_array ~telemetry ~domains:params.domains params.reads run_read in
  (match settled with
  | Some settled when tracked ->
    let done_reads =
      Array.fold_left (fun a s -> match s with Some _ -> a + 1 | None -> a) 0 samples
    in
    let settled = Atomic.get settled in
    Telemetry.count telemetry "sa.settled_sweeps" settled;
    let sweeps_done = float_of_int ((done_reads * sweeps) - settled) in
    throughput_gauges telemetry ~name:"sa" ~sweeps_done
      ~flips_done:(sweeps_done *. float_of_int n) ~dt:(Mclock.now () -. t0)
  | _ -> ());
  Sampleset.of_tracked q (List.filter_map Fun.id (Array.to_list samples))

(* The reads of a factorizable problem, drawn instead of simulated:
   every component's local state comes from its class's CDF (read 0
   uses the [init]-started classes). *)
let closed_form ~params ?init ?stop ?on_read ~telemetry ~schedule q ising uf =
  let cf = factorize ising uf ~schedule ~init in
  let n = Ising.num_spins ising in
  if Telemetry.enabled telemetry then
    Telemetry.emit telemetry "sa.closed_form"
      [
        ("components", Telemetry.Int (Array.length cf.sites));
        ("classes", Telemetry.Int (Array.length cf.cdfs));
        ("largest", Telemetry.Int cf.largest);
        ("states", Telemetry.Int cf.states);
      ];
  run_reads ~params ?stop ?on_read ~telemetry ~sweeps:(Schedule.sweeps schedule)
    ~n q (fun r rng ->
      let classes = if r = 0 then cf.warm else cf.cold in
      let spins = Bitvec.create n in
      for c = 0 to Array.length cf.sites - 1 do
        let x = draw cf.cdfs.(classes.(c)) rng and sc = cf.sites.(c) in
        for k = 0 to Array.length sc - 1 do
          if x land (1 lsl k) <> 0 then Bitvec.set spins sc.(k) true
        done
      done;
      if params.postprocess then begin
        let fields = Fields.create ising spins in
        descend_fields fields;
        (spins, Fields.energy fields)
      end
      else (spins, Ising.energy ising spins))

(* [Some uf] when every component satisfies 2^s <= reads. *)
let factorizable params ising =
  components_within ising ~limit:(max_component_spins params.reads)

let closed_form_distribution ?(params = default) ?init q =
  match setup ~who:"Sa.closed_form_distribution" params init q with
  | None -> Some (fun _ -> 1.)
  | Some (ising, schedule) ->
    Option.map
      (fun uf ->
        let cf = factorize ising uf ~schedule ~init in
        fun bits ->
          let p = ref 1. in
          Array.iteri
            (fun c sites ->
              let x = local_state bits sites and cdf = cf.cdfs.(cf.warm.(c)) in
              p := !p *. (cdf.(x) -. if x = 0 then 0. else cdf.(x - 1)))
            cf.sites;
          !p)
      (factorizable params ising)

(* The simulated kernel: every read runs its own Metropolis chain. *)
let simulate ~params ?init ?stop ?on_read ~telemetry ~schedule q ising =
  let n = Ising.num_spins ising in
  let tracked = Telemetry.enabled telemetry in
  let sweeps = Schedule.sweeps schedule in
  let stride = sweep_stride sweeps in
  let settled = Atomic.make 0 in
  run_reads ~params ?stop ?on_read ~settled ~telemetry ~sweeps ~n q (fun r rng ->
      (* Warm start: read 0 anneals from the caller's seed assignment
         (reverse-anneal style); the other reads stay random so the set
         retains diversity. *)
      let start =
        match init with
        | Some b when r = 0 -> Bitvec.copy b
        | _ -> Bitvec.random rng n
      in
      let fields = Fields.create ising start in
      let on_sweep =
        if not tracked then None
        else
          Some
            (fun ~sweep ~energy ~accepted ->
              if sweep mod stride = 0 || sweep = sweeps - 1 then
                Telemetry.emit telemetry "sa.sweep"
                  [
                    ("read", Telemetry.Int r);
                    ("sweep", Telemetry.Int sweep);
                    ("beta", Telemetry.Float (Schedule.beta schedule sweep));
                    ("energy", Telemetry.Float energy);
                    ("acceptance", Telemetry.Float (float_of_int accepted /. float_of_int n));
                  ])
      in
      let skipped = anneal_fields ~rng ~schedule ?on_sweep ?stop fields in
      if tracked && skipped > 0 then ignore (Atomic.fetch_and_add settled skipped);
      if params.postprocess then descend_fields fields;
      (Fields.spins fields, Fields.energy fields))

(* Shared dispatch of [sample] and [run_packed]: the closed form when the
   problem factorizes, [kernel] otherwise. *)
let dispatch ~who ~params ?init ?stop ?on_read ~telemetry q kernel =
  match setup ~who params init q with
  | None -> Sampleset.of_bits q [ Bitvec.create 0 ]
  | Some (ising, schedule) -> (
    match factorizable params ising with
    | Some uf -> closed_form ~params ?init ?stop ?on_read ~telemetry ~schedule q ising uf
    | None -> kernel ~schedule ising)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  dispatch ~who:"Sa.sample" ~params ?init ?stop ?on_read ~telemetry q
    (simulate ~params ?init ?stop ?on_read ~telemetry q)

type packed_mode = Bucketed | Lockstep

let popcount64 w =
  let c = ref 0 in
  let m = ref w in
  while !m <> 0L do
    incr c;
    m := Int64.logand !m (Int64.sub !m 1L)
  done;
  !c

(* Multi-read SA over the packed kernel: reads are grouped 64 to a
   Multispin state, so one sweep's CSR traffic serves a whole group of
   reads. Starts come from the same per-read streams the scalar path
   uses, so the two paths explore from identical configurations; in
   [Lockstep] mode acceptance also consumes those streams with the
   scalar discipline and the decoded samples are bit-identical to
   {!sample}'s (postprocess off). [Bucketed] is the fast path: exact
   Metropolis marginals from a per-group bulk stream. *)
let simulate_packed ~params ~mode ?init ?stop ?on_read ~telemetry ~schedule q ising =
  let n = Ising.num_spins ising in
  let stopped () = match stop with Some f -> f () | None -> false in
  let tracked = Telemetry.enabled telemetry in
  let sweeps = Schedule.sweeps schedule in
  let stride = sweep_stride sweeps in
  let groups = (params.reads + Multispin.max_lanes - 1) / Multispin.max_lanes in
  let run_group g =
    if stopped () then None
    else begin
      let r0 = g * Multispin.max_lanes in
      let lanes = min Multispin.max_lanes (params.reads - r0) in
      (* Same per-read streams and warm-start rule as the scalar path:
         lane l of group g is read r0 + l. *)
      let rngs = Array.init lanes (fun l -> read_rng ~seed:params.seed (r0 + l)) in
      let starts =
        Array.init lanes (fun l ->
            match init with
            | Some b when r0 + l = 0 -> Bitvec.copy b
            | _ -> Bitvec.random rngs.(l) n)
      in
      let ms = Multispin.create ising starts in
      (* The bucketed accept path draws from one stream per group,
         disjoint from every per-read stream. *)
      let bulk_rng = read_rng ~seed:params.seed (params.reads + g) in
      let dr = Multispin.draws bulk_rng in
      let betas = Array.make lanes 0. in
      let deltas = Array.make lanes 0. in
      let k = ref 0 in
      while !k < sweeps && not (stopped ()) do
        let beta = Schedule.beta schedule !k in
        let accepted = ref 0 in
        (match mode with
        | Bucketed -> accepted := Multispin.metropolis_sweep ms ~draws:dr ~beta
        | Lockstep ->
          Array.fill betas 0 lanes beta;
          for i = 0 to n - 1 do
            Multispin.deltas ms i deltas;
            let mask = Multispin.accept_mask_lockstep ms ~rngs ~betas deltas in
            if mask <> 0L then begin
              Multispin.flip ms i mask;
              if tracked then accepted := !accepted + popcount64 mask
            end
          done);
        if tracked && (!k mod stride = 0 || !k = sweeps - 1) then
          Telemetry.emit telemetry "sa.packed_sweep"
            [
              ("group", Telemetry.Int g);
              ("lanes", Telemetry.Int lanes);
              ("sweep", Telemetry.Int !k);
              ("beta", Telemetry.Float beta);
              ("best_energy", Telemetry.Float (Multispin.energy ms (Multispin.best_lane ms)));
              ( "acceptance",
                Telemetry.Float (float_of_int !accepted /. float_of_int (n * lanes)) );
            ];
        incr k
      done;
      let out =
        Array.init lanes (fun l ->
            let spins = Multispin.lane_spins ms l in
            let energy =
              if params.postprocess then begin
                let fields = Fields.create ising spins in
                descend_fields fields;
                Fields.energy fields
              end
              else Multispin.energy ms l
            in
            (match on_read with Some f -> f spins | None -> ());
            (spins, energy))
      in
      if tracked then begin
        Telemetry.count telemetry "sa.reads" lanes;
        (* lane-sweeps, so packed and scalar throughput are comparable *)
        Telemetry.count telemetry "sa.sweeps" (sweeps * lanes);
        Array.iter (fun (_, e) -> Telemetry.observe telemetry "sa.read_energy" e) out
      end;
      Some out
    end
  in
  let t0 = if tracked then Mclock.now () else 0. in
  let packed = Parallel.init_array ~telemetry ~domains:params.domains groups run_group in
  if tracked then begin
    let done_lanes =
      Array.fold_left (fun a g -> match g with Some o -> a + Array.length o | None -> a) 0 packed
    in
    let sweeps_done = float_of_int (done_lanes * sweeps) in
    throughput_gauges telemetry ~name:"sa" ~sweeps_done
      ~flips_done:(sweeps_done *. float_of_int n) ~dt:(Mclock.now () -. t0)
  end;
  Sampleset.of_tracked q
    (List.concat_map
       (function None -> [] | Some a -> Array.to_list a)
       (Array.to_list packed))

(* Factorizable inputs take {!sample}'s closed form, so on them both modes
   return exactly {!sample}'s reads. *)
let run_packed ?(params = default) ?(mode = Bucketed) ?init ?stop ?on_read
    ?(telemetry = Telemetry.null) q =
  dispatch ~who:"Sa.run_packed" ~params ?init ?stop ?on_read ~telemetry q
    (simulate_packed ~params ~mode ?init ?stop ?on_read ~telemetry q)

module Bitvec = Qsmt_util.Bitvec
module Prng = Qsmt_util.Prng
module Parallel = Qsmt_util.Parallel
module Telemetry = Qsmt_util.Telemetry
module Qubo = Qsmt_qubo.Qubo
module Ising = Qsmt_qubo.Ising
module Fields = Qsmt_qubo.Fields

type params = {
  restarts : int;
  iterations : int;
  tenure : int option;
  seed : int;
  domains : int;
}

let default = { restarts = 8; iterations = 500; tenure = None; seed = 0; domains = 1 }

let search ising ~rng ~iterations ~tenure ?init ?stop ?on_iter () =
  let n = Ising.num_spins ising in
  (* Incremental state: the best-admissible-move scan below reads n cached
     deltas in O(n) instead of rescanning n adjacency rows. *)
  let start = match init with Some b -> Bitvec.copy b | None -> Bitvec.random rng n in
  let fields = Fields.create ising start in
  let best = ref (Bitvec.copy (Fields.spins fields)) in
  let best_energy = ref (Fields.energy fields) in
  let stopped () = match stop with Some f -> f () | None -> false in
  (* tabu_until.(i): first iteration at which flipping i is allowed again *)
  let tabu_until = Array.make n 0 in
  (* Poll [stop] every 64 iterations: each iteration is already O(n), the
     check just has to stay off the inner loop. *)
  let cursor = ref 0 in
  while !cursor < iterations && ((!cursor land 63) <> 0 || not (stopped ())) do
    let it = !cursor in
    (* Best admissible move: most negative delta among non-tabu flips,
       or any tabu flip that would beat the incumbent (aspiration). *)
    let chosen = ref (-1) and chosen_delta = ref infinity in
    let chosen_tabu = ref false in
    for i = 0 to n - 1 do
      let delta = Fields.delta fields i in
      let is_tabu = tabu_until.(i) > it in
      let admissible =
        (not is_tabu) || Fields.energy fields +. delta < !best_energy -. 1e-12
      in
      if admissible && delta < !chosen_delta then begin
        chosen := i;
        chosen_delta := delta;
        chosen_tabu := is_tabu
      end
    done;
    (* All moves tabu and none aspirates: fall back to a random kick so
       the search cannot stall. *)
    let kicked = !chosen < 0 in
    let i = if kicked then Prng.int rng n else !chosen in
    Fields.flip fields i;
    tabu_until.(i) <- it + 1 + tenure;
    if Fields.energy fields < !best_energy then begin
      best_energy := Fields.energy fields;
      best := Bitvec.copy (Fields.spins fields)
    end;
    (match on_iter with
    | None -> ()
    | Some f ->
      f ~iter:it ~energy:(Fields.energy fields) ~best:!best_energy ~aspirated:!chosen_tabu
        ~kicked);
    incr cursor
  done;
  (!best, !best_energy)

let sample ?(params = default) ?init ?stop ?on_read ?(telemetry = Telemetry.null) q =
  if params.restarts < 1 then invalid_arg "Tabu.sample: restarts < 1";
  if params.iterations < 1 then invalid_arg "Tabu.sample: iterations < 1";
  let n = Qubo.num_vars q in
  (match init with
  | Some b when Bitvec.length b <> n ->
    invalid_arg
      (Printf.sprintf "Tabu.sample: init has %d bits, problem has %d vars" (Bitvec.length b) n)
  | _ -> ());
  if n = 0 then Sampleset.of_bits q [ Bitvec.create 0 ]
  else begin
    let tenure =
      match params.tenure with
      | Some t ->
        if t < 0 then invalid_arg "Tabu.sample: negative tenure";
        t
      | None -> min ((n / 2) + 1) 20
    in
    let ising = Ising.of_qubo q in
    let stopped () = match stop with Some f -> f () | None -> false in
    let tracked = Telemetry.enabled telemetry in
    let stride = Sa.sweep_stride params.iterations in
    let run r =
      if stopped () then None
      else begin
        let rng = Prng.stream ~seed:params.seed r in
        let on_iter =
          if not tracked then None
          else
            Some
              (fun ~iter ~energy ~best ~aspirated ~kicked ->
                if aspirated then Telemetry.count telemetry "tabu.aspirations" 1;
                if kicked then Telemetry.count telemetry "tabu.kicks" 1;
                if iter mod stride = 0 || iter = params.iterations - 1 then
                  Telemetry.emit telemetry "tabu.iter"
                    [
                      ("restart", Telemetry.Int r);
                      ("iter", Telemetry.Int iter);
                      ("energy", Telemetry.Float energy);
                      ("best", Telemetry.Float best);
                    ])
        in
        let init = if r = 0 then init else None in
        let ((bits, e) as sample) =
          search ising ~rng ~iterations:params.iterations ~tenure ?init ?stop ?on_iter ()
        in
        if tracked then begin
          Telemetry.count telemetry "tabu.reads" 1;
          Telemetry.count telemetry "tabu.sweeps" params.iterations;
          Telemetry.observe telemetry "tabu.read_energy" e
        end;
        (match on_read with Some f -> f bits | None -> ());
        Some sample
      end
    in
    let t0 = if tracked then Qsmt_util.Mclock.now () else 0. in
    let samples = Parallel.init_array ~telemetry ~domains:params.domains params.restarts run in
    if tracked then begin
      let done_reads =
        Array.fold_left (fun a s -> match s with Some _ -> a + 1 | None -> a) 0 samples
      in
      (* a tabu iteration scans all n candidate moves and flips one, so
         an iteration is the analogue of one sweep of proposals *)
      let sweeps_done = float_of_int (done_reads * params.iterations) in
      Sa.throughput_gauges telemetry ~name:"tabu" ~sweeps_done
        ~flips_done:(sweeps_done *. float_of_int n)
        ~dt:(Qsmt_util.Mclock.now () -. t0)
    end;
    Sampleset.of_tracked q (List.filter_map Fun.id (Array.to_list samples))
  end

let recommended_domains () = min 16 (Domain.recommended_domain_count ())

(* Static block partition: worker [k] of [d] handles indices
   [lo_k, lo_k + size_k). All workers get within one element of each other,
   which is fine because per-element cost is uniform for our callers
   (identical annealing reads). *)
let partition n d =
  let d = max 1 (min d n) in
  let base = n / d and extra = n mod d in
  List.init d (fun k ->
      let lo = (k * base) + min k extra in
      let size = base + if k < extra then 1 else 0 in
      (lo, size))

module Pool = struct
  (* One long-lived domain per worker. A worker sleeps on its condition
     variable until a job is assigned, runs it, clears the slot, signals
     completion, and goes back to sleep — domains are spawned once per
     pool, not once per call. Jobs handed to [assign] must not raise;
     [run_list] wraps user jobs so exceptions travel back to the caller. *)
  type worker = {
    mutex : Mutex.t;
    cond : Condition.t;
    mutable job : (unit -> unit) option;
    mutable quit : bool;
  }

  type t = {
    workers : worker array;
    domains : unit Domain.t array;
    free : int Queue.t; (* indices of idle workers *)
    free_mutex : Mutex.t;
    mutable alive : bool;
  }

  let rec worker_loop w =
    Mutex.lock w.mutex;
    while w.job = None && not w.quit do
      Condition.wait w.cond w.mutex
    done;
    if w.quit then Mutex.unlock w.mutex
    else begin
      let job = Option.get w.job in
      Mutex.unlock w.mutex;
      (* Defensive catch-all: [run_list] wraps user jobs so they report
         exceptions through their own channel, but a job that raises
         anyway must not kill the worker domain — that would strand the
         slot forever (its index is back in [free], yet nobody would ever
         run or signal completion of the next job assigned to it). *)
      (try job () with _ -> ());
      Mutex.lock w.mutex;
      w.job <- None;
      Condition.broadcast w.cond;
      Mutex.unlock w.mutex;
      worker_loop w
    end

  let create n =
    let n = max 0 n in
    let workers =
      Array.init n (fun _ ->
          { mutex = Mutex.create (); cond = Condition.create (); job = None; quit = false })
    in
    let domains = Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers in
    let free = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i free) workers;
    { workers; domains; free; free_mutex = Mutex.create (); alive = true }

  let size t = Array.length t.workers

  (* Grab up to [k] idle workers without blocking: callers always run part
     of the work themselves, so finding fewer (or zero) free workers only
     costs parallelism, never progress. This is also what makes nested
     parallel calls safe — an inner call simply finds the pool busy and
     degrades to sequential. *)
  let try_acquire t k =
    Mutex.lock t.free_mutex;
    let rec take k acc =
      if k = 0 || Queue.is_empty t.free then acc else take (k - 1) (Queue.pop t.free :: acc)
    in
    let ids = take (max 0 k) [] in
    Mutex.unlock t.free_mutex;
    ids

  let release t id =
    Mutex.lock t.free_mutex;
    Queue.push id t.free;
    Mutex.unlock t.free_mutex

  let assign t id job =
    let w = t.workers.(id) in
    Mutex.lock w.mutex;
    w.job <- Some job;
    Condition.broadcast w.cond;
    Mutex.unlock w.mutex

  let wait t id =
    let w = t.workers.(id) in
    Mutex.lock w.mutex;
    while w.job <> None do
      Condition.wait w.cond w.mutex
    done;
    Mutex.unlock w.mutex

  (* First exception wins; the remaining jobs still run (they may hold
     partial results the caller owns). The exception is captured together
     with its backtrace at the raise site — possibly on a worker domain —
     and re-raised on the caller with that backtrace attached, so a
     raising job reads like a raising function call, never a process
     abort. Every acquired worker is waited on and released whether or
     not jobs raised, so a raising job leaves the pool fully reusable. *)
  let run_list_plain t jobs =
    match jobs with
    | [] -> ()
    | [ job ] -> job ()
    | jobs ->
      let jobs = Array.of_list jobs in
      let n = Array.length jobs in
      let next = Atomic.make 0 in
      let error = Atomic.make None in
      let drain () =
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (try jobs.(i) ()
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set error None (Some (e, bt))));
            go ()
          end
        in
        go ()
      in
      let ids = if t.alive then try_acquire t (n - 1) else [] in
      List.iter (fun id -> assign t id drain) ids;
      drain ();
      List.iter
        (fun id ->
          wait t id;
          release t id)
        ids;
      (match Atomic.get error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

  (* The instrumented twin: same scheduling (shared work index drained
     by the caller plus every acquired worker), plus pool.* vocabulary —
     per-job submit→start latency and queue depth, per-participant
     busy/idle split, and an overall utilization gauge — and credits the
     workers' minor words to the handle's GC probe. Participants are
     numbered 0 (the caller) .. k (acquired workers); each writes only
     its own slot of the local accumulators, and [wait]'s mutex
     round-trip publishes worker slots to the caller before they are
     read. Jobs are coarse (whole annealing reads or shards), so the
     per-job telemetry locking is noise. *)
  let run_list_traced tm t jobs =
    match jobs with
    | [] -> ()
    | jobs ->
      let submit = Mclock.now () in
      let jobs = Array.of_list jobs in
      let n = Array.length jobs in
      Telemetry.count tm "pool.jobs" n;
      let next = Atomic.make 0 in
      let started = Atomic.make 0 in
      let error = Atomic.make None in
      let ids = if t.alive then try_acquire t (n - 1) else [] in
      let parts = 1 + List.length ids in
      let busy = Array.make parts 0. in
      let ran = Array.make parts 0 in
      let words = Array.make parts 0. in
      let drain who () =
        let t0 = Mclock.now () and w0 = Gc.minor_words () in
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let tj = Mclock.now () in
            Telemetry.observe tm "pool.submit_latency_s" (tj -. submit);
            let pending = n - Atomic.fetch_and_add started 1 - 1 in
            Telemetry.gauge tm "pool.queue_depth" (float_of_int (max 0 pending));
            Telemetry.observe tm "pool.queue_depth" (float_of_int (max 0 pending));
            ran.(who) <- ran.(who) + 1;
            (try jobs.(i) ()
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set error None (Some (e, bt))));
            go ()
          end
        in
        go ();
        busy.(who) <- Mclock.now () -. t0;
        words.(who) <- Gc.minor_words () -. w0
      in
      List.iteri (fun k id -> assign t id (drain (k + 1))) ids;
      drain 0 ();
      List.iter
        (fun id ->
          wait t id;
          release t id)
        ids;
      let wall = Mclock.now () -. submit in
      (* The caller's own share is already on its domain's counter; the
         workers' shares reach the caller's GC probe through the handle. *)
      Telemetry.credit_minor_words tm (Array.fold_left ( +. ) 0. words -. words.(0));
      for who = 0 to parts - 1 do
        Telemetry.observe tm "pool.worker_busy_s" busy.(who);
        Telemetry.emit tm "pool.worker"
          [
            ("worker", Telemetry.Int who);
            ("jobs", Telemetry.Int ran.(who));
            ("busy_s", Telemetry.Float busy.(who));
            ("idle_s", Telemetry.Float (Float.max 0. (wall -. busy.(who))));
          ]
      done;
      let busy_total = Array.fold_left ( +. ) 0. busy in
      let util = if wall > 0. then busy_total /. (wall *. float_of_int parts) else 1. in
      Telemetry.gauge tm "pool.utilization" util;
      Telemetry.gauge tm "pool.participants" (float_of_int parts);
      Telemetry.emit tm "pool.stats"
        [
          ("jobs", Telemetry.Int n);
          ("participants", Telemetry.Int parts);
          ("wall_s", Telemetry.Float wall);
          ("busy_s", Telemetry.Float busy_total);
          ("utilization", Telemetry.Float util);
        ];
      (match Atomic.get error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

  let run_list ?(telemetry = Telemetry.null) t jobs =
    if Telemetry.enabled telemetry then run_list_traced telemetry t jobs
    else run_list_plain t jobs

  let shutdown t =
    if t.alive then begin
      t.alive <- false;
      Array.iter
        (fun w ->
          Mutex.lock w.mutex;
          w.quit <- true;
          Condition.broadcast w.cond;
          Mutex.unlock w.mutex)
        t.workers;
      Array.iter Domain.join t.domains;
      Mutex.lock t.free_mutex;
      Queue.clear t.free;
      Mutex.unlock t.free_mutex
    end

  (* The process-wide shared pool, sized so that the caller plus all
     workers saturate the machine. Created on first parallel call and
     never shut down (worker domains sleep between calls). *)
  let shared = ref None
  let shared_mutex = Mutex.create ()

  let global () =
    Mutex.lock shared_mutex;
    let pool =
      match !shared with
      | Some pool -> pool
      | None ->
        let pool = create (recommended_domains () - 1) in
        shared := Some pool;
        pool
    in
    Mutex.unlock shared_mutex;
    pool
end

let init_array ?(telemetry = Telemetry.null) ?(domains = 1) n f =
  if n = 0 then [||]
  else if domains <= 1 || n = 1 then begin
    (* Sequential fast path: no pool, no Option boxing. When tracked it
       still reports through the pool.* vocabulary as one inline job run
       by the caller, so every solve exposes scheduling metrics whether
       or not it parallelised. *)
    if Telemetry.enabled telemetry then begin
      let t0 = Mclock.now () in
      Telemetry.count telemetry "pool.jobs" 1;
      Telemetry.observe telemetry "pool.submit_latency_s" 0.;
      Telemetry.gauge telemetry "pool.queue_depth" 0.;
      Telemetry.observe telemetry "pool.queue_depth" 0.;
      let r = Array.init n f in
      let busy = Mclock.now () -. t0 in
      Telemetry.observe telemetry "pool.worker_busy_s" busy;
      Telemetry.emit telemetry "pool.worker"
        [
          ("worker", Telemetry.Int 0);
          ("jobs", Telemetry.Int 1);
          ("busy_s", Telemetry.Float busy);
          ("idle_s", Telemetry.Float 0.);
        ];
      Telemetry.gauge telemetry "pool.utilization" 1.;
      Telemetry.gauge telemetry "pool.participants" 1.;
      r
    end
    else Array.init n f
  end
  else begin
    let results = Array.make n None in
    let work (lo, size) () =
      for i = lo to lo + size - 1 do
        results.(i) <- Some (f i)
      done
    in
    Pool.run_list ~telemetry (Pool.global ()) (List.map work (partition n domains));
    (* run_list re-raises the first job exception, so a hole here means a
       scheduling bug, not a user error — report it as such rather than
       aborting the process with an assertion. *)
    Array.map
      (function
        | Some v -> v
        | None -> failwith "Parallel.init_array: a worker job produced no result")
      results
  end

let map_array ?telemetry ?(domains = 1) f a =
  init_array ?telemetry ~domains (Array.length a) (fun i -> f a.(i))

let reduce ?telemetry ?(domains = 1) f combine zero a =
  let mapped = map_array ?telemetry ~domains f a in
  Array.fold_left combine zero mapped

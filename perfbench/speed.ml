(* Host speed probe.

   The hosts this benchmark runs on are shared: the same single-domain
   solve can take 160 ms for a minute and 260 ms the next, with the
   process never descheduled (CPU time equals wall time), so the core
   itself runs slower. Phases last tens of seconds, longer than a run,
   and no amount of repetition inside a run averages them away.

   So every reported time is divided by the host's current speed
   factor: the time of a fixed reference kernel, owned by the benchmark
   and touching nothing in lib/, over its nominal time. The kernel is a
   single-spin Metropolis sweep loop, the same mix of array reads,
   float arithmetic, exp and branches as the annealers, so it slows
   down with them. A change to the program cannot move the factor; a
   slower host moves both. Reported times are therefore in nominal-host
   seconds; the summed wall time as measured is printed beside them. *)

(* Monotonic nanosecond clock, in seconds: the benchmark's only clock.
   Microsecond resolution would quantise a 45 us query by 2%. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let spins = 64

let kernel () =
  let h = Array.init spins (fun i -> float_of_int ((i * 7919) mod 13) -. 6.) in
  let s = Array.make spins 1. in
  let x = ref 0x2545F4914F6CDD1D in
  let flips = ref 0 in
  for _sweep = 1 to 400 do
    for i = 0 to spins - 1 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17);
      let left = s.((i + spins - 1) mod spins) and right = s.((i + 1) mod spins) in
      let delta = 2. *. s.(i) *. (h.(i) +. left +. right) in
      let u = float_of_int (!x land 0xFFFFFF) /. 16777216. in
      if delta <= 0. || u < exp (-0.7 *. delta) then begin
        s.(i) <- -.s.(i);
        incr flips
      end
    done
  done;
  !flips

(* Median of five kernel runs, in seconds. *)
let probe () =
  let times =
    Array.init 5 (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (kernel ()));
        now () -. t0)
  in
  Array.sort Float.compare times;
  times.(2)

(* The kernel's time on the reference host (2-core x86-64 container) in
   a quiet phase. *)
let nominal_s = 3.3e-4

let last_probe = ref neg_infinity
let current = ref 1.

(* The speed factor, re-probed when the last probe is more than 50 ms
   old. Call it between queries, never inside a timed window. *)
let factor () =
  let t = now () in
  if t -. !last_probe > 0.05 then begin
    current := probe () /. nominal_s;
    last_probe := now ()
  end;
  !current

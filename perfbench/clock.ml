(* Host clocks.  [ns] and [s]: CLOCK_MONOTONIC, allocation-free, for
   spans and the run's length.  [cpu]: process CPU time in seconds
   (user + system, every domain), for the host-time metrics: when the
   hypervisor runs another guest on a vCPU (steal time: up to a quarter
   of both vCPUs during some two-domain runs) the wall clock runs on and
   the CPU clock does not. *)

let ns () = Int64.to_int (Monotonic_clock.now ())
let s () = float_of_int (ns ()) /. 1e9
let cpu () = Sys.time ()

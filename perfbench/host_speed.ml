(* Host-speed reference for the host-time metrics.

   On a shared virtual machine the host's own speed drifts: a fixed
   loop's time moved between 1.8 and 2.5 s within a minute, and a
   workload's median round time by up to 45% between runs a few minutes
   apart.  With one vCPU busy, process CPU time moved with wall time to
   within 1%: these slow spells are not steal time, which the CPU clock
   already leaves out.  The run therefore times a fixed kernel, in CPU
   time, between rounds and scales each round's host times by
   [reference_ms] over the kernel's time around that round (the mean of
   the measurements just before and just after it).  Host-time metrics
   read as on a host where the kernel takes [reference_ms].  The kernel
   uses the standard library only (hash table inserts and small
   allocations, like the simulator's per-packet work), so no change to
   the program under test moves it. *)

let reference_ms = 15.0

let work () =
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 40_000 do
    Hashtbl.replace h ((i * 7919) land 0xFFFF) (i, [ i ]);
    acc := !acc + (Hashtbl.hash (i, !acc) land 7)
  done;
  ignore (Sys.opaque_identity (!acc, h))

(* CPU ms per domain of the kernel run on [domains] domains at once,
   as the workload runs: with two, they share the runtime's
   stop-the-world minor collections as the workload's domains do. *)
let kernel ~domains =
  let t0 = Clock.cpu () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others;
  (Clock.cpu () -. t0) *. 1e3 /. float_of_int domains

(* Kernel time in ms: the best of three, so a one-off stall of the
   host does not count. *)
let measure ~domains =
  Float.min (kernel ~domains) (Float.min (kernel ~domains) (kernel ~domains))

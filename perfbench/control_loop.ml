(* Control-plane pieces shared by the workloads: the agent-side probe
   wrapped around a middlebox's southbound impl, and the closed loop of
   moves that times each operation. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Common

(* What the wrapped impl saw: per-chunk get/put cost (traced rounds
   only), chunk counts and sizes, a capped sample of exported chunks for
   the wire replay, and the virtual-time intervals during which the MB
   had a get in progress (for the latency-during-get comparison). *)
type probe = {
  mutable get_ns : int;
  mutable get_chunks : int;
  mutable put_ns : int;
  mutable put_chunks : int;
  mutable chunk_bytes : int;
  mutable captured : Chunk.t list;
  mutable n_captured : int;
  mutable op_start : float;
  mutable saw_get : bool;
  mutable get_intervals : (float * float) list;  (* newest first *)
}

let capture_cap = 4_096

let probe () =
  {
    get_ns = 0;
    get_chunks = 0;
    put_ns = 0;
    put_chunks = 0;
    chunk_bytes = 0;
    captured = [];
    n_captured = 0;
    op_start = 0.0;
    saw_get = false;
    get_intervals = [];
  }

let merge_probes ps =
  let t = probe () in
  List.iter
    (fun p ->
      t.get_ns <- t.get_ns + p.get_ns;
      t.get_chunks <- t.get_chunks + p.get_chunks;
      t.put_ns <- t.put_ns + p.put_ns;
      t.put_chunks <- t.put_chunks + p.put_chunks;
      t.chunk_bytes <- t.chunk_bytes + p.chunk_bytes;
      t.captured <- p.captured @ t.captured;
      t.n_captured <- t.n_captured + p.n_captured;
      t.get_intervals <- p.get_intervals @ t.get_intervals)
    ps;
  t

(* The impl handed to Mb_agent.create.  Gets and puts are always
   counted (cheap); they are timed as agent spans only when [traced]. *)
let wrap_impl ~traced ~now p (impl : Southbound.impl) : Southbound.impl =
  let call f x =
    if traced then begin
      let t0 = Clock.ns () in
      let r = Tracer.span Tracer.Agent (fun () -> f x) in
      (r, Clock.ns () - t0)
    end
    else (f x, 0)
  in
  let get f key =
    p.saw_get <- true;
    let r, ns = call f key in
    (match r with
    | Ok chunks ->
      p.get_ns <- p.get_ns + ns;
      List.iter
        (fun c ->
          p.get_chunks <- p.get_chunks + 1;
          p.chunk_bytes <- p.chunk_bytes + Chunk.size_bytes c;
          if traced && p.n_captured < capture_cap then begin
            p.captured <- c :: p.captured;
            p.n_captured <- p.n_captured + 1
          end)
        chunks
    | Error _ -> ());
    r
  in
  let put f chunk =
    let r, ns = call f chunk in
    p.put_ns <- p.put_ns + ns;
    p.put_chunks <- p.put_chunks + 1;
    r
  in
  {
    impl with
    get_support_perflow = get impl.get_support_perflow;
    get_report_perflow = get impl.get_report_perflow;
    put_support_perflow = put impl.put_support_perflow;
    put_report_perflow = put impl.put_report_perflow;
    set_op_active =
      (fun active ->
        if active then begin
          p.op_start <- now ();
          p.saw_get <- false
        end
        else if p.saw_get then p.get_intervals <- (p.op_start, now ()) :: p.get_intervals;
        impl.set_op_active active);
  }

(* Per-move outcomes of a closed loop. *)
type moves = {
  mutable attempted : int;
  mutable ok : int;
  move_ms : Samples.t;  (* virtual: moveInternal call to return *)
  wall_ms : Samples.t;  (* host CPU time, every domain: northbound call to completion callback *)
  mutable controller_ns : int;
      (* traced: move spans minus the wrapped callbacks inside them; the
         controller's own wrapped calls (northbound call, completion)
         are added back from their spans *)
}

let moves () =
  { attempted = 0; ok = 0; move_ms = Samples.create (); wall_ms = Samples.create ();
    controller_ns = 0 }

(* Time one asynchronous operation: [start k] issues it and must call
   [k ok move_duration] on completion.  The wall span runs on the
   controller's domain; in a traced round its self time is the span
   minus the wrapped callbacks that ran inside it. *)
let timed_op ~traced m start k =
  m.attempted <- m.attempted + 1;
  let t0 = Clock.ns () and c0 = Clock.cpu () in
  let cov0 = if traced then Tracer.covered () else 0 in
  start (fun ok dur ->
      let t1 = Clock.ns () in
      if traced then begin
        Tracer.record_async ~t0 ~t1;
        m.controller_ns <- m.controller_ns + (t1 - t0) - (Tracer.covered () - cov0)
      end;
      Samples.add m.wall_ms ((Clock.cpu () -. c0) *. 1e3);
      if ok then begin
        m.ok <- m.ok + 1;
        Samples.add m.move_ms (Time.to_ms dur)
      end;
      k ())

(* Per-layer metrics of the control plane over a traced round's moves:
   [probe] merges the wrapped impls, [source] is the agent moves read
   from. *)
let metrics m ~probe ~ctrl ~source =
  let c = Controller.counters ctrl and n = float_of_int (max 1 m.attempted) in
  [
    ("agent.get_ns_per_chunk", per (float_of_int probe.get_ns) probe.get_chunks);
    ("agent.put_ns_per_chunk", per (float_of_int probe.put_ns) probe.put_chunks);
    ("agent.chunks_per_move", float_of_int probe.get_chunks /. n);
    ("agent.bytes_per_chunk", ratio probe.chunk_bytes probe.get_chunks);
    ("agent.events_raised_per_move", float_of_int (Mb_agent.events_raised source) /. n);
    ( "controller.self_ns_per_move",
      float_of_int (m.controller_ns + Tracer.self_ns Tracer.Controller) /. n );
    ("controller.msgs_per_move", float_of_int c.Controller.msgs_processed /. n);
    ("controller.events_forwarded_per_move", float_of_int c.evt_forwarded /. n);
    ("controller.events_buffered_peak", float_of_int c.evt_buffered_peak);
    ("controller.op_retries", float_of_int c.op_retries);
    ("controller.events_dropped", float_of_int c.evt_dropped);
  ]

(* Source-prefix slice [k] of the synthetic records Dummy_mb.populate
   installs (10.0.x.y with y in 1..250): 32 /29 slices of at most eight
   records per /24.  Small slices and a small table keep each get's
   linear scan, and so the loop's share of the round, small. *)
let slices_per_24 = 32

let dummy_slice k =
  [
    Hfl.Src_ip
      (Addr.prefix
         (Addr.of_string
            (Printf.sprintf "10.0.%d.%d" (k / slices_per_24) (8 * (k mod slices_per_24))))
         29);
  ]

(* Records Dummy_mb.populate must install for [slices] slices. *)
let dummy_records slices = 250 * ((slices + slices_per_24 - 1) / slices_per_24)

(* A closed loop of moveInternal calls between two dummy MBs, off the
   data path: each move takes the next slice, and the next starts an
   exponentially distributed think time (mean [think], drawn from
   [prng]) after the previous returns, until [slices] are done or the
   controller's clock passes [stop_at].  Random think times keep move
   starts off the sharded engine's epoch grid, whose barriers would
   otherwise quantize every cross-shard move to the same duration. *)
let dummy_loop ~traced ~engine ~prng ~ctrl ~src ~dst ~slices ~start_at ~think ~stop_at m =
  let rec next k () =
    if k < slices && Engine.now engine < stop_at then
      timed_op ~traced m
        (fun finish ->
          Tracer.run ~traced Tracer.Controller @@ fun () ->
          Controller.move_internal ctrl ~src ~dst ~key:(dummy_slice k)
            ~on_done:
              (Tracer.wrap ~traced Tracer.Controller (fun res ->
                   match res with
                   | Ok mr -> finish true mr.Controller.duration
                   | Error e ->
                     Printf.eprintf "move %d failed: %s\n%!" k (Errors.to_string e);
                     finish false 0.0)))
        (fun () ->
          let pause = Dist.exponential prng ~mean:(Time.to_seconds think) in
          ignore (Engine.schedule_after engine (Time.seconds pause) (next (k + 1))))
  in
  ignore (Engine.schedule_at engine start_at (next 0))

(* The control channels of the dummy loops carry seeded jitter (up to
   50 us per delivery), so that move times depend on the seed like the
   data path's latencies do. *)
let control_plan ~seed =
  {
    (Faults.clean_plan ~seed) with
    Faults.link =
      Faults.symmetric
        { Faults.clean_dir with jitter = Some (Dist.Uniform_spec { lo = 0.0; hi = 50e-6 }) };
  }

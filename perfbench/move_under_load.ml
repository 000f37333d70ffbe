(* move-under-load: the paper's control plane under traffic.

   Batched traffic (Poisson at 2500 pkt/s, the top rate of the Fig
   9(c)/(d) experiment, with Cbr's payloads, dealt round-robin over the
   flows; batches of up to 64 within a 500 us window) runs through
   switch -> monitor (PRADS, at its calibrated cost) over links with a
   seeded impairment profile: exponential jitter, which delays every
   delivery and so splits it off its batch, and a 0.1% drop rate.  Once
   every flow is open, a closed loop of Migrate.migrate_perflow
   operations moves disjoint /24 source slices of the live flows to a
   second monitor: clone the configuration, moveInternal, then the
   routing update, with the next migration starting when the previous
   one returns.  Chunk compression is on (the paper's section 8.3
   setting), so Compress is on the transfer path.  README.md gives the
   source of every parameter. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic
open Openmb_apps
open Common

type size = { slices : int; flows_per_slice : int }

let full = { slices = 32; flows_per_slice = 64 }
let small = { slices = 8; flows_per_slice = 16 }

let rate_pps = 2500.0 (* the top rate of bench fig9cd's Cbr sweep *)
let batch = 64
let window = Time.us 500.0
let chunk = 64 (* packets generated per step: few, so moves see generation evenly *)
let tail = 1.0 (* seconds of traffic after the last migration returns *)
let max_virtual = 600.0

let plan ~seed =
  {
    (Faults.clean_plan ~seed) with
    Faults.link =
      Faults.symmetric
        {
          Faults.clean_dir with
          drop = 0.001;
          jitter = Some (Dist.Exponential_spec { mean = 20e-6 });
        };
  }

(* Cbr's payload: [tokens_per_packet] random 4-byte tokens. *)
let body prng =
  Packet.Raw
    (Payload.of_tokens
       (Array.init Cbr.default_params.Cbr.tokens_per_packet (fun _ ->
            0x2000000 + Prng.int prng 0xFFFFFFF)))

let slice_prefix k = Addr.prefix (Addr.of_string (Printf.sprintf "10.2.%d.0" k)) 24

(* Flow [i] is host [j] of slice [k = i mod slices]: consecutive flows,
   and so (round-robin) consecutive packets, lie in neighbouring
   slices.  Slices move in a seeded random order, so neighbours are
   often on different monitors and a batch that mixes ports takes the
   switch's split path. *)
let tuple_of_flow size i =
  let k = i mod size.slices and j = i / size.slices in
  {
    Five_tuple.src_ip = Addr.of_string (Printf.sprintf "10.2.%d.%d" k (1 + j));
    dst_ip = Addr.of_string "1.1.1.5";
    src_port = 20_000 + j;
    dst_port = 80;
    proto = Packet.Tcp;
  }

(* Per-monitor egress: latency and arrival time of each delivered
   packet. *)
type sink = { lat : Samples.t; arr : Samples.t; mutable delivered : int }

let round ?(size = full) ~seed ~traced () =
  Chunk.compression_enabled := true;
  if traced then Tracer.reset ();
  let wrap l f = Tracer.wrap ~traced l f in
  let live0 = live_heap_mb () in
  let setup_t0 = Clock.cpu () in
  let sc = Scenario.create ~with_recorder:false () in
  let engine = Scenario.engine sc and ctrl = Scenario.controller sc in
  let sw = Scenario.switch sc in
  let dfaults = Faults.create engine (plan ~seed) in
  let now () = Engine.now engine in
  let sinks =
    Array.init 2 (fun _ -> { lat = Samples.create (); arr = Samples.create (); delivered = 0 })
  in
  let sink_one s (p : Packet.t) =
    Samples.add s.lat (now () -. p.ts);
    Samples.add s.arr p.ts;
    s.delivered <- s.delivered + 1
  in
  let batch_pkts = ref 0 and scalar_pkts = ref 0 and deliveries = ref 0 in
  let mon1_in = Replay.capture 20_000 in
  let monitor i =
    let name = Printf.sprintf "mon%d" (i + 1) in
    let mon = Monitor.create engine ~name () in
    let s = sinks.(i) in
    Mb_base.set_egress (Monitor.base mon) (wrap Tracer.Sink (sink_one s));
    Mb_base.set_egress_batch (Monitor.base mon)
      (wrap Tracer.Sink (fun b ->
           Packet_batch.iter b (sink_one s);
           Packet_batch.release b));
    let recv p =
      incr deliveries;
      incr scalar_pkts;
      if traced && i = 0 then Replay.capture_packet mon1_in ~now:(now ()) p;
      Monitor.receive mon p
    and recv_batch b =
      incr deliveries;
      batch_pkts := !batch_pkts + Packet_batch.length b;
      if traced && i = 0 then Replay.capture_batch mon1_in ~now:(now ()) b;
      Monitor.receive_batch mon b
    in
    let port = Printf.sprintf "p%d" (i + 1) in
    let link =
      Link.create engine
        ~faults:(Faults.link dfaults ~name:("s1-" ^ port) ())
        ~name:("s1-" ^ port) ~dst:(wrap Tracer.Mb recv) ()
    in
    Link.set_dst_batch link (wrap Tracer.Mb recv_batch);
    Switch.attach_port sw ~port link;
    let probe = Control_loop.probe () in
    let agent =
      Mb_agent.create engine ~telemetry:(Scenario.telemetry sc)
        ~impl:(Control_loop.wrap_impl ~traced ~now probe (Monitor.impl mon))
        ()
    in
    Controller.connect ctrl agent;
    (mon, probe, agent)
  in
  let mon1, probe1, agent1 = monitor 0 in
  let mon2, probe2, _ = monitor 1 in
  Scenario.install_default_route sc ~port:"p1";
  let cls = Replay.classify () in
  let into b =
    if traced then Replay.classify_batch cls (Switch.table sw) b;
    Switch.receive_batch sw b
  in
  let into = wrap Tracer.Switch into in
  let pool = Packet_batch.pool () in
  let n = size.slices * size.flows_per_slice in
  let tuples = Array.init n (tuple_of_flow size) in
  let prng = Prng.create ~seed in
  let order = Array.init size.slices Fun.id in
  Prng.shuffle prng order;
  (* Closed loop of migrations, started once every flow has sent its
     first packet. *)
  let moves = Control_loop.moves () in
  let finished_at = ref infinity in
  let rec migrate k () =
    if k >= size.slices then finished_at := now ()
    else
      Control_loop.timed_op ~traced moves
        (fun finish ->
          Tracer.run ~traced Tracer.Controller @@ fun () ->
          Migrate.migrate_perflow sc ~src:"mon1" ~dst:"mon2"
            ~key:[ Hfl.Src_ip (slice_prefix order.(k)) ] ~dst_port:"p2"
            ~on_done:
              (wrap Tracer.Controller (fun (r : Migrate.result) ->
                   match r.move with
                   | Some mr -> finish true mr.Controller.duration
                   | None -> finish false 0.0))
            ())
        (migrate (k + 1))
  in
  let start_at = (float_of_int n /. rate_pps) +. 0.1 in
  Scenario.at sc (Time.seconds start_at) (migrate 0);
  let setup_s = Clock.cpu () -. setup_t0 in
  let w0 = minor_words () in
  let cpu0 = Clock.cpu () and round_ns0 = Clock.ns () in
  if traced then Tracer.enter Tracer.Bench;
  let ts = ref 0.0 and sent = ref 0 in
  while !ts < !finished_at +. tail && !ts < max_virtual do
    let trace =
      Tracer.run ~traced Tracer.Traffic (fun () ->
          let pkts =
            poisson_packets prng ~tuples ~gap:(1.0 /. rate_pps) ~first:!sent ~ts ~n:chunk
              ~body
          in
          let trace = Trace.of_packets pkts in
          Trace.replay_batched engine trace ~pool ~batch ~window ~into ();
          trace)
    in
    sent := !sent + chunk;
    Tracer.run ~traced Tracer.Engine (fun () ->
        Engine.run ~until:(Trace.duration trace) engine)
  done;
  Tracer.run ~traced Tracer.Engine (fun () -> Engine.run engine);
  if traced then Tracer.leave ();
  let round_ns = Clock.ns () - round_ns0 and cpu_s = Clock.cpu () -. cpu0 in
  let run_s = float_of_int round_ns /. 1e9 in
  let minor = minor_words () -. w0 in
  let live_mb = live_heap_mb () -. live0 in
  let delivered = sinks.(0).delivered + sinks.(1).delivered in
  let drops = Faults.lost dfaults in
  let flow_pkts mon =
    List.fold_left (fun a (_, r) -> a + r.Monitor.fr_pkts) 0 (Monitor.flow_records mon)
  in
  let c = checks () in
  expect_eq c "move: packets delivered plus injected drops" (delivered + drops) !sent;
  expect_eq c "move: switch drops" (Switch.packets_dropped sw) 0;
  expect_eq c "move: monitor flows" (Monitor.tracked_flows mon1 + Monitor.tracked_flows mon2) n;
  expect_eq c "move: monitor packet totals"
    ((Monitor.totals mon1).Monitor.tot_pkts + (Monitor.totals mon2).Monitor.tot_pkts)
    delivered;
  expect_eq c "move: per-flow packet counts" (flow_pkts mon1 + flow_pkts mon2) delivered;
  expect_eq c "move: migrations returning Ok" moves.ok size.slices;
  expect_eq c "move: controller events dropped" (Controller.events_dropped ctrl) 0;
  let lat = Samples.create () in
  Array.iter
    (fun s ->
      for i = 0 to Samples.length s.lat - 1 do
        Samples.add lat (Samples.get s.lat i)
      done)
    sinks;
  (* The get-time comparison is on the source monitor's packets: the
     instance whose data path the get slows. *)
  let during, outside =
    split_by_intervals ~ts:sinks.(0).arr ~lat:sinks.(0).lat
      ~intervals:(List.sort compare probe1.Control_loop.get_intervals)
  in
  let lat = Samples.to_array lat and move_ms = Samples.to_array moves.move_ms in
  let ctl = Controller.counters ctrl in
  let fingerprint =
    Printf.sprintf "%06x"
      (Hashtbl.hash
         ( (Monitor.totals mon1, Monitor.totals mon2),
           (sinks.(0).delivered, sinks.(1).delivered, drops, Faults.delayed dfaults),
           ctl,
           Engine.executed engine,
           checksum [ lat; during; move_ms ] )
      land 0xFFFFFF)
  in
  let layer =
    if not traced then []
    else begin
      let mb =
        Replay.mb_replay ~warm:true mon1_in ~build:(fun eng ->
            let mon = Monitor.create eng ~name:"mon1" () in
            Mb_base.set_egress_batch (Monitor.base mon) Packet_batch.release;
            (Monitor.receive_batch mon, Monitor.receive mon))
      in
      Layer_metrics.of_round ~pkts:!sent ~switch_calls:(Tracer.calls Tracer.Switch)
        ~deliveries:!deliveries
        ~split_frac:(ratio !scalar_pkts (!scalar_pkts + !batch_pkts))
        ~mb ~mbs:[ Monitor.base mon1; Monitor.base mon2 ] ~keys:tuples ~capture:mon1_in
        ~entries_end:(Monitor.tracked_flows mon1 + Monitor.tracked_flows mon2)
        ~events:(Engine.executed engine) ~engine_ns:(Tracer.self_ns Tracer.Engine)
        ~pool_high_water:(Engine.pool_stats engine).Engine.high_water ~round_ns ~moves
        ~probes:[ probe1; probe2 ] ~ctrl ~source:agent1 ~cls ()
      @ [
          ("link.fault_drops", float_of_int drops);
          ("link.fault_delays", float_of_int (Faults.delayed dfaults));
        ]
    end
  in
  {
    setup_s;
    cpu_s;
    run_s;
    sent = !sent;
    delivered;
    injected_drops = drops;
    moves = moves.attempted;
    moves_ok = moves.ok;
    minor_words = minor;
    live_mb;
    lat;
    during;
    outside;
    move_ms;
    move_wall_ms = Samples.to_array moves.wall_ms;
    problems = c.found;
    layer;
    fingerprint;
  }

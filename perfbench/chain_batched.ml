(* chain-batched: is per-batch data-path work amortized?

   Long flows pass through switch -> NAT -> monitor in
   Trace.replay_batched batches of 64 (500 us window) on a clean link.
   Traffic is open loop: Poisson arrivals at a mean 2 us spacing, dealt
   round-robin over tens of thousands of flows (the first pass opens
   every flow in turn), so the state tables outgrow L2 and lookups
   mostly hit.  Packets are generated a chunk at a time just ahead of
   the engine, so the heap holds the program's state, not a
   materialized trace.  README.md gives the source of every parameter.

   Alongside, a closed loop of moves between two dummy MBs runs off the
   data path (Control_loop.dummy_loop): every end-to-end metric is
   reported on every workload, and this gives the move and
   latency-during-get metrics a value here while leaving the data path
   untouched. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic
open Openmb_apps
open Common

type size = {
  flows : int;
  packets : int;
  chunk : int;
      (* packets generated per step; a multiple of [batch], and small, so
         that every move's wall time spans a similar share of
         generation work *)
  ctl_slices : int;  (* dummy slices available to the control loop *)
}

let full = { flows = 32_768; packets = 200_000; chunk = 1_024; ctl_slices = 128 }
let small = { flows = 1_024; packets = 20_000; chunk = 1_024; ctl_slices = 64 }

let batch = 64
let window = Time.us 500.0
let mean_gap = 2e-6
let fast_cost base = { base with Southbound.per_packet = Time.us 1.0 }
let internal_prefix = Addr.prefix_of_string "10.0.0.0/8"
let empty_body = Packet.Raw Payload.empty
let think = Time.ms 5.0

let make_nat engine =
  let pool = List.init 3 (fun i -> Addr.of_int (Addr.to_int (Addr.of_string "5.5.5.0") + i)) in
  Nat.create engine ~name:"nat" ~cost:(fast_cost Nat.default_cost) ~external_ip:(List.hd pool)
    ~external_ips:(List.tl pool) ~internal_prefix ()

let make_monitor engine =
  Monitor.create engine ~name:"monitor" ~cost:(fast_cost Monitor.default_cost) ()

let round ?(size = full) ~seed ~traced () =
  Chunk.compression_enabled := false;
  if traced then Tracer.reset ();
  let wrap l f = Tracer.wrap ~traced l f in
  let live0 = live_heap_mb () in
  let setup_t0 = Clock.cpu () in
  let engine = Engine.create () in
  let nat = make_nat engine and mon = make_monitor engine in
  let lat = Samples.create () and arr = Samples.create () in
  let delivered = ref 0 in
  let sink_one (p : Packet.t) =
    let now = Engine.now engine in
    Samples.add lat (now -. p.ts);
    Samples.add arr p.ts;
    incr delivered
  in
  let sink_batch b =
    Packet_batch.iter b sink_one;
    Packet_batch.release b
  in
  Mb_base.set_egress (Monitor.base mon) (wrap Tracer.Sink sink_one);
  Mb_base.set_egress_batch (Monitor.base mon) (wrap Tracer.Sink sink_batch);
  Mb_base.set_egress (Nat.base nat) (wrap Tracer.Mb (Monitor.receive mon));
  Mb_base.set_egress_batch (Nat.base nat) (wrap Tracer.Mb (Monitor.receive_batch mon));
  (* Link deliveries and the capture for the MB replay. *)
  let deliveries = ref 0 and nat_in = Replay.capture 65_536 in
  let to_nat_batch b =
    incr deliveries;
    (* The replay samples steady state: packets after the opening pass. *)
    if traced && (Packet_batch.get b 0).Packet.id >= size.flows then
      Replay.capture_batch nat_in ~now:(Engine.now engine) b;
    Nat.receive_batch nat b
  in
  let to_nat p =
    incr deliveries;
    Nat.receive nat p
  in
  let link =
    Link.create engine ~name:"sw-nat" ~dst:(wrap Tracer.Mb to_nat) ()
  in
  Link.set_dst_batch link (wrap Tracer.Mb to_nat_batch);
  let sw = Switch.create engine ~name:"edge" () in
  Switch.attach_port sw ~port:"nat" link;
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "nat"));
  let cls = Replay.classify () in
  let batches = ref 0 in
  let into b =
    incr batches;
    if traced then Replay.classify_batch cls (Switch.table sw) b;
    Switch.receive_batch sw b
  in
  let into = wrap Tracer.Switch into in
  let pool = Packet_batch.pool () in
  let tuples = Array.init size.flows tuple_of_flow in
  (* Control loop between two dummy MBs sharing the engine. *)
  let faults = Faults.create engine (Control_loop.control_plan ~seed) in
  let ctrl = Controller.create engine ~faults () in
  let src = Dummy_mb.create engine ~name:"ctl-src" () in
  let dst = Dummy_mb.create engine ~name:"ctl-dst" () in
  let populated = Control_loop.dummy_records size.ctl_slices in
  Dummy_mb.populate src ~n:populated;
  let now () = Engine.now engine in
  let probe_src = Control_loop.probe () and probe_dst = Control_loop.probe () in
  let agent_src =
    Mb_agent.create engine
      ~impl:(Control_loop.wrap_impl ~traced ~now probe_src (Dummy_mb.impl src)) ()
  in
  let agent_dst =
    Mb_agent.create engine
      ~impl:(Control_loop.wrap_impl ~traced ~now probe_dst (Dummy_mb.impl dst)) ()
  in
  Controller.connect ctrl agent_src;
  Controller.connect ctrl agent_dst;
  let prng = Prng.create ~seed in
  let moves = Control_loop.moves () in
  let horizon = mean_gap *. float_of_int size.packets in
  Control_loop.dummy_loop ~traced ~engine ~prng:(Prng.split prng) ~ctrl ~src:"ctl-src"
    ~dst:"ctl-dst" ~slices:size.ctl_slices ~start_at:(Time.ms 1.0) ~think ~stop_at:horizon moves;
  let setup_s = Clock.cpu () -. setup_t0 in
  (* Measured region: generate, replay and run to completion. *)
  let w0 = minor_words () in
  let cpu0 = Clock.cpu () and round_ns0 = Clock.ns () in
  if traced then Tracer.enter Tracer.Bench;
  let ts = ref 0.0 and sent = ref 0 in
  while !sent < size.packets do
    let n = min size.chunk (size.packets - !sent) in
    let trace =
      Tracer.run ~traced Tracer.Traffic (fun () ->
          let pkts =
            poisson_packets prng ~tuples ~gap:mean_gap ~first:!sent ~ts ~n
              ~body:(fun _ -> empty_body)
          in
          let trace = Trace.of_packets pkts in
          Trace.replay_batched engine trace ~pool ~batch ~window ~into ();
          trace)
    in
    sent := !sent + n;
    Tracer.run ~traced Tracer.Engine (fun () ->
        Engine.run ~until:(Trace.duration trace) engine)
  done;
  Tracer.run ~traced Tracer.Engine (fun () -> Engine.run engine);
  if traced then Tracer.leave ();
  let round_ns = Clock.ns () - round_ns0 and cpu_s = Clock.cpu () -. cpu0 in
  let run_s = float_of_int round_ns /. 1e9 in
  let minor = minor_words () -. w0 in
  let live_mb = live_heap_mb () -. live0 in
  (* Output checks. *)
  let c = checks () in
  expect_eq c "chain: packets delivered" !delivered !sent;
  expect_eq c "chain: NAT mappings" (Nat.mapping_count nat) size.flows;
  expect_eq c "chain: monitor flows" (Monitor.tracked_flows mon) size.flows;
  expect_eq c "chain: monitor packet total" (Monitor.totals mon).Monitor.tot_pkts !delivered;
  expect_eq c "chain: moves returning Ok" moves.ok moves.attempted;
  expect c (moves.attempted > 0) "chain: no move ran";
  expect_eq c "chain: controller events dropped" (Controller.events_dropped ctrl) 0;
  expect_eq c "chain: dummy chunks conserved"
    (Dummy_mb.chunk_count src + Dummy_mb.chunk_count dst)
    populated;
  let during, outside =
    split_by_intervals ~ts:arr ~lat ~intervals:(List.sort compare probe_src.get_intervals)
  in
  let lat = Samples.to_array lat and move_ms = Samples.to_array moves.move_ms in
  let layer =
    if not traced then []
    else begin
      let mb =
        Replay.mb_replay ~warm:true nat_in ~build:(fun eng ->
            let nat = make_nat eng and mon = make_monitor eng in
            Mb_base.set_egress_batch (Nat.base nat) (Monitor.receive_batch mon);
            Mb_base.set_egress_batch (Monitor.base mon) Packet_batch.release;
            (Nat.receive_batch nat, Nat.receive nat))
      in
      Layer_metrics.of_round ~pkts:!sent ~switch_calls:!batches ~deliveries:!deliveries ~mb
        ~mbs:[ Nat.base nat; Monitor.base mon ] ~keys:tuples ~capture:nat_in
        ~entries_end:(Nat.mapping_count nat + Monitor.tracked_flows mon)
        ~events:(Engine.executed engine) ~engine_ns:(Tracer.self_ns Tracer.Engine)
        ~pool_high_water:(Engine.pool_stats engine).Engine.high_water ~round_ns ~moves
        ~probes:[ probe_src; probe_dst ] ~ctrl ~source:agent_src ~cls ()
    end
  in
  {
    setup_s;
    cpu_s;
    run_s;
    sent = !sent;
    delivered = !delivered;
    injected_drops = 0;
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
    fingerprint =
      Printf.sprintf "%06x"
        (Hashtbl.hash
           ( Nat.mapping_count nat,
             Monitor.totals mon,
             !delivered,
             Engine.executed engine,
             checksum [ lat; during; move_ms ] )
        land 0xFFFFFF);
  }

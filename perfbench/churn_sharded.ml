(* churn-sharded: do the per-packet scalar path, event dispatch and
   cross-domain exchange scale?

   Short TCP flows, each carrying one data packet, arrive open loop
   (Poisson, mean 8 us apart) and take the scalar path through 8
   logical switch -> NAT -> monitor shards on a Sharded_engine with 2
   domains: the shape of `bench scale --domains`.  Flows are placed on
   their owning shard by canonical hash; every 64th enters one shard
   over, so the epoch mailboxes carry packets.  Concurrently, a closed
   loop of moves runs from a dummy MB on shard 0 to one on shard 1
   through a remote-connected controller.  NAT and monitor cost 7.5 and
   15 us per packet, so each shard's monitor runs at about 70% load:
   most packets queue and latency depends on the seed.  The arrival
   rate is high enough that every 2 ms epoch carries hundreds of
   packets, so the epoch barriers' wake-up cost, which varies a lot
   between hosts and over time, is a small part of a round. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic
open Openmb_apps
open Common

type size = { flows : int; ctl_slices : int }

let full = { flows = 40_000; ctl_slices = 128 }
let small = { flows = 4_000; ctl_slices = 32 }

let shards = 8
let domains = 2
let epoch = Time.ms 2.0
let mean_gap = 8e-6
let flow_duration = 0.01
let gen_batch = 100 (* flows per generator event, so moves see generation evenly *)
let think = Time.ms 3.0
let internal = Addr.prefix_of_string "10.0.0.0/8"
let nat_cost = { Nat.default_cost with Southbound.per_packet = Time.us 7.5 }
let monitor_cost = { Monitor.default_cost with Southbound.per_packet = Time.us 15.0 }

let nat_pool base n =
  List.init ((n / 45_000) + 2) (fun i -> Addr.of_int (Addr.to_int base + i + 1))

(* Per-shard sink and counters: each is touched only by the domain
   running its shard. *)
type lane = {
  lat : Samples.t;
  arr : Samples.t;
  mutable delivered : int;
  mutable sent : int;
  mutable deliveries : int;
  cls : Replay.classify;
}

let round ?(size = full) ?(domains = domains) ~seed ~traced () =
  Chunk.compression_enabled := false;
  if traced then Tracer.reset ();
  let wrap l f = Tracer.wrap ~traced l f in
  let live0 = live_heap_mb () in
  let setup_t0 = Clock.cpu () in
  let se = Sharded_engine.create ~domains ~epoch ~seed ~shards () in
  let router = Shard_router.create se in
  let n = size.flows in
  (* Arrival times and the flow-space partition: [owner] holds each
     flow's shard, [gen] the shard that emits it. *)
  let prng = Prng.create ~seed in
  let starts = Float.Array.make n 0.0 in
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    t := !t +. Dist.exponential prng ~mean:mean_gap;
    Float.Array.set starts i !t
  done;
  let owner = Bytes.create n in
  let gen_count = Array.make shards 0 in
  let gen_of i o = if i mod 64 = 0 then (o + 1) mod shards else o in
  for i = 0 to n - 1 do
    let o = Shard_router.place router (Five_tuple.pack (tuple_of_flow i)) in
    Bytes.set owner i (Char.chr o);
    let g = gen_of i o in
    gen_count.(g) <- gen_count.(g) + 1
  done;
  let owned = Shard_router.placements router in
  let gen_flows = Array.init shards (fun g -> Array.make gen_count.(g) 0) in
  let fill = Array.make shards 0 in
  for i = 0 to n - 1 do
    let g = gen_of i (Char.code (Bytes.get owner i)) in
    gen_flows.(g).(fill.(g)) <- i;
    fill.(g) <- fill.(g) + 1
  done;
  let shard = Array.init shards (Sharded_engine.shard se) in
  let lanes =
    Array.init shards (fun _ ->
        { lat = Samples.create (); arr = Samples.create (); delivered = 0; sent = 0;
          deliveries = 0; cls = Replay.classify () })
  in
  let nat_in = Replay.capture 20_000 in
  let chain s =
    let sh = shard.(s) in
    let eng = Shard.engine sh and lane = lanes.(s) in
    let base = Addr.of_int (Addr.to_int (Addr.of_string "5.0.0.0") + (s lsl 16)) in
    let nat =
      Nat.create eng ~name:(Printf.sprintf "nat%d" s) ~cost:nat_cost ~external_ip:base
        ~external_ips:(nat_pool base owned.(s)) ~internal_prefix:internal ()
    in
    let mon = Monitor.create eng ~name:(Printf.sprintf "monitor%d" s) ~cost:monitor_cost () in
    Mb_base.set_egress (Monitor.base mon)
      (wrap Tracer.Sink (fun (p : Packet.t) ->
           Samples.add lane.lat (Engine.now eng -. p.ts);
           Samples.add lane.arr p.ts;
           lane.delivered <- lane.delivered + 1));
    Mb_base.set_egress (Nat.base nat) (wrap Tracer.Mb (Monitor.receive mon));
    let to_nat p =
      lane.deliveries <- lane.deliveries + 1;
      if traced && s = 0 then Replay.capture_packet nat_in ~now:(Engine.now eng) p;
      Nat.receive nat p
    in
    let sw = Switch.create eng ~name:(Printf.sprintf "edge%d" s) () in
    Switch.attach_port sw ~port:"nat"
      (Link.create eng ~name:(Printf.sprintf "sw-nat%d" s) ~dst:(wrap Tracer.Mb to_nat) ());
    ignore
      (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
         ~action:(Flow_table.Forward "nat"));
    let recv p =
      if traced then Replay.classify_packet lane.cls (Switch.table sw) p;
      Switch.receive sw p
    in
    (nat, mon, wrap Tracer.Switch recv)
  in
  let chains = Array.init shards chain in
  let nats = Array.map (fun (a, _, _) -> a) chains
  and mons = Array.map (fun (_, b, _) -> b) chains
  and recvs = Array.map (fun (_, _, c) -> c) chains in
  (* Per-shard incremental generators on the shard's own PRNG stream. *)
  let start_generator g =
    let mine = gen_flows.(g) in
    let sh = shard.(g) in
    let eng = Shard.engine sh and prng = Shard.prng sh and lane = lanes.(g) in
    let ids = Trace.Id_gen.create () in
    let emit pos () =
      Tracer.run ~traced Tracer.Traffic (fun () ->
          let hi = min (Array.length mine) (pos + gen_batch) in
          for k = pos to hi - 1 do
            let i = mine.(k) in
            let o = Char.code (Bytes.get owner i) in
            List.iter
              (fun (p : Packet.t) ->
                if Addr.in_prefix p.src_ip internal then begin
                  lane.sent <- lane.sent + 1;
                  Shard.post sh ~dst:o ~at:p.ts recvs.(o) p
                end)
              (Flow_gen.tcp_flow ~ids ~prng ~tuple:(tuple_of_flow i)
                 ~start:(Float.Array.get starts i) ~duration:flow_duration ~data_packets:1
                 ~content:Flow_gen.empty_content ())
          done;
          hi)
    in
    let rec step pos () =
      let hi = emit pos () in
      if hi < Array.length mine then
        ignore (Engine.schedule_at eng (Float.Array.get starts mine.(hi)) (step hi))
    in
    if Array.length mine > 0 then step 0 ()
  in
  (* Control loop: controller and source on shard 0, destination on
     shard 1, each side's channels jittered by its own fault instance. *)
  let s0 = shard.(0) and s1 = shard.(1) in
  let plan = Control_loop.control_plan ~seed in
  let ctrl =
    Controller.create (Shard.engine s0) ~faults:(Faults.create (Shard.engine s0) plan) ()
  in
  let src = Dummy_mb.create (Shard.engine s0) ~name:"ctl-src" () in
  let dst = Dummy_mb.create (Shard.engine s1) ~name:"ctl-dst" () in
  let populated = Control_loop.dummy_records size.ctl_slices in
  Dummy_mb.populate src ~n:populated;
  let probe_src = Control_loop.probe () and probe_dst = Control_loop.probe () in
  let agent_src =
    Mb_agent.create (Shard.engine s0)
      ~impl:
        (Control_loop.wrap_impl ~traced
           ~now:(fun () -> Engine.now (Shard.engine s0))
           probe_src (Dummy_mb.impl src))
      ()
  in
  let agent_dst =
    Mb_agent.create (Shard.engine s1)
      ~impl:
        (Control_loop.wrap_impl ~traced
           ~now:(fun () -> Engine.now (Shard.engine s1))
           probe_dst (Dummy_mb.impl dst))
      ()
  in
  Controller.connect ctrl agent_src;
  Controller.connect ctrl
    ~remote:
      {
        Controller.to_agent = Shard_router.route router ~src:0 ~dst:1;
        to_controller = Shard_router.route router ~src:1 ~dst:0;
        agent_faults = Some (Faults.create (Shard.engine s1) plan);
      }
    agent_dst;
  let moves = Control_loop.moves () in
  let horizon = Float.Array.get starts (n - 1) in
  Control_loop.dummy_loop ~traced ~engine:(Shard.engine s0) ~prng:(Prng.split prng) ~ctrl
    ~src:"ctl-src" ~dst:"ctl-dst" ~slices:size.ctl_slices ~start_at:(Time.ms 10.0) ~think
    ~stop_at:horizon moves;
  let setup_s = Clock.cpu () -. setup_t0 in
  let w0 = minor_words () in
  let cpu0 = Clock.cpu () and round_ns0 = Clock.ns () in
  if traced then Tracer.enter Tracer.Bench;
  for g = 0 to shards - 1 do
    start_generator g
  done;
  let cov0 = Tracer.covered_all () in
  let run_ns0 = Clock.ns () in
  Tracer.run ~traced Tracer.Shard (fun () -> Sharded_engine.run se);
  let run_ns = Clock.ns () - run_ns0 in
  let cov = Tracer.covered_all () - cov0 in
  if traced then Tracer.leave ();
  let round_ns = Clock.ns () - round_ns0 and cpu_s = Clock.cpu () -. cpu0 in
  let run_s = float_of_int round_ns /. 1e9 in
  let minor = minor_words () -. w0 in
  let live_mb = live_heap_mb () -. live0 in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 in
  let sent = sum (fun l -> l.sent) lanes and delivered = sum (fun l -> l.delivered) lanes in
  let mappings = Array.map Nat.mapping_count nats in
  let c = checks () in
  expect_eq c "churn: packets delivered" delivered sent;
  expect_eq c "churn: NAT mappings" (Array.fold_left ( + ) 0 mappings) n;
  Array.iteri
    (fun s m -> expect_eq c (Printf.sprintf "churn: shard %d NAT mappings" s) m owned.(s))
    mappings;
  expect_eq c "churn: monitor flows" (sum Monitor.tracked_flows mons) n;
  expect_eq c "churn: monitor packet totals"
    (sum (fun m -> (Monitor.totals m).Monitor.tot_pkts) mons)
    delivered;
  expect_eq c "churn: moves returning Ok" moves.ok moves.attempted;
  expect c (moves.attempted > 0) "churn: no move ran";
  expect_eq c "churn: controller events dropped" (Controller.events_dropped ctrl) 0;
  expect_eq c "churn: dummy chunks conserved"
    (Dummy_mb.chunk_count src + Dummy_mb.chunk_count dst)
    populated;
  let lat = Samples.create () and arr = Samples.create () in
  Array.iter
    (fun l ->
      for i = 0 to Samples.length l.lat - 1 do
        Samples.add lat (Samples.get l.lat i);
        Samples.add arr (Samples.get l.arr i)
      done)
    lanes;
  let during, outside =
    split_by_intervals ~ts:arr ~lat
      ~intervals:(List.sort compare probe_src.Control_loop.get_intervals)
  in
  let lat = Samples.to_array lat and move_ms = Samples.to_array moves.move_ms in
  let executed = Sharded_engine.executed se in
  let fingerprint =
    Printf.sprintf "%06x"
      (Hashtbl.hash
         ( Array.to_list mappings,
           Array.to_list (Array.map Monitor.tracked_flows mons),
           Array.to_list (Array.map (fun l -> l.delivered) lanes),
           Array.to_list (Array.init shards (fun s -> Engine.executed (Shard.engine shard.(s)))),
           Controller.counters ctrl,
           checksum [ lat; during; move_ms ] )
      land 0xFFFFFF)
  in
  let layer =
    if not traced then []
    else begin
      let cls = Replay.classify () in
      Array.iter
        (fun l ->
          cls.c_pkts <- cls.c_pkts + l.cls.c_pkts;
          cls.c_ns <- cls.c_ns + l.cls.c_ns;
          cls.slow_pkts <- cls.slow_pkts + l.cls.slow_pkts)
        lanes;
      let mb =
        Replay.mb_replay nat_in ~build:(fun eng ->
            let nat =
              Nat.create eng ~name:"nat" ~cost:nat_cost ~external_ip:(Addr.of_string "5.0.0.0")
                ~external_ips:(nat_pool (Addr.of_string "5.0.0.0") n)
                ~internal_prefix:internal ()
            in
            let mon = Monitor.create eng ~name:"monitor" ~cost:monitor_cost () in
            Mb_base.set_egress (Nat.base nat) (Monitor.receive mon);
            (Nat.receive_batch nat, Nat.receive nat))
      in
      let engine_residual = (run_ns * Sharded_engine.domains se) - cov in
      Layer_metrics.of_round ~pkts:sent ~switch_calls:sent
        ~deliveries:(sum (fun l -> l.deliveries) lanes) ~mb
        ~mbs:(Array.to_list (Array.map Nat.base nats) @ Array.to_list (Array.map Monitor.base mons))
        ~keys:(Array.init n tuple_of_flow) ~capture:nat_in
        ~entries_end:(Array.fold_left ( + ) 0 mappings + sum Monitor.tracked_flows mons)
        ~events:executed ~engine_ns:engine_residual
        ~pool_high_water:
          (Array.fold_left
             (fun a sh -> max a (Engine.pool_stats (Shard.engine sh)).Engine.high_water)
             0 shard)
        ~round_ns ~moves ~probes:[ probe_src; probe_dst ] ~ctrl ~source:agent_src ~cls ()
      @ [
          ("shard.epochs", float_of_int (Sharded_engine.epochs se));
          ("shard.cross_msgs", float_of_int (Sharded_engine.exchanged se));
          ("shard.skew", Shard_router.skew router);
        ]
    end
  in
  {
    setup_s;
    cpu_s;
    run_s;
    sent;
    delivered;
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
    fingerprint;
  }

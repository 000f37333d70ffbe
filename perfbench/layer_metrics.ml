(* The per-layer metrics every workload reports from a traced round.
   Each workload passes what it counted and the results of its
   replays; its own extras (fault counters, shard metrics) are appended
   by the caller. *)

open Openmb_sim
open Openmb_net
open Openmb_mbox
open Common

let of_round ~pkts ~switch_calls ~deliveries ?(split_frac = 0.0) ~mb:(mb_ns, mb_words) ~mbs
    ~keys ~(capture : Replay.capture) ~entries_end ~events ~engine_ns ~pool_high_water ~round_ns
    ~moves ~probes ~ctrl ~source ~cls () =
  let probes_keys = Array.of_list (List.rev_map Five_tuple.of_packet capture.pkts) in
  let ins_ns, find_ns, bytes_per_entry = Replay.state_table ~keys ~probes:probes_keys in
  let probe = Control_loop.merge_probes probes in
  let self l = float_of_int (Tracer.self_ns l) in
  [
    ("traffic.self_ns_per_pkt", per (self Tracer.Traffic) pkts);
    ("traffic.batch_occupancy", ratio pkts switch_calls);
    ("switch.self_ns_per_pkt", per (self Tracer.Switch) pkts);
    ("link.deliveries_per_pkt", ratio deliveries pkts);
    ("link.split_frac", split_frac);
    ("mb.self_ns_per_pkt", mb_ns);
    ("mb.minor_words_per_pkt", mb_words);
    ( "mb.latency_samples_held",
      float_of_int
        (List.fold_left (fun a b -> a + Stats.count (Mb_base.latency_stats b)) 0 mbs) );
    ("state_table.find_ns", find_ns);
    ("state_table.insert_ns", ins_ns);
    ("state_table.entries_end", float_of_int entries_end);
    ("state_table.heap_bytes_per_entry", bytes_per_entry);
    ("engine.events_per_pkt", ratio events pkts);
    ("engine.self_ns_per_event", per (float_of_int engine_ns) events);
    ("engine.pool_high_water", float_of_int pool_high_water);
    ( "trace.unattributed_frac",
      per (self Tracer.Bench +. self Tracer.Sink) round_ns );
  ]
  @ Control_loop.metrics moves ~probe ~ctrl ~source
  @ Replay.classify_metrics cls
  @ Replay.wire probe.captured

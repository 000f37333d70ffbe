(* The benchmark's workloads, the metrics it declares, and the run loop
   that turns rounds into one result. *)

open Common

type t = {
  name : string;
  round : seed:int -> traced:bool -> round;
  (* A round on one domain, for shard.speedup_vs_d1 (sharded workloads). *)
  round_d1 : (seed:int -> round) option;
  (* The fault plan of the workload's links, printed so any run replays. *)
  faults : seed:int -> string;
  (* Domains the workload runs on; the host-speed kernel runs on as
     many. *)
  domains : int;
}

let control_faults ~seed = Openmb_sim.Faults.plan_to_string (Control_loop.control_plan ~seed)

let all =
  [
    {
      name = "chain-batched";
      round = (fun ~seed ~traced -> Chain_batched.round ~seed ~traced ());
      round_d1 = None;
      faults = control_faults;
      domains = 1;
    };
    {
      name = "churn-sharded";
      round = (fun ~seed ~traced -> Churn_sharded.round ~seed ~traced ());
      round_d1 = Some (fun ~seed -> Churn_sharded.round ~seed ~traced:false ~domains:1 ());
      faults = control_faults;
      domains = Churn_sharded.domains;
    };
    {
      name = "move-under-load";
      round = (fun ~seed ~traced -> Move_under_load.round ~seed ~traced ());
      round_d1 = None;
      faults = (fun ~seed -> Openmb_sim.Faults.plan_to_string (Move_under_load.plan ~seed));
      domains = 1;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let end_to_end =
  [
    ("setup_s", "s");
    ("pkts_per_s", "pkt/s");
    ("minor_words_per_pkt", "words");
    ("peak_heap_mb", "MB");
    ("pkt_latency_p50_us", "us");
    ("pkt_latency_p99_us", "us");
    ("move_wall_ms_p50", "ms");
    ("move_wall_ms_p90", "ms");
    ("move_ms_p50", "ms");
    ("move_ms_p90", "ms");
    ("op_latency_ratio_pct", "%");
    ("ok_frac", "ratio");
  ]

let per_layer =
  [
    ("traffic.self_ns_per_pkt", "ns");
    ("traffic.batch_occupancy", "pkt");
    ("switch.self_ns_per_pkt", "ns");
    ("switch.classify_ns_per_pkt", "ns");
    ("switch.slowpath_frac", "ratio");
    ("link.deliveries_per_pkt", "count");
    ("link.split_frac", "ratio");
    ("link.fault_drops", "count");
    ("link.fault_delays", "count");
    ("mb.self_ns_per_pkt", "ns");
    ("mb.minor_words_per_pkt", "words");
    ("mb.latency_samples_held", "count");
    ("state_table.find_ns", "ns");
    ("state_table.insert_ns", "ns");
    ("state_table.entries_end", "count");
    ("state_table.heap_bytes_per_entry", "B");
    ("agent.get_ns_per_chunk", "ns");
    ("agent.put_ns_per_chunk", "ns");
    ("agent.chunks_per_move", "count");
    ("agent.bytes_per_chunk", "B");
    ("agent.events_raised_per_move", "count");
    ("wire.sizing_ns_per_msg", "ns");
    ("wire.compress_ns_per_byte", "ns");
    ("wire.compress_ratio", "ratio");
    ("controller.self_ns_per_move", "ns");
    ("controller.msgs_per_move", "count");
    ("controller.events_forwarded_per_move", "count");
    ("controller.events_buffered_peak", "count");
    ("controller.op_retries", "count");
    ("controller.events_dropped", "count");
    ("engine.events_per_pkt", "count");
    ("engine.self_ns_per_event", "ns");
    ("engine.pool_high_water", "count");
    ("shard.epochs", "count");
    ("shard.cross_msgs", "count");
    ("shard.skew", "ratio");
    ("shard.speedup_vs_d1", "x");
    ("trace.overhead_pct", "%");
    ("trace.unattributed_frac", "ratio");
  ]

(* Metrics a single-engine workload has no use for read as a one-shard
   run: skew and speed-up 1, no epochs or cross-shard messages. *)
let layer_default = function "shard.skew" | "shard.speedup_vs_d1" -> 1.0 | _ -> 0.0

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* Rounds cycle through [pool] sub-seeds derived from the run's seed;
   the virtual-time metrics pool the samples of one round of each, and
   every later round must reproduce its sub-seed's first round bit for
   bit. *)
let pool = 8
let sub_seed seed r = (seed * pool) + (r mod pool)

(* The virtual-time end-to-end metrics of a set of rounds. *)
let virtual_metrics rounds =
  let cat f = Float.Array.concat (List.map f rounds) in
  let q a qs = quantiles (cat a) qs in
  let lat = q (fun r -> r.lat) [ 0.5; 0.99 ] and mv = q (fun r -> r.move_ms) [ 0.5; 0.9 ] in
  let med f = List.hd (q f [ 0.5 ]) in
  [
    ("pkt_latency_p50_us", us (List.nth lat 0));
    ("pkt_latency_p99_us", us (List.nth lat 1));
    ("move_ms_p50", List.nth mv 0);
    ("move_ms_p90", List.nth mv 1);
    ("op_latency_ratio_pct", 100.0 *. med (fun r -> r.during) /. med (fun r -> r.outside));
  ]

(* [r]'s host (CPU) times scaled to the reference host speed, given
   the kernel times measured just before and just after it. *)
let at_reference_speed ~before ~after r =
  let f = Host_speed.reference_ms /. ((before +. after) /. 2.0) in
  ( f,
    { r with setup_s = r.setup_s *. f; cpu_s = r.cpu_s *. f;
             move_wall_ms = Float.Array.map (fun x -> x *. f) r.move_wall_ms } )

(* Run rounds until [seconds] of wall time are spent.  Round 0 warms
   caches and the heap and is left out of the host metrics.  Untraced:
   at least [pool] + 1 rounds, all (bar the first) counted toward the
   end-to-end metrics.  Traced: rounds alternate untraced / traced; the
   last traced round gives the per-layer metrics, and the traced and
   untraced wall times the tracing overhead. *)
let run w ~seed ~seconds ~traced =
  let t_start = Clock.s () in
  let min_rounds = if traced then 5 else pool + 1 in
  let rounds = ref [] in
  let k = ref 0 in
  let kernel = ref (Host_speed.measure ~domains:w.domains) in
  while !k < min_rounds || Clock.s () -. t_start < seconds do
    let this_traced = traced && !k mod 2 = 0 && !k > 0 in
    let raw = w.round ~seed:(sub_seed seed !k) ~traced:this_traced in
    let before = !kernel in
    kernel := Host_speed.measure ~domains:w.domains;
    let f, r = at_reference_speed ~before ~after:!kernel raw in
    Printf.printf
      "round %d%s (seed %d): setup %.4f s, run %.4f s (CPU %.4f s x speed %.4f; wall %.4f s), \
       %d pkts, %d moves, fingerprint %s\n%!"
      !k (if this_traced then " traced" else "") (sub_seed seed !k) r.setup_s r.cpu_s raw.cpu_s f
      r.run_s r.delivered r.moves r.fingerprint;
    (* Only the first [pool] rounds' samples are needed; later rounds
       keep their checksum in the fingerprint. *)
    let r =
      if !k < pool then r
      else { r with lat = Float.Array.create 0; during = Float.Array.create 0;
                    outside = Float.Array.create 0 }
    in
    rounds := (!k, this_traced, r) :: !rounds;
    incr k
  done;
  let all = List.rev !rounds in
  let problems = List.concat_map (fun (_, _, r) -> r.problems) all in
  let problems =
    problems
    @ List.filter_map
        (fun (i, _, r) ->
          let _, _, first = List.nth all (i mod pool) in
          if r.fingerprint = first.fingerprint then None
          else begin
            let p =
              Printf.sprintf "round %d does not reproduce round %d of its seed" i (i mod pool)
            in
            Printf.eprintf "check failed: %s\n%!" p;
            Some p
          end)
        all
  in
  let every = List.map (fun (_, _, r) -> r) all in
  let host = List.filter_map (fun (i, t, r) -> if i > 0 && not t then Some r else None) all in
  let traced_rounds = List.filter_map (fun (_, t, r) -> if t then Some r else None) all in
  let attempted = List.fold_left (fun a r -> a + r.sent + r.moves) 0 every in
  let failed =
    List.fold_left
      (fun a r -> a + (r.sent - r.delivered - r.injected_drops) + (r.moves - r.moves_ok))
      0 every
  in
  let med f = median_list (List.map f host) in
  (* Move host-time percentiles over the counted rounds' moves, pooled
     (each move already scaled by its round's host speed). *)
  let moves_wall = Float.Array.concat (List.map (fun r -> r.move_wall_ms) host) in
  let wall q = List.hd (quantiles moves_wall [ q ]) in
  let vt = virtual_metrics (List.filteri (fun i _ -> i < pool) every) in
  let e2e =
    [
      ("setup_s", med (fun r -> r.setup_s));
      ("pkts_per_s", med (fun r -> float_of_int r.delivered /. r.cpu_s));
      ("minor_words_per_pkt", med (fun r -> r.minor_words /. float_of_int r.sent));
      ("peak_heap_mb", med (fun r -> r.live_mb));
      ("move_wall_ms_p50", wall 0.5);
      ("move_wall_ms_p90", wall 0.9);
      ("ok_frac", 1.0 -. ratio failed attempted);
    ]
    @ vt
  in
  Printf.printf "seed %d: %d rounds, %d attempted, %d failed, failed_frac %.6g\n" seed
    (List.length every) attempted failed (ratio failed attempted);
  List.iter
    (fun (n, u) -> Printf.printf "  %-26s %14.6g %s\n" n (List.assoc n e2e) u)
    end_to_end;
  let problems = ref problems in
  let metrics =
    if not traced then List.map (fun (n, u) -> (n, List.assoc n e2e, u)) end_to_end
    else begin
      let tr = List.hd (List.rev traced_rounds) in
      let overhead =
        100.0
        *. ((median_list (List.map (fun r -> r.run_s) traced_rounds) /. med (fun r -> r.run_s))
           -. 1.0)
      in
      let speedup =
        match w.round_d1 with
        | None -> []
        | Some d1 ->
          (* Round 0's sub-seed, so the fingerprints must agree
             whatever the domain count. *)
          let r1 = d1 ~seed:(sub_seed seed 0) in
          Printf.printf "round 0 again at 1 domain: run %.4f s, fingerprint %s\n" r1.run_s
            r1.fingerprint;
          if r1.fingerprint <> (List.hd every).fingerprint then begin
            prerr_endline "check failed: 1-domain round does not reproduce the 2-domain one";
            problems := "domain count changed the outcome" :: !problems
          end;
          [ ("shard.speedup_vs_d1", r1.run_s /. med (fun r -> r.run_s)) ]
      in
      let measured = (("trace.overhead_pct", overhead) :: speedup) @ tr.layer in
      Printf.printf "traced: %d spans recorded, %d beyond the cap (aggregated only)\n"
        (Tracer.spans_recorded ()) (Tracer.spans_dropped ());
      List.map
        (fun (n, u) ->
          let v =
            match List.assoc_opt n measured with Some v -> v | None -> layer_default n
          in
          (n, v, u))
        per_layer
    end
  in
  { correct = !problems = []; attempted; failed; metrics }

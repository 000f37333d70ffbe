open Openmb_sim
open Openmb_core

type t = {
  engine : Engine.t;
  recorder : Recorder.t option;
  name : string;
  kind : string;
  cost : Southbound.cost_model;
  config : Config_tree.t;
  mutable event_sink : (Event.t -> unit) option;
  mutable egress : (Openmb_net.Packet.t -> unit) option;
  mutable egress_batch : (Openmb_net.Packet_batch.t -> unit) option;
  mutable op_active : bool;
  mutable dp_free_at : Time.t;
  latency : Stats.t;
  latency_during_op : Stats.t;
  mutable pkts : int;
  c_pkts : Telemetry.counter;
  h_pkt : Telemetry.histogram;
  h_occ : Telemetry.histogram;
}

let create engine ?recorder ?telemetry ~name ~kind ~cost () =
  let c_pkts, h_pkt, h_occ =
    match telemetry with
    | Some tel ->
      ( Telemetry.counter tel "mb.pkts",
        Telemetry.histogram tel "mb.pkt_latency",
        Telemetry.histogram tel "mb.batch_occupancy" )
    | None -> (Telemetry.null_counter, Telemetry.null_histogram, Telemetry.null_histogram)
  in
  {
    engine;
    recorder;
    name;
    kind;
    cost;
    config = Config_tree.create ();
    event_sink = None;
    egress = None;
    egress_batch = None;
    op_active = false;
    dp_free_at = Time.zero;
    latency = Stats.create ();
    latency_during_op = Stats.create ();
    pkts = 0;
    c_pkts;
    h_pkt;
    h_occ;
  }

(* Per-MB scrape set.  The registry counters ("mb.pkts", ...) are
   shared across every MB on one telemetry instance, so per-instance
   series go through Poll sources reading this base's own fields,
   named by the MB.  The polls read simulation state but never write
   it, preserving scrape determinism. *)
let register_series t ts =
  Timeseries.add ts ~name:(t.name ^ ".pkts") ~mode:Timeseries.Sum
    (Timeseries.Poll (fun () -> float_of_int t.pkts));
  Timeseries.add ts ~name:(t.name ^ ".dp_backlog_us") ~mode:Timeseries.Max
    (Timeseries.Poll
       (fun () ->
         let b = Time.to_us Time.(t.dp_free_at - Engine.now t.engine) in
         if b > 0.0 then b else 0.0));
  Timeseries.add ts ~name:(t.name ^ ".lat_mean_us") ~mode:Timeseries.Max
    (Timeseries.Poll
       (fun () -> if Stats.count t.latency = 0 then 0.0 else Stats.mean t.latency *. 1e6))

let engine t = t.engine
let name t = t.name
let kind t = t.kind
let config t = t.config
let now t = Engine.now t.engine
let set_egress t f = t.egress <- Some f
let set_egress_batch t f = t.egress_batch <- Some f
let forward t p = match t.egress with Some f -> f p | None -> ()

(* Emit a whole batch on the egress.  Without a batch egress, drain
   through the scalar one so batch-mode middleboxes compose with
   batch-unaware downstream components. *)
let forward_batch t b =
  if Openmb_net.Packet_batch.length b = 0 then Openmb_net.Packet_batch.release b
  else
    match t.egress_batch with
    | Some f -> f b
    | None -> (
      match t.egress with
      | Some f -> Openmb_net.Packet_batch.drain b f
      | None -> Openmb_net.Packet_batch.release b)
let raise_event t ev = match t.event_sink with Some sink -> sink ev | None -> ()

(* Absent observers cost nothing: the event and its JSON info are only
   built once a sink is attached.  [info] is a top-level function
   applied to [x] here, so the caller allocates no closure either. *)
let introspect t ~code ~key info x =
  match t.event_sink with
  | Some sink -> sink (Event.Introspect { code; key; info = info x })
  | None -> ()

let set_op_active t b = t.op_active <- b
let op_active t = t.op_active

let record t ~kind ~detail =
  match t.recorder with
  | Some r -> Recorder.record r ~actor:t.name ~kind ~detail
  | None -> ()

let recording t = Option.is_some t.recorder

let inject t p ~side_effects ~work =
  let arrival = Engine.now t.engine in
  let during_op = t.op_active in
  let cost =
    if during_op then
      Time.seconds (Time.to_seconds t.cost.per_packet *. t.cost.op_slowdown)
    else t.cost.per_packet
  in
  let start = Time.max arrival t.dp_free_at in
  t.dp_free_at <- Time.(start + cost);
  Engine.call_at t.engine t.dp_free_at
    (fun () ->
      t.pkts <- t.pkts + 1;
      Telemetry.incr t.c_pkts;
      let lat = Time.to_seconds Time.(Engine.now t.engine - arrival) in
      Stats.add t.latency lat;
      Telemetry.observe t.h_pkt lat;
      if during_op then Stats.add t.latency_during_op lat;
      if side_effects && recording t then
        record t ~kind:"pkt" ~detail:(Openmb_net.Packet.flow_label p);
      work p)
    ()

(* Batch data path: the whole batch is charged [n × per-packet cost] on
   the serial data-path clock as one event, and the per-packet
   accounting (counters, latency stats, histogram) is amortized into
   single weighted updates — this is where the batch path's speedup
   comes from.  [work] receives the batch at dispatch time and takes
   ownership of it. *)
let inject_batch t b ~side_effects ~work =
  let n = Openmb_net.Packet_batch.length b in
  if n = 0 then Openmb_net.Packet_batch.release b
  else begin
    let arrival = Engine.now t.engine in
    let during_op = t.op_active in
    let per =
      if during_op then Time.to_seconds t.cost.per_packet *. t.cost.op_slowdown
      else Time.to_seconds t.cost.per_packet
    in
    let start = Time.max arrival t.dp_free_at in
    t.dp_free_at <- Time.(start + Time.seconds (per *. float_of_int n));
    Engine.call_at t.engine t.dp_free_at
      (fun () ->
        t.pkts <- t.pkts + n;
        Telemetry.add t.c_pkts n;
        let lat = Time.to_seconds Time.(Engine.now t.engine - arrival) in
        Stats.add_n t.latency lat ~n;
        Telemetry.observe_n t.h_pkt lat ~n;
        Telemetry.observe_count t.h_occ n;
        if during_op then Stats.add_n t.latency_during_op lat ~n;
        if side_effects && recording t then
          record t ~kind:"pktbatch" ~detail:(string_of_int n);
        work b)
      ()
  end

(* Default batch hook: loop the MB's scalar per-packet function over the
   members, compact out the drops, and forward the survivors as one
   batch.  Middleboxes with a vectorized pass call {!inject_batch}
   directly instead. *)
let process_batch t b ~side_effects ~process =
  inject_batch t b ~side_effects ~work:(fun b ->
      let n = Openmb_net.Packet_batch.length b in
      for i = 0 to n - 1 do
        let p = Openmb_net.Packet_batch.get b i in
        match process p with
        | Some p' -> if p' != p then Openmb_net.Packet_batch.set b i p'
        | None -> Openmb_net.Packet_batch.drop b i
      done;
      ignore (Openmb_net.Packet_batch.compact b : int);
      if side_effects then forward_batch t b
      else Openmb_net.Packet_batch.release b)

let latency_stats t = t.latency
let latency_during_op_stats t = t.latency_during_op
let packets_processed t = t.pkts

(* ------------------------------------------------------------------ *)
(* Chunk helpers                                                       *)
(* ------------------------------------------------------------------ *)

let seal_raw t ~role ~partition ~key plain =
  Chunk.seal ~mb_kind:t.kind ~role ~partition ~key ~plain

let unseal_raw t chunk = Chunk.unseal ~mb_kind:t.kind chunk

let seal_json t ~role ~partition ~key json =
  seal_raw t ~role ~partition ~key (Openmb_wire.Json.to_string json)

let unseal_json t chunk =
  match unseal_raw t chunk with
  | Error e -> Error e
  | Ok plain -> (
    match Openmb_wire.Json.of_string plain with
    | json -> Ok json
    | exception Openmb_wire.Json.Parse_error msg -> Error (Errors.Bad_chunk msg))

(* ------------------------------------------------------------------ *)
(* Impl assembly                                                       *)
(* ------------------------------------------------------------------ *)

let illegal what _ = Error (Errors.Illegal_operation what)

let config_get t path =
  match Config_tree.get t.config path with
  | [] ->
    if Config_tree.mem t.config path then Ok []
    else Error (Errors.Unknown_config_key (Config_tree.path_to_string path))
  | entries -> Ok entries

let config_set t path values =
  match Config_tree.set t.config path values with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (Errors.Op_failed msg)

let config_del t path =
  if Config_tree.del t.config path then Ok ()
  else Error (Errors.Unknown_config_key (Config_tree.path_to_string path))

let default_impl t ~table_entries : Southbound.impl =
  {
    name = t.name;
    kind = t.kind;
    granularity = Openmb_net.Hfl.full_granularity;
    cost = t.cost;
    table_entries;
    get_config = config_get t;
    set_config = config_set t;
    del_config = config_del t;
    (* Reading a state class the MB does not keep yields an empty
       stream (a move touches both supporting and reporting state, and
       most MBs hold only one); importing into an absent class is an
       error. *)
    get_support_perflow = (fun _ -> Ok []);
    put_support_perflow = illegal "MB keeps no per-flow supporting state";
    del_support_perflow = (fun _ -> Ok 0);
    get_support_shared = (fun () -> Ok None);
    put_support_shared = illegal "MB keeps no shared supporting state";
    get_report_perflow = (fun _ -> Ok []);
    put_report_perflow = illegal "MB keeps no per-flow reporting state";
    del_report_perflow = (fun _ -> Ok 0);
    get_report_shared = (fun () -> Ok None);
    put_report_shared = illegal "MB keeps no shared reporting state";
    abort_perflow = (fun _ -> ());
    on_crash = (fun () -> ());
    stats = (fun _ -> Southbound.empty_stats);
    process_packet = (fun _ ~side_effects:_ -> ());
    set_event_sink = (fun sink -> t.event_sink <- Some sink);
    set_op_active = set_op_active t;
  }

(** Common middlebox runtime.

    Every middlebox in this repo is built on this base: it provides the
    simulated packet data path (serial processing with queueing, the
    op-slowdown penalty, per-packet latency measurement), event
    emission honouring the moved/cloned flags, a configuration tree,
    and helpers for assembling a {!Openmb_core.Southbound.impl}. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?recorder:Openmb_sim.Recorder.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  name:string ->
  kind:string ->
  cost:Openmb_core.Southbound.cost_model ->
  unit ->
  t
(** With [telemetry], every processed packet increments the shared
    ["mb.pkts"] counter and feeds its data-path latency (including
    queueing) into the ["mb.pkt_latency"] histogram. *)

val engine : t -> Openmb_sim.Engine.t
val name : t -> string
val kind : t -> string
val config : t -> Openmb_core.Config_tree.t
val now : t -> Openmb_sim.Time.t

val set_egress : t -> (Openmb_net.Packet.t -> unit) -> unit
(** Where processed packets are forwarded (the MB's egress link). *)

val set_egress_batch : t -> (Openmb_net.Packet_batch.t -> unit) -> unit
(** Where processed batches are forwarded.  Without one, batch
    forwarding drains through the scalar egress. *)

val forward : t -> Openmb_net.Packet.t -> unit
(** Emit a packet on the egress (drops silently when none is set —
    sink deployments). *)

val forward_batch : t -> Openmb_net.Packet_batch.t -> unit
(** Emit a whole batch on the egress (ownership passes on; the batch is
    released when no egress is set or it is empty). *)

val raise_event : t -> Openmb_core.Event.t -> unit
(** Send an event up to the agent (no-op before an agent attaches). *)

val introspect :
  t -> code:string -> key:Openmb_net.Hfl.t -> ('a -> Openmb_wire.Json.t) -> 'a -> unit
(** [introspect t ~code ~key info x] raises
    [Introspect { code; key; info = info x }].  Before an event sink is
    attached nothing is built: neither the event nor its JSON info.
    Pass a top-level [info] so the call allocates no closure. *)

val set_op_active : t -> bool -> unit
(** Called by the agent while southbound ops execute; the packet path
    then applies [cost.op_slowdown]. *)

val op_active : t -> bool

val inject :
  t ->
  Openmb_net.Packet.t ->
  side_effects:bool ->
  work:(Openmb_net.Packet.t -> unit) ->
  unit
(** Run [work] on the packet after data-path queueing and the modelled
    per-packet processing cost.  [work] performs the MB's state updates
    and (only when [side_effects] is true) any forwarding/alerting.
    Records per-packet latency including queueing and, with a recorder
    attached, the ["pkt"] timeline entry (detail
    {!Openmb_net.Packet.flow_label}). *)

val inject_batch :
  t ->
  Openmb_net.Packet_batch.t ->
  side_effects:bool ->
  work:(Openmb_net.Packet_batch.t -> unit) ->
  unit
(** Batch form of {!inject}: the whole batch is charged
    [n × per-packet cost] on the serial data-path clock as a single
    event, and counters / latency stats / histograms are updated once
    with weight [n] instead of per packet.  Batch sizes feed the
    ["mb.batch_occupancy"] count histogram.  [work] receives the batch
    at dispatch time and owns it.  An empty batch is released without
    scheduling anything. *)

val process_batch :
  t ->
  Openmb_net.Packet_batch.t ->
  side_effects:bool ->
  process:(Openmb_net.Packet.t -> Openmb_net.Packet.t option) ->
  unit
(** Default batch hook: {!inject_batch}, then loop [process] over the
    members — [Some p'] rewrites the member in place (key columns
    refreshed), [None] drops it — compact, and {!forward_batch} the
    survivors.  A middlebox whose scalar path is [process]-shaped gets
    batch support in one line; vectorized middleboxes use
    {!inject_batch} directly. *)

val register_series : t -> Openmb_sim.Timeseries.t -> unit
(** Register this MB's per-instance scrape set on a {!Openmb_sim.Timeseries}
    scraper: [<name>.pkts] (packets processed, Sum), [<name>.dp_backlog_us]
    (data-path queueing backlog, Max) and [<name>.lat_mean_us] (mean
    per-packet latency, Max).  The shared registry metrics ([mb.pkts],
    ...) aggregate all MBs on one telemetry instance; these series keep
    per-MB identity, which is what the dashboard and the future
    autoscaler consume.  The sources only read MB state.  Unregister by
    dropping the scraper — series handles do not outlive it. *)

val latency_stats : t -> Openmb_sim.Stats.t
(** Per-packet processing latency (including queueing). *)

val latency_during_op_stats : t -> Openmb_sim.Stats.t
(** Latency of the subset of packets that arrived while a state
    operation was executing (the §8.2 get-call comparison). *)

val packets_processed : t -> int

val record : t -> kind:string -> detail:string -> unit
(** Log a timeline entry under this MB's name (no-op without a
    recorder). *)

val recording : t -> bool
(** Whether a recorder is attached.  Guard a [record] whose detail must
    be formatted with it, so that without a recorder the detail is never
    built: [if recording t then record t ~kind ~detail:(...)]. *)

(** {1 Chunk helpers} *)

val seal_json :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  Openmb_wire.Json.t ->
  Openmb_core.Chunk.t
(** Serialize a JSON value and seal it as a chunk of this MB's kind. *)

val unseal_json :
  t -> Openmb_core.Chunk.t -> (Openmb_wire.Json.t, Openmb_core.Errors.t) result
(** Unseal and parse a chunk produced by a same-kind MB. *)

val seal_raw :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  string ->
  Openmb_core.Chunk.t
(** Seal an MB-private binary serialization (used by RE's cache). *)

val unseal_raw : t -> Openmb_core.Chunk.t -> (string, Openmb_core.Errors.t) result

(** {1 Impl assembly} *)

val default_impl : t -> table_entries:(unit -> int) -> Openmb_core.Southbound.impl
(** A southbound impl with this base's name/kind/cost wired in, config
    ops backed by {!config}, granularity {!Openmb_net.Hfl.full_granularity},
    and every state operation returning
    [Error (Illegal_operation _)] and packet processing doing nothing —
    middleboxes override the operations they support. *)

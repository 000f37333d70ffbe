(* Per-layer costs of work the libraries do inside engine events the
   benchmark does not own.  The traced run feeds the workload's own
   inputs (its packets, flow keys and captured chunks) into the layer's
   public function and times that call. *)

open Openmb_net
open Openmb_core
open Openmb_mbox

(* Inline classification, called from the traced round's switch entry
   just before the switch gets the batch: the same batch through
   Flow_table.lookup_batch on a private table that holds the switch's
   rules (lookups bump rule counters, so the live table is left alone;
   the copy is rebuilt whenever the live rules change).  A batch whose
   members do not all forward to one port takes the switch's slow
   (member-by-member split) path. *)
type classify = {
  mutable c_pkts : int;
  mutable c_ns : int;
  mutable slow_pkts : int;
  mutable out : Flow_table.action option array;
  mutable table : Flow_table.t;
  mutable cookies : int list;  (* live rules the copy was built from *)
}

let classify () =
  { c_pkts = 0; c_ns = 0; slow_pkts = 0; out = Array.make 64 None;
    table = Flow_table.create (); cookies = [] }

(* Bring the private copy in line with [live]: same rules, installed in
   the live table's install (cookie) order so ties break alike. *)
let sync c live =
  let rules = Flow_table.rules live in
  let cookies = List.map (fun (r : Flow_table.rule) -> r.cookie) rules in
  if cookies <> c.cookies then begin
    let t = Flow_table.create () in
    List.iter
      (fun (r : Flow_table.rule) ->
        ignore (Flow_table.install t ~priority:r.priority ~match_:r.match_ ~action:r.action))
      (List.sort (fun (a : Flow_table.rule) b -> compare a.cookie b.cookie) rules);
    c.table <- t;
    c.cookies <- cookies
  end

let uniform out n =
  match out.(0) with
  | Some (Flow_table.Forward port) ->
    let rec go i =
      i >= n
      || (match out.(i) with Some (Flow_table.Forward p) -> String.equal p port | _ -> false)
         && go (i + 1)
    in
    go 1
  | _ -> false

(* The copy is synced inside the classify span, outside the timed
   lookup, so neither the switch's self time nor classify_ns holds it. *)
let classify_batch c live b =
  let n = Packet_batch.length b in
  if n > 0 then begin
    if Array.length c.out < n then c.out <- Array.make n None;
    Tracer.span Tracer.Classify (fun () ->
        sync c live;
        let t0 = Clock.ns () in
        Flow_table.lookup_batch c.table b c.out;
        c.c_ns <- c.c_ns + (Clock.ns () - t0));
    c.c_pkts <- c.c_pkts + n;
    if not (uniform c.out n) then c.slow_pkts <- c.slow_pkts + n
  end

let classify_packet c live p =
  let a =
    Tracer.span Tracer.Classify (fun () ->
        sync c live;
        let t0 = Clock.ns () in
        let a = Flow_table.lookup c.table p in
        c.c_ns <- c.c_ns + (Clock.ns () - t0);
        a)
  in
  c.c_pkts <- c.c_pkts + 1;
  match a with Some (Flow_table.Forward _) -> () | _ -> c.slow_pkts <- c.slow_pkts + 1

let classify_metrics c =
  [
    ("switch.classify_ns_per_pkt", Common.per (float_of_int c.c_ns) c.c_pkts);
    ("switch.slowpath_frac", Common.ratio c.slow_pkts c.c_pkts);
  ]

(* A capped record of packets as they entered a layer, with their
   arrival times, for replay into a fresh instance. *)
type capture = {
  mutable pkts : Packet.t list;  (* newest first *)
  mutable at : float list;
  mutable batch_ends : int list;  (* batch sizes, 0 for a scalar packet; newest first *)
  mutable n : int;
  cap : int;
}

let capture cap = { pkts = []; at = []; batch_ends = []; n = 0; cap }

let capture_batch c ~now b =
  let n = Packet_batch.length b in
  if c.n + n <= c.cap then begin
    Packet_batch.iter b (fun p ->
        c.pkts <- p :: c.pkts;
        c.at <- now :: c.at);
    c.batch_ends <- n :: c.batch_ends;
    c.n <- c.n + n
  end

let capture_packet c ~now p =
  if c.n < c.cap then begin
    c.pkts <- p :: c.pkts;
    c.at <- now :: c.at;
    c.batch_ends <- 0 :: c.batch_ends;
    c.n <- c.n + 1
  end

(* Replay a capture into a fresh middlebox chain built by [build] on a
   private engine ([build] returns the chain's batch and scalar entry
   points).  Returns wall ns and minor words per packet, including the
   chain's own event dispatch.  With [warm], the capture first runs
   once untimed, so that the timed pass finds the flows' state in place
   as the workload's steady state does. *)
let mb_replay ?(warm = false) c ~build =
  if c.n = 0 then (0.0, 0.0)
  else begin
    let engine = Openmb_sim.Engine.create () in
    let recv_batch, recv = build engine in
    let pkts = Array.of_list (List.rev c.pkts) and at = Array.of_list (List.rev c.at) in
    let sizes = List.rev c.batch_ends in
    let schedule shift =
      let pos = ref 0 in
      List.iter
        (fun n ->
          let i = !pos in
          if n = 0 then begin
            Openmb_sim.Engine.call_at engine (at.(i) +. shift) recv pkts.(i);
            pos := i + 1
          end
          else begin
            let b = Packet_batch.create ~capacity:n () in
            for k = i to i + n - 1 do
              Packet_batch.push b pkts.(k)
            done;
            Openmb_sim.Engine.call_at engine (at.(i) +. shift) recv_batch b;
            pos := i + n
          end)
        sizes
    in
    let shift =
      if warm then begin
        schedule 0.0;
        Openmb_sim.Engine.run engine;
        Openmb_sim.Engine.now engine +. 1.0 -. at.(0)
      end
      else 0.0
    in
    schedule shift;
    let w0 = Common.minor_words () in
    let t0 = Clock.ns () in
    Openmb_sim.Engine.run engine;
    let ns = Clock.ns () - t0 in
    let words = Common.minor_words () -. w0 in
    (Common.per (float_of_int ns) c.n, Common.per words c.n)
  end

(* State-table costs on the run's keys: insert every distinct flow key
   into a fresh full-granularity table, then look up every captured
   packet's key, and measure the live heap the table holds per entry. *)
let state_table ~keys ~probes =
  let n = Array.length keys and m = Array.length probes in
  if n = 0 then (0.0, 0.0, 0.0)
  else begin
    Gc.full_major ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let t = State_table.create ~granularity:Hfl.full_granularity () in
    let t0 = Clock.ns () in
    Array.iter (fun k -> ignore (State_table.find_or_create t k ~default:(fun () -> 0))) keys;
    let t1 = Clock.ns () in
    let hits = ref 0 in
    Array.iter (fun k -> if State_table.find t k <> None then incr hits) probes;
    let t2 = Clock.ns () in
    Gc.full_major ();
    let live1 = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity t);
    ( Common.per (float_of_int (t1 - t0)) n,
      Common.per (float_of_int (t2 - t1)) m,
      Common.per (float_of_int ((live1 - live0) * (Sys.word_size / 8))) n )
  end

(* Wire costs of the captured chunks replayed as Put requests: message
   sizing of each request and its Ack, and compression of each chunk's
   plaintext. *)
let wire chunks =
  match chunks with
  | [] -> [ ("wire.sizing_ns_per_msg", 0.0); ("wire.compress_ns_per_byte", 0.0);
            ("wire.compress_ratio", 0.0) ]
  | _ ->
    let msgs =
      List.mapi
        (fun i chunk ->
          ( { Message.op = i + 1; tid = i + 1;
              req = Message.Put_support_perflow { seq = i + 1; chunk } },
            Message.Reply { op = i + 1; reply = Message.Ack } ))
        chunks
    in
    let bytes = ref 0 in
    let t0 = Clock.ns () in
    List.iter
      (fun (req, rep) ->
        bytes := !bytes + Message.request_wire_bytes req + Message.reply_wire_bytes rep)
      msgs;
    let t1 = Clock.ns () in
    ignore (Sys.opaque_identity !bytes);
    let plains =
      List.filter_map
        (fun (c : Chunk.t) ->
          match Chunk.unseal ~mb_kind:c.Chunk.mb_kind c with Ok s -> Some s | Error _ -> None)
        chunks
    in
    let ws = Openmb_wire.Compress.create_workspace () in
    let plain = ref 0 and packed = ref 0 in
    let t2 = Clock.ns () in
    List.iter
      (fun s ->
        plain := !plain + String.length s;
        packed := !packed + String.length (Openmb_wire.Compress.compress_with ws s))
      plains;
    let t3 = Clock.ns () in
    [
      ("wire.sizing_ns_per_msg", Common.per (float_of_int (t1 - t0)) (2 * List.length msgs));
      ("wire.compress_ns_per_byte", Common.per (float_of_int (t3 - t2)) !plain);
      ("wire.compress_ratio", Common.ratio !packed !plain);
    ]

(* Outside-in span tracer for the traced run.

   Spans are recorded only around calls the benchmark itself makes into
   a layer's public functions: the callbacks it wires (link
   destinations, middlebox egress, the southbound impl handed to each
   agent, controller completions) and the calls it issues (trace
   replay, switch receive, Engine.run, Sharded_engine.run).  Nothing
   inside the libraries is instrumented.

   Every span has a layer, a start and end on the host monotonic clock,
   the index of the span that encloses it, and the run id of the traced
   round.  A layer's self time is a span's duration minus the time its
   child spans cover.  Spans are kept in memory (per domain, so the
   sharded workload's worker domains record without locks) and written
   once, at the end, as Chrome trace_event JSON.  Self times and call
   counts are accumulated for every span; the span records themselves
   are capped per domain so that the trace file stays small. *)

type layer =
  | Bench  (* the round's root: the benchmark's own code between calls *)
  | Sink  (* the benchmark's egress callbacks, which record latencies *)
  | Traffic
  | Switch
  | Classify  (* Flow_table.lookup_batch / lookup replayed inline *)
  | Mb
  | Agent
  | Controller
  | Engine
  | Shard

let layers = [| Bench; Sink; Traffic; Switch; Classify; Mb; Agent; Controller; Engine; Shard |]

let index = function
  | Bench -> 0
  | Sink -> 1
  | Traffic -> 2
  | Switch -> 3
  | Classify -> 4
  | Mb -> 5
  | Agent -> 6
  | Controller -> 7
  | Engine -> 8
  | Shard -> 9

let name = function
  | Bench -> "bench"
  | Sink -> "sink"
  | Traffic -> "traffic"
  | Switch -> "switch"
  | Classify -> "switch.classify"
  | Mb -> "mb"
  | Agent -> "agent"
  | Controller -> "controller"
  | Engine -> "engine"
  | Shard -> "shard"

let n_layers = Array.length layers
let span_cap = 20_000
let max_depth = 64

(* Spans directly under a driver span (or without a parent) are the
   wrapped callbacks; their summed duration is the time the drivers did
   not spend on their own. *)
let is_driver = function Bench | Engine | Shard -> true | _ -> false

type buf = {
  dom : int;
  mutable n : int;
  mutable dropped : int;
  lay : int array;
  t0 : int array;
  t1 : int array;
  par : int array;
  st_layer : layer array;
  st_idx : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  self : int array;
  calls : int array;
  mutable covered : int;
}

let make_buf dom =
  {
    dom;
    n = 0;
    dropped = 0;
    lay = Array.make span_cap 0;
    t0 = Array.make span_cap 0;
    t1 = Array.make span_cap 0;
    par = Array.make span_cap (-1);
    st_layer = Array.make max_depth Bench;
    st_idx = Array.make max_depth (-1);
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    self = Array.make n_layers 0;
    calls = Array.make n_layers 0;
    covered = 0;
  }

(* Async spans (a move from its northbound call to its completion) are
   not nested on the stack: the caller records their bounds here. *)
let async : (int * int) list ref = ref []
let record_async ~t0 ~t1 = async := (t0, t1) :: !async

let registry : buf list ref = ref []
let registry_lock = Mutex.create ()
let run_id = ref 0

let register b =
  Mutex.lock registry_lock;
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Domain.DLS.new_key (fun () -> register (make_buf (Domain.self () :> int)))
let buf () = Domain.DLS.get key

(* Start a fresh traced round: forget earlier buffers and totals.  The
   calling domain re-registers a clean buffer; worker domains spawned
   later register their own on first use. *)
let reset () =
  Mutex.lock registry_lock;
  registry := [];
  Mutex.unlock registry_lock;
  incr run_id;
  async := [];
  Domain.DLS.set key (register (make_buf (Domain.self () :> int)))

let enter l =
  let b = buf () in
  let d = b.depth in
  let idx =
    if b.n < span_cap then begin
      let i = b.n in
      b.n <- i + 1;
      b.lay.(i) <- index l;
      b.par.(i) <- (if d > 0 then b.st_idx.(d - 1) else -1);
      i
    end
    else begin
      b.dropped <- b.dropped + 1;
      -1
    end
  in
  b.st_layer.(d) <- l;
  b.st_idx.(d) <- idx;
  b.st_child.(d) <- 0;
  b.depth <- d + 1;
  b.st_start.(d) <- Clock.ns ()

let leave () =
  let t = Clock.ns () in
  let b = buf () in
  let d = b.depth - 1 in
  b.depth <- d;
  let l = b.st_layer.(d) in
  let dur = t - b.st_start.(d) in
  let li = index l in
  b.self.(li) <- b.self.(li) + dur - b.st_child.(d);
  b.calls.(li) <- b.calls.(li) + 1;
  if d > 0 then b.st_child.(d - 1) <- b.st_child.(d - 1) + dur;
  if (not (is_driver l)) && (d = 0 || is_driver b.st_layer.(d - 1)) then
    b.covered <- b.covered + dur;
  let i = b.st_idx.(d) in
  if i >= 0 then begin
    b.t0.(i) <- b.st_start.(d);
    b.t1.(i) <- t
  end

let span l f =
  enter l;
  match f () with
  | r ->
    leave ();
    r
  | exception e ->
    leave ();
    raise e

(* Wrap a callback in a span of [l] when [traced]; otherwise return it
   unchanged, so the untraced run pays nothing. *)
let wrap ~traced l f = if traced then fun x -> span l (fun () -> f x) else f

(* Time spent inside wrapped callbacks so far, on this domain. *)
let covered () = (buf ()).covered

let all () =
  Mutex.lock registry_lock;
  let l = !registry in
  Mutex.unlock registry_lock;
  l

let sum f = List.fold_left (fun acc b -> acc + f b) 0 (all ())
let self_ns l = sum (fun b -> b.self.(index l))
let calls l = sum (fun b -> b.calls.(index l))
let covered_all () = sum (fun b -> b.covered)
let spans_recorded () = sum (fun b -> b.n)
let spans_dropped () = sum (fun b -> b.dropped)


let write_chrome path =
  let oc = open_out path in
  let base =
    List.fold_left
      (fun acc b -> if b.n > 0 then min acc b.t0.(0) else acc)
      max_int (all ())
  in
  let base = List.fold_left (fun acc (t0, _) -> min acc t0) base !async in
  let us t = float_of_int (t - base) /. 1e3 in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let ev name ~tid ~t0 ~t1 ~id ~parent =
    if not !first then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
      name !run_id tid (us t0) (us t1 -. us t0);
    Printf.fprintf oc "\"args\":{\"id\":%d,\"parent\":%d}}" id parent
  in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.t1.(i) > 0 then
          ev (name layers.(b.lay.(i))) ~tid:b.dom ~t0:b.t0.(i) ~t1:b.t1.(i) ~id:i
            ~parent:b.par.(i)
      done)
    (all ());
  List.iteri
    (fun i (t0, t1) -> ev "controller.move" ~tid:(-1) ~t0 ~t1 ~id:i ~parent:(-1))
    (List.rev !async);
  output_string oc "]}\n";
  close_out oc

(* [f ()] inside a span of [l] when [traced]. *)
let run ~traced l f = if traced then span l f else f ()

(* Shared pieces of the workloads: sample buffers, quantiles, the
   per-round record and the output checks. *)

(* A growable buffer of floats (per-packet latencies, arrival times). *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 1024; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = Float.Array.get t.a i
  let to_array t = Float.Array.sub t.a 0 t.n
end

(* Quantile [q] in [0, 1] of [a] by linear interpolation between
   closest ranks; sorts [a] in place. *)
let quantile_sorted a q =
  let n = Float.Array.length a in
  if n = 0 then nan
  else
    let r = q *. float_of_int (n - 1) in
    let lo = int_of_float r in
    let hi = min (n - 1) (lo + 1) in
    let x = Float.Array.get a lo and y = Float.Array.get a hi in
    x +. ((r -. float_of_int lo) *. (y -. x))

let sort a = Float.Array.sort Float.compare a

let quantiles a qs =
  sort a;
  List.map (quantile_sorted a) qs

let median_list l =
  match quantiles (Float.Array.of_list l) [ 0.5 ] with [ m ] -> m | _ -> nan

let us t = t *. 1e6

(* Split latencies by arrival time: packets that arrived inside one of
   the sorted, disjoint [intervals] (the source MB's gets) and packets
   that arrived outside all of them.  [ts] and [lat] are parallel. *)
let split_by_intervals ~ts ~lat ~intervals =
  let iv = Array.of_list intervals in
  let inside t =
    (* Last interval starting at or before [t]. *)
    let lo = ref 0 and hi = ref (Array.length iv - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if fst iv.(mid) <= t then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !found >= 0 && t < snd iv.(!found)
  in
  let d = Samples.create () and o = Samples.create () in
  for i = 0 to Samples.length ts - 1 do
    let l = Samples.get lat i in
    if inside (Samples.get ts i) then Samples.add d l else Samples.add o l
  done;
  (Samples.to_array d, Samples.to_array o)

(* Order-sensitive checksum of float samples, bit for bit. *)
let checksum arrays =
  List.fold_left
    (fun h a ->
      Float.Array.fold_left
        (fun h x -> Hashtbl.hash (h, Int64.bits_of_float x))
        (Hashtbl.hash (h, Float.Array.length a))
        a)
    0 arrays

(* What one round of a workload produced.  The sample arrays are
   virtual-time outputs, which must repeat exactly for a seed; the rest
   is host cost and output checks. *)
type round = {
  setup_s : float;  (* CPU time *)
  cpu_s : float;  (* CPU time from first injection to drained engine *)
  run_s : float;  (* wall time of the same region *)
  sent : int;  (* packets injected *)
  delivered : int;  (* packets reaching the benchmark's egress *)
  injected_drops : int;  (* packets the fault plan dropped on purpose *)
  moves : int;
  moves_ok : int;
  minor_words : float;  (* all domains, over the same region *)
  live_mb : float;  (* live heap the round holds when its measured region ends *)
  lat : Float.Array.t;  (* latency of every delivered packet, seconds *)
  during : Float.Array.t;  (* latencies of packets that arrived during a get *)
  outside : Float.Array.t;  (* ... and of the others *)
  move_ms : Float.Array.t;  (* virtual duration of each move that returned Ok *)
  move_wall_ms : Float.Array.t;  (* host time from call to completion of each move *)
  problems : string list;
  layer : (string * float) list;  (* per-layer metrics of a traced round *)
  fingerprint : string;  (* end state and a checksum of the samples *)
}

(* Output checks.  Each failure is reported on stderr, counted into the
   run's [failed], and makes the run exit non-zero. *)
type checks = { mutable found : string list }

let checks () = { found = [] }

let expect c ok what =
  if not ok then begin
    c.found <- what :: c.found;
    Printf.eprintf "check failed: %s\n%!" what
  end

let expect_eq c what got want =
  expect c (got = want) (Printf.sprintf "%s: got %d, want %d" what got want)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Live heap after a full major collection, in MB: the state the
   program retains.  Taken where the measured region ends, which is
   where the workloads' retained state (flow tables, latency samples)
   is largest.  The runtime's top_heap_words would include garbage
   awaiting collection, which depends on GC pacing and, with two
   domains, on scheduling. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

(* Flow [i]'s five-tuple in the chain and churn workloads: 16384
   source ports per internal address, one server, as in bench pktpath
   and bench scale. *)
let tuple_of_flow i =
  let open Openmb_net in
  {
    Five_tuple.src_ip = Addr.of_int (Addr.to_int (Addr.of_string "10.1.0.1") + (i / 16_384));
    dst_ip = Addr.of_string "1.1.1.5";
    src_port = 1_024 + (i mod 16_384);
    dst_port = 443;
    proto = Packet.Tcp;
  }

(* [n] packets of an open-loop Poisson stream (mean gap [gap] seconds)
   over the flows [tuples], numbered from [first] and stamped after
   [!ts], which advances.  Packet [i] goes to flow [i mod flows]: the
   round-robin dealing of Cbr and bench pktpath, so the first pass opens
   every flow and later packets find their flow's state in place.
   [body] draws each payload. *)
let poisson_packets prng ~tuples ~gap ~first ~ts ~n ~body =
  let flows = Array.length tuples in
  List.init n (fun k ->
      let i = first + k in
      ts := !ts +. Openmb_sim.Dist.exponential prng ~mean:gap;
      let tup = tuples.(i mod flows) in
      Openmb_net.Packet.make ~id:i ~ts:!ts ~body:(body prng)
        ~src_ip:tup.Openmb_net.Five_tuple.src_ip ~dst_ip:tup.dst_ip ~src_port:tup.src_port
        ~dst_port:tup.dst_port ~proto:tup.proto ())

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let per num den = if den = 0 then 0.0 else num /. float_of_int den

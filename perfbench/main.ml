(* Benchmark entry point (run.py builds and calls it).

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs rounds of one workload from its seed for S seconds of wall
   time, checks every round's outputs, and prints as its last line one
   JSON object: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1.  A traced run also writes its spans as
   Chrome trace_event JSON under .perfbench/.  Exits 1 when an output
   check fails and 2 on bad arguments. *)

open Perfbench

let usage () =
  prerr_endline "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref None and seed = ref None and seconds = ref None and traced = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Workloads.find v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := Option.bind (float_of_string_opt v) (fun s -> if s > 0.0 then Some s else None);
      parse rest
    | "--trace" :: v :: rest ->
      traced := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !traced) with
  | Some w, Some seed, Some seconds, Some traced ->
    Printf.printf "workload %s seed %d\n" w.name seed;
    for r = 0 to Workloads.pool - 1 do
      let s = Workloads.sub_seed seed r in
      Printf.printf "faults (seed %d) %s\n" s (w.faults ~seed:s)
    done;
    let r = Workloads.run w ~seed ~seconds ~traced in
    if traced then begin
      (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".perfbench/trace-%s-%d.json" w.name seed in
      Tracer.write_chrome path;
      Printf.printf "spans written to %s\n" path
    end;
    let metrics =
      List.map
        (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
        r.metrics
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      r.correct r.attempted r.failed (String.concat ", " metrics);
    if not r.correct then exit 1
  | _ -> usage ()

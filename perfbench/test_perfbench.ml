(* The benchmark's own tests, on small instances of the workloads:

   - a churn-sharded run gives the same state fingerprint and the same
     virtual-time outputs at 1 and 2 domains;
   - every virtual-time metric of each workload is bit-identical across
     two runs of one seed, traced or not, and every output check
     passes. *)

open Perfbench

let vt r = Workloads.virtual_metrics [ r ]
let bits r = List.map (fun (n, v) -> (n, Int64.bits_of_float v)) (vt r)

let check_round name (r : Common.round) =
  Alcotest.(check (list string)) (name ^ ": output checks") [] r.problems;
  Alcotest.(check bool) (name ^ ": ran moves") true (r.moves > 0);
  List.iter
    (fun (n, v) -> Alcotest.(check bool) (name ^ ": " ^ n ^ " is finite") true (Float.is_finite v))
    (vt r)

let same_vt name (a : Common.round) (b : Common.round) =
  Alcotest.(check (list (pair string int64))) (name ^ ": virtual-time metrics") (bits a)
    (bits b);
  Alcotest.(check string) (name ^ ": fingerprint") a.fingerprint b.fingerprint

let domains () =
  let seed = 11 in
  let d1 = Churn_sharded.round ~size:Churn_sharded.small ~domains:1 ~seed ~traced:false () in
  let d2 = Churn_sharded.round ~size:Churn_sharded.small ~domains:2 ~seed ~traced:false () in
  check_round "churn d1" d1;
  check_round "churn d2" d2;
  same_vt "churn d1 vs d2" d1 d2

let repeat name round () =
  let seed = 7 in
  let a = round ~seed ~traced:false and b = round ~seed ~traced:true in
  check_round name a;
  check_round (name ^ " traced") b;
  same_vt name a b;
  Alcotest.(check bool) (name ^ ": traced run reports layers") true (b.layer <> [])

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          Alcotest.test_case "churn-sharded fingerprint at 1 and 2 domains" `Quick domains;
          Alcotest.test_case "chain-batched virtual time repeats" `Quick
            (repeat "chain" (fun ~seed ~traced ->
                 Chain_batched.round ~size:Chain_batched.small ~seed ~traced ()));
          Alcotest.test_case "churn-sharded virtual time repeats" `Quick
            (repeat "churn" (fun ~seed ~traced ->
                 Churn_sharded.round ~size:Churn_sharded.small ~seed ~traced ()));
          Alcotest.test_case "move-under-load virtual time repeats" `Quick
            (repeat "move" (fun ~seed ~traced ->
                 Move_under_load.round ~size:Move_under_load.small ~seed ~traced ()));
        ] );
    ]

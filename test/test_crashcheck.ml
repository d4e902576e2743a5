(* Tests for the persistency model checker (lib/crashcheck): exhaustive
   crash-point sweeps of the five covered operation paths must verify
   recovery everywhere, budgets must bound the sweep and reject
   nonsense, counterexamples must replay from their recorded
   coordinates, every correct registry entry must sweep green and —
   the mutation sanity checks — every seeded bug must be caught at the
   budget its scripts/check.sh gate uses. *)

module C = Crashcheck
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scn name = Option.get (C.scenario_by_name name)

let sweep_clean name min_points () =
  let scn = scn name in
  let r = C.run ~subsets_per_point:1 scn in
  List.iter
    (fun cx -> Alcotest.failf "%s" (Format.asprintf "%a" C.pp_counterexample cx))
    r.C.counterexamples;
  check "sweep covers the whole operation" true
    (r.C.points_explored >= min_points);
  (* every point ran dirty-lost-all + 1 subset, all verified *)
  check_int "all recoveries verified" (2 * r.C.points_explored)
    r.C.recoveries_verified

(* exhaustive sweeps, one per covered operation path; minimum point
   counts keep the scenarios honest about actually exercising fences *)
let test_sweep_alloc = sweep_clean "alloc" 30
let test_sweep_free = sweep_clean "free" 20
let test_sweep_tx_commit = sweep_clean "tx-commit" 20
let test_sweep_tx_abort = sweep_clean "tx-abort" 20
let test_sweep_extend = sweep_clean "extend" 50

let test_hundred_points_across_operations () =
  (* the standing acceptance bar: >= 100 distinct crash points across
     the five operations, each recovery verified *)
  let reports = List.map (C.run ~subsets_per_point:0) (C.all_scenarios ()) in
  let points = List.fold_left (fun a r -> a + r.C.points_explored) 0 reports in
  check "over 100 distinct crash points" true (points >= 100);
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "%s: every point's recovery verified" r.C.rp_scenario)
        r.C.points_explored r.C.recoveries_verified)
    reports

let test_extend_scenario_extends_hash () =
  (* the extend sweep is only meaningful if the op really grows the
     sub-heap hash table *)
  let scn = scn "extend" in
  let env = scn.C.setup () in
  scn.C.op env;
  check "hash extension exercised" true ((H.stats env.C.heap).H.hash_extends > 0)

let test_measure_deterministic () =
  let scn = scn "alloc" in
  check_int "same fence count on every dry run" (C.measure scn) (C.measure scn)

let test_budget_caps_points () =
  let r = C.run ~max_points:5 ~subsets_per_point:0 (scn "alloc") in
  check_int "budget respected" 5 r.C.points_explored;
  check "budget still samples the full span" true (r.C.fences_total > 5);
  let r1 = C.run ~max_points:1 ~subsets_per_point:0 (scn "alloc") in
  check_int "degenerate budget" 1 r1.C.points_explored

let test_subsets_budget () =
  let r = C.run ~max_points:3 ~subsets_per_point:4 (scn "free") in
  check_int "subsets per point honoured" (3 * 4) r.C.subsets_tried;
  check_int "strict + subsets all verified" (3 * 5) r.C.recoveries_verified

let test_rejects_missing_points_and_budgets () =
  let kv_put = scn "kv-put" in
  let last = C.measure kv_put + 1 in
  let rejected what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  List.iter
    (fun point ->
      rejected (Printf.sprintf "point %d of 1..%d" point last) (fun () ->
          C.check_point kv_put ~point ~mode:C.Dirty_lost_all))
    [ 0; -3; last + 1; 99999 ];
  check "the crash after the last fence is a point" true
    (C.check_point kv_put ~point:last ~mode:C.Dirty_lost_all = None);
  rejected "subsets -1" (fun () -> C.run ~subsets_per_point:(-1) kv_put);
  rejected "max-points -4" (fun () -> C.run ~max_points:(-4) kv_put)

(* ---------- registry: every correct entry green, every seeded bug
   flagged ---------- *)

(* The budget scripts/check.sh gates each seeded bug at:
   (max_points, subsets_per_point), max_points 0 = exhaustive. *)
let gate_budget = function
  | "broken" -> (2, 0)
  | "kv-txn-broken" -> (0, 2)
  | "kv-batched-broken" | "mvcc-broken" -> (6, 1)
  | _ -> (8, 1)

let registry_case (e : C.entry) =
  match e.C.kind with
  | C.Correct ->
    Alcotest.test_case (e.C.name ^ " sweep green") `Quick (fun () ->
        let r = C.run ~max_points:6 ~subsets_per_point:1 (e.C.make ()) in
        List.iter
          (fun cx ->
            Alcotest.failf "%s" (Format.asprintf "%a" C.pp_counterexample cx))
          r.C.counterexamples;
        check_int "every recovery verified" (2 * r.C.points_explored)
          r.C.recoveries_verified)
  | C.Seeded_bug ->
    Alcotest.test_case (e.C.name ^ " flagged") `Quick (fun () ->
        let max_points, subsets_per_point = gate_budget e.C.name in
        let r = C.run ~max_points ~subsets_per_point (e.C.make ()) in
        check "the seeded bug is flagged at its gate budget" true
          (r.C.counterexamples <> []))

(* scripts/crashcheck_golden.sh takes its scenario list from the
   golden's first column: it must name every registry entry, in order,
   or a scenario would escape the golden gate *)
let test_golden_lists_registry () =
  let ic = open_in "golden/crashcheck.txt" in
  let rec names acc =
    match input_line ic with
    | line -> names (List.hd (String.split_on_char ' ' line) :: acc)
    | exception End_of_file -> List.rev acc
  in
  let golden = names [] in
  close_in ic;
  Alcotest.(check (list string))
    "golden names = registry names"
    (List.map (fun (e : C.entry) -> e.C.name) C.registry)
    golden

(* ---------- mutation sanity check ---------- *)

let test_broken_protocol_detected () =
  let r = C.run ~subsets_per_point:1 (scn "broken") in
  check "missing flush caught" true (r.C.counterexamples <> []);
  let cx = List.hd r.C.counterexamples in
  Alcotest.(check string) "the app oracle flags it" "app-commit" cx.C.cx_oracle;
  (* dirty-lost-all at the flag's fence is the deterministic witness *)
  check "found at a real persistence point" true
    (cx.C.cx_point >= 1 && cx.C.cx_point <= r.C.fences_total + 1)

let test_counterexample_replays () =
  (* a counterexample's recorded coordinates (scenario, point, mode)
     must reproduce it on a fresh scenario instance — seed-replayable *)
  let r = C.run ~subsets_per_point:1 (scn "broken") in
  List.iter
    (fun cx ->
      match
        C.check_point (scn cx.C.cx_scenario) ~point:cx.C.cx_point
          ~mode:cx.C.cx_mode
      with
      | Some cx' ->
        Alcotest.(check string) "same oracle on replay" cx.C.cx_oracle
          cx'.C.cx_oracle
      | None -> Alcotest.fail "counterexample did not replay")
    r.C.counterexamples;
  (* adversarial subsets are seeded: at least the strict mode must be
     among the counterexamples, and derived seeds must be stable *)
  check "strict counterexample present" true
    (List.exists (fun cx -> cx.C.cx_mode = C.Dirty_lost_all) r.C.counterexamples);
  check_int "subset seed derivation is stable"
    (C.subset_seed ~seed:1 ~point:7 0)
    (C.subset_seed ~seed:1 ~point:7 0)

let test_healthy_point_is_green () =
  match C.check_point (scn "alloc") ~point:3 ~mode:C.Dirty_lost_all with
  | None -> ()
  | Some cx -> Alcotest.failf "unexpected: %s" cx.C.cx_detail

let test_obs_counters_advance () =
  let get name =
    Option.value ~default:0
      (Obs.Metrics.get_counter ~scope:"crashcheck" name)
  in
  let p0 = get "points_explored" and v0 = get "recoveries_verified" in
  let r = C.run ~max_points:4 ~subsets_per_point:1 (scn "tx-commit") in
  check_int "points counted" (p0 + r.C.points_explored) (get "points_explored");
  check_int "verifications counted"
    (v0 + r.C.recoveries_verified)
    (get "recoveries_verified")

let () =
  Alcotest.run "crashcheck"
    [ ( "sweeps",
        [ Alcotest.test_case "alloc path exhaustive" `Quick test_sweep_alloc;
          Alcotest.test_case "free path exhaustive" `Quick test_sweep_free;
          Alcotest.test_case "tx-commit path exhaustive" `Quick
            test_sweep_tx_commit;
          Alcotest.test_case "tx-abort path exhaustive" `Quick
            test_sweep_tx_abort;
          Alcotest.test_case "extend path exhaustive" `Slow test_sweep_extend;
          Alcotest.test_case "100+ points across operations" `Slow
            test_hundred_points_across_operations;
          Alcotest.test_case "extend really extends" `Quick
            test_extend_scenario_extends_hash ] );
      ( "budgets",
        [ Alcotest.test_case "measure deterministic" `Quick
            test_measure_deterministic;
          Alcotest.test_case "max-points budget" `Quick test_budget_caps_points;
          Alcotest.test_case "subsets budget" `Quick test_subsets_budget;
          Alcotest.test_case "missing points + negative budgets rejected"
            `Quick test_rejects_missing_points_and_budgets ] );
      ( "crashcheck",
        Alcotest.test_case "golden lists the registry" `Quick
          test_golden_lists_registry
        :: List.map registry_case C.registry );
      ( "mutation",
        [ Alcotest.test_case "missing flush detected" `Quick
            test_broken_protocol_detected;
          Alcotest.test_case "counterexamples replay" `Quick
            test_counterexample_replays;
          Alcotest.test_case "healthy point green" `Quick
            test_healthy_point_is_green ] );
      ( "obs",
        [ Alcotest.test_case "counters advance" `Quick
            test_obs_counters_advance ] ) ]

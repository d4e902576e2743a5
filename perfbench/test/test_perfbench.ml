(* The benchmark's own checks: the capacity search on synthetic
   curves, seeded generation, and that tracing and the counter probes
   leave the simulation unchanged. *)

open Perfbench
module S = Service.Server

(* ---------- capacity search ---------- *)

let within_resolution ~knee (r : Bisect.result) =
  r.Bisect.bracketed
  && Float.abs (r.Bisect.capacity -. knee) /. knee <= Bisect.resolution

let search curve ~start =
  Bisect.search ~limit:50_000. ~start (fun rate ->
      { Bisect.p99 = curve rate; shed = 0 })

let power_curve rate = 20_000. *. ((rate /. 1e6) ** 2.)

let queue_curve rate =
  (* M/M/1-like: latency blows up toward the saturation rate 2e6 *)
  let rho = Float.min 0.999 (rate /. 2e6) in
  8_000. /. (1. -. rho)

let test_knee () =
  (* power curve: p99 = limit at 1e6 * sqrt 2.5 *)
  let knee = 1e6 *. sqrt 2.5 in
  List.iter
    (fun start ->
      let r = search power_curve ~start in
      Alcotest.(check bool) "knee within resolution" true (within_resolution ~knee r);
      Alcotest.(check bool) "bracket holds the knee" true
        (r.Bisect.lo <= knee && knee <= r.Bisect.hi);
      Alcotest.(check bool) "probe budget" true
        (List.length r.Bisect.probes <= Bisect.max_probes))
    (* the knee 1.6x above, 1.5x below and 2.3x above the start *)
    [ 1e6; 2.4e6; 7e5 ];
  (* queueing curve: p99 = limit where 1 - rate/2e6 = 0.16 *)
  let knee = 2e6 *. 0.84 in
  let r = search queue_curve ~start:1e6 in
  Alcotest.(check bool) "queueing knee within resolution" true
    (within_resolution ~knee r)

(* a knee outside the searched range is reported as such, with the
   last probe as a bound, never as a measured capacity *)
let test_unbracketed () =
  let far =
    Bisect.search ~limit:50_000. ~start:1e5 (fun rate ->
        { Bisect.p99 = power_curve rate; shed = 0 })
  in
  Alcotest.(check bool) "knee beyond the range: unbracketed" false
    far.Bisect.bracketed;
  Alcotest.(check bool) "the bound is the farthest probe" true
    (Float.abs ((far.Bisect.capacity /. 1e5) -. Bisect.range) < 1e-9);
  Alcotest.(check int) "widening used its budget" (1 + Bisect.max_widen)
    (List.length far.Bisect.probes);
  let all_shed =
    Bisect.search ~limit:50_000. ~start:1e6 (fun _ -> { Bisect.p99 = 1.; shed = 1 })
  in
  Alcotest.(check bool) "nothing met: unbracketed" false all_shed.Bisect.bracketed;
  Alcotest.(check bool) "nothing met: no zero capacity" true
    (all_shed.Bisect.capacity > 0.)

let test_shed_is_miss () =
  (* latency never reaches the limit, but admission sheds above 1.3e6 *)
  let shed_at = 1.3e6 in
  let r =
    Bisect.search ~limit:50_000. ~start:1e6 (fun rate ->
        { Bisect.p99 = 10_000.; shed = (if rate > shed_at then 1 else 0) })
  in
  Alcotest.(check bool) "capacity at or below the shedding rate" true
    (r.Bisect.capacity <= shed_at);
  Alcotest.(check bool) "within resolution of the shedding rate" true
    (within_resolution ~knee:shed_at r);
  Alcotest.(check bool) "a probe with shed is a miss" false
    (Bisect.meets ~limit:50_000. { Bisect.p99 = 1.; shed = 1 })

(* ---------- seeded generation ---------- *)

let small_churn = { Churn.slots = 512; replacements = 40 }

let test_churn_seeds () =
  let g = Common.gates () in
  let a = Churn.run ~cfg:small_churn ~seed:7 g in
  let b = Churn.run ~cfg:small_churn ~seed:7 g in
  let c = Churn.run ~cfg:small_churn ~seed:8 g in
  Alcotest.(check (list string)) "gates pass" [] g.Common.failures;
  Alcotest.(check string) "same seed, same simulated metrics"
    (Churn.fingerprint a) (Churn.fingerprint b);
  Alcotest.(check bool) "another seed, other call count" true
    (a.Churn.calls <> c.Churn.calls)

let small (spec : Kvwork.spec) ~rate =
  { spec with
    Kvwork.nominal =
      { spec.Kvwork.nominal with
        S.keyspace = 1024; preload = 512; rate; duration = 0.004 } }

let write_small = small Kvwork.write_repl ~rate:35_000.
let read_small = small Kvwork.read_local ~rate:300_000.

let test_kv_seeds () =
  List.iter
    (fun spec ->
      let g = Common.gates () in
      let run seed = Kvwork.run_once spec (Kvwork.nominal spec ~seed ~sub:0) g in
      let a = run 7 and b = run 7 and c = run 8 in
      Alcotest.(check (list string)) "gates pass" [] g.Common.failures;
      Alcotest.(check string) "same seed, same simulated metrics"
        (Kvwork.fingerprint a) (Kvwork.fingerprint b);
      Alcotest.(check bool) "another seed, other offered count" true
        (a.Kvwork.res.S.offered <> c.Kvwork.res.S.offered))
    [ write_small; read_small ]

(* ---------- measurement leaves the simulation alone ---------- *)

let test_traced_equals_untraced () =
  List.iter
    (fun (spec : Kvwork.spec) ->
      let g = Common.gates () in
      let cfg = Kvwork.nominal spec ~seed:3 ~sub:0 in
      let u = Kvwork.run_once spec cfg g in
      let shim = Shim.create ~note_alloc:(cfg.S.tcache_mag = 0) in
      Obs.Span.clear ();
      Obs.Span.start ();
      let t = Kvwork.run_once ~shim spec cfg g in
      let spans = Obs.Span.count () in
      Obs.Span.clear ();
      Alcotest.(check string) "traced = untraced" (Kvwork.fingerprint u)
        (Kvwork.fingerprint t);
      Alcotest.(check bool) "spans were recorded" true (spans > 0);
      Alcotest.(check bool) "the shim timed allocator calls" true
        (Obs.Hist.count shim.Shim.tx_h + Obs.Hist.count shim.Shim.alloc_h
         + Obs.Hist.count shim.Shim.free_h
         > 0))
    [ write_small; read_small ];
  let g = Common.gates () in
  let shim = Shim.create ~note_alloc:false in
  Alcotest.(check string) "churn through the shim = without it"
    (Churn.fingerprint (Churn.run ~cfg:small_churn ~seed:3 g))
    (Churn.fingerprint (Churn.run ~shim ~cfg:small_churn ~seed:3 g))

(* the counter probes run inside the simulation: a run with them must
   be the run without them, on one machine and on the primary/backup
   pair, whose probes share the cluster's engine *)
let outline (r : S.result) =
  [ r.S.offered; r.S.completed; r.S.sim_ns; r.S.rto_ns; r.S.latency.S.p99;
    r.S.latency.S.max; r.S.acked_mutations; r.S.ledger.S.checked ]

let test_probes_inert () =
  let cfg spec = { (Kvwork.nominal spec ~seed:5 ~sub:0) with S.scope = Kvwork.scope } in
  let heap mach = Poseidon.instance (Common.new_heap mach) in
  let local = Kvwork.run_once read_small (cfg read_small) (Common.gates ()) in
  Obs.Metrics.reset ();
  let plain =
    S.run
      ~make:(fun () ->
        let mach = Machine.create () in
        (mach, heap mach))
      ~reattach:(fun mach ->
        Poseidon.instance (Poseidon.Heap.attach mach ~base:Common.heap_base ()))
      (cfg read_small)
  in
  Alcotest.(check (list int)) "same simulated result" (outline plain)
    (outline local.Kvwork.res);
  let repl = Kvwork.run_once write_small (cfg write_small) (Common.gates ()) in
  Obs.Metrics.reset ();
  let plain =
    S.run_replicated ~make:heap (cfg write_small) S.default_repl_config
  in
  let rr = Option.get repl.Kvwork.repl_res in
  Alcotest.(check (list int)) "same replicated result"
    (outline plain.S.base
     @ [ plain.S.shipped; plain.S.retransmits; plain.S.max_lag;
         plain.S.tail_replayed ])
    (outline rr.S.base
     @ [ rr.S.shipped; rr.S.retransmits; rr.S.max_lag; rr.S.tail_replayed ])

let () =
  Alcotest.run "perfbench"
    [ ( "capacity",
        [ Alcotest.test_case "knee within resolution" `Quick test_knee;
          Alcotest.test_case "any shed is a miss" `Quick test_shed_is_miss;
          Alcotest.test_case "knee outside the range" `Quick test_unbracketed ] );
      ( "seeds",
        [ Alcotest.test_case "alloc-churn seeded" `Quick test_churn_seeds;
          Alcotest.test_case "kv seeded" `Quick test_kv_seeds ] );
      ( "tracing",
        [ Alcotest.test_case "traced run = untraced run" `Quick
            test_traced_equals_untraced;
          Alcotest.test_case "counter probes are inert" `Quick test_probes_inert ] ) ]

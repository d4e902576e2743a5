(* poseidon-kv service layer: shard routing, the intent-slot
   durability protocol, the open-loop server under clean / overloaded /
   crashing traffic, and a bounded crashcheck sweep of the KV write
   path. *)

module S = Service.Server
module Kv = Service.Kv
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ~shards () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create inst ~shards ~value_size:64)

(* ---------- shard routing ---------- *)

let test_routing_partition () =
  let _, _, kv = mk_store ~shards:4 () in
  let per_shard = Array.make 4 0 in
  for key = 1 to 400 do
    let s = Kv.shard_of_key kv key in
    check "shard in range" true (s >= 0 && s < 4);
    check_int "routing is deterministic" s (Kv.shard_of_key kv key);
    per_shard.(s) <- per_shard.(s) + 1;
    check "key stored" true (Kv.put kv ~key ~vseed:key)
  done;
  (* every key landed in exactly one shard: totals are a partition *)
  check_int "no key lost or duplicated" 400 (Kv.count_keys kv);
  Array.iter (fun n -> check "hash spreads keys" true (n > 0)) per_shard

(* ---------- direct store semantics ---------- *)

let test_kv_roundtrip () =
  let _, inst, kv = mk_store ~shards:2 () in
  check "put fresh" true (Kv.put kv ~key:7 ~vseed:100);
  check "get matches oracle" true
    (Kv.get kv ~key:7 = Some (Kv.value_checksum kv ~vseed:100));
  check "overwrite" true (Kv.put kv ~key:7 ~vseed:200);
  check "get sees new value" true
    (Kv.get kv ~key:7 = Some (Kv.value_checksum kv ~vseed:200));
  check "absent key" true (Kv.get kv ~key:8 = None);
  check "delete present" true (Kv.delete kv ~key:7);
  check "delete absent" false (Kv.delete kv ~key:7);
  check "deleted is gone" true (Kv.get kv ~key:7 = None);
  for k = 1 to 50 do
    ignore (Kv.put kv ~key:k ~vseed:(1000 + k))
  done;
  check "scan visits entries" true (Kv.scan kv ~from_key:1 ~n:10 > 0);
  Kv.check kv;
  (* clean re-attach finds everything with nothing to replay *)
  let kv2, rec_ = Kv.attach inst in
  check_int "no replay on clean attach" 0
    (rec_.Kv.replayed + rec_.Kv.rolled_back);
  check_int "re-attach sees all keys" 50 (Kv.count_keys kv2);
  check "re-attach reads values" true
    (Kv.get kv2 ~key:13 = Some (Kv.value_checksum kv2 ~vseed:1013))

(* ---------- server runs ---------- *)

let factory = Workloads.Factories.poseidon ()

let serve cfg =
  S.run
    ~make:(fun () -> factory.Workloads.Factories.make ())
    ~reattach:(fun mach ->
      Poseidon.instance
        (H.attach mach ~base:Workloads.Factories.heap_base ()))
    cfg

let base_cfg =
  { S.default_config with
    S.shards = 2;
    clients = 8;
    rate = 40_000.;
    duration = 0.005;
    keyspace = 512;
    preload = 256;
    scope = "test/service" }

let test_clean_run () =
  let r = serve { base_cfg with S.scope = "test/service/clean" } in
  check "requests completed" true (r.S.completed > 0);
  check "not crashed" false r.S.crashed;
  check_int "no recovery without a crash" 0 r.S.rto_ns;
  check "ledger checked keys" true (r.S.ledger.S.checked > 0);
  check_int "nothing ambiguous without a crash" 0 r.S.ledger.S.ambiguous;
  check_int "ledger matches store" 0 r.S.ledger.S.mismatches;
  check "latency histogram populated" true (r.S.latency.S.samples > 0);
  check "p50 <= p99 <= p999" true
    (r.S.latency.S.p50 <= r.S.latency.S.p99
    && r.S.latency.S.p99 <= r.S.latency.S.p999)

let test_crash_run () =
  let r =
    serve
      { base_cfg with S.crash_at = Some 0.5; scope = "test/service/crash" }
  in
  check "crashed" true r.S.crashed;
  check "recovery ran" true (r.S.recovery <> None);
  check "RTO is nonzero simulated time" true (r.S.rto_ns > 0);
  check "ledger checked keys" true (r.S.ledger.S.checked > 0);
  check_int "every acked write survived" 0 r.S.ledger.S.mismatches

(* At 2x saturation the bounded queues must shed ([Overloaded]) rather
   than deadlock or grow without bound; goodput stays a fraction of
   the offered rate. *)
let test_backpressure_sheds () =
  let r =
    serve
      { base_cfg with
        S.rate = 2_000_000.;
        clients = 16;
        queue_capacity = 8;
        scope = "test/service/overload" }
  in
  check "requests shed" true (r.S.shed > 0);
  check "some requests still served" true (r.S.completed > 0);
  check "queue depth bounded" true (r.S.queue_max_depth <= 8);
  check "goodput below offered rate" true
    (r.S.goodput < 2_000_000. /. 2.);
  check_int "shedding loses no acked write" 0 r.S.ledger.S.mismatches

(* Every nonsensical config is refused up front by both entry points,
   with an [Invalid_argument] naming the entry point that refused it. *)
let test_invalid_configs () =
  let invalid =
    [ ("shards", { base_cfg with S.shards = 0 });
      ("clients", { base_cfg with S.clients = 0 });
      ("rate", { base_cfg with S.rate = 0. });
      ("duration", { base_cfg with S.duration = 0. });
      ("op mix > 100", { base_cfg with S.read_pct = 60; txn_pct = 40 });
      ("txn_ops 0", { base_cfg with S.txn_ops = 0 });
      ("txn_ops > max", { base_cfg with S.txn_ops = Kv.max_txn_ops + 1 });
      ("batch_window", { base_cfg with S.batch_window = 0 });
      ("batch_bytes", { base_cfg with S.batch_bytes = -1 });
      ("mvcc_window", { base_cfg with S.mvcc_window = -1 });
      ("tcache_mag", { base_cfg with S.tcache_mag = -1 });
      ("rcache_entries", { base_cfg with S.rcache_entries = -1 });
      ("crash_at 0", { base_cfg with S.crash_at = Some 0. });
      ("crash_at 1", { base_cfg with S.crash_at = Some 1. });
      ("shards > CPUs", { base_cfg with S.shards = 1000 }) ]
  in
  let rejects who name f =
    let prefix = who ^ ":" in
    check
      (Printf.sprintf "%s rejects %s" who name)
      true
      (try
         ignore (f ());
         false
       with Invalid_argument msg ->
         String.length msg > String.length prefix
         && String.sub msg 0 (String.length prefix) = prefix)
  in
  let repl_serve cfg rcfg =
    S.run_replicated
      ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
      cfg rcfg
  in
  List.iter
    (fun (name, cfg) ->
      rejects "Server.run" name (fun () -> ignore (serve cfg));
      rejects "Server.run_replicated" name (fun () ->
          ignore (repl_serve cfg S.default_repl_config)))
    invalid;
  rejects "Server.run_replicated" "wire_ns 0" (fun () ->
      ignore (repl_serve base_cfg { S.default_repl_config with S.wire_ns = 0 }))

(* ---------- crashcheck sweep of the KV write path ---------- *)

let test_crashcheck_kv () =
  List.iter
    (fun name ->
      let scn = Option.get (Crashcheck.scenario_by_name name) in
      let r = Crashcheck.run ~max_points:6 ~subsets_per_point:1 scn in
      check (name ^ " sweeps points") true (r.Crashcheck.points_explored >= 6);
      check_int
        (name ^ " has no counterexamples")
        0
        (List.length r.Crashcheck.counterexamples))
    [ "kv-put"; "kv-delete" ]

let () =
  Alcotest.run "service"
    [ ( "kv",
        [ Alcotest.test_case "shard routing is a partition" `Quick
            test_routing_partition;
          Alcotest.test_case "put/get/delete/scan round-trip" `Quick
            test_kv_roundtrip ] );
      ( "server",
        [ Alcotest.test_case "clean run: ledger matches store" `Quick
            test_clean_run;
          Alcotest.test_case "crash run: recovery + nonzero RTO" `Quick
            test_crash_run;
          Alcotest.test_case "overload sheds instead of deadlocking" `Quick
            test_backpressure_sheds;
          Alcotest.test_case "invalid configs rejected by both entry points"
            `Quick test_invalid_configs ] );
      ( "crashcheck",
        [ Alcotest.test_case "kv scenarios: bounded sweep clean" `Quick
            test_crashcheck_kv ] ) ]

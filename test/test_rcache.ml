(* DRAM read-cache tier: CLOCK substrate semantics (second chance,
   vts-guarded snapshot probes, disabled-mode no-ops), fill and
   write-through invalidation through the store, eviction when the
   keyspace exceeds capacity, backup coherence across replicated
   group-applies and the promotion wipe, txn-group invalidation
   atomicity against concurrent snapshot readers, the seeded
   late-invalidation bug observed at unit scale, and bounded
   crashcheck sweeps: kv-rcache-put must be green and rcache-broken
   must be flagged. *)

module Kv = Service.Kv
module H = Poseidon.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30

let mk_store ?(mvcc_window = 0) ?(rcache_entries = 0) ~shards () =
  let mach = Machine.create () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst = Poseidon.instance heap in
  (mach, inst, Kv.create ~mvcc_window ~rcache_entries inst ~shards ~value_size:64)

(* ---------- Rcache substrate ---------- *)

let test_substrate_probe_fill_kill () =
  let c = Rcache.create ~shards:1 ~entries:4 in
  check "enabled" true (Rcache.enabled c);
  check "cold probe misses" true (Rcache.find c ~shard:0 ~key:1 = None);
  Rcache.insert c ~shard:0 ~key:1 ~digest:11 ~vts:5;
  check "probe after fill hits" true (Rcache.find c ~shard:0 ~key:1 = Some 11);
  (* the vts guard: a snapshot older than the cached version must miss *)
  check "snapshot at the version's commit hits" true
    (Rcache.find_at c ~shard:0 ~key:1 ~ts:5 = Some 11);
  check "later snapshot hits" true
    (Rcache.find_at c ~shard:0 ~key:1 ~ts:9 = Some 11);
  check "earlier snapshot misses (present-but-newer)" true
    (Rcache.find_at c ~shard:0 ~key:1 ~ts:4 = None);
  Rcache.insert c ~shard:0 ~key:1 ~digest:12 ~vts:7;
  check "in-place replacement" true (Rcache.find c ~shard:0 ~key:1 = Some 12);
  check_int "replacement is not a second entry" 1 (Rcache.cached c);
  Rcache.invalidate c ~shard:0 ~key:1;
  check "invalidated entry is gone" true (not (Rcache.mem c ~shard:0 ~key:1));
  let _, _, _, inv = Rcache.stats c in
  check_int "the removal was counted" 1 inv;
  Rcache.invalidate c ~shard:0 ~key:1;
  let _, _, _, inv' = Rcache.stats c in
  check_int "invalidating an absent key is uncounted" 1 inv'

let test_substrate_clock_second_chance () =
  let c = Rcache.create ~shards:1 ~entries:2 in
  Rcache.insert c ~shard:0 ~key:1 ~digest:10 ~vts:0;
  Rcache.insert c ~shard:0 ~key:2 ~digest:20 ~vts:0;
  check_int "full" 2 (Rcache.cached c);
  (* both reference bits are set: one full hand sweep clears them and
     the oldest slot is the victim *)
  Rcache.insert c ~shard:0 ~key:3 ~digest:30 ~vts:0;
  check "oldest unreferenced entry evicted" true
    ((not (Rcache.mem c ~shard:0 ~key:1))
    && Rcache.mem c ~shard:0 ~key:2
    && Rcache.mem c ~shard:0 ~key:3);
  (* re-reference key 3; key 2's bit was cleared by the sweep above,
     so the next eviction must take 2 and give 3 its second chance *)
  ignore (Rcache.find c ~shard:0 ~key:3);
  Rcache.insert c ~shard:0 ~key:4 ~digest:40 ~vts:0;
  check "recently referenced entry survives the sweep" true
    (Rcache.mem c ~shard:0 ~key:3 && not (Rcache.mem c ~shard:0 ~key:2));
  let _, _, ev, _ = Rcache.stats c in
  check_int "both evictions counted" 2 ev;
  check_int "capacity bound holds" 2 (Rcache.cached c);
  Rcache.reset c;
  check_int "reset drops everything" 0 (Rcache.cached c);
  let _, _, ev', _ = Rcache.stats c in
  check_int "reset keeps cumulative statistics" 2 ev'

let test_substrate_disabled_no_ops () =
  let c = Rcache.create ~shards:2 ~entries:0 in
  check "disabled" true (not (Rcache.enabled c));
  Rcache.insert c ~shard:0 ~key:1 ~digest:11 ~vts:0;
  check "insert is a no-op" true (Rcache.find c ~shard:0 ~key:1 = None);
  check "find_at is a no-op" true (Rcache.find_at c ~shard:0 ~key:1 ~ts:9 = None);
  Rcache.invalidate c ~shard:0 ~key:1;
  check "no statistic moved" true (Rcache.stats c = (0, 0, 0, 0));
  check_int "nothing cached" 0 (Rcache.cached c)

(* ---------- fill + write-through invalidation through the store ---------- *)

let test_fill_and_writethrough () =
  let _, _, s = mk_store ~rcache_entries:8 ~shards:2 () in
  ignore (Kv.put s ~key:3 ~vseed:100);
  check "a put does not fill" true (not (Kv.rcache_mem s ~key:3));
  check "read through the tree" true
    (Kv.get s ~key:3 = Some (Kv.value_checksum s ~vseed:100));
  check "the locked read filled the cache" true (Kv.rcache_mem s ~key:3);
  let h0, m0, _, _ = Kv.rcache_stats s in
  check "the first read was a miss" true (m0 > 0);
  check "re-read hits" true
    (Kv.get s ~key:3 = Some (Kv.value_checksum s ~vseed:100));
  let h1, _, _, _ = Kv.rcache_stats s in
  check "the re-read was a hit" true (h1 > h0);
  (* overwrite: the entry must be gone before put returns, and the
     next read must see the new digest *)
  ignore (Kv.put s ~key:3 ~vseed:101);
  check "overwrite invalidated the entry" true (not (Kv.rcache_mem s ~key:3));
  check "read after overwrite is the new value" true
    (Kv.get s ~key:3 = Some (Kv.value_checksum s ~vseed:101));
  ignore (Kv.delete s ~key:3);
  check "delete invalidated the entry" true (not (Kv.rcache_mem s ~key:3));
  check "read after delete is absent" true (Kv.get s ~key:3 = None);
  check "an absent key is never cached" true (not (Kv.rcache_mem s ~key:3))

let test_eviction_keyspace_exceeds_capacity () =
  let _, _, s = mk_store ~rcache_entries:4 ~shards:2 () in
  let keys = List.init 40 (fun i -> i + 1) in
  List.iter (fun k -> ignore (Kv.put s ~key:k ~vseed:(k * 13))) keys;
  for _ = 1 to 2 do
    List.iter
      (fun k ->
        check "every read is correct under eviction pressure" true
          (Kv.get s ~key:k = Some (Kv.value_checksum s ~vseed:(k * 13))))
      keys
  done;
  check "capacity bound holds across shards" true (Kv.rcache_cached s <= 2 * 4);
  let _, _, ev, _ = Kv.rcache_stats s in
  check "evictions happened" true (ev > 0)

(* ---------- backup: replicated applies + the promotion wipe ---------- *)

let test_backup_group_apply_coherent_and_promotion_wipe () =
  (* key shard map for shards:2 (asserted): 3 on shard 0; 4, 5 on 1 *)
  assert (Kv.shard_of ~shards:2 3 = 0);
  assert (Kv.shard_of ~shards:2 4 = 1 && Kv.shard_of ~shards:2 5 = 1);
  let _, _, b = mk_store ~rcache_entries:8 ~shards:2 () in
  List.iter
    (fun (k, vs) -> ignore (Kv.put b ~key:k ~vseed:vs))
    [ (3, 61); (4, 62); (5, 63) ];
  List.iter (fun k -> ignore (Kv.get b ~key:k)) [ 3; 4; 5 ];
  check "the backup's cache is warm" true
    (Kv.rcache_mem b ~key:3 && Kv.rcache_mem b ~key:4 && Kv.rcache_mem b ~key:5);
  (* shipped single-key records land through the chunked commit chain;
     the cache must drop their keys in the same step *)
  Kv.group_apply b ~shard:0 [ Kv.Tput { key = 3; vseed = 64 } ];
  Kv.group_apply b ~shard:1
    [ Kv.Tput { key = 4; vseed = 65 }; Kv.Tdel { key = 5 } ];
  check "applied keys left the cache before the apply returned" true
    ((not (Kv.rcache_mem b ~key:3))
    && (not (Kv.rcache_mem b ~key:4))
    && not (Kv.rcache_mem b ~key:5));
  check "reads after the apply see the shipped values" true
    (Kv.get b ~key:3 = Some (Kv.value_checksum b ~vseed:64)
    && Kv.get b ~key:4 = Some (Kv.value_checksum b ~vseed:65)
    && Kv.get b ~key:5 = None);
  (* a deferred 2PC decide publishes under the backup's own record —
     its keys must leave the cache at publication, not at decide *)
  ignore (Kv.get b ~key:3);
  Kv.txn_backup_prepare b ~txn:77 ~shard:0
    ~ops:[ Kv.Tput { key = 3; vseed = 66 } ];
  check "a prepare alone leaves the cache intact" true (Kv.rcache_mem b ~key:3);
  Kv.txn_backup_decide b ~txn:77 ~shard:0 ~commit:true ~nparts:1;
  check "the publishing decide invalidated the key" true
    (not (Kv.rcache_mem b ~key:3));
  check "the committed slice is readable" true
    (Kv.get b ~key:3 = Some (Kv.value_checksum b ~vseed:66));
  (* promotion: the cache is wiped like the version chains *)
  List.iter (fun k -> ignore (Kv.get b ~key:k)) [ 3; 4 ];
  check "warm again before promotion" true (Kv.rcache_cached b > 0);
  ignore (Kv.txn_resolve_indoubt b);
  check_int "promotion wiped the cache" 0 (Kv.rcache_cached b);
  check "reads refill after promotion" true
    (Kv.get b ~key:3 = Some (Kv.value_checksum b ~vseed:66)
    && Kv.rcache_mem b ~key:3)

(* ---------- txn-group invalidation vs concurrent snapshot readers ------- *)

(* Writers update keys 3 (shard 0) and 4 (shard 1) together through
   {!Kv.txn} with the SAME vseed, so at every committed state the two
   digests are equal.  With the cache armed, a half-invalidated group
   (or an entry surviving its overwrite) would surface as a torn pair
   or an unrepeatable read at a held snapshot — exactly what the
   lock-free readers assert never happens.  The window (64) exceeds
   the writer's commit count, so no reader outlives history. *)
let test_txn_group_invalidation_vs_snapshot_readers () =
  let mach, _, s = mk_store ~mvcc_window:64 ~rcache_entries:8 ~shards:2 () in
  ignore (Kv.put s ~key:3 ~vseed:1000);
  ignore (Kv.put s ~key:4 ~vseed:1000);
  let torn = ref 0 and unrepeatable = ref 0 in
  let _ =
    Machine.parallel mach ~threads:3 (fun i ->
        if i = 0 then
          for v = 1 to 30 do
            ignore
              (Kv.txn s
                 [ Kv.Tput { key = 3; vseed = 1000 + v };
                   Kv.Tput { key = 4; vseed = 1000 + v } ])
          done
        else
          for _ = 1 to 40 do
            let ts = Kv.snapshot s in
            let d3 = Kv.snapshot_get s ~ts ~key:3
            and d4 = Kv.snapshot_get s ~ts ~key:4 in
            if d3 <> d4 then incr torn;
            let d3' = Kv.snapshot_get s ~ts ~key:3
            and d4' = Kv.snapshot_get s ~ts ~key:4 in
            if d3' <> d3 || d4' <> d4 then incr unrepeatable
          done)
  in
  check_int "no torn cross-shard observation through the cache" 0 !torn;
  check_int "reads at a held snapshot are repeatable" 0 !unrepeatable;
  let ts = Kv.snapshot s in
  check "final snapshot equals the live store" true
    (Kv.snapshot_get s ~ts ~key:3 = Kv.get s ~key:3
    && Kv.snapshot_get s ~ts ~key:4 = Kv.get s ~key:4);
  check "the writer's groups invalidated as they went" true
    (let _, _, _, inv = Kv.rcache_stats s in
     inv > 0)

(* ---------- the disabled store is statistics-silent ---------- *)

let test_disabled_store_is_silent () =
  let _, _, s = mk_store ~shards:2 () in
  check_int "knob reads back as off" 0 (Kv.rcache_entries s);
  ignore (Kv.put s ~key:3 ~vseed:5);
  check "reads work" true
    (Kv.get s ~key:3 = Some (Kv.value_checksum s ~vseed:5));
  check "snapshot reads work" true
    (Kv.snapshot_get s ~ts:(Kv.snapshot s) ~key:3 = Kv.get s ~key:3);
  check "no statistic ever moves" true (Kv.rcache_stats s = (0, 0, 0, 0));
  check_int "nothing is cached" 0 (Kv.rcache_cached s)

(* ---------- the seeded bug, observed at unit scale ---------- *)

let test_late_invalidation_window () =
  let _, _, s = mk_store ~rcache_entries:8 ~shards:1 () in
  ignore (Kv.put s ~key:1 ~vseed:10);
  ignore (Kv.get s ~key:1);
  Kv.rcache_break_late_invalidate s;
  ignore (Kv.put s ~key:1 ~vseed:11);
  check "the stale window: a read between mutations sees the old value"
    true
    (Kv.get s ~key:1 = Some (Kv.value_checksum s ~vseed:10));
  (* the next mutation drains the deferred kill *)
  ignore (Kv.put s ~key:2 ~vseed:20);
  check "the next mutation closes the window" true
    (Kv.get s ~key:1 = Some (Kv.value_checksum s ~vseed:11))

(* ---------- serve gauges ---------- *)

(* The store gauges describe the traffic: they are sampled at the cut
   from the store that served it, before the ledger check reads every
   key of the store that serves on.  Every probe is a read request, so
   a run can never report more probes than the reads it generated —
   on a clean run and after a failover alike. *)
let test_serve_gauges_count_traffic_only () =
  let module S = Service.Server in
  let cfg scope =
    { S.default_config with
      S.read_pct = 60;
      scan_pct = 0;
      rcache_entries = 64;
      duration = 0.005;
      scope }
  in
  let probes scope =
    let gauge name =
      Option.value ~default:0. (Obs.Metrics.get_gauge ~scope name)
    in
    int_of_float (gauge "rcache_hits" +. gauge "rcache_misses")
  in
  let factory = Workloads.Factories.poseidon () in
  let local = "test/rcache/serve-local" in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun mach ->
        Poseidon.instance
          (H.attach mach ~base:Workloads.Factories.heap_base ()))
      (cfg local)
  in
  check "local run probed the cache" true (probes local > 0);
  check "local: probes <= reads" true (probes local <= r.S.ops_read);
  let repl = "test/rcache/serve-failover" in
  let rr =
    S.run_replicated
      ~make:(fun mach -> Workloads.Factories.poseidon_on mach)
      { (cfg repl) with S.crash_at = Some 0.5 }
      S.default_repl_config
  in
  check "failed over" true rr.S.base.S.crashed;
  check "failover run probed the cache" true (probes repl > 0);
  check "failover: probes <= reads" true
    (probes repl <= rr.S.base.S.ops_read)

let () =
  Alcotest.run "rcache"
    [ ( "substrate",
        [ Alcotest.test_case "probe / fill / kill + vts guard" `Quick
            test_substrate_probe_fill_kill;
          Alcotest.test_case "CLOCK second chance + capacity bound" `Quick
            test_substrate_clock_second_chance;
          Alcotest.test_case "entries 0 is inert" `Quick
            test_substrate_disabled_no_ops ] );
      ( "store",
        [ Alcotest.test_case "fill + write-through invalidation" `Quick
            test_fill_and_writethrough;
          Alcotest.test_case "eviction under keyspace > capacity" `Quick
            test_eviction_keyspace_exceeds_capacity;
          Alcotest.test_case "disabled store is statistics-silent" `Quick
            test_disabled_store_is_silent;
          Alcotest.test_case "late invalidation window (seeded bug)" `Quick
            test_late_invalidation_window ] );
      ( "replication",
        [ Alcotest.test_case "backup coherent + promotion wipe" `Quick
            test_backup_group_apply_coherent_and_promotion_wipe ] );
      ( "concurrency",
        [ Alcotest.test_case "txn groups vs snapshot readers" `Quick
            test_txn_group_invalidation_vs_snapshot_readers ] );
      ( "serve",
        [ Alcotest.test_case "gauges count traffic, not verification"
            `Quick test_serve_gauges_count_traffic_only ] ) ]

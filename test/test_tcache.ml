(* Magazine-cache wrapper (lib/tcache): bin hit/miss/refill/flush
   mechanics, size-class routing with large-alloc fallback, lease
   durability across crashes (published blocks survive, bin residue
   and stashed frees are reclaimed by recovery), pass-through modes,
   store-level equivalence with the uncached path, serve-run metrics
   surfacing, the reclaim ledger's high-water mark, and the cache's
   crashcheck registry entries: kv-tcache-put registered as correct,
   tcache-broken and tcache-hwm-broken as seeded bugs. *)

module H = Poseidon.Heap
module Memdev = Nvmm.Memdev
module Kv = Service.Kv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let heap_base = 1 lsl 30
let round_up = Poseidon.Layout.round_up

let mk_wrapped ?(mag = 4) () =
  let mach = Machine.create () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 20) ()
  in
  let inst, h = Tcache.wrap ~mag (Poseidon.instance heap) in
  (mach, heap, inst, h)

(* ---------- bin mechanics ---------- *)

let test_bin_mechanics () =
  let _, heap, inst, h = mk_wrapped ~mag:4 () in
  let p1 = Alloc_intf.i_alloc inst 64 in
  check "first alloc succeeds" true (p1 <> None);
  let hits, misses, refills, flushes = Tcache.stats h in
  check_int "first alloc is a miss" 1 misses;
  check_int "miss triggers one refill" 1 refills;
  check_int "no hit yet" 0 hits;
  check_int "no flush yet" 0 flushes;
  (* the carve put mag-1 = 3 blocks in the bin: the next three allocs
     pop without touching the allocator *)
  for _ = 1 to 3 do
    check "bin pop succeeds" true (Alloc_intf.i_alloc inst 64 <> None)
  done;
  let hits, misses, refills, _ = Tcache.stats h in
  check_int "three bin hits" 3 hits;
  check_int "still one miss" 1 misses;
  check_int "still one refill" 1 refills;
  (* a fifth alloc finds the bin empty again *)
  ignore (Alloc_intf.i_alloc inst 64);
  let _, misses, refills, _ = Tcache.stats h in
  check_int "empty bin misses again" 2 misses;
  check_int "second refill" 2 refills;
  (* the heap's own statistics mirror the wrapper counters *)
  let s = H.stats heap in
  check_int "heap sees the hits" 3 s.H.tcache_hits;
  check_int "heap sees the misses" 2 s.H.tcache_misses;
  check_int "heap sees the refills" 2 s.H.bin_refills

let test_flush_on_overfull_bin () =
  let _, heap, inst, h = mk_wrapped ~mag:2 () in
  (* allocate enough distinct blocks that freeing them all must push a
     bin past 2 x mag and trigger a bulk flush back down to mag *)
  let ptrs =
    List.init 12 (fun _ -> Option.get (Alloc_intf.i_alloc inst 64))
  in
  List.iter (fun p -> Alloc_intf.i_free inst p) ptrs;
  let _, _, _, flushes = Tcache.stats h in
  check "overfull bin flushed" true (flushes > 0);
  check_int "heap sees the flushes" flushes (H.stats heap).H.bin_flushes;
  (* flushed blocks really went back to the allocator: the heap stays
     self-consistent and nothing leaked *)
  H.check_invariants heap;
  let s = H.stats heap in
  check_int "no block lost to the cache" (H.data_capacity heap)
    (s.H.live_bytes + s.H.free_bytes)

let test_size_class_routing () =
  let _, _, inst, h = mk_wrapped ~mag:4 () in
  (* 33 B rounds to 64: it shares the 64-byte class bin *)
  ignore (Alloc_intf.i_alloc inst 64);
  check "rounded size hits the same class" true
    (Alloc_intf.i_alloc inst 33 <> None);
  let hits, _, _, _ = Tcache.stats h in
  check_int "class sharing produced a hit" 1 hits;
  (* beyond cache_max_size the wrapper falls through to the inner
     allocator: no cache traffic at all *)
  let before = Tcache.stats h in
  check "large alloc falls through" true
    (Alloc_intf.i_alloc inst 8192 <> None);
  check "fallback leaves the counters alone" true (Tcache.stats h = before)

let test_mag_zero_passthrough () =
  let _, heap, inst, h = mk_wrapped ~mag:0 () in
  let p = Option.get (Alloc_intf.i_alloc inst 64) in
  Alloc_intf.i_free inst p;
  check "pass-through does no cache traffic" true
    (Tcache.stats h = (0, 0, 0, 0));
  let s = H.stats heap in
  check_int "heap counters untouched" 0
    (s.H.tcache_hits + s.H.tcache_misses + s.H.bin_refills + s.H.bin_flushes);
  H.check_invariants heap

(* ---------- lease durability across crashes ---------- *)

(* A published singleton allocation survives a strict crash; the
   refill's bin residue (leased, never handed out) is reclaimed by
   recovery — live bytes move by exactly one block. *)
let test_publish_survives_bin_residue_reclaimed () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  ignore (Option.get (Alloc_intf.i_alloc inst 64));
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "published block survived, 3 leased bin blocks reclaimed"
    (baseline + round_up 64)
    (H.stats h2).H.live_bytes

(* The stash write-ahead: a freed-and-binned block is reclaimed by
   recovery even though the deallocation itself never ran. *)
let test_stash_reclaimed_after_crash () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  let p1 = Option.get (Alloc_intf.i_alloc inst 64) in
  let p2 = Option.get (Alloc_intf.i_alloc inst 64) in
  ignore p2;
  Alloc_intf.i_free inst p1;
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "stashed free reclaimed, the other block survived"
    (baseline + round_up 64)
    (H.stats h2).H.live_bytes

(* An uncommitted transactional allocation (lease never published)
   vanishes at recovery, exactly like the uncached tx path. *)
let test_unpublished_tx_alloc_rolled_back () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  ignore (Alloc_intf.i_tx_alloc inst 64 ~is_end:false);
  (* no tx_commit: the lease publish never happened *)
  Memdev.crash (Machine.dev mach) `Strict;
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  check_int "uncommitted cached alloc rolled back" baseline
    (H.stats h2).H.live_bytes

(* The ledger's high-water mark: a carve raises it inside its undo
   operation, a stash past every slot in use raises it write-ahead,
   and recovery frees every lease below it, then resets it to 0. *)
let the_subheap heap =
  let found = ref None in
  H.iter_subheaps heap (fun sh -> if !found = None then found := Some sh);
  Option.get !found

let hwm_word mach (sh : Poseidon.Subheap.t) =
  Memdev.read_u64 (Machine.dev mach)
    (sh.Poseidon.Subheap.meta_base + Poseidon.Layout.sh_off_tc_hwm)

let test_hwm_raised_then_reset_by_recovery () =
  let mach, heap, inst, _ = mk_wrapped ~mag:4 () in
  Memdev.drain (Machine.dev mach);
  let baseline = (H.stats heap).H.live_bytes in
  let ptrs =
    List.init 8 (fun i ->
        let p = Option.get (Alloc_intf.i_alloc inst 64) in
        if i = 0 then begin
          let sh = the_subheap heap in
          check_int "carve raised the hwm to the magazine" 4
            sh.Poseidon.Subheap.tc_hwm;
          check_int "carve wrote the hwm word" 4 (hwm_word mach sh)
        end;
        p)
  in
  let sh = the_subheap heap in
  check_int "published magazines keep the peak" 4 sh.Poseidon.Subheap.tc_hwm;
  (* eight stashed frees hold eight leases at once: the last four
     slots lie above the carve peak, so the free path raises the hwm *)
  List.iter (fun p -> Alloc_intf.i_free inst p) ptrs;
  check_int "free path raised the hwm" 8 sh.Poseidon.Subheap.tc_hwm;
  H.check_invariants heap;
  Memdev.crash (Machine.dev mach) `Strict;
  check_int "the free-path hwm was durable" 8 (hwm_word mach sh);
  let h2 = H.attach mach ~base:heap_base () in
  H.check_invariants h2;
  let sh2 = the_subheap h2 in
  check_int "every stashed lease reclaimed" baseline
    (H.stats h2).H.live_bytes;
  check_int "recovery reset the hwm" 0 (hwm_word mach sh2);
  check_int "volatile hwm follows" 0 sh2.Poseidon.Subheap.tc_hwm;
  for slot = 0 to Poseidon.Layout.tc_ledger_cap - 1 do
    if
      Memdev.read_u64 (Machine.dev mach)
        (sh2.Poseidon.Subheap.meta_base + Poseidon.Layout.sh_off_tc_ledger
        + (slot * Poseidon.Layout.word))
      <> 0
    then Alcotest.failf "ledger slot %d still armed after recovery" slot
  done

let test_reset_returns_all_blocks () =
  let _, heap, inst, h = mk_wrapped ~mag:4 () in
  let baseline = (H.stats heap).H.live_bytes in
  let ptrs =
    List.init 6 (fun _ -> Option.get (Alloc_intf.i_alloc inst 64))
  in
  List.iter (fun p -> Alloc_intf.i_free inst p) ptrs;
  Tcache.reset h;
  H.check_invariants heap;
  check_int "reset drains bins back to the allocator" baseline
    (H.stats heap).H.live_bytes;
  (* the cache still works after a reset *)
  check "post-reset alloc" true (Alloc_intf.i_alloc inst 64 <> None)

(* ---------- store-level equivalence ---------- *)

let kv_workload kv =
  for k = 1 to 60 do
    ignore (Kv.put kv ~key:k ~vseed:(500 + k))
  done;
  for k = 1 to 60 do
    if k mod 3 = 0 then ignore (Kv.delete kv ~key:k)
  done;
  for k = 1 to 60 do
    if k mod 4 = 0 then ignore (Kv.put kv ~key:k ~vseed:(900 + k))
  done

let test_kv_equivalence () =
  let mk wrapped =
    let mach = Machine.create () in
    let heap =
      H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
        ~sub_data_size:(1 lsl 20) ()
    in
    let inst = Poseidon.instance heap in
    let inst =
      if wrapped then fst (Tcache.wrap ~mag:4 inst) else inst
    in
    let kv = Kv.create inst ~shards:2 ~value_size:64 in
    kv_workload kv;
    kv
  in
  let plain = mk false and cached = mk true in
  check_int "same key count" (Kv.count_keys plain) (Kv.count_keys cached);
  for k = 1 to 60 do
    check (Printf.sprintf "key %d reads identically" k) true
      (Kv.get plain ~key:k = Kv.get cached ~key:k)
  done

(* ---------- serve metrics (MVCC gauges + tcache gauges) ---------- *)

let test_serve_metrics_surfaced () =
  let module S = Service.Server in
  let factory = Workloads.Factories.poseidon () in
  let scope = "test/tcache/serve" in
  let cfg =
    { S.default_config with
      S.shards = 2;
      clients = 4;
      rate = 30_000.;
      duration = 0.004;
      keyspace = 256;
      preload = 64;
      mvcc_window = 2;
      tcache_mag = 4;
      scope }
  in
  let r =
    S.run
      ~make:(fun () -> factory.Workloads.Factories.make ())
      ~reattach:(fun mach ->
        Poseidon.instance
          (H.attach mach ~base:Workloads.Factories.heap_base ()))
      cfg
  in
  check "run completed requests" true (r.S.completed > 0);
  check_int "no acked write lost" 0 r.S.ledger.S.mismatches;
  let gauge ?(scope = scope) name = Obs.Metrics.get_gauge ~scope name in
  check "mvcc_truncated_reads gauge present" true
    (gauge "mvcc_truncated_reads" <> None);
  for sh = 0 to 1 do
    let sscope = Printf.sprintf "%s/shard%d" scope sh in
    check
      (Printf.sprintf "shard %d chain-count gauge present" sh)
      true
      (gauge ~scope:sscope "mvcc_chains" <> None);
    check
      (Printf.sprintf "shard %d chain-versions gauge present" sh)
      true
      (gauge ~scope:sscope "mvcc_chain_versions" <> None)
  done;
  let g name = Option.get (gauge name) in
  check "tcache gauges present" true
    (gauge "tcache_hits" <> None
    && gauge "tcache_misses" <> None
    && gauge "tcache_bin_refills" <> None
    && gauge "tcache_bin_flushes" <> None);
  check "the cache actually served traffic" true
    (g "tcache_hits" +. g "tcache_misses" > 0.)

(* ---------- crashcheck registration ---------- *)

(* test_crashcheck sweeps whatever the registry holds, so a tcache
   entry dropped from it, or its kind flipped, would go unnoticed
   there; pin the cache's crash coverage here *)
let test_crashcheck_entries_registered () =
  let kind name =
    match
      List.find_opt (fun (e : Crashcheck.entry) -> e.Crashcheck.name = name)
        Crashcheck.registry
    with
    | Some e -> e.Crashcheck.kind
    | None -> Alcotest.failf "%s is not in the crashcheck registry" name
  in
  check "kv-tcache-put is a correct scenario" true
    (kind "kv-tcache-put" = Crashcheck.Correct);
  List.iter
    (fun name ->
      check (name ^ " is a seeded bug") true
        (kind name = Crashcheck.Seeded_bug))
    [ "tcache-broken"; "tcache-hwm-broken" ]

let () =
  Alcotest.run "tcache"
    [ ( "bins",
        [ Alcotest.test_case "hit/miss/refill accounting" `Quick
            test_bin_mechanics;
          Alcotest.test_case "overfull bin flushes in bulk" `Quick
            test_flush_on_overfull_bin;
          Alcotest.test_case "size-class routing + large fallback" `Quick
            test_size_class_routing;
          Alcotest.test_case "mag 0 is a pass-through" `Quick
            test_mag_zero_passthrough ] );
      ( "crash",
        [ Alcotest.test_case "publish survives, bin residue reclaimed"
            `Quick test_publish_survives_bin_residue_reclaimed;
          Alcotest.test_case "stashed free reclaimed" `Quick
            test_stash_reclaimed_after_crash;
          Alcotest.test_case "unpublished tx alloc rolled back" `Quick
            test_unpublished_tx_alloc_rolled_back;
          Alcotest.test_case "hwm raised by carve and free, reset by recovery"
            `Quick test_hwm_raised_then_reset_by_recovery;
          Alcotest.test_case "reset returns every cached block" `Quick
            test_reset_returns_all_blocks ] );
      ( "store",
        [ Alcotest.test_case "cached store = uncached store" `Quick
            test_kv_equivalence;
          Alcotest.test_case "serve surfaces mvcc + tcache gauges" `Quick
            test_serve_metrics_surfaced ] );
      ( "crashcheck",
        [ Alcotest.test_case "tcache entries registered" `Quick
            test_crashcheck_entries_registered ] ) ]

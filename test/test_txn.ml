(* Cross-shard atomic transactions: the 2PC coordinator-record
   protocol (DESIGN §10) — commit/abort atomicity across shards,
   in-doubt resolution on re-attach, promotion-time resolution and
   deferred group apply on a backup, plus a bounded crashcheck sweep
   of the protocol and the seeded-mutation sanity gate. *)

module Kv = Service.Kv
module Txn = Service.Txn
module H = Poseidon.Heap
module Memdev = Nvmm.Memdev

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

let cksum kv vseed = Some (Kv.value_checksum kv ~vseed)

(* Two keys guaranteed to live on different shards (hash partition is
   stable, but the tests never hardcode the map). *)
let cross_shard_keys kv =
  let k1 = 1 in
  let s1 = Kv.shard_of_key kv k1 in
  let k2 = ref 2 in
  while Kv.shard_of_key kv !k2 = s1 do
    incr k2
  done;
  (k1, !k2)

(* ---------- commit / abort semantics ---------- *)

let test_commit_across_shards () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  let r = Txn.exec kv [ Tput { key = ka; vseed = 100 }; Tdel { key = kb } ] in
  check "committed" true r.Txn.committed;
  check "no abort reason" true (r.Txn.abort = None);
  check "txn id claimed" true (r.Txn.txn_id > 0);
  check_int "two participant shards" 2 (List.length r.Txn.participants);
  check "put visible" true (Kv.get kv ~key:ka = cksum kv 100);
  check "delete visible" true (Kv.get kv ~key:kb = None);
  Kv.check kv

let test_abort_leaves_no_trace () =
  let _, inst, kv = mk_store ~shards:2 () in
  check "preload" true (Kv.put kv ~key:3 ~vseed:30);
  (* strict delete of an absent key aborts the whole transaction *)
  let r = Txn.exec kv [ Tput { key = 3; vseed = 31 }; Tdel { key = 9999 } ] in
  check "aborted" false r.Txn.committed;
  check "absent-key reason" true (r.Txn.abort = Some (Txn_absent_key 9999));
  check "put rolled back with it" true (Kv.get kv ~key:3 = cksum kv 30);
  (* static validation aborts *)
  check "empty aborts" true ((Txn.exec kv []).Txn.abort = Some Txn_empty);
  check "duplicate key aborts" true
    ((Txn.exec kv [ Tput { key = 5; vseed = 1 }; Tdel { key = 5 } ]).Txn.abort
    = Some Txn_duplicate_key);
  (* 17 distinct keys over 2 shards put > max_txn_ops (8) on one *)
  let big =
    List.init 17 (fun i -> Txn.Tput { key = 100 + i; vseed = i })
  in
  check "per-shard op cap aborts" true
    ((Txn.exec kv big).Txn.abort = Some Txn_too_many_ops);
  (* aborts left nothing durable: clean re-attach, nothing to resolve *)
  let kv2, rc = Kv.attach inst in
  check_int "no txn slots to resolve" 0 (rc.Kv.txn_committed + rc.Kv.txn_aborted);
  check "state intact" true (Kv.get kv2 ~key:3 = cksum kv2 30)

(* ---------- crash recovery: the decision record is the commit point *)

let test_indoubt_prepare_aborts_on_attach () =
  let mach, inst, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  (* phase 1 persisted, decision record never written: in doubt *)
  (match Kv.txn_prepare kv [ Tput { key = ka; vseed = 50 }; Tdel { key = kb } ]
   with
  | Ok txn -> check "prepare claimed an id" true (txn > 0)
  | Error _ -> Alcotest.fail "prepare refused");
  Memdev.crash (Machine.dev mach) `Strict;
  ignore (H.attach mach ~base:heap_base ());
  let kv2, rc = Kv.attach inst in
  check_int "both participants presumed aborted" 2 rc.Kv.txn_aborted;
  check_int "none redone" 0 rc.Kv.txn_committed;
  check "put never surfaced" true (Kv.get kv2 ~key:ka = None);
  check "delete never surfaced" true (Kv.get kv2 ~key:kb = cksum kv2 7);
  Kv.check kv2

let test_decided_txn_redone_on_attach () =
  let mach, inst, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  let txn =
    match
      Kv.txn_prepare kv [ Tput { key = ka; vseed = 50 }; Tdel { key = kb } ]
    with
    | Ok txn -> txn
    | Error _ -> Alcotest.fail "prepare refused"
  in
  (* decision record persisted = committed, even though apply never ran *)
  Kv.txn_decide kv ~txn;
  Memdev.crash (Machine.dev mach) `Strict;
  ignore (H.attach mach ~base:heap_base ());
  let kv2, rc = Kv.attach inst in
  check_int "both participants redone" 2 rc.Kv.txn_committed;
  check_int "none aborted" 0 rc.Kv.txn_aborted;
  check "put surfaced" true (Kv.get kv2 ~key:ka = cksum kv2 50);
  check "delete surfaced" true (Kv.get kv2 ~key:kb = None);
  Kv.check kv2

(* ---------- backup-side protocol ---------- *)

let test_promotion_resolves_indoubt () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  (* a prepare whose decide died with the primary *)
  Kv.txn_backup_prepare kv ~txn:9 ~shard:(Kv.shard_of_key kv ka)
    ~ops:[ Tput { key = ka; vseed = 60 } ];
  Kv.txn_backup_prepare kv ~txn:9 ~shard:(Kv.shard_of_key kv kb)
    ~ops:[ Tdel { key = kb } ];
  check_int "promotion presumed-aborts both slots" 2
    (Txn.resolve_indoubt kv);
  check_int "idempotent once resolved" 0 (Txn.resolve_indoubt kv);
  check "put never surfaced" true (Kv.get kv ~key:ka = None);
  check "delete never surfaced" true (Kv.get kv ~key:kb = cksum kv 7);
  Kv.check kv

let test_backup_defers_group_apply () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, kb = cross_shard_keys kv in
  let sa = Kv.shard_of_key kv ka and sb = Kv.shard_of_key kv kb in
  check "preload" true (Kv.put kv ~key:kb ~vseed:7);
  Kv.txn_backup_prepare kv ~txn:4 ~shard:sa ~ops:[ Tput { key = ka; vseed = 61 } ];
  Kv.txn_backup_prepare kv ~txn:4 ~shard:sb ~ops:[ Tdel { key = kb } ];
  (* first of two decides: publication must be deferred — applying this
     slice alone would let a crash surface half the transaction *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sa ~commit:true ~nparts:2;
  check "nothing published after 1/2 decides" true (Kv.get kv ~key:ka = None);
  check "other slice untouched too" true (Kv.get kv ~key:kb = cksum kv 7);
  (* last decide publishes the whole group atomically *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sb ~commit:true ~nparts:2;
  check "put published" true (Kv.get kv ~key:ka = cksum kv 61);
  check "delete published" true (Kv.get kv ~key:kb = None);
  check_int "no slots left in doubt" 0 (Txn.resolve_indoubt kv);
  (* duplicate decide after resolution is a no-op *)
  Kv.txn_backup_decide kv ~txn:4 ~shard:sb ~commit:true ~nparts:2;
  check "duplicate decide tolerated" true (Kv.get kv ~key:ka = cksum kv 61);
  Kv.check kv

let test_backup_abort_discards_slice () =
  let _, _, kv = mk_store ~shards:4 () in
  let ka, _ = cross_shard_keys kv in
  Kv.txn_backup_prepare kv ~txn:6 ~shard:(Kv.shard_of_key kv ka)
    ~ops:[ Tput { key = ka; vseed = 62 } ];
  Kv.txn_backup_decide kv ~txn:6 ~shard:(Kv.shard_of_key kv ka) ~commit:false
    ~nparts:2;
  check "aborted slice never surfaces" true (Kv.get kv ~key:ka = None);
  check_int "slot already discarded" 0 (Txn.resolve_indoubt kv)

let () =
  Alcotest.run "txn"
    [ ( "atomicity",
        [ Alcotest.test_case "commit spans shards atomically" `Quick
            test_commit_across_shards;
          Alcotest.test_case "aborts leave no durable trace" `Quick
            test_abort_leaves_no_trace ] );
      ( "recovery",
        [ Alcotest.test_case "in-doubt prepare presumed-aborts" `Quick
            test_indoubt_prepare_aborts_on_attach;
          Alcotest.test_case "persisted decision redoes the txn" `Quick
            test_decided_txn_redone_on_attach ] );
      ( "backup",
        [ Alcotest.test_case "promotion resolves in-doubt slots" `Quick
            test_promotion_resolves_indoubt;
          Alcotest.test_case "group apply deferred to last decide" `Quick
            test_backup_defers_group_apply;
          Alcotest.test_case "abort decide discards the slice" `Quick
            test_backup_abort_discards_slice ] ) ]

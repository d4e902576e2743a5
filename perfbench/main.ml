(* perfbench: one workload at one seed.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics of a traced run of the same workload and seed.
   The last line of standard output is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   A failed correctness gate makes the exit code 1. *)

open Perfbench
module S = Service.Server
module Hist = Obs.Hist
module Span = Obs.Span

let wall () = Unix.gettimeofday ()

(* ---------- per-layer catalogue (the order of the output) ---------- *)

let per_layer =
  [ ("nvmm.fences_per_op", "1/op"); ("nvmm.lines_flushed_per_op", "1/op");
    ("nvmm.stores_per_op", "1/op"); ("nvmm.loads_per_op", "1/op");
    ("machine.read_miss_ns_per_op", "ns/op"); ("machine.flush_ns_per_op", "ns/op");
    ("machine.fence_ns_per_op", "ns/op");
    ("machine.bandwidth_wait_ns_per_op", "ns/op");
    ("machine.lock_wait_ns_per_op", "ns/op");
    ("machine.lock_contended_frac", "ratio"); ("mpk.wrpkru_per_op", "1/op");
    ("mpk.wrpkru_ns_per_op", "ns/op"); ("simcore.ctx_switches_per_op", "1/op");
    ("simcore.host_us_per_ctx_switch", "us"); ("simcore.host_ops_per_s", "1/s");
    ("core.alloc_p50_ns", "ns");
    ("core.alloc_p99_ns", "ns"); ("core.free_p50_ns", "ns");
    ("core.free_p99_ns", "ns"); ("core.tx_p50_ns", "ns"); ("core.attach_us", "us");
    ("core.merges_per_op", "1/op"); ("core.hash_extends", "count");
    ("core.subheaps_active", "count"); ("tcache.hit_frac", "ratio");
    ("tcache.refills_per_op", "1/op"); ("tcache.flushes_per_op", "1/op");
    ("btree.depth", "levels"); ("mvcc.snapshot_ns", "ns");
    ("mvcc.truncated_reads", "count"); ("mvcc.chain_len_max", "versions");
    ("rcache.hit_frac", "ratio"); ("rcache.evictions_per_op", "1/op");
    ("rcache.invalidations_per_op", "1/op"); ("rcache.probe_ns", "ns");
    ("service.queue_ns", "ns"); ("service.decode_ns", "ns");
    ("service.lock_wait_ns", "ns"); ("service.store_ns", "ns");
    ("service.persist_ns", "ns"); ("service.txn_ns", "ns");
    ("service.flush_wait_ns", "ns"); ("service.alloc_ns", "ns");
    ("service.handler_p50_ns", "ns"); ("service.queue_max_depth", "count");
    ("service.txn_abort_frac", "ratio"); ("net.req_wire_ns", "ns");
    ("net.rep_wire_ns", "ns"); ("net.gen_lag_frac", "ratio");
    ("replica.repl_ack_ns", "ns"); ("replica.repl_wire_ns", "ns");
    ("replica.backup_apply_ns", "ns"); ("replica.ack_wire_ns", "ns");
    ("replica.max_lag", "count"); ("replica.retransmits", "count");
    ("replica.frames_per_mutation", "1/op"); ("replica.tail_replayed", "count");
    ("obs.trace_overhead", "ratio"); ("obs.attrib_coverage", "ratio") ]

(* ---------- output ---------- *)

(* always a JSON float: integral values keep a ".0" *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Each metric object holds exactly a value and a unit, so a row of a
   layer the workload does not run reads 0; the lines above the JSON
   say which rows those are. *)
let emit ~correct ~attempted ~failed (ms : Common.metric list) =
  List.iter
    (fun (x : Common.metric) ->
      if x.Common.absent then Printf.printf "  %-36s absent\n" x.Common.name
      else Printf.printf "  %-36s %s %s\n" x.Common.name (json_num x.Common.value) x.Common.unit_)
    ms;
  (match List.filter (fun (x : Common.metric) -> x.Common.absent) ms with
   | [] -> ()
   | idle ->
       Printf.printf "absent (reported as 0): %s\n"
         (String.concat " " (List.map (fun (x : Common.metric) -> x.Common.name) idle)));
  let metric (x : Common.metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Common.name
      (json_num x.Common.value) x.Common.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map metric ms))

(* order the per-layer rows by the catalogue; rows a workload did not
   produce are its absent layers *)
let layer_rows got =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (x : Common.metric) -> x.Common.name = name) got with
      | Some x -> { x with Common.unit_ }
      | None -> Common.absent name unit_)
    per_layer

let pct_or_absent name h p =
  if Common.resolvable h p then Common.m name "ns" (Common.percentile h p)
  else Common.absent name "ns"

let say fmt = Printf.printf (fmt ^^ "\n%!")

let report_pct label h =
  say "  %-8s p50 %.0f ns  p99 %s  (%d samples)" label (Common.percentile h 50.)
    (if Common.resolvable h 99. then Printf.sprintf "%.0f ns" (Common.percentile h 99.)
     else "unresolved")
    (Hist.count h)

(* every machine runs the default cost model *)
let wrpkru_ns = Machine.Config.default.Machine.Config.wrpkru_ns

(* counters over a traffic window, per operation; [host_us_per_ctx] is
   the median over the run's repeats *)
let counter_rows (d : Tap.snap) ~ops ~host_us_per_ctx =
  let per v = Common.ratio (float_of_int v) ops in
  [ Common.m "nvmm.fences_per_op" "" (per d.Tap.fences);
    Common.m "nvmm.lines_flushed_per_op" "" (per d.Tap.lines_flushed);
    Common.m "nvmm.stores_per_op" "" (per d.Tap.stores);
    Common.m "nvmm.loads_per_op" "" (per d.Tap.loads);
    Common.m "machine.read_miss_ns_per_op" "" (per d.Tap.read_miss_ns);
    Common.m "machine.flush_ns_per_op" "" (per d.Tap.flush_ns);
    Common.m "machine.fence_ns_per_op" "" (per d.Tap.fence_ns);
    Common.m "machine.bandwidth_wait_ns_per_op" "" (per d.Tap.bandwidth_wait_ns);
    Common.m "machine.lock_wait_ns_per_op" "" (per d.Tap.lock_wait_ns);
    Common.m "machine.lock_contended_frac" ""
      (Common.ratio (float_of_int d.Tap.lock_contended)
         (float_of_int d.Tap.lock_acquisitions));
    Common.m "mpk.wrpkru_per_op" "" (per d.Tap.wrpkru_ns /. float_of_int wrpkru_ns);
    Common.m "mpk.wrpkru_ns_per_op" "" (per d.Tap.wrpkru_ns);
    Common.m "simcore.ctx_switches_per_op" "" (per d.Tap.ctx_switches);
    Common.m "simcore.host_us_per_ctx_switch" "" host_us_per_ctx ]

let host_us_per_ctx (d : Tap.snap) =
  Common.ratio (d.Tap.host *. 1e6) (float_of_int d.Tap.ctx_switches)

let core_rows (s : Shim.t) =
  [ pct_or_absent "core.alloc_p50_ns" s.Shim.alloc_h 50.;
    pct_or_absent "core.alloc_p99_ns" s.Shim.alloc_h 99.;
    pct_or_absent "core.free_p50_ns" s.Shim.free_h 50.;
    pct_or_absent "core.free_p99_ns" s.Shim.free_h 99.;
    pct_or_absent "core.tx_p50_ns" s.Shim.tx_h 50. ]

(* ---------- alloc-churn ---------- *)

let churn ~seed ~deadline ~trace gates =
  let sub i = Common.sub_seed seed (20 + i) in
  if not trace then begin
    let runs = List.init 4 (fun i -> Churn.run ~seed:(sub i) gates) in
    let first = List.hd runs in
    let extra = ref [] in
    while wall () < deadline do
      let r = Churn.run ~seed:(sub 0) gates in
      Common.check gates "alloc-churn: same seed, same simulated result"
        (Churn.fingerprint r = Churn.fingerprint first);
      extra := r :: !extra
    done;
    let pool f =
      let h = Hist.create () in
      List.iter (fun r -> Hist.merge ~into:h (f r)) runs;
      h
    in
    let calls = List.fold_left (fun a r -> a + r.Churn.calls) 0 runs in
    let span = List.fold_left (fun a r -> a + r.Churn.makespan_ns) 0 runs in
    let call_h = pool (fun r -> r.Churn.call_h) and tx_h = pool (fun r -> r.Churn.tx_h) in
    let all = runs @ !extra in
    say "alloc-churn: %d sub-runs (+%d repeats), %d allocator calls" (List.length runs)
      (List.length !extra) calls;
    report_pct "call" call_h;
    report_pct "tx" tx_h;
    if not (Common.resolvable call_h 99.) then
      Common.check gates "alloc-churn: too few calls for a p99" false;
    let ms =
      [ Common.m "capacity_ops_s" "1/s"
          (Common.ratio (float_of_int calls) (float_of_int span /. 1e9));
        Common.m "op_p50_ns" "ns" (Common.percentile call_h 50.);
        Common.m "op_p99_ns" "ns" (Common.percentile call_h 99.);
        Common.m "multi_p50_ns" "ns" (Common.percentile tx_h 50.);
        Common.m "rto_us" "us"
          (Common.iq_mean (List.map (fun r -> float_of_int r.Churn.rto_ns /. 1e3) runs));
        Common.m "space_amp" "ratio"
          (Common.median
             (List.map
                (fun r ->
                  Common.ratio (float_of_int r.Churn.live_bytes)
                    (float_of_int r.Churn.user_bytes))
                runs));
        Common.m "setup_s" "s" (Common.median (List.map (fun r -> r.Churn.setup_host) all)) ]
    in
    let failed = List.fold_left (fun a r -> a + r.Churn.alloc_failures) 0 runs in
    (calls, failed, ms)
  end
  else begin
    let pair () =
      Span.clear ();
      let u = Churn.run ~seed:(sub 0) gates in
      let shim = Shim.create ~note_alloc:false in
      Span.start ();
      let t = Churn.run ~shim ~seed:(sub 0) gates in
      let spans = Span.count () in
      Span.clear ();
      Common.check gates "alloc-churn: traced run = untraced run (simulated)"
        (Churn.fingerprint u = Churn.fingerprint t);
      Common.check gates "alloc-churn: no service, rcache or mvcc spans" (spans = 0);
      (u, t, shim)
    in
    let u, t, shim = pair () in
    let overheads = ref [] and host_ctx = ref [] and host_ops = ref [] in
    let note (u : Churn.result) (t : Churn.result) =
      overheads := Common.ratio t.Churn.churn_host u.Churn.churn_host :: !overheads;
      host_ctx := host_us_per_ctx t.Churn.traffic :: !host_ctx;
      host_ops := Common.ratio (float_of_int u.Churn.calls) u.Churn.churn_host :: !host_ops
    in
    note u t;
    while wall () < deadline do
      let u', t', _ = pair () in
      note u' t'
    done;
    let ops = float_of_int t.Churn.calls in
    let s = t.Churn.stats in
    let ms =
      counter_rows t.Churn.traffic ~ops ~host_us_per_ctx:(Common.median !host_ctx)
      @ core_rows shim
      @ [ Common.m "core.attach_us" "" (float_of_int t.Churn.rto_ns /. 1e3);
          Common.m "core.merges_per_op" "" (Common.ratio (float_of_int s.Poseidon.Heap.merges) ops);
          Common.m "core.hash_extends" "" (float_of_int s.Poseidon.Heap.hash_extends);
          Common.m "core.subheaps_active" "" (float_of_int s.Poseidon.Heap.subheaps_active);
          Common.m "simcore.host_ops_per_s" "" (Common.median !host_ops);
          Common.m "obs.trace_overhead" "" (Common.median !overheads) ]
    in
    (t.Churn.calls, t.Churn.alloc_failures, layer_rows ms)
  end

(* ---------- kv workloads ---------- *)

let kv (spec : Kvwork.spec) ~seed ~deadline ~trace gates =
  let nominal i = Kvwork.nominal spec ~seed ~sub:i in
  if not trace then begin
    let k = spec.Kvwork.subruns in
    let runs = List.init k (fun i -> Kvwork.run_once spec (nominal i) gates) in
    let first = List.hd runs in
    let setups = ref (List.map (fun r -> r.Kvwork.setup_host) runs) in
    let cap =
      Kvwork.capacity spec ~seed gates ~on_probe:(fun r ->
          setups := r.Kvwork.setup_host :: !setups)
    in
    let extra = ref [] in
    while wall () < deadline do
      let r = Kvwork.run_once spec (nominal 0) gates in
      Common.check gates (spec.Kvwork.name ^ ": same seed, same simulated result")
        (Kvwork.fingerprint r = Kvwork.fingerprint first);
      setups := r.Kvwork.setup_host :: !setups;
      extra := r :: !extra
    done;
    let pool f =
      let h = Hist.create () in
      List.iter (fun r -> Hist.merge ~into:h (f r)) runs;
      h
    in
    let op_h = pool (Kvwork.primary_h spec) and multi_h = pool (Kvwork.multi_h spec) in
    say "%s: %d sub-runs (+%d repeats), capacity %.0f req/s in [%.0f, %.0f] after %d probes"
      spec.Kvwork.name k (List.length !extra) cap.Bisect.capacity cap.Bisect.lo
      cap.Bisect.hi (List.length cap.Bisect.probes);
    List.iter
      (fun (rate, o) ->
        say "  probe %.0f req/s: p99 %.0f ns, %d shed" rate o.Bisect.p99 o.Bisect.shed)
      cap.Bisect.probes;
    report_pct "read" (pool (fun r -> r.Kvwork.read_h));
    report_pct "write" (pool (fun r -> r.Kvwork.write_h));
    report_pct "scan" (pool (fun r -> r.Kvwork.scan_h));
    report_pct "txn" (pool (fun r -> r.Kvwork.txn_h));
    if not (Common.resolvable op_h 99.) then
      Common.check gates (spec.Kvwork.name ^ ": too few samples for a p99") false;
    let ms =
      [ Common.m "capacity_ops_s" "1/s" cap.Bisect.capacity;
        Common.m "op_p50_ns" "ns" (Common.percentile op_h 50.);
        Common.m "op_p99_ns" "ns" (Common.percentile op_h 99.);
        Common.m "multi_p50_ns" "ns" (Common.percentile multi_h 50.);
        Common.m "rto_us" "us"
          (Common.iq_mean
             (List.map (fun r -> float_of_int r.Kvwork.res.S.rto_ns /. 1e3) runs));
        Common.m "space_amp" "ratio" (Common.median (List.map Kvwork.space_amp runs));
        Common.m "setup_s" "s" (Common.median !setups) ]
    in
    let offered = List.fold_left (fun a r -> a + r.Kvwork.res.S.offered) 0 runs in
    let failed =
      List.fold_left
        (fun a r -> a + r.Kvwork.res.S.shed + r.Kvwork.res.S.ledger.S.mismatches)
        0 runs
    in
    (offered, failed, ms)
  end
  else begin
    let pair () =
      Span.clear ();
      let u = Kvwork.run_once spec (nominal 0) gates in
      let shim = Shim.create ~note_alloc:(spec.Kvwork.nominal.S.tcache_mag = 0) in
      Span.start ();
      let t = Kvwork.run_once ~shim spec (nominal 0) gates in
      let att = Obs.Attrib.analyze () in
      let sp = Spans.analyze () in
      let dropped = Span.dropped () in
      Span.clear ();
      let n = spec.Kvwork.name in
      Common.check gates (n ^ ": traced run = untraced run (simulated)")
        (Kvwork.fingerprint u = Kvwork.fingerprint t);
      Common.check gates (n ^ ": span store kept every span") (dropped = 0);
      Common.check gates (n ^ ": one closed trace per completed request")
        (att.Obs.Attrib.requests = t.Kvwork.res.S.completed
         && sp.Spans.requests = t.Kvwork.res.S.completed);
      Common.check gates (n ^ ": attribution coverage >= 0.9")
        (att.Obs.Attrib.coverage >= 0.9);
      (u, t, shim, att, sp)
    in
    let u, t, shim, att, sp = pair () in
    let traffic (t : Kvwork.run) =
      match t.Kvwork.traffic with
      | Some d -> d
      | None -> failwith "perfbench: nominal run has no traffic window"
    in
    let overheads = ref [] and host_ctx = ref [] and host_ops = ref [] in
    let note (u : Kvwork.run) (t : Kvwork.run) =
      overheads := Common.ratio t.Kvwork.run_host u.Kvwork.run_host :: !overheads;
      host_ctx := host_us_per_ctx (traffic t) :: !host_ctx;
      host_ops :=
        Common.ratio (float_of_int u.Kvwork.res.S.completed) (traffic u).Tap.host
        :: !host_ops
    in
    note u t;
    while wall () < deadline do
      let u', t', _, _, _ = pair () in
      note u' t'
    done;
    let r = t.Kvwork.res in
    let cfg = t.Kvwork.cfg in
    let ops = float_of_int r.S.completed in
    let per v = Common.ratio v ops in
    let stats = t.Kvwork.heap_stats in
    let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
    (* After a failover the harness publishes the promoted backup's
       cache and version-chain gauges, which say nothing about the
       traffic; a clean run of the same seed supplies the primary's. *)
    let gauge_run =
      if spec.Kvwork.repl = None then t
      else Kvwork.run_once spec { (nominal 0) with S.crash_at = None } gates
    in
    let g name = Option.value ~default:0. (gauge_run.Kvwork.gauges name) in
    let gper v = Common.ratio v (float_of_int gauge_run.Kvwork.res.S.completed) in
    let counters =
      counter_rows (traffic t) ~ops ~host_us_per_ctx:(Common.median !host_ctx)
    in
    let tcache_on = cfg.S.tcache_mag > 0 in
    let tc_hits = sum (fun s -> s.Poseidon.Heap.tcache_hits)
    and tc_miss = sum (fun s -> s.Poseidon.Heap.tcache_misses) in
    if not tcache_on then
      Common.check gates (spec.Kvwork.name ^ ": magazine cache does no work when off")
        (tc_hits = 0. && tc_miss = 0.
         && sum (fun s -> s.Poseidon.Heap.bin_refills) = 0.);
    let tcache =
      if tcache_on then
        [ Common.m "tcache.hit_frac" "" (Common.ratio tc_hits (tc_hits +. tc_miss));
          Common.m "tcache.refills_per_op" "" (per (sum (fun s -> s.Poseidon.Heap.bin_refills)));
          Common.m "tcache.flushes_per_op" "" (per (sum (fun s -> s.Poseidon.Heap.bin_flushes))) ]
      else []
    in
    let depth =
      match t.Kvwork.depth with
      | Some d -> [ Common.m "btree.depth" "" (float_of_int d) ]
      | None -> []
    in
    let chain_max =
      List.init cfg.S.shards (fun i ->
          match
            (gauge_run.Kvwork.shard_gauges i "mvcc_chains",
             gauge_run.Kvwork.shard_gauges i "mvcc_chain_versions")
          with
          | Some c, Some v -> Common.ratio v c
          | _ -> 0.)
      |> List.fold_left Float.max 0.
    in
    let rc_hits = g "rcache_hits" and rc_miss = g "rcache_misses" in
    let txns = float_of_int (r.S.txns_committed + r.S.txns_aborted) in
    let t_stop_s = float_of_int (Kvwork.t_stop_ns cfg) /. 1e9 in
    let service =
      [ Common.m "service.queue_ns" "" (Spans.per_request sp Span.Queue);
        Common.m "service.decode_ns" "" (Spans.per_request sp Span.Decode);
        Common.m "service.lock_wait_ns" "" (Spans.per_request sp Span.Lock_wait);
        Common.m "service.store_ns" "" (Spans.per_request sp Span.Store);
        Common.m "service.persist_ns" "" (Spans.per_request sp Span.Persist);
        Common.m "service.txn_ns" "" (Spans.per_request sp Span.Txn);
        Common.m "service.flush_wait_ns" "" (Spans.per_request sp Span.Flush_wait);
        Common.m "service.alloc_ns" "" (Spans.per_request sp Span.Alloc);
        Common.m "service.handler_p50_ns" "" (Common.percentile t.Kvwork.service_h 50.);
        Common.m "service.queue_max_depth" "" (float_of_int r.S.queue_max_depth) ]
      @ (if txns > 0. then
           [ Common.m "service.txn_abort_frac" ""
               (Common.ratio (float_of_int r.S.txns_aborted) txns) ]
         else [])
      @ [ Common.m "net.req_wire_ns" "" (Spans.per_request sp Span.Req_wire);
          Common.m "net.rep_wire_ns" "" (Spans.per_request sp Span.Rep_wire);
          Common.m "net.gen_lag_frac" ""
            (1. -. Common.ratio (float_of_int r.S.offered) (cfg.S.rate *. t_stop_s)) ]
    in
    let replica =
      match t.Kvwork.repl_res with
      | None -> []
      | Some rr ->
        [ Common.m "replica.repl_ack_ns" "" (Spans.per_request sp Span.Repl_ack);
          Common.m "replica.repl_wire_ns" "" (Spans.per_request sp Span.Repl_wire);
          Common.m "replica.backup_apply_ns" "" (Spans.per_request sp Span.Backup_apply);
          Common.m "replica.ack_wire_ns" "" (Spans.per_request sp Span.Ack_wire);
          Common.m "replica.max_lag" "" (float_of_int rr.S.max_lag);
          Common.m "replica.retransmits" "" (float_of_int rr.S.retransmits);
          Common.m "replica.frames_per_mutation" ""
            (Common.ratio (float_of_int rr.S.link_flushes) (float_of_int rr.S.shipped));
          Common.m "replica.tail_replayed" "" (float_of_int rr.S.tail_replayed) ]
    in
    let ms =
      counters @ core_rows shim
      @ (match t.Kvwork.attach_ns with
         | Some ns -> [ Common.m "core.attach_us" "" (float_of_int ns /. 1e3) ]
         | None -> [])
      @ [ Common.m "core.merges_per_op" "" (per (sum (fun s -> s.Poseidon.Heap.merges)));
          Common.m "core.hash_extends" "" (sum (fun s -> s.Poseidon.Heap.hash_extends));
          Common.m "core.subheaps_active" "" (sum (fun s -> s.Poseidon.Heap.subheaps_active)) ]
      @ tcache @ depth
      @ [ Common.m "mvcc.snapshot_ns" "" (Spans.per_span sp Span.Snapshot);
          Common.m "mvcc.truncated_reads" "" (g "mvcc_truncated_reads");
          Common.m "mvcc.chain_len_max" "" chain_max;
          Common.m "rcache.hit_frac" "" (Common.ratio rc_hits (rc_hits +. rc_miss));
          Common.m "rcache.evictions_per_op" "" (gper (g "rcache_evictions"));
          Common.m "rcache.invalidations_per_op" "" (gper (g "rcache_invalidations"));
          Common.m "rcache.probe_ns" "" (Spans.per_span sp Span.Rcache) ]
      @ service @ replica
      @ [ Common.m "simcore.host_ops_per_s" "" (Common.median !host_ops);
          Common.m "obs.trace_overhead" "" (Common.median !overheads);
          Common.m "obs.attrib_coverage" "" att.Obs.Attrib.coverage ]
    in
    (r.S.offered, r.S.shed + r.S.ledger.S.mismatches, layer_rows ms)
  end

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME alloc-churn | kv-write-repl | kv-read-local");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run") ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  (* A tighter major-GC pace than the default 120: the peak resident
     size (peak_host_mb) then follows the live data instead of where
     the collector's cycle stood when a large run began. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 40 };
  let deadline = wall () +. float_of_int !seconds in
  let gates = Common.gates () in
  let trace = !trace = 1 in
  let attempted, failed, ms =
    match !workload with
    | "alloc-churn" -> churn ~seed:!seed ~deadline ~trace gates
    | "kv-write-repl" -> kv Kvwork.write_repl ~seed:!seed ~deadline ~trace gates
    | "kv-read-local" -> kv Kvwork.read_local ~seed:!seed ~deadline ~trace gates
    | w ->
      Printf.eprintf "unknown workload %S\n%s\n" w usage;
      exit 2
  in
  let bad =
    List.filter (fun (x : Common.metric) -> not (Float.is_finite x.Common.value)) ms
  in
  List.iter
    (fun (x : Common.metric) -> Common.check gates (x.Common.name ^ " is finite") false)
    bad;
  let gate_failures = List.length gates.Common.failures in
  let correct = gate_failures = 0 && failed = 0 in
  emit ~correct ~attempted:(max 1 attempted) ~failed:(failed + gate_failures)
    (List.filter (fun (x : Common.metric) -> Float.is_finite x.Common.value) ms);
  if not correct then exit 1

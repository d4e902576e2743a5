(* The two serving workloads: write-heavy with synchronous
   primary/backup replication, and read-heavy on one machine.  Each
   sub-run is one [Server.run] / [Server.run_replicated] on inputs
   drawn from the seed argument; the benchmark reads everything back
   through the harness results, the heaps it hands to [make], the
   machines' counters and the metrics registry. *)

module S = Service.Server
module Heap = Poseidon.Heap
module Hist = Obs.Hist
module Sched = Simcore.Sched
module A = Alloc_intf

type spec = {
  name : string;
  nominal : S.config; (* seed and scope are set per sub-run *)
  repl : S.repl_config option;
  primary : [ `Read | `Write ]; (* the op class the p99 limit applies to *)
  subruns : int; (* nominal-rate sub-runs, each on its own sub-seed *)
  limit_ns : float; (* capacity: p99 limit of the primary op class *)
  probe_duration : float; (* simulated seconds of the first capacity probe *)
  prior_rps : float; (* first capacity probe *)
}

(* Write path of every layer.  Zipf 0.6 over 64 Ki keys with 1024
   cache slots per shard: the keyspace is far larger than the read
   cache.  4 Ki keys are preloaded on both machines, which keeps a
   sub-run near half a host second: a failover's cost varies from one
   crash to the next with the state of the magazine bins, and 24
   short sub-runs give a steady figure.  Capacity: write p99 <= 500 us. *)
let write_repl =
  { name = "kv-write-repl";
    nominal =
      { S.default_config with
        S.shards = 4; clients = 32; rate = 35_000.; duration = 0.01;
        value_size = 512; keyspace = 65536; zipf_theta = 0.6;
        read_pct = 15; delete_pct = 10; scan_pct = 0; txn_pct = 15;
        txn_ops = 3; preload = 4096; crash_at = Some 0.9;
        batch_window = 4; tcache_mag = 8; mvcc_window = 4;
        rcache_entries = 1024 };
    repl = Some S.default_repl_config;
    primary = `Write;
    subruns = 24;
    limit_ns = 500_000.;
    probe_duration = 0.4;
    prior_rps = 56_000. }

(* Read path.  Zipf 0.99 over 32 Ki preloaded keys: the hot set fits
   in the read cache, the keyspace does not.  The write path keeps its
   defaults (batch window 1, no magazine cache).  Each shard queues up
   to 256 requests (the default is 64), so the burst while the read
   cache warms at the start of a capacity probe queues instead of
   shedding, and the steady-state read p99 (see [steady_latencies])
   decides the knee: read p99 <= 50 us. *)
let read_local =
  { name = "kv-read-local";
    nominal =
      { S.default_config with
        S.shards = 4; clients = 32; rate = 600_000.; duration = 0.02;
        value_size = 256; keyspace = 32768; zipf_theta = 0.99;
        read_pct = 90; delete_pct = 0; scan_pct = 5; txn_pct = 0;
        preload = 32768; crash_at = Some 0.9; mvcc_window = 4;
        rcache_entries = 1024; queue_capacity = 256 };
    repl = None;
    primary = `Read;
    subruns = 2;
    limit_ns = 50_000.;
    probe_duration = 0.02;
    prior_rps = 1_950_000. }

type run = {
  cfg : S.config;
  res : S.result;
  repl_res : S.repl_result option;
  read_h : Hist.t;
  write_h : Hist.t;
  scan_h : Hist.t;
  txn_h : Hist.t;
  service_h : Hist.t;
  setup_host : float; (* call until traffic starts, reference-host s *)
  run_host : float; (* the whole call, reference-host s *)
  traffic : Tap.snap option; (* counters from traffic start to the cut *)
  heap_stats : Heap.stats list; (* of every heap [make] built; traced runs *)
  depth : int option; (* deepest shard tree of the serving store; traced runs *)
  attach_ns : int option; (* simulated Heap.attach time on restart *)
  keys : int; (* keys in the serving store at the end *)
  live_bytes : int; (* serving heap *)
  gauges : string -> float option; (* registry gauges of the run *)
  shard_gauges : int -> string -> float option;
}

let scope = "perfbench"

(* Sim-clock fingerprint of a sub-run: equal on a fixed seed, whatever
   tracing or host speed. *)
let fingerprint r =
  let p (x : S.percentiles) =
    Printf.sprintf "%d/%d/%d/%.3f/%d/%d" x.S.p50 x.S.p99 x.S.p999 x.S.mean x.S.max
      x.S.samples
  in
  let b = r.res in
  String.concat ","
    [ string_of_int b.S.offered; string_of_int b.S.admitted;
      string_of_int b.S.shed; string_of_int b.S.completed;
      string_of_int b.S.acked_mutations; string_of_int b.S.sim_ns;
      string_of_int b.S.rto_ns; p b.S.latency; p b.S.service;
      p b.S.read_latency; p b.S.write_latency; p b.S.scan_latency;
      p b.S.txn_latency; string_of_int b.S.ledger.S.checked;
      string_of_int b.S.ledger.S.mismatches; string_of_int b.S.txns_aborted;
      string_of_int b.S.queue_max_depth; string_of_int r.keys;
      string_of_int r.live_bytes ]

let t_stop_ns (c : S.config) =
  let d = int_of_float (c.S.duration *. 1e9) in
  match c.S.crash_at with
  | Some f -> min d (max 1 (int_of_float (f *. float_of_int d)))
  | None -> d

(* Depth of the store's deepest shard tree.  Trees are reached through
   the store's superroot, whose persistent format lib/service/kv.ml
   documents: magic word, geometry word (shard count in the low 16
   bits), then one 64-byte record per shard from byte 128, each
   starting with the packed root of the shard's tree.  [None] when the
   magic differs, i.e. the format moved on. *)
let kv_magic = 0x00504F534B560004

let tree_depth heap =
  let inst = Poseidon.instance heap in
  let mach = A.instance_machine inst in
  let root = A.i_get_root inst in
  let raw = A.i_get_rawptr inst root in
  if Machine.read_u64 mach raw <> kv_magic then None
  else
    let shards = Machine.read_u64 mach (raw + 8) land 0xFFFF in
    let depth i =
      let cell = raw + 128 + (64 * i) in
      let t =
        Btree.attach_in inst
          { Btree.load =
              (fun () ->
                A.unpack ~heap_id:root.A.heap_id (Machine.read_u64 mach cell));
            store = (fun _ -> invalid_arg "read-only root cell") }
      in
      Btree.tree_depth t
    in
    Some (List.fold_left max 0 (List.init shards depth))

(* [run_once spec cfg]: one sub-run.  [shim] (traced runs) wraps every
   allocator instance the harness receives. *)
let run_once ?shim spec (cfg : S.config) gates =
  Obs.Metrics.reset ();
  (* every sub-run starts from the same compacted host heap *)
  Gc.compact ();
  let cfg = { cfg with S.scope } in
  let tap = Tap.create () in
  let stop_at = Option.map (fun _ -> t_stop_ns cfg) cfg.S.crash_at in
  let heaps = ref [] and serving = ref None and attach_ns = ref None in
  let wrap h =
    let i = Poseidon.instance h in
    match shim with Some s -> Shim.wrap s i | None -> i
  in
  let build mach =
    Tap.add tap ?stop_at mach;
    let h = Common.new_heap mach in
    heaps := !heaps @ [ h ];
    wrap h
  in
  let scale0 = Common.host_scale () in
  let host0 = Common.host_s () in
  let res, repl_res =
    match spec.repl with
    | None ->
      let make () =
        let mach = Machine.create () in
        (mach, build mach)
      in
      let reattach mach =
        let t0 = Sched.now () in
        let h = Heap.attach mach ~base:Common.heap_base () in
        attach_ns := Some (Sched.now () - t0);
        serving := Some h;
        wrap h
      in
      (S.run ~make ~reattach cfg, None)
    | Some rcfg ->
      let rr = S.run_replicated ~make:build cfg rcfg in
      (rr.S.base, Some rr)
  in
  let run_host = Common.host_s () -. host0 in
  let scale = (scale0 +. Common.host_scale ()) /. 2. in
  let serving =
    match (!serving, !heaps) with
    | Some h, _ -> h (* re-attached after the crash *)
    | None, [ _; backup ] when cfg.S.crash_at <> None -> backup (* promoted *)
    | None, h :: _ -> h
    | None, [] -> failwith "Kvwork: make was never called"
  in
  let hist name =
    match Obs.Metrics.get_log_histogram ~scope name with
    | Some h -> Common.copy_hist h
    | None -> Hist.create ()
  in
  let gauges = Hashtbl.create 32 in
  let shards = Hashtbl.create 32 in
  List.iter
    (fun name ->
      Option.iter (Hashtbl.replace gauges name)
        (Obs.Metrics.get_gauge ~scope name))
    [ "mvcc_truncated_reads"; "rcache_hits"; "rcache_misses";
      "rcache_evictions"; "rcache_invalidations" ];
  for i = 0 to cfg.S.shards - 1 do
    List.iter
      (fun name ->
        Option.iter
          (Hashtbl.replace shards (i, name))
          (Obs.Metrics.get_gauge ~scope:(Printf.sprintf "%s/shard%d" scope i) name))
      [ "mvcc_chains"; "mvcc_chain_versions" ]
  done;
  (* the serving store, reopened read-side through the public API *)
  let store, _ = Service.Kv.attach (Poseidon.instance serving) in
  let keys = Service.Kv.count_keys store in
  let fsck = Poseidon.Fsck.run serving in
  let live_bytes = fsck.Poseidon.Fsck.total_live_bytes in
  let b = res in
  let n = spec.name in
  Common.check gates (n ^ ": zero ledger mismatches") (b.S.ledger.S.mismatches = 0);
  Common.check gates (n ^ ": fsck clean on the serving heap")
    (Poseidon.Fsck.is_clean fsck);
  Common.check gates (n ^ ": offered = admitted + shed")
    (b.S.offered = b.S.admitted + b.S.shed);
  Common.check gates (n ^ ": admitted = completed + in flight at the cut")
    (b.S.completed <= b.S.admitted
     && (cfg.S.crash_at <> None || b.S.completed = b.S.admitted));
  Common.check gates (n ^ ": store structure")
    (try Service.Kv.check store; true with Failure _ -> false);
  Option.iter
    (fun rr ->
      Option.iter
        (fun (l : S.ledger_report) ->
          Common.check gates (n ^ ": backup converged to the ledger")
            (l.S.mismatches = 0))
        rr.S.backup_ledger)
    repl_res;
  { cfg; res; repl_res;
    read_h = hist "read_latency_ns";
    write_h = hist "write_latency_ns";
    scan_h = hist "scan_latency_ns";
    txn_h = hist "txn_latency_ns";
    service_h = hist "service_ns";
    setup_host = (Tap.start_host tap -. host0) *. scale;
    run_host = run_host *. scale;
    traffic =
      (match (tap.Tap.start, tap.Tap.stop) with
       | Some _, Some _ ->
         let d = Tap.traffic tap in
         Some { d with Tap.host = d.Tap.host *. scale }
       | _ -> None);
    (* per-layer figures, which only the traced run reports: each
       walks a whole heap *)
    heap_stats = (if shim = None then [] else List.map Heap.stats !heaps);
    depth = (if shim = None then None else tree_depth serving);
    attach_ns = !attach_ns;
    keys;
    live_bytes;
    gauges = Hashtbl.find_opt gauges;
    shard_gauges = (fun i name -> Hashtbl.find_opt shards (i, name)) }

let primary_h spec r = match spec.primary with `Read -> r.read_h | `Write -> r.write_h

(* the workload's multi-key operation: 16-key scans on the read
   workload, committed 3-op transactions on the write workload *)
let multi_h spec r = match spec.primary with `Read -> r.scan_h | `Write -> r.txn_h

let nominal spec ~seed ~sub =
  { spec.nominal with S.seed = Common.sub_seed seed (10 + sub) }

(* Latencies of the primary op class among requests sent after the
   first quarter of a probe, read from the span store: a cold read
   cache makes the first milliseconds of every probe a transient whose
   tail, not the steady state, would otherwise set the p99.  A get
   probes the read cache (an Rcache span); a write takes no snapshot. *)
let steady_latencies spec ~after =
  let module Span = Obs.Span in
  let roots = Hashtbl.create 4096 and snap = Hashtbl.create 4096
  and probe = Hashtbl.create 4096 in
  Span.iter (fun ~id:_ ~trace ~parent ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      match stage with
      | Span.Request when parent < 0 -> Hashtbl.replace roots trace (t0, t1)
      | Span.Snapshot -> Hashtbl.replace snap trace ()
      | Span.Rcache -> Hashtbl.replace probe trace ()
      | _ -> ());
  let h = Hist.create () in
  Hashtbl.iter
    (fun trace (t0, t1) ->
      let primary =
        match spec.primary with
        | `Read -> Hashtbl.mem probe trace
        | `Write -> not (Hashtbl.mem snap trace)
      in
      if primary && t0 >= after then Hist.record h (t1 - t0))
    roots;
  h

(* capacity: bisection on the offered rate of one seed, no crash.
   Every probe offers as many requests as the first, so a probe far
   above [prior_rps] costs no more host time and fills the span store
   no further.  Tracing changes no simulated figure (the traced run
   checks it), so a probe may record spans to know when each request
   was sent. *)
let capacity spec ~seed gates ~on_probe =
  let duration rate = spec.probe_duration *. spec.prior_rps /. rate in
  let cfg rate =
    { spec.nominal with
      S.seed = Common.sub_seed seed 1;
      rate;
      duration = duration rate;
      crash_at = None }
  in
  let r =
    Bisect.search ~limit:spec.limit_ns ~start:spec.prior_rps (fun rate ->
      Obs.Span.clear ();
      Obs.Span.start ~capacity:(1 lsl 19) ();
      let r = run_once spec (cfg rate) gates in
      let h = steady_latencies spec ~after:(int_of_float (duration rate *. 1e9 /. 4.)) in
      let dropped = Obs.Span.dropped () in
      Obs.Span.clear ();
      on_probe r;
      Common.check gates (spec.name ^ ": capacity probe kept every span")
        (dropped = 0);
      if not (Common.resolvable h 99.) then
        Common.check gates (spec.name ^ ": capacity probe too short for a p99") false;
      { Bisect.p99 = Common.percentile h 99.; shed = r.res.S.shed })
  in
  (* a knee outside the searched range is no measurement: [prior_rps]
     needs moving *)
  Common.check gates
    (Printf.sprintf "%s: capacity knee within %.2fx of %.0f req/s" spec.name
       Bisect.range spec.prior_rps)
    r.Bisect.bracketed;
  r

let space_amp r =
  Common.ratio (float_of_int r.live_bytes)
    (float_of_int (r.keys * r.cfg.S.value_size))

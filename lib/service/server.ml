module Sched = Simcore.Sched
module Prng = Repro_util.Prng
module Zipf = Repro_util.Zipf
module Hist = Obs.Hist

type config = {
  shards : int;
  clients : int;
  rate : float;
  duration : float;
  value_size : int;
  keyspace : int;
  zipf_theta : float;
  read_pct : int;
  delete_pct : int;
  scan_pct : int;
  txn_pct : int;
  txn_ops : int;
  queue_capacity : int;
  preload : int;
  crash_at : float option;
  seed : int;
  scope : string;
  batch_window : int;
  batch_bytes : int;
  mvcc_window : int;
  tcache_mag : int;
  rcache_entries : int;
}

let default_config =
  { shards = 4;
    clients = 16;
    rate = 50_000.;
    duration = 0.02;
    value_size = 128;
    keyspace = 4096;
    zipf_theta = 0.99;
    read_pct = 50;
    delete_pct = 10;
    scan_pct = 5;
    txn_pct = 0;
    txn_ops = 3;
    queue_capacity = 64;
    preload = 2048;
    crash_at = None;
    seed = 42;
    scope = "service";
    batch_window = 1;
    batch_bytes = 0;
    mvcc_window = 0;
    tcache_mag = 0;
    rcache_entries = 0 }

type op_kind = KGet | KPut | KDel | KScan | KTxn

type req = {
  rid : int;
  client : int;
  kind : op_kind;
  key : int; (* a transaction's first key: it is sent to that shard *)
  vseed : int;
  ops : Kv.txn_op list; (* KTxn only; [] otherwise *)
}

type payload =
  | Req of req
  | Rep of { rid : int; ok : bool; mutated : bool; fin : int }

(* client-side record of a request awaiting its reply; the reply
   carries the request's trace id and root span back *)
type pending = { p_req : req; p_sent : int }

let txn_op_key = function Kv.Tput { key; _ } | Kv.Tdel { key } -> key

(* the store mutations a request asks for, in order ([] for a read) *)
let mutations r =
  match r.kind with
  | KPut -> [ Kv.Tput { key = r.key; vseed = r.vseed } ]
  | KDel -> [ Kv.Tdel { key = r.key } ]
  | KTxn -> r.ops
  | KGet | KScan -> []

let repl_op = function
  | Kv.Tput { key; vseed } -> Replica.Put { key; vseed }
  | Kv.Tdel { key } -> Replica.Del { key }

(* a commit-group member after decode: the message, its request, its
   decode-start time and its still-open store span *)
type gmember = {
  g_msg : payload Net.msg;
  g_req : req;
  g_t0 : int;
  g_store : int;
}

type percentiles = {
  p50 : int;
  p99 : int;
  p999 : int;
  mean : float;
  max : int;
  samples : int;
}

let percentiles_of h =
  { p50 = Hist.percentile h 50.;
    p99 = Hist.percentile h 99.;
    p999 = Hist.percentile h 99.9;
    mean = Hist.mean h;
    max = Hist.max_value h;
    samples = Hist.count h }

type ledger_report = { checked : int; ambiguous : int; mismatches : int }

type result = {
  offered : int;
  admitted : int;
  shed : int;
  completed : int;
  acked_mutations : int;
  sim_ns : int;
  throughput : float;
  goodput : float;
  latency : percentiles;
  service : percentiles;
  crashed : bool;
  rto_ns : int;
  recovery : Kv.recovery option;
  ledger : ledger_report;
  in_flight_at_crash : int;
  queue_max_depth : int;
  txns_committed : int;
  txns_aborted : int;
  txn_latency : percentiles;
  read_latency : percentiles;
  write_latency : percentiles;
  scan_latency : percentiles;
  ops_read : int;
  ops_write : int;
  ops_scan : int;
}

(* ---------- replicated serving: primary + backup on two machines ---------- *)

type repl_config = {
  repl_mode : Replica.mode;
  wire_ns : int;
  repl_window : int;
  retransmit_ns : int;
  link_drop_pct : int;
  link_dup_pct : int;
}

let default_repl_config =
  { repl_mode = Replica.Sync;
    wire_ns = 20_000;
    repl_window = 64;
    retransmit_ns = 120_000;
    link_drop_pct = 0;
    link_dup_pct = 0 }

type repl_result = {
  base : result;
  shipped : int;
  acked_records : int;
  retransmits : int;
  max_lag : int;
  link_dropped : int;
  link_duplicated : int;
  link_flushes : int;
  backup_applied : int;
  tail_replayed : int;
  indoubt_aborted : int;
  backup_ledger : ledger_report option;
  sync : bool;
}

(* ---------- durability backends ---------- *)

(* The backup side of a replicated run: a second machine on the same
   engine with its own store, the inter-machine link, the primary's
   shipper and the backup's applier. *)
type replica = {
  sync : bool;
  backup : Machine.t;
  svc_b : Kv.t;
  tch_b : Tcache.handle option;
  link : Replica.msg Cluster.Link.t;
  shipper : Replica.Shipper.t;
  applier : Replica.Applier.t;
  lag_h : Hist.t; (* ship -> applied latency, seen at the backup *)
}

(* [Local reattach]: an acked mutation is durable on the serving
   machine; a crash re-attaches its heap and replays the store.
   [Replicated]: every mutation also ships to the backup inside its
   critical section; a crash loses the primary and promotes the
   backup. *)
type backend =
  | Local of (Machine.t -> Alloc_intf.instance)
  | Replicated of replica

let validate who cfg =
  let bad msg = invalid_arg (who ^ ": " ^ msg) in
  if cfg.shards < 1 || cfg.clients < 1 then
    bad "shards and clients must be >= 1";
  if cfg.rate <= 0. || cfg.duration <= 0. then
    bad "rate and duration must be positive";
  if cfg.read_pct + cfg.delete_pct + cfg.scan_pct + cfg.txn_pct > 100 then
    bad "op mix exceeds 100%";
  if cfg.txn_ops < 1 || cfg.txn_ops > Kv.max_txn_ops then
    bad "txn_ops out of range";
  if cfg.batch_window < 1 then bad "batch_window < 1";
  if cfg.batch_bytes < 0 then bad "batch_bytes < 0";
  if cfg.mvcc_window < 0 then bad "mvcc_window < 0";
  if cfg.tcache_mag < 0 then bad "tcache_mag < 0";
  if cfg.rcache_entries < 0 then bad "rcache_entries < 0";
  match cfg.crash_at with
  | Some f when f <= 0. || f >= 1. -> bad "crash_at must be in (0, 1)"
  | _ -> ()

let check_cpus who cfg ncpu =
  if cfg.shards > ncpu then invalid_arg (who ^ ": more shards than CPUs")

let wrap_tcache cfg inst =
  if cfg.tcache_mag > 0 then
    let i, t = Tcache.wrap ~mag:cfg.tcache_mag inst in
    (i, Some t)
  else (inst, None)

let create_store cfg inst =
  Kv.create ~mvcc_window:cfg.mvcc_window ~rcache_entries:cfg.rcache_entries
    inst ~shards:cfg.shards ~value_size:cfg.value_size

(* durable baseline: keys 1..preload put into every store (key by key,
   in lockstep) and drained, so they are in the ledger from the start *)
let preload who cfg stores machines =
  for k = 1 to min cfg.preload cfg.keyspace do
    if not (List.for_all (fun s -> Kv.put s ~key:k ~vseed:k) stores) then
      failwith (who ^ ": preload exhausted the heap")
  done;
  List.iter (fun m -> Nvmm.Memdev.drain (Machine.dev m)) machines

(* ---------- the request pipeline ---------- *)

(* Serves [cfg]'s traffic against [svc] (on [mach], its allocator's
   magazine cache [tch]) with durability from [backend]; returns the
   run's result and, for [Replicated], the replication result. *)
let serve cfg ~mach ~svc ~tch backend =
  let ncpu = (Machine.cfg mach).Machine.Config.num_cpus in
  let preload_n = min cfg.preload cfg.keyspace in
  let duration_ns = int_of_float (cfg.duration *. 1e9) in
  let t_crash =
    Option.map
      (fun f -> max 1 (int_of_float (f *. float_of_int duration_ns)))
      cfg.crash_at
  in
  let t_stop = match t_crash with Some c -> min c duration_ns | None -> duration_ns in
  let grace_ns = 5_000_000 in

  (* ports 0..shards-1: shard request queues (the admission bound);
     ports shards..shards+clients-1: client reply queues (generous) *)
  let reply_cap = max 1024 (4 * cfg.queue_capacity) in
  let client_cpu j =
    if cfg.shards >= ncpu then j mod ncpu
    else cfg.shards + (j mod (ncpu - cfg.shards))
  in
  let ports =
    Array.init (cfg.shards + cfg.clients) (fun i ->
        if i < cfg.shards then (i, cfg.queue_capacity)
        else (client_cpu (i - cfg.shards), reply_cap))
  in
  let net : payload Net.t = Net.create mach ~ports ~poll_ns:2_000 () in

  let offered = ref 0 and admitted = ref 0 and shed = ref 0 in
  let handled = ref 0 and completed = ref 0 and acked_mut = ref 0 in
  let reply_drops = ref 0 in
  let senders = ref cfg.clients in
  let live_servers = ref cfg.shards in
  let txn_commits = ref 0 and txn_aborts = ref 0 in
  let lat_h = Hist.create () and svc_h = Hist.create () in
  let txn_lat_h = Hist.create () in
  (* request latency split by op class, recorded at reply delivery *)
  let read_h = Hist.create ()
  and write_h = Hist.create ()
  and scan_h = Hist.create () in
  (* offered op mix, counted at generation (shed requests included) *)
  let n_read = ref 0 and n_write = ref 0 and n_scan = ref 0 in
  (* acked mutations: (key, Some vseed | None for delete, server finish ns).
     [fin] is captured inside the mutation's critical section (for a
     transaction: the decision record's persist), so per key it orders
     exactly as the store applied the mutations even when single ops
     and cross-shard transactions interleave. *)
  let ledger : (int * int option * int) list ref = ref [] in
  let outstanding : (int, pending) Hashtbl.t array =
    Array.init cfg.clients (fun _ -> Hashtbl.create 64)
  in

  (* ---------- server threads (one per shard) ---------- *)
  let server_end = match t_crash with Some c -> c | None -> max_int in
  (* a sync-mode ack wait gives up at the crash (or past the grace) *)
  let sync_deadline =
    match t_crash with Some c -> c | None -> t_stop + grace_ns
  in
  let batched = cfg.batch_window > 1 in
  let wait_acked rp ~shard ~seq =
    Replica.Shipper.wait_acked rp.shipper ~shard ~seq ~deadline:sync_deadline
  in
  (* the request's hop in, split at the delivery timestamp: pure wire,
     then inbox queue wait (known only at dequeue); then the decode /
     dispatch charge.  Returns the handler's start time. *)
  let ingress (m : payload Net.msg) =
    let t0 = Sched.now () in
    ignore
      (Obs.Span.add_span ~trace:m.trace ~parent:m.span Obs.Span.Req_wire
         ~t0:m.sent_at ~t1:m.delivered_at);
    if t0 > m.delivered_at then
      ignore
        (Obs.Span.add_span ~trace:m.trace ~parent:m.span Obs.Span.Queue
           ~t0:m.delivered_at ~t1:t0);
    let sdec =
      Obs.Span.open_span ~trace:m.trace ~parent:m.span Obs.Span.Decode
    in
    Machine.compute mach 200;
    Obs.Span.close_span sdec;
    t0
  in
  (* a detail stage measured by a mark/since counter, laid out as the
     [ns] ending at [fin] under [parent] *)
  let detail ~trace ~parent ~fin stage ns =
    if ns > 0 then
      ignore (Obs.Span.add_span ~trace ~parent stage ~t0:(fin - ns) ~t1:fin)
  in
  let reply ~trace ~span ~client rep =
    if not (Net.try_send ~trace ~span net ~dst:(cfg.shards + client) rep) then
      incr reply_drops
  in
  (* Replication ships each mutation inside its critical section (right
     after the local persist, before the lock is released), so every
     shard's sequenced stream orders exactly as the store applied the
     mutations.  A committed transaction ships every participant's
     prepare and decide — batched, the records stage in the doorbell
     buffer and leave as one frame, so the decide stops paying its own
     round trip — then holds the participant locks until the backup
     has acked the whole group, in BOTH modes: the streams are shipped
     under these locks, so the wait guarantees the next transaction
     touching one of these shards cannot reach the backup while this
     group's slots are still pending (a decide lagging on one stream
     would let a later prepare collide with the occupied slot). *)
  let ship_txn rp ~trace ~stx res =
    let nparts = List.length res.Kv.participants in
    let ship s op =
      if batched then Replica.Shipper.ship_buffered rp.shipper ~shard:s op
      else Replica.Shipper.ship rp.shipper ~trace ~span:stx ~shard:s op
    in
    let dseqs =
      List.map
        (fun (s, ops) ->
          ignore (ship s (Replica.Txn_prepare { txn = res.Kv.txn_id; ops }));
          ( s,
            ship s
              (Replica.Txn_decide
                 { txn = res.Kv.txn_id; commit = true; nparts }) ))
        res.Kv.participants
    in
    if batched then ignore (Replica.Shipper.flush rp.shipper);
    let sra = Obs.Span.open_span ~trace ~parent:stx Obs.Span.Repl_ack in
    let acked =
      List.for_all (fun (shard, seq) -> wait_acked rp ~shard ~seq) dseqs
    in
    Obs.Span.close_span sra;
    acked
  in
  let server_body i () =
    let handle (m : payload Net.msg) =
      match m.payload with
      | Rep _ -> ()
      | Req r ->
        let trace = m.trace in
        let t0 = ingress m in
        (* replicated only: the single op's shipped seq, and whether a
           committed transaction's records were all acked *)
        let seq = ref None and txn_acked = ref true in
        let ok, mutated, fin =
          match r.kind with
          | KTxn ->
            (* Kv.txn takes every participant's shard lock itself *)
            let stx = Obs.Span.open_span ~trace ~parent:m.span Obs.Span.Txn in
            let pmark = Obs.Span.persist_mark () in
            let amark = Obs.Span.alloc_mark () in
            let on_commit =
              match backend with
              | Local _ -> None
              | Replicated rp ->
                Some (fun res -> txn_acked := ship_txn rp ~trace ~stx res)
            in
            let res = Kv.txn svc r.ops ~trace ~span:stx ?on_commit in
            let pns = Obs.Span.persist_since pmark in
            let ans = Obs.Span.alloc_since amark in
            Obs.Span.close_span stx;
            let now = Sched.now () in
            detail ~trace ~parent:stx ~fin:now Obs.Span.Persist pns;
            detail ~trace ~parent:stx ~fin:now Obs.Span.Alloc ans;
            if res.Kv.committed then incr txn_commits else incr txn_aborts;
            (res.Kv.committed, res.Kv.committed, res.Kv.fin)
          | (KGet | KScan) when cfg.mvcc_window > 0 ->
            (* lock-free snapshot read: no Lock_wait, no shard lock —
               the read minted a timestamp and resolves against the
               version chains (KScan becomes a multi-shard merged
               scan, ordered and consistent at one snapshot) *)
            let ssn =
              Obs.Span.open_span ~trace ~parent:m.span Obs.Span.Snapshot
            in
            let rmark = Obs.Span.rcache_mark () in
            let ts = Kv.snapshot svc in
            let ok =
              match r.kind with
              | KGet -> Kv.snapshot_get svc ~ts ~key:r.key <> None
              | _ ->
                ignore
                  (Kv.snapshot_scan svc ~ts ~from_key:r.key ~n:16
                     (fun _ _ -> ()));
                true
            in
            let rns = Obs.Span.rcache_since rmark in
            let fin = Sched.now () in
            Obs.Span.close_span ssn;
            detail ~trace ~parent:ssn ~fin Obs.Span.Rcache rns;
            (ok, false, fin)
          | _ ->
            let slw =
              Obs.Span.open_span ~trace ~parent:m.span Obs.Span.Lock_wait
            in
            Machine.Lock.with_lock (Kv.shard_lock svc i) (fun () ->
                Obs.Span.close_span slw;
                let sst =
                  Obs.Span.open_span ~trace ~parent:m.span Obs.Span.Store
                in
                let pmark = Obs.Span.persist_mark () in
                let amark = Obs.Span.alloc_mark () in
                let rmark = Obs.Span.rcache_mark () in
                let ok, mutated =
                  match r.kind with
                  | KGet -> (Kv.get svc ~key:r.key <> None, false)
                  | KPut ->
                    let ok = Kv.put svc ~key:r.key ~vseed:r.vseed in
                    (ok, ok)
                  | KDel ->
                    let ok = Kv.delete svc ~key:r.key in
                    (ok, ok)
                  | KScan ->
                    ignore (Kv.scan svc ~from_key:r.key ~n:16);
                    (true, false)
                  | KTxn -> assert false
                in
                (match backend, mutations r with
                 | Replicated rp, [ op ] when mutated ->
                   seq :=
                     Some
                       (Replica.Shipper.ship rp.shipper ~trace ~span:sst
                          ~shard:i (repl_op op))
                 | _ -> ());
                let pns = Obs.Span.persist_since pmark in
                let ans = Obs.Span.alloc_since amark in
                let rns = Obs.Span.rcache_since rmark in
                let fin = Sched.now () in
                Obs.Span.close_span sst;
                detail ~trace ~parent:sst ~fin Obs.Span.Persist pns;
                detail ~trace ~parent:sst ~fin Obs.Span.Alloc ans;
                detail ~trace ~parent:sst ~fin Obs.Span.Rcache rns;
                (ok, mutated, fin))
        in
        (* Sync mode holds the reply until the backup's cumulative ack
           covers every shipped record — an acked mutation (single op
           or whole transaction) must survive primary loss.  On wait
           timeout (crash boundary) the reply is withheld: the client
           keeps the request outstanding and verification treats its
           keys as ambiguous rather than guaranteed, which is what
           makes a promote-time presumed-abort of a half-delivered
           transaction safe. *)
        let replied =
          match backend, !seq with
          | Local _, _ -> true
          | Replicated rp, _ when r.kind = KTxn -> (not rp.sync) || !txn_acked
          | Replicated rp, Some seq when rp.sync ->
            let sra =
              Obs.Span.open_span ~trace ~parent:m.span Obs.Span.Repl_ack
            in
            let acked = wait_acked rp ~shard:i ~seq in
            Obs.Span.close_span sra;
            acked
          | Replicated _, _ -> true
        in
        incr handled;
        Hist.record svc_h (Sched.now () - t0);
        if replied then
          reply ~trace ~span:m.span ~client:r.client
            (Rep { rid = r.rid; ok; mutated; fin })
    in
    (* Group commit (batch_window > 1): consecutive already-queued
       single-key mutations drain into one commit group executed by
       [Kv.group_commit] — one covering persist chain per chunk
       instead of per op.  Collection is greedy over the inbox, no
       timers: while one group persists, more requests queue behind
       it, so the batch size self-tunes to the offered load.  A read
       or transaction ends collection and is handled, in arrival
       order, by the unbatched path.  Replicated, the group's records
       stage in the link's doorbell buffer and leave as one frame per
       chunk, and sync mode pays ONE ack wait for the whole group —
       each member's wait shows up as a Flush_wait span (waiting for
       the covering flush), not as queueing behind its predecessors'
       round trips. *)
    let is_group_member = function
      | Req { kind = KPut | KDel; _ } -> true
      | _ -> false
    in
    let op_bytes = function
      | Req { kind = KPut; _ } -> 24 + cfg.value_size
      | _ -> 24
    in
    let rec gather acc n bytes =
      if
        n >= cfg.batch_window
        || (cfg.batch_bytes > 0 && bytes >= cfg.batch_bytes)
      then (List.rev acc, None)
      else
        match Net.recv net ~port:i with
        | Some m when is_group_member m.Net.payload ->
          gather (m :: acc) (n + 1) (bytes + op_bytes m.Net.payload)
        | Some m -> (List.rev acc, Some m)
        | None -> (List.rev acc, None)
    in
    let handle_group msgs =
      (* per-request ingress spans and decode; each request's store
         span opens at its own decode end and closes at the group's
         commit, so the shared group-execution interval partitions
         every member's latency budget *)
      let members =
        List.map
          (fun (m : payload Net.msg) ->
            let r =
              match m.Net.payload with Req r -> r | Rep _ -> assert false
            in
            let t0 = ingress m in
            let sst =
              Obs.Span.open_span ~trace:m.Net.trace ~parent:m.Net.span
                Obs.Span.Store
            in
            { g_msg = m; g_req = r; g_t0 = t0; g_store = sst })
          msgs
      in
      let ops = List.concat_map (fun g -> mutations g.g_req) members in
      (* replicated: ship inside the shard lock, per chunk, as one
         doorbell frame *)
      let last_seq = ref (-1) in
      let on_chunk =
        match backend with
        | Local _ -> None
        | Replicated rp ->
          Some
            (fun ~fin:_ cops ->
              List.iter
                (fun op ->
                  last_seq :=
                    Replica.Shipper.ship_buffered rp.shipper ~shard:i
                      (repl_op op))
                cops;
              ignore (Replica.Shipper.flush rp.shipper))
      in
      let results = Kv.group_commit svc ~shard:i ops ?on_chunk in
      (* Local: each member's store span closes as its reply goes out.
         Replicated: all close at the commit, and one cumulative ack
         wait covers every member of the group. *)
      let replied =
        match backend with
        | Local _ -> true
        | Replicated rp ->
          List.iter (fun g -> Obs.Span.close_span g.g_store) members;
          if (not rp.sync) || !last_seq < 0 then true
          else begin
            let waits =
              List.map
                (fun g ->
                  Obs.Span.open_span ~trace:g.g_msg.Net.trace
                    ~parent:g.g_msg.Net.span Obs.Span.Flush_wait)
                members
            in
            let acked = wait_acked rp ~shard:i ~seq:!last_seq in
            List.iter Obs.Span.close_span waits;
            acked
          end
      in
      List.iter2
        (fun g (ok, fin) ->
          (match backend with
           | Local _ -> Obs.Span.close_span g.g_store
           | Replicated _ -> ());
          incr handled;
          Hist.record svc_h (Sched.now () - g.g_t0);
          if replied then
            reply ~trace:g.g_msg.Net.trace ~span:g.g_msg.Net.span
              ~client:g.g_req.client
              (Rep { rid = g.g_req.rid; ok; mutated = ok; fin }))
        members results
    in
    let handle_batched m =
      if is_group_member m.Net.payload then begin
        let group, leftover = gather [ m ] 1 (op_bytes m.Net.payload) in
        handle_group group;
        match leftover with Some m' -> handle m' | None -> ()
      end
      else handle m
    in
    (* batch_window = 1 hands every request to [handle] (the per-op
       path); above 1 mutations go through [handle_batched] *)
    let handle_msg = if batched then handle_batched else handle in
    let rec loop () =
      if Sched.now () >= server_end then ()
      else
        match Net.recv net ~port:i with
        | Some m ->
          handle_msg m;
          loop ()
        | None ->
          if !senders = 0 && Net.pending net ~port:i = 0 then ()
          else begin
            let until = min server_end (Sched.now () + 100_000) in
            Option.iter handle_msg (Net.recv_wait net ~port:i ~until);
            loop ()
          end
    in
    loop ();
    decr live_servers
  in

  (* ---------- client threads ---------- *)
  let zipf = Zipf.create ~theta:cfg.zipf_theta cfg.keyspace in
  let client_body j () =
    let rng = Prng.create (cfg.seed + (7919 * (j + 1))) in
    (* a transaction's keys: distinct draws from the same zipfian
       popularity; ~1 in 4 ops is a strict delete, so transactions
       abort at a real rate once a hot key is already gone *)
    let gen_txn_ops rid =
      let rec pick ks n guard =
        if n = 0 || guard = 0 then List.rev ks
        else
          let k = 1 + Zipf.scrambled zipf rng in
          if List.mem k ks then pick ks n (guard - 1)
          else pick (k :: ks) (n - 1) (guard - 1)
      in
      List.mapi
        (fun idx k ->
          if Prng.int rng 100 < 25 then Kv.Tdel { key = k }
          else Kv.Tput { key = k; vseed = (rid lsl 4) lor idx })
        (pick [] cfg.txn_ops (8 * cfg.txn_ops))
    in
    let lg =
      Net.Loadgen.create
        ~rate:(cfg.rate /. float_of_int cfg.clients)
        ~seed:(cfg.seed lxor (j * 65537) lxor 0x10AD)
    in
    let out = outstanding.(j) in
    let port = cfg.shards + j in
    let seq = ref 0 in
    let drain () =
      let rec go () =
        match Net.recv net ~port with
        | Some { payload = Rep r; delivered_at; sent_at; trace; span; _ } ->
          (match Hashtbl.find_opt out r.rid with
           | Some p ->
             Hashtbl.remove out r.rid;
             incr completed;
             let lat = delivered_at - p.p_sent in
             Hist.record lat_h lat;
             Hist.record
               (match p.p_req.kind with
                | KGet -> read_h
                | KScan -> scan_h
                | KPut | KDel | KTxn -> write_h)
               lat;
             (* the reply's hop back, then the root closes at delivery
                (not at this drain) so root = measured latency *)
             ignore
               (Obs.Span.add_span ~trace ~parent:span Obs.Span.Rep_wire
                  ~t0:sent_at ~t1:delivered_at);
             Obs.Span.close_span_at span ~t1:delivered_at;
             if r.mutated then begin
               incr acked_mut;
               if p.p_req.kind = KTxn then Hist.record txn_lat_h lat;
               List.iter
                 (fun o ->
                   let v =
                     match o with
                     | Kv.Tput { vseed; _ } -> Some vseed
                     | Kv.Tdel _ -> None
                   in
                   ledger := (txn_op_key o, v, r.fin) :: !ledger)
                 (mutations p.p_req)
             end
           | None -> ());
          go ()
        | Some _ -> go () (* a Req on a reply port: ignore *)
        | None -> ()
      in
      go ()
    in
    let rec send_loop t_next =
      if t_next >= t_stop then ()
      else begin
        let now = Sched.now () in
        if now < t_next then Sched.sleep (t_next - now);
        if Sched.now () >= t_stop then ()
        else begin
          drain ();
          let key = 1 + Zipf.scrambled zipf rng in
          let die = Prng.int rng 100 in
          incr offered;
          let rid = (j lsl 32) lor !seq in
          incr seq;
          let kind, ops =
            if die < cfg.read_pct then (KGet, [])
            else if die < cfg.read_pct + cfg.delete_pct then (KDel, [])
            else if die < cfg.read_pct + cfg.delete_pct + cfg.scan_pct then
              (KScan, [])
            else if
              die < cfg.read_pct + cfg.delete_pct + cfg.scan_pct + cfg.txn_pct
            then begin
              match gen_txn_ops rid with
              | [] -> (KPut, []) (* key draws starved out: degrade to a put *)
              | ops -> (KTxn, ops)
            end
            else (KPut, [])
          in
          (match kind with
           | KGet -> incr n_read
           | KScan -> incr n_scan
           | KPut | KDel | KTxn -> incr n_write);
          (* a transaction is addressed to its first key's shard; the
             handler fans out to the other participants itself *)
          let key = match ops with o :: _ -> txn_op_key o | [] -> key in
          let dst = Kv.shard_of_key svc key in
          (* root span opened before the send so its id can ride the
             envelope; a refused send leaves it open (incomplete) *)
          let trace = Obs.Span.new_trace () in
          let root =
            Obs.Span.open_span ~trace ~parent:(-1) Obs.Span.Request
          in
          let req = { rid; client = j; kind; key; vseed = rid; ops } in
          if Net.try_send ~trace ~span:root net ~dst (Req req) then begin
            incr admitted;
            let p_sent = Sched.now () in
            (* align the root with the send timestamp (the send's CPU
               charge lands between open_span and here) *)
            Obs.Span.set_start root ~t0:p_sent;
            Hashtbl.replace out rid { p_req = req; p_sent }
          end
          else incr shed (* Overloaded: admission refused, request dropped *);
          send_loop (t_next + Net.Loadgen.next_gap_ns lg)
        end
      end
    in
    send_loop (Net.Loadgen.next_gap_ns lg);
    decr senders;
    (match t_crash with
     | Some _ -> drain () (* take what already arrived; rest is in flight *)
     | None ->
       let deadline = t_stop + grace_ns in
       let rec wait () =
         drain ();
         if Hashtbl.length out > 0 && Sched.now () < deadline then begin
           Sched.sleep 10_000;
           wait ()
         end
       in
       wait ())
  in

  for i = 0 to cfg.shards - 1 do
    ignore (Machine.spawn mach ~cpu:i (server_body i))
  done;
  (match backend with
   | Local _ -> ()
   | Replicated rp ->
     (* primary: the replication pump drains acks and retransmits
        timed-out tails until every server is done and fully acked *)
     let pump_done = ref false in
     let deadline =
       match t_crash with Some c -> c | None -> t_stop + (4 * grace_ns)
     in
     ignore
       (Machine.spawn mach ~cpu:(ncpu - 1) (fun () ->
            Replica.Shipper.pump rp.shipper
              ~until:(fun () -> !live_servers = 0)
              ~deadline;
            pump_done := true));
     (* backup: the applier.  On a crash run it stops where the
        primary's pump stopped; whatever the wire still holds is the
        tail that the failover replays, and its replay cost is charged
        to the promote RTO. *)
     let until =
       match t_crash with
       | Some _ -> fun () -> !pump_done
       | None -> fun () -> !pump_done && Cluster.Link.pending rp.link ~ep:1 = 0
     in
     ignore
       (Machine.spawn rp.backup ~cpu:0 (fun () ->
            Replica.Applier.pump rp.applier ~until)));
  for j = 0 to cfg.clients - 1 do
    ignore (Machine.spawn mach ~cpu:(client_cpu j) (client_body j))
  done;
  let t_run0 = Sched.horizon (Machine.engine mach) in
  Machine.run mach;
  let sim_ns = Sched.horizon (Machine.engine mach) - t_run0 in
  (* store gauges, sampled at the cut from the store and allocator that
     served the traffic: the ledger check below reads every key *)
  let truncated = Kv.mvcc_truncated_reads svc in
  let chains = Kv.mvcc_shard_chains svc in
  let tstats = Option.map Tcache.stats tch in
  let rstats =
    if cfg.rcache_entries > 0 then Some (Kv.rcache_stats svc) else None
  in

  (* mutations never acked: their keys are ambiguous for verification *)
  let in_flight_keys = Hashtbl.create 64 in
  Array.iter
    (fun out ->
      Hashtbl.iter
        (fun _ p ->
          List.iter
            (fun o -> Hashtbl.replace in_flight_keys (txn_op_key o) ())
            (mutations p.p_req))
        out)
    outstanding;
  let in_flight_at_crash = Hashtbl.length in_flight_keys in

  let verify store =
    let expected = Hashtbl.create (preload_n + 64) in
    for k = 1 to preload_n do
      Hashtbl.replace expected k (Some k)
    done;
    let entries =
      List.sort (fun (_, _, a) (_, _, b) -> compare a b) !ledger
    in
    List.iter (fun (k, v, _) -> Hashtbl.replace expected k v) entries;
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem expected k) then Hashtbl.replace expected k None)
      in_flight_keys;
    let checked = ref 0 and ambiguous = ref 0 and mismatches = ref 0 in
    Hashtbl.iter
      (fun k exp ->
        if Hashtbl.mem in_flight_keys k then incr ambiguous
        else begin
          incr checked;
          let got = Kv.get store ~key:k in
          let want =
            Option.map (fun vs -> Kv.value_checksum store ~vseed:vs) exp
          in
          if got <> want then incr mismatches
        end)
      expected;
    { checked = !checked; ambiguous = !ambiguous; mismatches = !mismatches }
  in

  (* crash handling, then the ledger check of the store that serves on:
     returns (rto_ns, recovery, ledger, backup ledger on clean
     replicated runs, (tail replayed, in-doubt slots aborted) at
     promote) *)
  let rto_ns, recovery, ledger_rep, backup_ledger, (tail_replayed, indoubt) =
    match backend, t_crash with
    | Local _, None -> (0, None, verify svc, None, (0, 0))
    | Replicated rp, None ->
      (* the backup must have converged to the same acked state (the
         shipper pump runs until fully acked): check it alongside *)
      let backup_ledger = verify rp.svc_b in
      (0, None, verify svc, Some backup_ledger, (0, 0))
    | Local reattach, Some _ ->
      Nvmm.Memdev.crash (Machine.dev mach) `Strict;
      let got = ref None in
      let secs =
        Machine.parallel mach ~threads:1 (fun _ ->
            let inst' = reattach mach in
            (* the recovered heap reclaimed every lease; serve the
               post-crash store through a fresh cache *)
            let inst', _ = wrap_tcache cfg inst' in
            got :=
              Some
                (Kv.attach ~mvcc_window:cfg.mvcc_window
                   ~rcache_entries:cfg.rcache_entries inst'))
      in
      let svc', reco = Option.get !got in
      Kv.check svc';
      (int_of_float (secs *. 1e9), Some reco, verify svc', None, (0, 0))
    | Replicated rp, Some _ ->
      (* the primary machine is gone — wipe its unfenced state to make
         the point, then promote the backup: seal the shipped log,
         replay the in-order tail the wire had delivered, and serve.
         The promote makespan is the failover RTO. *)
      Nvmm.Memdev.crash (Machine.dev mach) `Strict;
      let tail = ref 0 and indoubt = ref 0 in
      let secs =
        Machine.parallel rp.backup ~threads:1 (fun _ ->
            (* the log is sealed at promote start: records the wire has
               not yet delivered are cut off — none of them was ever
               acked (an ack implies the backup already applied) *)
            let sealed_at = Sched.now () in
            Machine.compute rp.backup 1_000 (* failover decision + seal *);
            tail := Replica.Applier.seal_and_replay rp.applier ~sealed_at;
            (* role change: flush the promoted member's magazine bins
               back to its allocator so it starts clean (the reclaim
               cost is part of the promote makespan) *)
            Option.iter Tcache.reset rp.tch_b;
            (* prepares whose decide died with the primary: presumed
               abort — none of those transactions was ever acked *)
            indoubt := Kv.txn_resolve_indoubt rp.svc_b)
      in
      Kv.check rp.svc_b;
      let promoted = verify rp.svc_b in
      (int_of_float (secs *. 1e9), None, promoted, None, (!tail, !indoubt))
  in

  let queue_max_depth =
    let depth i = (Net.stats net ~port:i).Net.max_depth in
    List.fold_left max 0 (List.init cfg.shards depth)
  in

  let secs = float_of_int t_stop /. 1e9 in
  let base =
    { offered = !offered;
      admitted = !admitted;
      shed = !shed;
      completed = !completed;
      acked_mutations = !acked_mut;
      sim_ns;
      throughput = float_of_int !handled /. secs;
      goodput = float_of_int !completed /. secs;
      latency = percentiles_of lat_h;
      service = percentiles_of svc_h;
      crashed = t_crash <> None;
      rto_ns;
      recovery;
      ledger = ledger_rep;
      in_flight_at_crash;
      queue_max_depth;
      txns_committed = !txn_commits;
      txns_aborted = !txn_aborts;
      txn_latency = percentiles_of txn_lat_h;
      read_latency = percentiles_of read_h;
      write_latency = percentiles_of write_h;
      scan_latency = percentiles_of scan_h;
      ops_read = !n_read;
      ops_write = !n_write;
      ops_scan = !n_scan }
  in
  let repl =
    match backend with
    | Local _ -> None
    | Replicated rp ->
      let acked s = Replica.Shipper.acked rp.shipper ~shard:s + 1 in
      (* a link counter summed over both directions *)
      let both f =
        let stats ep = Cluster.Link.stats rp.link ~ep in
        f (stats 1) + f (stats 0)
      in
      Some
        { base;
          shipped = Replica.Shipper.shipped rp.shipper;
          acked_records = List.fold_left ( + ) 0 (List.init cfg.shards acked);
          retransmits = Replica.Shipper.retransmits rp.shipper;
          max_lag = Replica.Shipper.max_lag rp.shipper;
          link_dropped = both (fun s -> s.Cluster.Link.dropped);
          link_duplicated = both (fun s -> s.Cluster.Link.duplicated);
          link_flushes = both (fun s -> s.Cluster.Link.flushes);
          backup_applied = Replica.Applier.applied rp.applier;
          tail_replayed;
          indoubt_aborted = indoubt;
          backup_ledger;
          sync = rp.sync }
  in

  let scope = cfg.scope in
  let g name v = Obs.Metrics.set_gauge ~scope name (float_of_int v) in
  g "offered" !offered;
  g "admitted" !admitted;
  g "shed" !shed;
  g "handled" !handled;
  g "completed" !completed;
  g "acked_mutations" !acked_mut;
  g "reply_drops" !reply_drops;
  g "queue_max_depth" queue_max_depth;
  g "rto_ns" rto_ns;
  Option.iter
    (fun rr ->
      g "repl_shipped" rr.shipped;
      g "repl_acked_records" rr.acked_records;
      g "repl_retransmits" rr.retransmits;
      g "repl_max_lag" rr.max_lag;
      g "repl_backup_applied" rr.backup_applied;
      g "repl_link_dropped" rr.link_dropped;
      g "repl_link_duplicated" rr.link_duplicated;
      g "repl_tail_replayed" rr.tail_replayed;
      g "repl_indoubt_aborted" rr.indoubt_aborted)
    repl;
  g "txn_committed" !txn_commits;
  g "txn_aborted" !txn_aborts;
  g "ops_read" !n_read;
  g "ops_write" !n_write;
  g "ops_scan" !n_scan;
  g "mvcc_truncated_reads" truncated;
  Array.iteri
    (fun i (chains, versions) ->
      let scope = Printf.sprintf "%s/shard%d" scope i in
      Obs.Metrics.set_gauge ~scope "mvcc_chains" (float_of_int chains);
      Obs.Metrics.set_gauge ~scope "mvcc_chain_versions"
        (float_of_int versions))
    chains;
  Option.iter
    (fun (hits, misses, refills, flushes) ->
      g "tcache_hits" hits;
      g "tcache_misses" misses;
      g "tcache_bin_refills" refills;
      g "tcache_bin_flushes" flushes)
    tstats;
  Option.iter
    (fun (hits, misses, evictions, invalidations) ->
      g "rcache_hits" hits;
      g "rcache_misses" misses;
      g "rcache_evictions" evictions;
      g "rcache_invalidations" invalidations)
    rstats;
  let h name hist =
    Hist.merge ~into:(Obs.Metrics.log_histogram ~scope name) hist
  in
  h "latency_ns" lat_h;
  h "service_ns" svc_h;
  (match backend with
   | Replicated rp -> h "repl_lag_ns" rp.lag_h
   | Local _ -> ());
  h "txn_latency_ns" txn_lat_h;
  h "read_latency_ns" read_h;
  h "write_latency_ns" write_h;
  h "scan_latency_ns" scan_h;
  (base, repl)

(* ---------- entry points: set up stores and backend, then serve ---------- *)

let run ~make ~reattach cfg =
  let who = "Server.run" in
  validate who cfg;
  let mach, inst = make () in
  let inst, tch = wrap_tcache cfg inst in
  check_cpus who cfg (Machine.cfg mach).Machine.Config.num_cpus;
  let svc = create_store cfg inst in
  preload who cfg [ svc ] [ mach ];
  fst (serve cfg ~mach ~svc ~tch (Local reattach))

let run_replicated ~make ?(mcfg = Machine.Config.default) cfg rcfg =
  let who = "Server.run_replicated" in
  validate who cfg;
  if rcfg.wire_ns < 1 then invalid_arg (who ^ ": wire_ns < 1");
  let cluster = Cluster.create ~cfg:mcfg ~machines:2 () in
  let primary = Cluster.machine cluster 0 in
  let backup = Cluster.machine cluster 1 in
  check_cpus who cfg mcfg.Machine.Config.num_cpus;
  let inst_p, tch = wrap_tcache cfg (make primary) in
  let inst_b, tch_b = wrap_tcache cfg (make backup) in
  let svc = create_store cfg inst_p in
  (* the backup grows chains too (group-installed, like the primary)
     so a promotion can serve snapshots at once — and caches reads the
     same way, its entries invalidated by the replicated applies *)
  let svc_b = create_store cfg inst_b in
  preload who cfg [ svc; svc_b ] [ primary; backup ];
  let link : Replica.msg Cluster.Link.t =
    Cluster.Link.create ~wire_ns:rcfg.wire_ns ~capacity:1024
      ~drop_pct:rcfg.link_drop_pct ~dup_pct:rcfg.link_dup_pct
      ~seed:(cfg.seed lxor 0x5EA) ()
  in
  let repl_cfg =
    { Replica.mode = rcfg.repl_mode;
      window = rcfg.repl_window;
      retransmit_ns = rcfg.retransmit_ns;
      poll_ns = 400 }
  in
  let shipper = Replica.Shipper.create repl_cfg ~shards:cfg.shards ~link in
  let lag_h = Hist.create () in
  let applier =
    Replica.Applier.create repl_cfg ~shards:cfg.shards ~link
      ~ack_batch:(cfg.batch_window > 1)
      ~on_apply:(fun ~lat_ns -> Hist.record lag_h lat_ns)
      ~apply:(fun ~shard op -> Txn.apply_replicated svc_b ~shard op)
      ~apply_group:(fun ~shard ops ->
        Txn.apply_replicated_group svc_b ~shard ops)
  in
  let rp =
    { sync = rcfg.repl_mode = Replica.Sync;
      backup; svc_b; tch_b; link; shipper; applier; lag_h }
  in
  Option.get (snd (serve cfg ~mach:primary ~svc ~tch (Replicated rp)))

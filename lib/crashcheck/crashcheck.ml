(* Deterministic persistency model checker: enumerate every
   persistence point of a heap operation, crash there (worst-case and
   seeded adversarial dirty subsets), recover, and validate oracles.
   See crashcheck.mli for the model. *)

module Prng = Repro_util.Prng
module Memdev = Nvmm.Memdev
module H = Poseidon.Heap

type mode = Dirty_lost_all | Dirty_subset of int

let mode_to_string = function
  | Dirty_lost_all -> "dirty-lost-all"
  | Dirty_subset seed -> Printf.sprintf "dirty-subset:%d" seed

type ledger = { mutable durable : int; mutable slack : int }

type env = {
  mach : Machine.t;
  base : int;
  mutable heap : Poseidon.Heap.t;
  ledger : ledger;
  mutable aux_devs : Nvmm.Memdev.t list;
}

type oracle = { oname : string; check : env -> (unit, string) result }

type scenario = {
  sname : string;
  setup : unit -> env;
  op : env -> unit;
  extra_oracles : oracle list;
}

(* ---------- oracles ---------- *)

let o_invariants =
  { oname = "invariants";
    check =
      (fun env ->
        match H.check_invariants env.heap with
        | () -> Ok ()
        | exception Poseidon.Subheap.Invariant_violation msg -> Error msg) }

let o_fsck =
  { oname = "fsck";
    check =
      (fun env ->
        let r = Poseidon.Fsck.run env.heap in
        if Poseidon.Fsck.is_clean r then Ok ()
        else
          let first =
            List.concat_map
              (fun (s : Poseidon.Fsck.subheap_report) -> s.violations)
              r.Poseidon.Fsck.subheaps
          in
          Error
            (Printf.sprintf "%d violation(s): %s"
               r.Poseidon.Fsck.total_violations
               (match first with v :: _ -> v | [] -> "(unlocated)"))) }

let o_quiescent =
  { oname = "quiescent";
    check =
      (fun env ->
        if H.logs_quiescent env.heap then Ok ()
        else
          Error
            (Printf.sprintf
               "logs not quiescent after recovery (%d micro-log entries \
                pending)"
               (H.tx_pending env.heap))) }

let o_accounting =
  { oname = "accounting";
    check =
      (fun env ->
        let live = (H.stats env.heap).H.live_bytes
        and free = (H.stats env.heap).H.free_bytes
        and cap = H.data_capacity env.heap in
        if live + free = cap then Ok ()
        else
          Error
            (Printf.sprintf
               "leak or double-own: live %d + free %d <> capacity %d \
                (delta %d)"
               live free cap (cap - live - free))) }

let o_durability =
  { oname = "durability";
    check =
      (fun env ->
        let live = (H.stats env.heap).H.live_bytes in
        let { durable; slack } = env.ledger in
        if live >= durable - slack && live <= durable + slack then Ok ()
        else
          Error
            (Printf.sprintf
               "live %d B outside [%d - %d, %d + %d]: committed work lost \
                or uncommitted work leaked"
               live durable slack durable slack)) }

let standard_oracles =
  [ o_invariants; o_fsck; o_quiescent; o_accounting; o_durability ]

(* ---------- checking core ---------- *)

type counterexample = {
  cx_scenario : string;
  cx_point : int;
  cx_mode : mode;
  cx_oracle : string;
  cx_detail : string;
}

type report = {
  rp_scenario : string;
  fences_total : int;
  points_explored : int;
  subsets_tried : int;
  recoveries_verified : int;
  counterexamples : counterexample list;
}

exception Stop

(* Run [op] on a fresh environment, cutting execution at persistence
   point [stop_at] (0 = run to completion).  Fences are counted from
   the start of [op]: setup's own persistence traffic is excluded.
   With [aux_devs] (multi-machine scenarios) the count is cumulative
   across every device in execution order, so the sweep interleaves
   the machines' persistence points exactly as the run did. *)
let run_op scn ~stop_at =
  let env = scn.setup () in
  let devs = Machine.dev env.mach :: env.aux_devs in
  List.iter Memdev.reset_counters devs;
  if stop_at > 0 then begin
    let count = ref 0 in
    List.iter
      (fun d ->
        Memdev.set_persistence_hook d
          (Some
             (fun (_ : Memdev.fence_info) ->
               incr count;
               if !count >= stop_at then raise Stop)))
      devs
  end;
  let fences =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun d -> Memdev.set_persistence_hook d None) devs)
      (fun () ->
        (try scn.op env with Stop -> ());
        List.fold_left
          (fun acc d -> acc + (Memdev.counters d).Memdev.fences)
          0 devs)
  in
  (env, fences)

let measure scn = snd (run_op scn ~stop_at:0)

let subset_seed ~seed ~point s =
  (seed * 0x9E3779B1) lxor (point * 0x85EBCA6B) lxor (s * 0xC2B2AE35)
  land 0x3FFFFFFF

let bad_point scn ~last point =
  invalid_arg
    (Printf.sprintf "%s has crash points 1..%d, not %d" scn.sname last point)

let check_point scn ~point ~mode =
  if point < 1 then bad_point scn ~last:(measure scn + 1) point;
  Obs.Trace.emit_named Obs.Event.Custom "crashcheck_point" point;
  let env, fences = run_op scn ~stop_at:point in
  (* a cut at [point <= fences] stopped the run there; a run that
     completed short of [point - 1] fences has no such point *)
  if fences < point - 1 then bad_point scn ~last:(fences + 1) point;
  let dev = Machine.dev env.mach in
  (match mode with
   | Dirty_lost_all -> Memdev.crash dev `Strict
   | Dirty_subset seed -> Memdev.crash dev (`Adversarial (Prng.create seed)));
  (* multi-machine scenarios: every member loses power at the same
     instant (correlated cluster-wide crash — the worst case) *)
  List.iteri
    (fun i d ->
      match mode with
      | Dirty_lost_all -> Memdev.crash d `Strict
      | Dirty_subset seed ->
        Memdev.crash d (`Adversarial (Prng.create (seed + (31 * (i + 1))))))
    env.aux_devs;
  let cex oracle detail =
    Some
      { cx_scenario = scn.sname;
        cx_point = point;
        cx_mode = mode;
        cx_oracle = oracle;
        cx_detail = detail }
  in
  match H.attach env.mach ~base:env.base () with
  | exception e -> cex "recovery" (Printexc.to_string e)
  | recovered -> (
    env.heap <- recovered;
    let rec first_failure = function
      | [] -> None
      | o :: rest -> (
        match o.check env with
        | Ok () -> first_failure rest
        | Error detail -> cex o.oname detail
        | exception e ->
          cex o.oname ("oracle raised: " ^ Printexc.to_string e))
    in
    first_failure (standard_oracles @ scn.extra_oracles))

(* Evenly-strided sample of [1..n] with [k] elements, endpoints
   included — the budget-capped point selection. *)
let stride_sample n k =
  if k <= 0 || n <= k then List.init n (fun i -> i + 1)
  else if k = 1 then [ 1 ]
  else
    List.init k (fun i -> 1 + (i * (n - 1) / (k - 1)))
    |> List.sort_uniq compare

let run ?(max_points = 0) ?(subsets_per_point = 2) ?(seed = 1) scn =
  if max_points < 0 then
    invalid_arg
      (Printf.sprintf "max_points must be >= 0 (0 = exhaustive), not %d"
         max_points);
  if subsets_per_point < 0 then
    invalid_arg
      (Printf.sprintf "subsets_per_point must be >= 0, not %d"
         subsets_per_point);
  let c name = Obs.Metrics.counter ~scope:"crashcheck" name in
  let c_points = c "points_explored"
  and c_subsets = c "subsets_tried"
  and c_verified = c "recoveries_verified"
  and c_cex = c "counterexamples" in
  let fences_total = measure scn in
  (* +1: the point past the last fence crashes after [op] completed *)
  let points = stride_sample (fences_total + 1) max_points in
  let subsets = ref 0 and verified = ref 0 and cexs = ref [] in
  List.iter
    (fun point ->
      Obs.Metrics.incr c_points;
      let modes =
        Dirty_lost_all
        :: List.init subsets_per_point (fun s ->
               Dirty_subset (subset_seed ~seed ~point s))
      in
      List.iter
        (fun mode ->
          (match mode with
           | Dirty_subset _ ->
             incr subsets;
             Obs.Metrics.incr c_subsets
           | Dirty_lost_all -> ());
          match check_point scn ~point ~mode with
          | None ->
            incr verified;
            Obs.Metrics.incr c_verified
          | Some cx ->
            Obs.Metrics.incr c_cex;
            cexs := cx :: !cexs)
        modes)
    points;
  { rp_scenario = scn.sname;
    fences_total;
    points_explored = List.length points;
    subsets_tried = !subsets;
    recoveries_verified = !verified;
    counterexamples = List.rev !cexs }

let pp_counterexample ppf cx =
  Format.fprintf ppf
    "COUNTEREXAMPLE %s: crash at point %d (%s) violates %s@,  %s" cx.cx_scenario
    cx.cx_point (mode_to_string cx.cx_mode) cx.cx_oracle cx.cx_detail

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%-10s %3d fences, %3d points explored, %3d subsets tried, %4d \
     recoveries verified, %d counterexample(s)"
    r.rp_scenario r.fences_total r.points_explored r.subsets_tried
    r.recoveries_verified
    (List.length r.counterexamples);
  List.iter (fun cx -> Format.fprintf ppf "@,%a" pp_counterexample cx)
    r.counterexamples;
  Format.fprintf ppf "@]"

(* ---------- built-in scenarios ---------- *)

let heap_base = 1 lsl 30

(* One CPU and a 64 KiB data region keep the fence space small enough
   to enumerate exhaustively while still exercising split, merge,
   defragmentation and hash-growth paths. *)
let mk_env ?(base_buckets = 32) () =
  let cfg =
    { Machine.Config.default with
      Machine.Config.num_cpus = 1;
      numa_domains = 1 }
  in
  let mach = Machine.create ~cfg () in
  let heap =
    H.create mach ~base:heap_base ~size:(1 lsl 30) ~heap_id:1
      ~sub_data_size:(1 lsl 16) ~base_buckets ()
  in
  { mach;
    base = heap_base;
    heap;
    ledger = { durable = 0; slack = 0 };
    aux_devs = [] }

let finish_setup env =
  (* everything the setup did is the durable baseline *)
  Memdev.drain (Machine.dev env.mach);
  env

let round_up = Poseidon.Layout.round_up

(* Ledger-updating wrappers: the ledger moves only when the call
   returns, so a crash mid-call leaves its effect inside [slack]. *)
let alloc_l env size =
  match H.alloc env.heap size with
  | Some p ->
    env.ledger.durable <- env.ledger.durable + round_up size;
    Some p
  | None -> None

let free_l env p ~size =
  H.free env.heap p;
  env.ledger.durable <- env.ledger.durable - round_up size

let scn_alloc sname =
  { sname;
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 1024;
        ignore (alloc_l env 64);
        ignore (alloc_l env 192);
        finish_setup env);
    op =
      (fun env ->
        List.iter
          (fun s -> ignore (alloc_l env s))
          [ 32; 64; 96; 128; 256; 512; 32; 1024; 48; 64 ]) }

let scn_free sname =
  let sizes = [ 32; 64; 128; 256; 512; 32; 64; 128; 256; 1024 ] in
  let ptrs = ref [] in
  { sname;
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 1024;
        ptrs :=
          List.filter_map
            (fun s -> Option.map (fun p -> (p, s)) (alloc_l env s))
            sizes;
        finish_setup env);
    op =
      (fun env -> List.iter (fun (p, s) -> free_l env p ~size:s) !ptrs) }

(* A transaction's bytes become durable at the micro-log truncation
   inside the [is_end] call; the ledger moves when that call returns,
   so [slack] must cover one whole transaction. *)
let tx_l env sizes =
  let n = List.length sizes in
  let bytes = List.fold_left (fun a s -> a + round_up s) 0 sizes in
  let ok = ref true in
  List.iteri
    (fun i s ->
      if H.tx_alloc env.heap s ~is_end:(i = n - 1) = None then ok := false)
    sizes;
  if !ok then env.ledger.durable <- env.ledger.durable + bytes

let scn_tx_commit sname =
  { sname;
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 512;
        ignore (alloc_l env 64);
        finish_setup env);
    op =
      (fun env ->
        tx_l env [ 64; 128; 64 ];
        tx_l env [ 256; 32 ]) }

let scn_tx_abort sname =
  { sname;
    extra_oracles = [];
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 512;
        ignore (alloc_l env 128);
        finish_setup env);
    op =
      (fun env ->
        ignore (H.tx_alloc env.heap 64 ~is_end:false);
        ignore (H.tx_alloc env.heap 128 ~is_end:false);
        ignore (H.tx_alloc env.heap 256 ~is_end:false);
        H.tx_abort env.heap;
        ignore (alloc_l env 64)) }

let scn_extend sname =
  { sname;
    extra_oracles = [];
    setup =
      (fun () ->
        (* tiny level 0 so a few dozen records overflow the probe
           windows and force hash growth *)
        let env = mk_env ~base_buckets:8 () in
        env.ledger.slack <- 64;
        finish_setup env);
    op =
      (fun env ->
        for _ = 1 to 40 do
          ignore (alloc_l env 32)
        done) }

let scn_broken_missing_flush sname =
  let raw = ref 0 in
  let magic = 0xDEC0DE in
  { sname;
    setup =
      (fun () ->
        let env = mk_env () in
        env.ledger.slack <- 128;
        (match alloc_l env 128 with
         | Some p -> raw := H.get_rawptr env.heap p
         | None -> failwith "broken scenario: setup allocation failed");
        finish_setup env);
    op =
      (fun env ->
        (* two-line commit protocol with the data flush forgotten: the
           flag's persist can land while the data line is still
           volatile-only *)
        Machine.write_u64 env.mach !raw magic;
        (* BUG under test: missing  Machine.persist env.mach !raw 8  *)
        Machine.write_u64 env.mach (!raw + 64) 1;
        Machine.persist env.mach (!raw + 64) 8);
    extra_oracles =
      [ { oname = "app-commit";
          check =
            (fun env ->
              let flag = Machine.read_u64 env.mach (!raw + 64) in
              let data = Machine.read_u64 env.mach !raw in
              if flag = 1 && data <> magic then
                Error
                  (Printf.sprintf
                     "commit flag persisted but data lost (data=%#x): \
                      missing clwb on the data line"
                     data)
              else Ok ()) } ] }

(* ---------- service scenarios: poseidon-kv intent protocol ---------- *)

type kv_op =
  | Kput of int * int
  | Kdel of int
  | Ktxn of Service.Kv.txn_op list

let txn_op_key = function
  | Service.Kv.Tput { key; _ } | Service.Kv.Tdel { key } -> key

(* Every key [preload] or [plan] touches, ascending. *)
let kv_universe ~preload ~plan =
  List.sort_uniq compare
    (List.map fst preload
    @ List.concat_map
        (function
          | Kput (k, _) | Kdel k -> [ k ]
          | Ktxn ops -> List.map txn_op_key ops)
        plan)

(* Model of {!Service.Kv.txn}'s commit rule: non-empty, distinct keys,
   every strict delete's key present.  An aborting transaction is a
   no-op on the model state, matching "abort leaves no durable trace". *)
let txn_would_commit tbl ops =
  let keys = List.map txn_op_key ops in
  ops <> []
  && List.length (List.sort_uniq compare keys) = List.length keys
  && List.for_all
       (function
         | Service.Kv.Tdel { key } -> Hashtbl.mem tbl key
         | Service.Kv.Tput _ -> true)
       ops

let apply_kv tbl = function
  | Kput (k, vs) -> Hashtbl.replace tbl k vs
  | Kdel k -> Hashtbl.remove tbl k
  | Ktxn ops ->
    if txn_would_commit tbl ops then
      List.iter
        (function
          | Service.Kv.Tput { key; vseed } -> Hashtbl.replace tbl key vseed
          | Service.Kv.Tdel { key } -> Hashtbl.remove tbl key)
        ops

(* The key -> vseed state after the first [m] ops of [plan] over
   [preload]. *)
let kv_model ~preload ~plan m =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (k, vs) -> Hashtbl.replace tbl k vs) preload;
  List.iteri (fun i o -> if i < m then apply_kv tbl o) plan;
  tbl

let live_bytes env = (H.stats env.heap).H.live_bytes

(* Recovery oracle shared by every KV sweep: re-attach the *service*
   on [env]'s surviving heap — running the intent replay/rollback —
   check the allocator is still sane after replay mutated it, then
   demand the recovered store equal the plan-prefix state over
   [preload] for SOME length m ∈ [acked, acked + window].  With the
   default window 1 that is the acked prefix plus the one in-flight op
   applied whole or not at all — for a cross-shard transaction, exactly
   whole-transaction atomicity.  A wider window is the group-commit
   rule: a crash mid-batch may lose any suffix of the unacked window,
   but never an acked op and never anything beyond the window.  (Chunks
   apply in plan order, so every legal crash state IS such a prefix.) *)
let kv_prefix_oracle ?(window = 1) ~oname ~preload ~plan ~acked () =
  let universe = kv_universe ~preload ~plan in
  { oname;
    check =
      (fun env ->
        let inst = Poseidon.instance env.heap in
        match Service.Kv.attach inst with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _recovery -> (
          (* replay mutated the heap; it must still be self-consistent *)
          match H.check_invariants env.heap with
          | exception Poseidon.Subheap.Invariant_violation m ->
            Error ("post-replay invariants: " ^ m)
          | () ->
            let free = (H.stats env.heap).H.free_bytes
            and cap = H.data_capacity env.heap in
            if not (H.logs_quiescent env.heap) then
              Error "post-replay logs not quiescent"
            else if live_bytes env + free <> cap then
              Error
                (Printf.sprintf
                   "post-replay leak: live %d + free %d <> capacity %d"
                   (live_bytes env) free cap)
            else begin
              Service.Kv.check s2;
              let cks vs = Service.Kv.value_checksum s2 ~vseed:vs in
              let matches m =
                let tbl = kv_model ~preload ~plan m in
                List.for_all
                  (fun k ->
                    Service.Kv.get s2 ~key:k
                    = Option.map cks (Hashtbl.find_opt tbl k))
                  universe
              in
              let lo = !acked
              and hi = min (List.length plan) (!acked + window) in
              let rec any m = m <= hi && (matches m || any (m + 1)) in
              if any lo then Ok ()
              else
                Error
                  (Printf.sprintf
                     "recovered store matches no plan prefix in [%d, %d]: an \
                      acked op was lost, an in-flight op was torn, or more \
                      than the batch window leaked"
                     lo hi)
            end)) }

(* Oracle over the read-path violations a scenario recorded on the live
   store before the crash: green iff there are none. *)
let violations_oracle ~oname ~what violations =
  { oname;
    check =
      (fun _env ->
        match List.rev !violations with
        | [] -> Ok ()
        | v :: _ ->
          Error
            (Printf.sprintf "%d %s, first: %s" (List.length !violations) what
               v)) }

(* What a KV scenario's hooks see during op [i]: the live store, the
   completed-prefix model (key -> vseed), the scenario's key universe
   and a sink for read-path violations. *)
type kv_ctx = {
  svc : Service.Kv.t;
  model : (int, int) Hashtbl.t;
  universe : int list;
  flag : string -> unit;
}

(* The digest the completed-prefix model says key [k] reads. *)
let expected ctx k =
  Option.map
    (fun vs -> Service.Kv.value_checksum ctx.svc ~vseed:vs)
    (Hashtbl.find_opt ctx.model k)

let exec_kv svc = function
  | Kput (k, vs) -> ignore (Service.Kv.put svc ~key:k ~vseed:vs)
  | Kdel k -> ignore (Service.Kv.delete svc ~key:k)
  | Ktxn ops -> ignore (Service.Kv.txn svc ops)

let preload_kv ~sname preload puts =
  List.iter
    (fun (k, vs) ->
      if not (puts k vs) then
        failwith (sname ^ " scenario: preload put failed"))
    preload

(* Drive the KV store's write path through the sweep.  The store is
   built over [wrap heap] with [mvcc_window] and [rcache_entries], then
   [tweak]ed (where the seeded bugs arm).  Each plan op goes through
   [run] (default: the plain put/delete/txn call); then the model
   advances, the ledger snapshots [live_bytes] and [audit] reads the
   live store against the model.  Violations [run] or [audit] flag
   surface through the [reads] oracle (name, noun) at every crash point
   past the offending op.  Oracles: [reads] if given, the acked-prefix
   [kv-store] oracle unless [prefix] is false, then [extra].  Because
   the ledger moves after every op, [slack] only has to cover the
   single in-flight op: one value block, one possible tree-node split
   and one not-yet-freed old value. *)
let scn_kv ?(slack = 4096) ?(wrap = Poseidon.instance) ?mvcc_window
    ?rcache_entries ?(tweak = ignore) ?(run = fun ctx _ o -> exec_kv ctx.svc o)
    ?(audit = fun _ _ -> ()) ?reads ?(prefix = true) ?(extra = []) ~preload
    ~plan sname =
  let universe = kv_universe ~preload ~plan in
  let svc = ref None and acked = ref 0 and violations = ref [] in
  let setup () =
    let env = mk_env () in
    env.ledger.slack <- slack;
    let s =
      Service.Kv.create ?mvcc_window ?rcache_entries (wrap env.heap)
        ~shards:2 ~value_size:64
    in
    preload_kv ~sname preload (fun k vs -> Service.Kv.put s ~key:k ~vseed:vs);
    tweak s;
    svc := Some s;
    acked := 0;
    violations := [];
    env.ledger.durable <- live_bytes env;
    finish_setup env
  in
  let op env =
    let ctx =
      { svc = Option.get !svc;
        model = kv_model ~preload ~plan 0;
        universe;
        flag = (fun v -> violations := v :: !violations) }
    in
    List.iteri
      (fun i o ->
        run ctx i o;
        apply_kv ctx.model o;
        incr acked;
        env.ledger.durable <- live_bytes env;
        audit ctx i)
      plan
  in
  let reads =
    match reads with
    | Some (oname, what) -> [ violations_oracle ~oname ~what violations ]
    | None -> []
  and kv_store =
    if prefix then
      [ kv_prefix_oracle ~oname:"kv-store" ~preload ~plan ~acked () ]
    else []
  in
  { sname; setup; op; extra_oracles = reads @ kv_store @ extra }

(* Read every universe key through [read] and flag each that disagrees
   with the completed-prefix model. *)
let audit_keys ctx i ~path read =
  List.iter
    (fun k ->
      if read k <> expected ctx k then
        ctx.flag
          (Printf.sprintf
             "after op %d: %s of key %d disagrees with the completed-prefix \
              model"
             i path k))
    ctx.universe

let kv_put sname =
  scn_kv
    ~preload:[ (1, 101); (2, 102); (3, 103); (4, 104); (5, 105); (6, 106) ]
    ~plan:
      [ Kput (3, 201); Kput (9, 202); Kput (4, 203); Kput (10, 204);
        Kput (3, 205); Kput (11, 206) ]
    sname

let kv_delete sname =
  scn_kv
    ~preload:
      [ (1, 111); (2, 112); (3, 113); (4, 114); (5, 115); (6, 116);
        (7, 117); (8, 118) ]
    ~plan:[ Kdel 2; Kdel 5; Kput (5, 222); Kdel 7; Kdel 99; Kdel 3; Kdel 5 ]
    sname

(* Cross-shard transactions through the 2PC coordinator-record
   protocol.  Key shard map for [shards:2]: keys 2, 3, 7, 8, 9, 10 and
   99 hash to shard 0; keys 1, 4, 5, 6 and 11 to shard 1 — asserted
   below so a hash change cannot silently de-fang the plan.  The plan
   crosses shards in every transaction and covers: a 2-put commit, a
   mixed delete+put commit with a two-op slot on one shard, a strict
   delete abort ([Tdel 99] — key absent, so the whole transaction must
   vanish), interleaved with single ops so the single-op intent slots
   and the participant slots coexist at crash points.  [tweak] arms the
   seeded 2PC bug. *)
let kv_txn ?tweak sname =
  let s0 k = assert (Service.Kv.shard_of ~shards:2 k = 0)
  and s1 k = assert (Service.Kv.shard_of ~shards:2 k = 1) in
  List.iter s0 [ 2; 3; 7; 9; 99 ];
  List.iter s1 [ 1; 4; 5; 6; 11 ];
  scn_kv ~slack:8192 ?tweak
    ~preload:[ (1, 121); (2, 122); (3, 123); (4, 124); (5, 125); (6, 126) ]
    ~plan:
      [ Ktxn
          [ Service.Kv.Tput { key = 3; vseed = 301 };
            Service.Kv.Tput { key = 4; vseed = 302 } ];
        Kput (9, 303);
        Ktxn
          [ Service.Kv.Tdel { key = 2 };
            Service.Kv.Tput { key = 11; vseed = 304 };
            Service.Kv.Tput { key = 7; vseed = 305 } ];
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 306 };
            Service.Kv.Tdel { key = 99 } ];
        Kdel 6 ]
    sname

(* MVCC read-path sweep: the kv-put/delete/txn op mix again, but on a
   store with a version window, and after every completed operation
   the scenario mints a snapshot and audits it against the
   completed-prefix model — every key in the universe via
   [snapshot_get] and the whole keyspace via one multi-shard
   [snapshot_scan].  Recovery is still checked by the prefix oracle:
   version chains are volatile DRAM, so a crash must leave the
   re-attached store indistinguishable from the no-MVCC sweeps. *)
let kv_snapshot sname =
  let audit ctx i =
    let s = ctx.svc in
    let ts = Service.Kv.snapshot s in
    audit_keys ctx i ~path:"snapshot_get" (fun k ->
        Service.Kv.snapshot_get s ~ts ~key:k);
    let want_scan =
      Hashtbl.fold
        (fun k vs acc -> (k, Service.Kv.value_checksum s ~vseed:vs) :: acc)
        ctx.model []
      |> List.sort compare
    and got_scan = ref [] in
    let n =
      Service.Kv.snapshot_scan s ~ts ~from_key:1 ~n:64 (fun k d ->
          got_scan := (k, d) :: !got_scan)
    in
    if List.rev !got_scan <> want_scan || n <> List.length want_scan then
      ctx.flag
        (Printf.sprintf
           "after op %d: snapshot_scan visited %d entr(ies), model has %d, \
            or contents/order differ"
           i n (List.length want_scan))
  in
  scn_kv ~slack:8192 ~mvcc_window:4 ~audit
    ~reads:("snapshot-reads", "stale/torn snapshot read(s)")
    ~preload:[ (1, 151); (2, 152); (3, 153); (4, 154); (5, 155); (6, 156) ]
    ~plan:
      [ Kput (3, 501); Kput (9, 502); Kdel 2;
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 503 };
            Service.Kv.Tput { key = 7; vseed = 504 } ];
        Kput (3, 505); Kdel 5; Kput (10, 506) ]
    sname

(* The seeded MVCC bug: {!Service.Kv.mvcc_break_early_publish} makes a
   staged [txn_prepare] publish the transaction's versions before any
   decision record exists.  The op runner stages prepare → observes a
   snapshot → decides → applies; the observation between prepare and
   decide reads values no committed history contains, so the
   [snapshot-reads] oracle must produce counterexamples. *)
let mvcc_broken sname =
  let run ctx i = function
    | Ktxn ops -> (
      match Service.Kv.txn_prepare ctx.svc ops with
      | Error _ -> failwith "mvcc-broken scenario: prepare aborted"
      | Ok txn ->
        (* the transaction is prepared but undecided: no snapshot may
           see its writes yet — with the bug armed, it does *)
        let ts = Service.Kv.snapshot ctx.svc in
        List.iter
          (fun top ->
            let k = txn_op_key top in
            if Service.Kv.snapshot_get ctx.svc ~ts ~key:k <> expected ctx k
            then
              ctx.flag
                (Printf.sprintf
                   "txn %d: snapshot observed undecided write to key %d" i k))
          ops;
        Service.Kv.txn_decide ctx.svc ~txn;
        Service.Kv.txn_apply ctx.svc ~txn)
    | Kput _ | Kdel _ -> invalid_arg "mvcc-broken: the plan is all transactions"
  in
  scn_kv ~slack:8192 ~mvcc_window:4
    ~tweak:Service.Kv.mvcc_break_early_publish ~run
    ~reads:("snapshot-reads", "uncommitted-read violation(s)")
    ~prefix:false
    ~preload:[ (3, 161); (4, 162); (5, 163) ]
    ~plan:
      [ Ktxn
          [ Service.Kv.Tput { key = 3; vseed = 601 };
            Service.Kv.Tput { key = 4; vseed = 602 } ];
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 603 };
            Service.Kv.Tput { key = 7; vseed = 604 } ] ]
    sname

(* DRAM read-cache sweep: the kv-snapshot op mix on a store with both a
   version window and a read cache ([rcache_entries:4] per shard —
   smaller than the plan's per-shard keyspace, so the audits force
   CLOCK evictions).  After every completed operation the scenario audits
   the completed-prefix model twice: every key through the cached
   plain-[get] path (the first audit after a mutation reads through and
   re-fills; the cache must never answer with a digest the store no
   longer holds) and again through a fresh snapshot, which may answer
   from the cache only when the cached version's timestamp admits it.
   Recovery is still checked by the prefix oracle: the cache is
   volatile DRAM, so a crash must leave the re-attached store
   indistinguishable from the uncached sweeps.  [tweak] arms the seeded
   bug: {!Service.Kv.rcache_break_late_invalidate} defers every
   invalidation until the NEXT mutation starts, so between a mutation's
   return and the following one the cache still serves the overwritten
   (or deleted) digest — exactly the window the audits read. *)
let kv_rcache ?tweak sname =
  let audit ctx i =
    let s = ctx.svc in
    audit_keys ctx i ~path:"cached get" (fun k -> Service.Kv.get s ~key:k);
    let ts = Service.Kv.snapshot s in
    audit_keys ctx i ~path:"cached snapshot_get" (fun k ->
        Service.Kv.snapshot_get s ~ts ~key:k)
  in
  scn_kv ~slack:8192 ~mvcc_window:4 ~rcache_entries:4 ?tweak ~audit
    ~reads:("cached-reads", "stale cached read(s)")
    ~preload:[ (1, 171); (2, 172); (3, 173); (4, 174); (5, 175); (6, 176) ]
    ~plan:
      [ Kput (3, 701); Kput (9, 702); Kdel 2;
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 703 };
            Service.Kv.Tput { key = 7; vseed = 704 } ];
        Kput (3, 705); Kdel 5; Kput (10, 706); Kput (9, 707) ]
    sname

(* ---------- replicated KV scenarios: two machines ---------- *)

type cluster = {
  svc_p : Service.Kv.t;
  shipper : Replica.Shipper.t;
  applier : Replica.Applier.t;
  link : Replica.msg Cluster.Link.t;
}

(* Two-machine sweep of the replication pipeline.  Two machines (two
   devices — the primary's rides in [aux_devs], so its fences
   interleave into the same point space), one {!Cluster.Link}, the real
   {!Replica} shipper/applier ([batched]: doorbell frames acked
   cumulatively, applies grouped).  The whole cluster loses power at
   each point; recovery attaches the BACKUP ([env.mach]) — primary loss
   is the failure replication exists for — and the [oname] prefix
   oracle (with [window]) judges the backup store against the plan.
   [drive] runs the plan on the primary and ships it, advancing
   [acked] as acks arrive and calling [settle] to move the ledger. *)
let scn_cluster ?window ~oname ~slack ~repl_window ~batched ~preload ~plan
    ~drive sname =
  let state = ref None and acked = ref 0 in
  let setup () =
    (* backup first: it is the env the sweep recovers and checks *)
    let env = mk_env () in
    env.ledger.slack <- slack;
    let svc_b =
      Service.Kv.create (Poseidon.instance env.heap) ~shards:2 ~value_size:64
    in
    let penv = mk_env () in
    let svc_p =
      Service.Kv.create (Poseidon.instance penv.heap) ~shards:2 ~value_size:64
    in
    preload_kv ~sname preload (fun k vs ->
        Service.Kv.put svc_p ~key:k ~vseed:vs
        && Service.Kv.put svc_b ~key:k ~vseed:vs);
    let link = Cluster.Link.create () in
    let rcfg = { Replica.default_config with Replica.window = repl_window } in
    let shipper = Replica.Shipper.create rcfg ~shards:2 ~link in
    let applier =
      Replica.Applier.create rcfg ~shards:2 ~link ~ack_batch:batched
        ~apply:(fun ~shard op -> Service.Txn.apply_replicated svc_b ~shard op)
        ~apply_group:(fun ~shard ops ->
          Service.Txn.apply_replicated_group svc_b ~shard ops)
    in
    state := Some { svc_p; shipper; applier; link };
    acked := 0;
    env.aux_devs <- [ Machine.dev penv.mach ];
    Memdev.drain (Machine.dev penv.mach);
    env.ledger.durable <- live_bytes env;
    finish_setup env
  in
  let op env =
    drive (Option.get !state) plan acked ~settle:(fun () ->
        env.ledger.durable <- live_bytes env)
  in
  { sname;
    setup;
    op;
    extra_oracles = [ kv_prefix_oracle ?window ~oname ~preload ~plan ~acked () ]
  }

(* Let the backup drain the link (apply + persist), then demand every
   [(shard, seq)] acked. *)
let await_acks c seqs =
  Replica.Applier.pump c.applier ~until:(fun () ->
      Cluster.Link.pending c.link ~ep:Replica.backup_ep = 0);
  List.iter
    (fun (shard, seq) ->
      if not (Replica.Shipper.wait_acked c.shipper ~shard ~seq ~deadline:0)
      then failwith "replicated scenario: ack lost on clean run")
    seqs

(* Sync replication: each op persists on the primary, ships, is applied
   and persisted on the backup and acked before the next starts, so
   the window-1 prefix oracle asserts any write acked in sync mode
   survives the primary's death, the in-flight record atomic. *)
let kv_replicated_put sname =
  let drive c plan acked ~settle =
    let ship_one k rop =
      let shard = Service.Kv.shard_of_key c.svc_p k in
      await_acks c [ (shard, Replica.Shipper.ship c.shipper ~shard rop) ]
    in
    List.iter
      (fun o ->
        (match o with
         | Kput (k, vs) ->
           ignore (Service.Kv.put c.svc_p ~key:k ~vseed:vs);
           ship_one k (Replica.Put { key = k; vseed = vs })
         | Kdel k ->
           ignore (Service.Kv.delete c.svc_p ~key:k);
           ship_one k (Replica.Del { key = k })
         | Ktxn ops ->
           (* a committed cross-shard transaction rides the same streams
              as a Txn_prepare + Txn_decide pair per participant shard *)
           let seqs = ref [] in
           ignore
             (Service.Kv.txn c.svc_p ops ~on_commit:(fun res ->
                  let nparts = List.length res.Service.Kv.participants in
                  List.iter
                    (fun (s, sops) ->
                      ignore
                        (Replica.Shipper.ship c.shipper ~shard:s
                           (Replica.Txn_prepare
                              { txn = res.Service.Kv.txn_id; ops = sops }));
                      let q =
                        Replica.Shipper.ship c.shipper ~shard:s
                          (Replica.Txn_decide
                             { txn = res.Service.Kv.txn_id; commit = true;
                               nparts })
                      in
                      seqs := (s, q) :: !seqs)
                    res.Service.Kv.participants));
           await_acks c !seqs);
        incr acked;
        settle ())
      plan
  in
  scn_cluster ~oname:"kv-replica" ~slack:4096 ~repl_window:8 ~batched:false
    ~preload:[ (1, 131); (2, 132); (3, 133); (4, 134) ]
    ~plan:
      [ Kput (3, 301); Kput (9, 302); Kdel 2;
        Ktxn
          [ Service.Kv.Tput { key = 5; vseed = 304 };
            Service.Kv.Tput { key = 7; vseed = 305 } ];
        Kput (10, 303) ]
    ~drive sname

(* The batched pipeline end to end: queue → group commit (one covering
   persist chain per chunk) → doorbell-batched ship (one frame per
   chunk) → batched cumulative ack.  [acked] advances a whole group at
   a time, only after the group's covering flush is acked, so the
   windowed prefix oracle asserts the loss bound: a crash mid-group
   loses at most the unacked window, never an acked op.
   [premature_ack] is the seeded bug: the plan runner claims the group
   durable BEFORE executing/flushing it — acks ahead of the covering
   flush — which the checker must flag. *)
let kv_batched ?(window = 4) ~premature_ack sname =
  let drive c plan acked ~settle =
    let n = List.length plan in
    let groups =
      List.init ((n + window - 1) / window) (fun g ->
          List.filteri (fun i _ -> i / window = g) plan)
    in
    List.iter
      (fun gops ->
        if premature_ack then acked := !acked + List.length gops;
        let last = ref (-1) in
        let kv_ops =
          List.map
            (function
              | Kput (k, vs) -> Service.Kv.Tput { key = k; vseed = vs }
              | Kdel k -> Service.Kv.Tdel { key = k }
              | Ktxn _ -> assert false)
            gops
        in
        ignore
          (Service.Kv.group_commit c.svc_p ~shard:0 kv_ops
             ~on_chunk:(fun ~fin:_ cops ->
               List.iter
                 (fun op ->
                   let rop =
                     match op with
                     | Service.Kv.Tput { key; vseed } ->
                       Replica.Put { key; vseed }
                     | Service.Kv.Tdel { key } -> Replica.Del { key }
                   in
                   last := Replica.Shipper.ship_buffered c.shipper ~shard:0 rop)
                 cops;
               ignore (Replica.Shipper.flush c.shipper)));
        if !last >= 0 then await_acks c [ (0, !last) ];
        if not premature_ack then acked := !acked + List.length gops;
        settle ())
      groups
  in
  (* all keys on shard 0 of 2 (asserted below): a commit group is a
     single-shard run by construction, mirroring the server's
     per-shard inbox *)
  let plan =
    [ Kput (3, 401); Kput (9, 402); Kdel 2; Kput (10, 403); Kput (3, 404);
      Kdel 99; Kput (2, 405); Kdel 8; Kput (7, 406); Kput (99, 407) ]
  in
  List.iter
    (fun k -> assert (Service.Kv.shard_of ~shards:2 k = 0))
    (kv_universe ~preload:[] ~plan);
  scn_cluster ~window ~oname:"kv-batched" ~slack:(4096 + (1024 * window))
    ~repl_window:32 ~batched:true
    ~preload:[ (2, 141); (3, 142); (7, 143); (8, 144) ]
    ~plan ~drive sname

let scn_kv_batched ?window sname = kv_batched ?window ~premature_ack:false sname

(* ---------- magazine-cache sweep (lib/tcache) ---------- *)

(* Allocator-level census for the cached-allocation sweeps: after heap
   recovery (which frees every ledger-leased block) AND service replay
   (which resolves the in-flight intent), every live block of the
   value class must be referenced by exactly one present key — the
   recovered store itself is the reference model, so the oracle holds
   at every crash point regardless of where the sweep cut.  A cache
   that recycles a freed block before its reclaim lease persisted
   orphans a value block here (block count > present keys): the
   failure mode the [tcache-broken] scenario plants. *)
let kv_value_census_oracle ~value_size ~universe () =
  { oname = "value-census";
    check =
      (fun env ->
        let inst = Poseidon.instance env.heap in
        match Service.Kv.attach inst with
        | exception e ->
          Error ("service recovery raised: " ^ Printexc.to_string e)
        | s2, _recovery ->
          let present =
            List.fold_left
              (fun a k -> if Service.Kv.get s2 ~key:k <> None then a + 1 else a)
              0 universe
          in
          let rsize = round_up value_size in
          let blocks = ref 0 in
          H.iter_subheaps env.heap (fun sh ->
              Poseidon.Subheap.iter_blocks sh
                (fun ~off:_ ~size ~rec_addr:_ ~status ->
                  if status = Poseidon.Layout.st_alloc && size = rsize then
                    incr blocks));
          if !blocks = present then Ok ()
          else
            Error
              (Printf.sprintf
                 "%d live %d-byte value block(s) for %d present key(s): a \
                  freed block was recycled before its reclaim persisted \
                  (leak), or a refilled block leaked its lease"
                 !blocks rsize present)) }

(* The kv-put/delete/overwrite mix again, allocated through a magazine
   cache (mag 4): refills carve 4-block batches under ledger leases,
   puts pop volatile bins and publish at the commit fence, frees stash
   a reclaim lease and recycle.  Slack widened: the durability ledger
   snapshots [live_bytes] with bins resident (leased blocks are live
   until crash recovery frees them), so up to 2 x mag blocks of each
   cached class (64 B values, 512 B tree nodes) plus one in-flight
   carve sit between the snapshot and the recovered heap.  [fault]
   arms a seeded bug: [`Leaseless] frees recycle into the bins with no
   reclaim lease and no persistent free; [`Hwm] frees persist their
   lease without first raising the ledger's high-water mark. *)
let kv_tcache ?fault
    ?(plan =
      [ Kput (3, 601); Kput (9, 602); Kdel 2; Kput (10, 603); Kput (3, 604);
        Kdel 5; Kput (11, 605); Kput (9, 606) ]) sname =
  let preload =
    [ (1, 161); (2, 162); (3, 163); (4, 164); (5, 165); (6, 166) ]
  in
  scn_kv ~slack:12288
    ~wrap:(fun heap ->
      if fault = Some `Hwm then H.tc_break_hwm heap;
      let wrapped, h = Tcache.wrap ~mag:4 (Poseidon.instance heap) in
      if fault = Some `Leaseless then Tcache.break_recycle h;
      wrapped)
    ~extra:
      [ kv_value_census_oracle ~value_size:64
          ~universe:(kv_universe ~preload ~plan) () ]
    ~preload ~plan sname

(* ---------- registry ---------- *)

type kind = Correct | Seeded_bug

type entry = { name : string; kind : kind; make : unit -> scenario }

let registry =
  let e kind name make = { name; kind; make = (fun () -> make name) } in
  [ e Correct "alloc" scn_alloc;
    e Correct "free" scn_free;
    e Correct "tx-commit" scn_tx_commit;
    e Correct "tx-abort" scn_tx_abort;
    e Correct "extend" scn_extend;
    (* a two-line commit protocol missing the data line's clwb *)
    e Seeded_bug "broken" scn_broken_missing_flush;
    e Correct "kv-put" kv_put;
    e Correct "kv-delete" kv_delete;
    e Correct "kv-txn" kv_txn;
    (* the coordinator forgets to flush the decision record, so a crash
       between the participant applies surfaces half a transaction *)
    e Seeded_bug "kv-txn-broken"
      (kv_txn ~tweak:Service.Kv.txn_break_decision_persist);
    e Correct "kv-snapshot" kv_snapshot;
    e Seeded_bug "mvcc-broken" mvcc_broken;
    e Correct "kv-rcache-put" kv_rcache;
    e Seeded_bug "rcache-broken"
      (kv_rcache ~tweak:Service.Kv.rcache_break_late_invalidate);
    e Correct "kv-replicated-put" kv_replicated_put;
    e Correct "kv-batched-put" scn_kv_batched;
    e Seeded_bug "kv-batched-broken" (kv_batched ~premature_ack:true);
    e Correct "kv-tcache-put" kv_tcache;
    e Seeded_bug "tcache-broken" (kv_tcache ~fault:`Leaseless);
    (* only a free that holds more leases at once than any carve did
       takes a slot at the hwm, hence a run of deletes *)
    e Seeded_bug "tcache-hwm-broken"
      (kv_tcache ~fault:`Hwm
         ~plan:[ Kdel 1; Kdel 2; Kdel 3; Kdel 4; Kdel 5; Kdel 6 ]) ]

let scenario_by_name name =
  List.find_map
    (fun e -> if e.name = name then Some (e.make ()) else None)
    registry

let all_scenarios () =
  List.filter_map
    (fun e -> if e.kind = Correct then Some (e.make ()) else None)
    registry

(* alloc-churn: the allocator alone.  Simulated threads spread over
   both NUMA nodes of the default machine run a Larson-style replace
   loop over one shared slot array, so most frees are remote frees.
   A replacement frees a slot's block and allocates a new one; about a
   tenth of them replace three slots through one transactional
   allocation.  Each new block gets an 8 B tag, written and persisted.
   The run ends with a strict crash, a timed re-attach and a census of
   the recovered heap against the blocks the loop holds. *)

module Hist = Obs.Hist
module Sched = Simcore.Sched
module Prng = Repro_util.Prng
module Heap = Poseidon.Heap
module A = Alloc_intf

let threads = 16
let large_per_mille = 10 (* share of 64-256 KiB blocks *)
let tx_pct = 10 (* share of replacements that are 3-block transactions *)

(* the two sizes the tests scale down *)
type config = {
  slots : int;
  replacements : int; (* per thread *)
}

let default = { slots = 8192; replacements = 1500 }

type block = { ptr : A.nvmptr; size : int; tag : int }

type result = {
  calls : int; (* alloc + free + tx_alloc calls in the churn phase *)
  alloc_failures : int;
  makespan_ns : int;
  call_h : Hist.t; (* every call, simulated ns *)
  tx_h : Hist.t; (* whole 3-block transactions *)
  rto_ns : int; (* strict crash -> attached heap *)
  live_bytes : int; (* heap's count at the end of traffic *)
  user_bytes : int; (* bytes the loop asked for, live blocks *)
  setup_host : float; (* reference-host seconds, see Common.host_scale *)
  churn_host : float;
  traffic : Tap.snap; (* counters over the churn phase *)
  stats : Heap.stats; (* before the crash *)
}

(* mostly 16 B - 4 KiB, log-uniform; a few 64 - 256 KiB (buddy split
   and merge) *)
let draw_size rng =
  if Prng.int rng 1000 < large_per_mille then 65536 + Prng.int rng 196609
  else int_of_float (16. *. exp (Prng.float rng (log 256.)))

let run ?shim ?(cfg = default) ~seed gates =
  (* every run starts from the same compacted host heap *)
  Gc.compact ();
  let scale0 = Common.host_scale () in
  let host0 = Common.host_s () in
  let mach = Machine.create () in
  let base = Common.heap_base in
  let heap = Common.new_heap mach in
  let inst =
    let i = Poseidon.instance heap in
    match shim with Some s -> Shim.wrap s i | None -> i
  in
  let eng = Machine.engine mach in
  let ncpu = (Machine.cfg mach).Machine.Config.num_cpus in
  let cpu_of i = i * (ncpu / threads) mod ncpu in
  let slots : block option array = Array.make cfg.slots None in
  let busy = Array.make cfg.slots false in
  let tag_of slot gen = Common.sub_seed seed ((slot * 1_000_003) + gen) in
  let gen = ref 0 in
  let failures = ref 0 in
  let call_h = Hist.create () and tx_h = Hist.create () in
  let calls = ref 0 in
  let timed f =
    let t0 = Sched.now () in
    let r = f () in
    Hist.record call_h (Sched.now () - t0);
    incr calls;
    r
  in
  let place slot size = function
    | None ->
      incr failures;
      slots.(slot) <- None
    | Some ptr ->
      incr gen;
      let tag = tag_of slot !gen in
      let raw = A.i_get_rawptr inst ptr in
      Machine.write_u64 mach raw tag;
      Machine.persist mach raw 8;
      slots.(slot) <- Some { ptr; size; tag }
  in
  let spawn_all body =
    let start = Sched.horizon eng in
    for i = 0 to threads - 1 do
      ignore (Sched.spawn eng ~cpu:(cpu_of i) ~at:start (fun () -> body i))
    done;
    Machine.run mach;
    Sched.horizon eng - start
  in
  (* set-up: every thread fills its share of the slots *)
  ignore
    (spawn_all (fun i ->
         let rng = Prng.create (Common.sub_seed seed (100 + i)) in
         let s = ref i in
         while !s < cfg.slots do
           let size = draw_size rng in
           place !s size (A.i_alloc inst size);
           s := !s + threads
         done));
  let setup_host = Common.host_s () -. host0 in
  (* churn *)
  let rec pick rng =
    let s = Prng.int rng cfg.slots in
    if busy.(s) then pick rng
    else begin
      busy.(s) <- true;
      s
    end
  in
  let release s =
    match slots.(s) with
    | Some b ->
      slots.(s) <- None;
      timed (fun () -> A.i_free inst b.ptr)
    | None -> ()
  in
  let s0 = Tap.snap [ mach ] in
  let makespan_ns =
    spawn_all (fun i ->
        let rng = Prng.create (Common.sub_seed seed (200 + i)) in
        for _ = 1 to cfg.replacements do
          if Prng.int rng 100 < tx_pct then begin
            let a = pick rng in
            let b = pick rng in
            let c = pick rng in
            List.iter release [ a; b; c ];
            let sizes = List.map (fun _ -> draw_size rng) [ a; b; c ] in
            let t0 = Sched.now () in
            let got =
              List.mapi
                (fun k size ->
                  timed (fun () -> A.i_tx_alloc inst size ~is_end:(k = 2)))
                sizes
            in
            Hist.record tx_h (Sched.now () - t0);
            (* a failed step leaves the transaction open: commit the rest *)
            if List.mem None got then A.i_tx_commit inst;
            List.iter2 (fun (s, size) p -> place s size p)
              (List.combine [ a; b; c ] sizes) got;
            List.iter (fun s -> busy.(s) <- false) [ a; b; c ]
          end
          else begin
            let s = pick rng in
            release s;
            let size = draw_size rng in
            place s size (timed (fun () -> A.i_alloc inst size));
            busy.(s) <- false
          end
        done)
  in
  let traffic = Tap.diff s0 (Tap.snap [ mach ]) in
  let scale = (scale0 +. Common.host_scale ()) /. 2. in
  let traffic = { traffic with Tap.host = traffic.Tap.host *. scale } in
  let live = List.filter_map Fun.id (Array.to_list slots) in
  let user_bytes = List.fold_left (fun a b -> a + b.size) 0 live in
  let tally =
    List.fold_left (fun a b -> a + Poseidon.Layout.round_up b.size) 0 live
  in
  let stats = Heap.stats heap in
  Common.check gates "alloc-churn: heap live_bytes = the loop's tally"
    (stats.Heap.live_bytes = tally);
  Common.check gates "alloc-churn: no invalid or double frees"
    (stats.Heap.invalid_frees = 0 && stats.Heap.double_frees = 0);
  (* strict crash, timed attach, census *)
  Nvmm.Memdev.crash (Machine.dev mach) `Strict;
  let recovered = ref None in
  let secs =
    Machine.parallel mach ~threads:1 (fun _ ->
        recovered := Some (Heap.attach mach ~base ()))
  in
  let h' = Option.get !recovered in
  let survived =
    List.for_all
      (fun b -> Machine.read_u64 mach (Heap.get_rawptr h' b.ptr) = b.tag)
      live
  in
  Common.check gates "alloc-churn: every held block's tag survives attach"
    survived;
  let stats' = Heap.stats h' in
  Common.check gates "alloc-churn: live_bytes after attach = the loop's tally"
    (stats'.Heap.live_bytes = tally);
  let fsck = Poseidon.Fsck.run h' in
  Common.check gates "alloc-churn: fsck clean after attach"
    (Poseidon.Fsck.is_clean fsck && fsck.Poseidon.Fsck.total_live_bytes = tally);
  { calls = !calls;
    alloc_failures = !failures;
    makespan_ns;
    call_h;
    tx_h;
    rto_ns = int_of_float (secs *. 1e9);
    live_bytes = stats.Heap.live_bytes;
    user_bytes;
    setup_host = setup_host *. scale;
    churn_host = traffic.Tap.host;
    traffic;
    stats }

(* Sim-clock fingerprint of a run: equal on a fixed seed, whatever
   tracing or host speed. *)
let fingerprint r =
  let h (x : Hist.t) =
    Printf.sprintf "%d/%d/%d/%d" (Hist.count x) (Hist.total x)
      (Hist.percentile x 99.) (Hist.max_value x)
  in
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%s,%s,%d" r.calls r.alloc_failures
    r.makespan_ns r.rto_ns r.live_bytes r.user_bytes (h r.call_h) (h r.tx_h)
    r.stats.Heap.merges

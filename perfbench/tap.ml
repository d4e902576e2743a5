(* Counter snapshots of the simulated machines, taken by probe
   threads at the start and the end of traffic.  The serving harness
   builds and preloads its store before it starts the simulation, so a
   thread spawned at simulated time 0 runs exactly when traffic
   begins, and one spawned at the cut runs when it ends.  A probe only
   reads counters: it charges no time and touches no simulated memory. *)

module Sched = Simcore.Sched
module Memdev = Nvmm.Memdev

type snap = {
  host : float;
  loads : int;
  stores : int;
  lines_flushed : int;
  fences : int;
  read_miss_ns : int;
  flush_ns : int;
  fence_ns : int;
  bandwidth_wait_ns : int;
  wrpkru_ns : int;
  lock_acquisitions : int;
  lock_contended : int;
  lock_wait_ns : int;
  ctx_switches : int;
}

(* summed over [machs], which share one engine *)
let snap machs =
  let sum f = List.fold_left (fun a m -> a + f m) 0 machs in
  let dev f = sum (fun m -> f (Memdev.counters (Machine.dev m))) in
  let prof f = sum (fun m -> f (Machine.profile m)) in
  let locks f =
    sum (fun m ->
        List.fold_left (fun a (_, s) -> a + f s) 0 (Machine.lock_stats m))
  in
  { host = Common.host_s ();
    loads = dev (fun c -> c.Memdev.loads);
    stores = dev (fun c -> c.Memdev.stores);
    lines_flushed = dev (fun c -> c.Memdev.lines_flushed);
    fences = dev (fun c -> c.Memdev.fences);
    read_miss_ns = prof (fun p -> p.Machine.p_read_miss);
    flush_ns = prof (fun p -> p.Machine.p_flush);
    fence_ns = prof (fun p -> p.Machine.p_fence);
    bandwidth_wait_ns = prof (fun p -> p.Machine.p_bandwidth_wait);
    wrpkru_ns = prof (fun p -> p.Machine.p_wrpkru);
    lock_acquisitions = locks (fun s -> s.Machine.Lock.acquisitions);
    lock_contended = locks (fun s -> s.Machine.Lock.contended);
    lock_wait_ns = locks (fun s -> s.Machine.Lock.wait_ns);
    ctx_switches =
      (match machs with
       | m :: _ -> Sched.context_switches (Machine.engine m)
       | [] -> 0) }

let diff a b =
  { host = b.host -. a.host;
    loads = b.loads - a.loads;
    stores = b.stores - a.stores;
    lines_flushed = b.lines_flushed - a.lines_flushed;
    fences = b.fences - a.fences;
    read_miss_ns = b.read_miss_ns - a.read_miss_ns;
    flush_ns = b.flush_ns - a.flush_ns;
    fence_ns = b.fence_ns - a.fence_ns;
    bandwidth_wait_ns = b.bandwidth_wait_ns - a.bandwidth_wait_ns;
    wrpkru_ns = b.wrpkru_ns - a.wrpkru_ns;
    lock_acquisitions = b.lock_acquisitions - a.lock_acquisitions;
    lock_contended = b.lock_contended - a.lock_contended;
    lock_wait_ns = b.lock_wait_ns - a.lock_wait_ns;
    ctx_switches = b.ctx_switches - a.ctx_switches }

type t = {
  mutable machs : Machine.t list; (* every machine the run builds *)
  mutable start : snap option;
  mutable stop : snap option;
}

let create () = { machs = []; start = None; stop = None }

(* Registers a machine; the first one arms the probes on the shared
   engine.  [stop_at] is the simulated instant traffic is cut. *)
let add t ?stop_at mach =
  let first = t.machs = [] in
  t.machs <- t.machs @ [ mach ];
  if first then begin
    let eng = Machine.engine mach in
    ignore (Sched.spawn eng ~cpu:0 ~at:0 (fun () -> t.start <- Some (snap t.machs)));
    match stop_at with
    | Some at ->
      ignore (Sched.spawn eng ~cpu:0 ~at (fun () -> t.stop <- Some (snap t.machs)))
    | None -> ()
  end

let traffic t =
  match (t.start, t.stop) with
  | Some a, Some b -> diff a b
  | _ -> failwith "Tap.traffic: probes did not run"

let start_host t =
  match t.start with
  | Some s -> s.host
  | None -> failwith "Tap.start_host: start probe did not run"

(* Helpers shared by the workloads: host clock, seeds, percentiles,
   metric rows and correctness gates. *)

module Hist = Obs.Hist

(* Host time is the process's CPU time: the simulator is single
   threaded, so this is its cost without the wall-clock noise of
   other tenants of the machine. *)
let host_s () = Sys.time ()

(* Host speed.  On a shared machine the same work can take a third
   more CPU time in one minute than in the next, and a whole run is
   slow or fast together.  Host figures are therefore scaled by the
   time of a fixed reference loop (hash-table inserts and walks over
   boxed values, like the simulator's own work) timed beside them,
   and reported in seconds of a host on which that loop takes
   [reference_loop_s]. *)
let reference_loop_s = 0.02

let reference_loop () =
  let t0 = host_s () in
  let h = Hashtbl.create 4096 in
  for i = 0 to 59_999 do
    Hashtbl.replace h ((i * 7919) land 0x3FFFF) (Array.make 3 i)
  done;
  let acc = ref 0 in
  for _ = 1 to 3 do
    Hashtbl.iter (fun k v -> acc := !acc + k + v.(1)) h
  done;
  ignore (Sys.opaque_identity !acc);
  host_s () -. t0

(* seconds of the reference host per second of this one, right now:
   the faster of two timings of the loop *)
let host_scale () =
  let a = reference_loop () in
  let b = reference_loop () in
  reference_loop_s /. Float.min a b

(* Every input a workload generates derives from the seed argument
   through this one function; [salt] separates the streams of
   sub-runs and probes. *)
let sub_seed seed salt =
  let z = (seed * 0x9E3779B1) + (salt * 0x85EBCA77) + 0x165667B1 in
  (z lxor (z lsr 29)) land 0x3FFF_FFFF

let median = function
  | [] -> invalid_arg "median: no samples"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean of the middle half (a quarter dropped at each end): for a few
   crash-recovery times, steadier than their median and as robust to
   one outlier. *)
let iq_mean = function
  | [] -> invalid_arg "iq_mean: no samples"
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    let k = n / 4 in
    let mid = Array.sub a k (n - (2 * k)) in
    Array.fold_left ( +. ) 0. mid /. float_of_int (Array.length mid)

(* [percentile h p]: the value at rank [p/100 * n], linearly
   interpolated inside the log-linear bucket that holds it.
   {!Obs.Hist.percentile} returns bucket midpoints, which repeat
   exactly across seeds; interpolation keeps the figure continuous. *)
let percentile (h : Hist.t) p =
  let n = Hist.count h in
  if n = 0 then 0.
  else begin
    let rank = p /. 100. *. float_of_int n in
    let low_width i =
      if i < Hist.sub then (float_of_int i, 1.)
      else
        let shift = (i lsr Hist.sub_bits) - 1 in
        ( float_of_int ((Hist.sub + (i land (Hist.sub - 1))) lsl shift),
          float_of_int (1 lsl shift) )
    in
    let rec go i cum =
      let c = h.Hist.counts.(i) in
      if c > 0 && float_of_int (cum + c) >= rank then begin
        let low, width = low_width i in
        let frac = (rank -. float_of_int cum) /. float_of_int c in
        low +. (width *. Float.max 0. (Float.min 1. frac))
      end
      else go (i + 1) (cum + c)
    in
    let v = go 0 0 in
    Float.max (float_of_int (Hist.min_value h))
      (Float.min (float_of_int (Hist.max_value h)) v)
  end

(* A percentile is only reported when at least ten samples lie
   beyond it. *)
let resolvable (h : Hist.t) p =
  float_of_int (Hist.count h) *. (1. -. (p /. 100.)) >= 10.

let copy_hist (src : Hist.t) =
  let h = Hist.create () in
  Hist.merge ~into:h src;
  h

(* ---------- metric rows ---------- *)

type metric = { name : string; value : float; unit_ : string; absent : bool }

let m name unit_ value = { name; value; unit_; absent = false }

(* a layer that does not run on this workload: reported, marked absent *)
let absent name unit_ = { name; value = 0.; unit_; absent = true }

let ratio a b = if b = 0. then 0. else a /. b

(* ---------- correctness gates ---------- *)

type gates = { mutable failures : string list }

let gates () = { failures = [] }

let check g name ok =
  if not ok then begin
    g.failures <- name :: g.failures;
    Printf.eprintf "perfbench: correctness gate failed: %s\n%!" name
  end

(* ---------- heaps ---------- *)

let heap_base = Workloads.Factories.heap_base

(* the default Poseidon heap of {!Workloads.Factories.poseidon} *)
let new_heap mach =
  Poseidon.Heap.create mach ~base:heap_base
    ~size:Workloads.Factories.default_window ~heap_id:1
    ~sub_data_size:(128 * 1024 * 1024) ()

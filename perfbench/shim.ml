(* Pass-through allocator shim for the traced run: times every call
   into the allocator in simulated nanoseconds and forwards it
   unchanged.  It charges no simulated time and touches no simulated
   memory, so a run through it is the same simulation as a run without
   it; the traced run checks exactly that.

   Under a magazine cache the allocator is reached through
   [cache_ops], which the shim forwards with the same timing: a batched
   carve counts as an allocation, a stash or bulk reclaim as a free,
   and a lease publish as a transaction step. *)

module Hist = Obs.Hist
module Sched = Simcore.Sched
open Alloc_intf

type t = {
  alloc_h : Hist.t;
  free_h : Hist.t;
  tx_h : Hist.t;
  note_alloc : bool;
      (* also report each call's time to the span layer (the Alloc
         detail stage).  Off when a magazine cache sits above the shim:
         the cache reports its own entry points, inner calls included. *)
}

let create ~note_alloc =
  { alloc_h = Hist.create (); free_h = Hist.create (); tx_h = Hist.create ();
    note_alloc }

(* calls made outside the simulation (preload, census) are not timed *)
let timed t h f =
  if Sched.in_simulation () then begin
    let t0 = Sched.now () in
    let r = f () in
    let ns = Sched.now () - t0 in
    Hist.record h ns;
    if t.note_alloc then Obs.Span.note_alloc ns;
    r
  end
  else f ()

let wrap t (Instance ((module A), inner)) =
  let module W = struct
    type heap = A.heap

    let allocator_name = A.allocator_name
    let create = A.create
    let attach = A.attach
    let finish = A.finish
    let alloc h size = timed t t.alloc_h (fun () -> A.alloc h size)
    let tx_alloc h size ~is_end = timed t t.tx_h (fun () -> A.tx_alloc h size ~is_end)
    let tx_commit = A.tx_commit
    let free h p = timed t t.free_h (fun () -> A.free h p)
    let get_rawptr = A.get_rawptr
    let get_nvmptr = A.get_nvmptr
    let get_root = A.get_root
    let set_root = A.set_root
    let machine = A.machine
    let cache_ops h =
      Option.map
        (fun (o : cache_ops) ->
          { o with
            cache_carve =
              (fun ~size ~count ->
                timed t t.alloc_h (fun () -> o.cache_carve ~size ~count));
            cache_publish = (fun bs -> timed t t.tx_h (fun () -> o.cache_publish bs));
            cache_stash = (fun p -> timed t t.free_h (fun () -> o.cache_stash p));
            cache_reclaim = (fun bs -> timed t t.free_h (fun () -> o.cache_reclaim bs)) })
        (A.cache_ops h)
  end in
  Instance ((module W : S with type heap = A.heap), inner)

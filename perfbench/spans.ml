(* Self time per span stage over the complete requests of a traced run
   ({!Obs.Span}): a span's self time is its duration minus the time
   its child spans cover. *)

module Span = Obs.Span

type t = {
  requests : int; (* traces with a closed root *)
  self_ns : float array; (* per stage, summed over complete requests *)
  spans : int array; (* per stage: spans counted *)
}

let analyze () =
  let n = Span.count () in
  let child = Array.make (max n 1) 0 in
  let complete = Hashtbl.create 4096 in
  Span.iter (fun ~id:_ ~trace ~parent ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      if stage = Span.Request then Hashtbl.replace complete trace ();
      if parent >= 0 then child.(parent) <- child.(parent) + (t1 - t0));
  let self_ns = Array.make Span.stage_count 0.
  and spans = Array.make Span.stage_count 0 in
  Span.iter (fun ~id ~trace ~parent:_ ~stage ~t0 ~t1 ~mach:_ ~tid:_ ->
      if Hashtbl.mem complete trace then begin
        let i = Span.stage_to_int stage in
        self_ns.(i) <- self_ns.(i) +. float_of_int (max 0 (t1 - t0 - child.(id)));
        spans.(i) <- spans.(i) + 1
      end);
  { requests = Hashtbl.length complete; self_ns; spans }

(* mean self ns per complete request *)
let per_request t stage =
  Common.ratio t.self_ns.(Span.stage_to_int stage) (float_of_int t.requests)

(* mean self ns per span of the stage *)
let per_span t stage =
  let i = Span.stage_to_int stage in
  Common.ratio t.self_ns.(i) (float_of_int t.spans.(i))

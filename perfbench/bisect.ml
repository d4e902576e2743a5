(* Capacity search: the highest offered rate whose probe meets the
   latency limit with nothing shed, by geometric bisection on one
   seed.

   Widening: from [start] the search probes up (after a hit) or down
   (after a miss) by [step], squaring the factor each time, until a hit
   and a miss bracket the knee.  It gives up after [max_widen] such
   probes, i.e. when the knee lies more than [range] times away from
   [start]; the result then says [bracketed = false] and its capacity
   is only a bound.

   Resolution: once bracketed, the search bisects until [hi /. lo <=
   1 +. resolution], so the knee lies within that relative distance of
   the answer.  The last widening factor is [step ** 2 ** k] for some
   [k < max_widen], and [k + 1] halvings of its logarithm bring it to
   [sqrt step <= 1 +. resolution]: a bracketed search never stops
   short of the resolution.

   Inside the bracket the capacity is where a fit of p99 over rate
   crosses the limit.  Any shed request makes a probe a miss, whatever
   its latency; when the bracket's upper end shed, latency says nothing
   about where shedding starts and the capacity is its lower end.

   Probe budget: at most [max_probes] = 1 + [max_widen] widening
   + [max_widen] narrowing probes. *)

type outcome = { p99 : float; shed : int }

type result = {
  capacity : float;
  lo : float; (* highest rate that met the limit (0. if none did) *)
  hi : float; (* lowest rate that missed it (infinity if none did) *)
  bracketed : bool; (* both a hit and a miss were probed *)
  probes : (float * outcome) list; (* in probe order *)
}

let step = 1.1
let resolution = 0.05
let max_widen = 4
let max_probes = 1 + (2 * max_widen)

(* the farthest widening probe from [start], as a factor: step^(2^max_widen - 1) *)
let range = step ** float_of_int ((1 lsl max_widen) - 1)

let meets ~limit o = o.shed = 0 && o.p99 <= limit

(* Where a least-squares line through every probe that shed nothing
   (log p99 over log rate) crosses the limit: it uses all probes, not
   just the bracket's two ends.  A shed miss carries no latency. *)
let fit ~limit probes =
  let pts =
    List.filter_map
      (fun (r, o) ->
        if o.shed = 0 && o.p99 > 0. then Some (log r, log o.p99) else None)
      probes
  in
  let n = float_of_int (List.length pts) in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. pts in
  let sx = sum fst and sy = sum snd in
  let sxx = sum (fun (x, _) -> x *. x) and sxy = sum (fun (x, y) -> x *. y) in
  let den = (n *. sxx) -. (sx *. sx) in
  if n < 2. || den <= 0. then None
  else
    let slope = ((n *. sxy) -. (sx *. sy)) /. den in
    if slope <= 0. then None
    else Some (exp ((log limit -. ((sy -. (slope *. sx)) /. n)) /. slope))

let search ~limit ~start probe =
  if start <= 0. then invalid_arg "Bisect.search";
  let probes = ref [] and lo = ref None and hi = ref None
  and hi_shed = ref false in
  let probe_at rate =
    let o = probe rate in
    probes := (rate, o) :: !probes;
    if meets ~limit o then lo := Some rate
    else begin
      hi := Some rate;
      hi_shed := o.shed > 0
    end
  in
  probe_at start;
  let rec widen k f =
    if k < max_widen then
      match (!lo, !hi) with
      | Some l, None ->
        probe_at (l *. f);
        widen (k + 1) (f *. f)
      | None, Some h ->
        probe_at (h /. f);
        widen (k + 1) (f *. f)
      | _ -> ()
  in
  widen 0 step;
  let rec narrow () =
    match (!lo, !hi) with
    | Some l, Some h when h /. l > 1. +. resolution ->
      probe_at (sqrt (l *. h));
      narrow ()
    | _ -> ()
  in
  narrow ();
  let capacity =
    match (!lo, !hi) with
    | Some l, Some h when not !hi_shed -> (
      match fit ~limit !probes with
      | Some k -> Float.min h (Float.max l k)
      | None -> l)
    | Some l, Some _ -> l (* shedding, not latency, closed the bracket *)
    | Some l, None -> l (* never missed: a lower bound *)
    | None, Some h -> h (* never met: an upper bound *)
    | None, None -> assert false
  in
  { capacity;
    lo = Option.value ~default:0. !lo;
    hi = Option.value ~default:infinity !hi;
    bracketed = !lo <> None && !hi <> None;
    probes = List.rev !probes }

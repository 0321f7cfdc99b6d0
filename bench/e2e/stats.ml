(* Order statistics and the noise-aware comparison verdict. *)

let sorted xs = List.sort compare xs |> Array.of_list

(* Quantile at probability [p] by the "exclusive" method of Python's
   statistics.quantiles (position p * (n + 1), linear interpolation),
   clamped to the sample range; robust to one-sample inputs. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n + 1) in
    let j = truncate pos in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else
      let d = pos -. float_of_int j in
      a.(j - 1) +. (d *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5

(* Median of the means of consecutive groups of [group] values; with
   fewer than [group] values, their median.  Where values fall in two
   modes and the share of each hovers near one half, a plain median
   jumps between the modes while this moves with the share. *)
let median_of_means ~group xs =
  let a = Array.of_list xs in
  let n = Array.length a / group in
  if n = 0 then median xs
  else
    median
      (List.init n (fun i ->
           Array.fold_left ( +. ) 0.0 (Array.sub a (i * group) group)
           /. float_of_int group))

(* Harrell-Davis estimate of the [p] quantile: the average of all order
   statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  A suite's
   application runs are few and unevenly spaced in time, so the sample
   median jumps between neighbouring apps from run to run; this estimate
   moves smoothly.  The weights integrate the density over each rank's
   interval by Simpson's rule. *)
let harrell_davis xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (if n = 1 then a.(0) else nan)
  else begin
    let fn = float_of_int n in
    let al = (p *. (fn +. 1.0)) -. 1.0 and be = ((1.0 -. p) *. (fn +. 1.0)) -. 1.0 in
    let log_density t = (al *. log t) +. (be *. log (1.0 -. t)) in
    let peak = log_density (al /. (al +. be)) in
    let density t =
      if t <= 0.0 || t >= 1.0 then 0.0 else exp (log_density t -. peak)
    in
    let steps = 16 in
    let h = 1.0 /. (fn *. float_of_int steps) in
    let weight i =
      let lo = float_of_int i /. fn in
      let s = ref (density lo +. density (lo +. (1.0 /. fn))) in
      for k = 1 to steps - 1 do
        s := !s +. (if k mod 2 = 1 then 4.0 else 2.0) *. density (lo +. (float_of_int k *. h))
      done;
      !s *. h /. 3.0
    in
    let w = Array.init n weight in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.iteri (fun i x -> acc := !acc +. (w.(i) *. x)) a;
    !acc /. total
  end

type summary = { q1 : float; med : float; q3 : float; n : int }

let summarise xs =
  { q1 = quantile xs 0.25; med = median xs; q3 = quantile xs 0.75;
    n = List.length xs }

(* Relative quartile spread, the repeatability measure a bound is
   checked against. *)
let spread s = if s.med = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.med

type verdict = Same | Better | Worse | Unresolved

let verdict_name = function
  | Same -> "same"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Candidate [b] against baseline [a] for a metric where [lower] is
   better.  Within the bound the sides are the same; beyond it the
   verdict needs disjoint quartile ranges, otherwise it is unresolved
   (as is any side whose own spread exceeds the bound). *)
let compare_sides ~bound ~lower a b =
  if a.med = 0.0 && b.med = 0.0 then Same
  else if spread a > bound || spread b > bound then Unresolved
  else
    let change = (b.med -. a.med) /. Float.abs a.med in
    let worse_change = if lower then change else -.change in
    if Float.abs change <= bound then Same
    else if b.q1 > a.q3 || b.q3 < a.q1 then
      (if worse_change > 0.0 then Worse else Better)
    else Unresolved

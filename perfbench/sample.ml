(** Order statistics over host-time samples. *)

(** The [p]th percentile (0-100) of [xs], interpolating linearly between
    order statistics; 0 for no samples. *)
let percentile (xs : float array) (p : float) : float =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = percentile xs 50.0

(** [a / b], or 0 when [b] is 0. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

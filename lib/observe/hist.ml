(** Log2-bucketed latency histograms.

    Bucket 0 holds exactly the value 0 (and, defensively, negatives);
    bucket [b >= 1] holds values in [[2^(b-1), 2^b - 1]]. The last bucket
    is open-ended up to [Int64.max_int]. Percentile estimates return the
    bucket's upper bound clamped to the largest value ever recorded, so a
    single-sample histogram reports that sample exactly.

    The sum and the maximum are exact [int64]s kept unboxed in a byte
    buffer, so recording a sample ({!record_int}, the WALI crossing's
    path) allocates nothing. *)

let nbuckets = 64

type t = {
  counts : int array; (* length nbuckets *)
  mutable total : int;
  acc : Bytes.t; (* the int64 sum at byte 0, the int64 maximum at byte 8 *)
}

let create () = { counts = Array.make nbuckets 0; total = 0; acc = Bytes.make 16 '\000' }

let sum t = Bytes.get_int64_ne t.acc 0
let max_value t = Bytes.get_int64_ne t.acc 8

(* Bit length of a non-negative int. *)
let rec bits i v = if v = 0 then i else bits (i + 1) (v lsr 1)

let bucket_of_int v = if v <= 0 then 0 else bits 0 v

(* An int64 past [max_int] has 63 bits, the last bucket. *)
let bucket_of (v : int64) : int =
  if v > Int64.of_int max_int then nbuckets - 1 else bucket_of_int (Int64.to_int v)

(** Smallest value belonging to bucket [b]. *)
let lower_bound b = if b <= 0 then 0L else Int64.shift_left 1L (b - 1)

(** Largest value belonging to bucket [b]. *)
let upper_bound b =
  if b <= 0 then 0L
  else if b >= nbuckets - 1 then Int64.max_int
  else Int64.sub (Int64.shift_left 1L b) 1L

(* Count sample [v] >= 0 in bucket [b]. *)
let[@inline] add t b (v : int64) =
  t.counts.(b) <- t.counts.(b) + 1;
  t.total <- t.total + 1;
  Bytes.set_int64_ne t.acc 0 (Int64.add (Bytes.get_int64_ne t.acc 0) v);
  if v > Bytes.get_int64_ne t.acc 8 then Bytes.set_int64_ne t.acc 8 v

let record t (v : int64) =
  let v = if v < 0L then 0L else v in
  add t (bucket_of v) v

(** [record] of an int sample, allocating nothing. *)
let record_int t v =
  let v = if v < 0 then 0 else v in
  add t (bucket_of_int v) (Int64.of_int v)

let count t = t.total

(** [percentile t q] with [q] in [0, 1]: the upper bound of the bucket
    containing the sample of rank [ceil (q * total)], clamped to the
    maximum recorded value. 0 if the histogram is empty. *)
let percentile t (q : float) : int64 =
  if t.total = 0 then 0L
  else begin
    let rank = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.total))) in
    let rank = Stdlib.min rank t.total in
    let rec go b cum =
      if b >= nbuckets then max_value t
      else begin
        let cum = cum + t.counts.(b) in
        if cum >= rank then
          if Int64.compare (upper_bound b) (max_value t) > 0 then max_value t
          else upper_bound b
        else go (b + 1) cum
      end
    in
    go 0 0
  end

(** [merge a b]: a fresh histogram equivalent to recording every sample
    of [a] and then every sample of [b] (commutative and associative up
    to the bucketing, which loses nothing here — counts, totals, sums
    and the recorded maximum all add or max exactly). This is how
    per-process histograms aggregate into suite-level percentiles. *)
let merge a b =
  let t = create () in
  for i = 0 to nbuckets - 1 do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.total <- a.total + b.total;
  Bytes.set_int64_ne t.acc 0 (Int64.add (sum a) (sum b));
  Bytes.set_int64_ne t.acc 8 (if max_value a > max_value b then max_value a else max_value b);
  t

(** Non-empty buckets as [(index, count)] pairs, index ascending. *)
let nonzero t : (int * int) list =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (b, t.counts.(b)) :: !acc
  done;
  !acc

let reset t =
  Array.fill t.counts 0 nbuckets 0;
  t.total <- 0;
  Bytes.fill t.acc 0 16 '\000'

(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val minimum : float list -> float
val maximum : float list -> float

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], nearest-rank method. *)

val ratio : int -> int -> float
(** [ratio num den] as a percentage in [0,100]; 0 when [den = 0]. *)

(** HDR-style bucketed histogram over non-negative integers (negative
    samples clamp to 0), built for nanosecond spans: recording is O(1)
    and allocation-free, quantiles cost one pass over a fixed bucket
    array, and merging is associative — shards can be combined in any
    grouping with identical results.

    Buckets are log-linear: exact unit buckets below 64, then each
    power of two split into 32 linear sub-buckets, bounding relative
    quantization error by 1/32 everywhere. *)
module Histogram : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit

  val count : t -> int
  val sum : t -> int
  (** Exact (not quantized) sum of recorded values. *)

  val min_value : t -> int
  (** Exact minimum; 0 when empty. *)

  val max_value : t -> int
  (** Exact maximum; 0 when empty. *)

  val mean : t -> float

  val merge : t -> t -> t
  (** Associative and commutative; neither argument is mutated. *)

  val equal : t -> t -> bool

  val percentile : t -> float -> int
  (** [percentile t p] with [p] in [0,100], nearest-rank over bucket
      lower bounds: exact for samples below 64 and for the extreme
      ranks (which return the tracked min/max), within the bucket's
      quantization bound otherwise. 0 when empty. *)

  (** Bucket geometry, exposed for property tests. *)

  val num_buckets : int
  val bucket_index : int -> int
  val bucket_lower : int -> int
end

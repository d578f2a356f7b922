(** Measurement instruments for experiments.

    Counters, gauges, log-bucketed histograms and time-bucketed series; the
    bench harness reads these to print the paper's figures. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Hist : sig
  (** Log-bucketed histogram (growth factor 2{^1/8}, ≈9 % relative error),
      suitable for latency distributions spanning many decades. *)

  type t

  val create : unit -> t
  val record : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float

  val quantile : t -> float -> float
  (** [quantile t 0.99] is an approximation of the 99th percentile.
      Returns [nan] when empty. *)

  val bucket_of : float -> int
  (** Bucket index of a value: [round (8 * log2 v)], or [min_int] for
      non-positive values.  Monotone; exposed so tests can assert the
      one-bucket error bound of quantile estimates. *)
end

module Registry : sig
  (** Named instruments for a whole stack, with a deterministic JSON dump.

      Instruments are get-or-create by name ("tcp.segs_out",
      "engine.timers_cancelled", ...): subsystems created at different times
      — or re-created across a failover — share the instrument behind a
      name.  Asking for a name under a different instrument kind raises
      [Invalid_argument]. *)

  type t

  val create : unit -> t
  val counter : t -> string -> Counter.t
  val gauge : t -> string -> Gauge.t
  val hist : t -> string -> Hist.t

  val names : t -> string list
  (** Sorted. *)

  type value =
    | V_counter of int
    | V_gauge of float
    | V_hist of Hist.t
  (** A read-only view of one instrument, for snapshot printers. *)

  val find : t -> string -> value option
  (** Look up an instrument without creating it. *)

  val iter : t -> (string -> value -> unit) -> unit
  (** Visit every instrument in sorted name order (the [to_json] order). *)

  val to_json : t -> string
  (** One key per line, keys sorted, floats in ["%.12g"] (non-finite values
      become [null]): byte-identical across same-seed runs. *)
end

module Series : sig
  (** Accumulates values into fixed-width simulated-time buckets; used for
      throughput-over-time plots (paper Fig. 8). *)

  type t

  val create : bucket:Time.t -> t

  val add : t -> at:Time.t -> float -> unit

  val buckets : t -> (Time.t * float) list
  (** [(bucket_start, sum)] pairs in time order, including empty buckets
      between the first and last populated ones. *)

  val rate_per_sec : t -> (float * float) list
  (** [(bucket_start_sec, sum / bucket_sec)] pairs, i.e. a rate series. *)
end

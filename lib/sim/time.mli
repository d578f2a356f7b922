(** Simulated time.

    All simulation timestamps and durations are integer nanoseconds held in a
    native [int].  With 63-bit integers this covers roughly 146 years of
    simulated time, far beyond any experiment in this repository. *)

type t = int
(** A point in simulated time, or a duration, in nanoseconds. *)

val zero : t

val never : t
(** [max_int]: later than any instant an event can be scheduled at.  Event
    sources report it as their next instant when they hold nothing. *)

val ns : int -> t
(** [ns n] is a duration of [n] nanoseconds. *)

val us : int -> t
(** [us n] is a duration of [n] microseconds. *)

val ms : int -> t
(** [ms n] is a duration of [n] milliseconds. *)

val sec : int -> t
(** [sec n] is a duration of [n] seconds. *)

val of_sec_f : float -> t
(** [of_sec_f s] converts a duration in (possibly fractional) seconds. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds as a float. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds as a float. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds as a float. *)

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["1.500ms"]. *)

val to_string : t -> string

(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic choice in the simulator draws from an explicit [Prng.t]
    so that a run is a pure function of its seed.  The generator is
    splittable: independent subsystems take their own split stream, keeping
    their draws independent of each other's draw counts. *)

type t

val create : seed:int -> t

val split : t -> t
(** [split t] returns a new generator whose stream is statistically
    independent of [t]'s future output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

(** The benchmark's own checks on the program's outputs.

    Each check is computed apart from the program: from the definitions
    of a regular register and of the workload's random processes, never
    by calling the program's checkers or comparing against a recorded
    output. *)

(** {1 Real-time regularity} *)

type kind = Stale | Future | Unwritten

val kind_name : kind -> string
(** ["stale"], ["future"], ["unwritten"] — the tags the program's
    {!Sbft_harness.Scenario.violation_kind} uses for the same cases. *)

val realtime_violations : after:int -> 'ts Sbft_spec.History.t -> (int * kind) list
(** Every read invoked at or after [after] that returned a value the
    regular-register definition forbids, with its read id, in history
    order: a value no write wrote ([Unwritten]), a value whose write began
    after the read ended ([Future]), or a value whose write completed
    before another write began that also completed before the read began
    ([Stale]).  Decided from invocation and response times alone. *)

val reversed_isolated_pairs :
  after:int -> ts_prec:('ts -> 'ts -> bool) -> 'ts Sbft_spec.History.t -> (int * int) list
(** Pairs [(a, b)] of completed writes invoked at or after [after] where
    [a] completed before [b] began, no third completed write overlaps the
    span from [a]'s invocation to [b]'s response, and [b]'s protocol
    timestamp strictly precedes [a]'s under [ts_prec] — the Lemma 8
    breach, sorted. *)

(** {1 Random processes} *)

val poisson_count_ok : rate:float -> duration:int -> int -> bool
(** The count of a Poisson process of [rate] per tick over [duration]
    ticks lies within 5 standard deviations of its mean. *)

val share_ok : p:float -> n:int -> int -> bool
(** [k] successes out of [n] Bernoulli([p]) draws lie within 5 standard
    deviations of [n p]. *)

val percentile : int array -> float -> int
(** Nearest-rank percentile of a sorted, non-empty array ([q] in (0, 1]). *)

(** {1 The per-key probe} *)

val probe :
  Sbft_kv.Store.t -> keys:string array -> write:(int -> int) -> expect:(int -> int) -> int
(** Give key [i] a put of [write i] from one client and, once it has
    completed, a get from another client; run the store to quiescence and
    return how many gets did not answer exactly [Value (expect i)].
    Needs at least two store clients. *)

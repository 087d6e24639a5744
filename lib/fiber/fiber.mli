(** Deterministic cooperative fibers on OCaml 5 effects.

    Fibers model kernel tasks (light-weight processes): each simulated LWP
    runs as one fiber under a round-robin scheduler with a virtual
    monotonic clock. Blocking kernel operations suspend the current fiber
    and hand an explicit resumer to the caller, which makes wakeup,
    timeout and signal-interruption races easy to express and fully
    deterministic. *)

type t
(** A fiber (scheduled task). *)

val id : t -> int
(** Unique id, dense from 0 in spawn order. *)

val name : t -> string

val spawn : string -> (unit -> unit) -> t
(** [spawn name main] creates a runnable fiber. Must be called from within
    {!run}. An uncaught exception in [main] aborts the whole scheduler. *)

val current : unit -> t
(** The running fiber. @raise Failure outside of {!run}. *)

val yield : unit -> unit
(** Reschedule the current fiber to the back of the run queue. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the current fiber. [register resume] is called
    immediately with a one-shot [resume] function; invoking [resume v] makes
    the fiber runnable again and [suspend] returns [v]. Calling [resume]
    more than once is ignored. *)

val now : unit -> int64
(** Virtual monotonic clock, nanoseconds. Advances by a small tick per
    scheduling quantum, and jumps forward when every fiber is blocked on a
    timer. *)

val sleep_until : int64 -> unit
(** Block until [now () >= t]. *)

val at : int64 -> (unit -> unit) -> unit
(** [at t f] runs [f] (in scheduler context, not in a fiber) once the
    virtual clock reaches [t]. Used for timeouts; [f] typically invokes a
    suspended fiber's resumer. *)

exception Deadlock of string list
(** Raised by {!run} when fibers remain suspended with no timer able to
    wake them. Carries the names of the stuck fibers. *)

val run : (unit -> unit) -> unit
(** [run main] installs a fresh scheduler, runs [main] as the root fiber
    and returns when every fiber has finished; timers still pending then
    are dropped.
    @raise Deadlock if the system wedges. *)

val alive : unit -> int
(** Number of fibers spawned and not yet finished (including current). *)

val tick_ns : int64
(** Virtual-clock advance per scheduling quantum. *)

type observer = {
  ob_quantum : t -> int64 -> unit;
      (** [ob_quantum f clock] after each quantum: [f] ran during
          [[clock - tick_ns, clock]]. *)
  ob_idle : int64 -> unit;
      (** [ob_idle delta] when the clock jumps over an idle period of
          [delta] ns (all fibers blocked on timers). *)
}
(** Scheduler observation hook. [tick_ns] per quantum plus the idle
    deltas sum to the final clock exactly. *)

val set_observer : observer option -> unit
(** Install (or clear) the global scheduler observer. Takes effect
    immediately, including for an already-running scheduler. *)

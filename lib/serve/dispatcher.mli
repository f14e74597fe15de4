(** Multi-session event routing over one shared compiled plan.

    The serving counterpart of the runtime's global event dispatcher
    (Fig. 11), generalised by a session id: external events are routed
    [(session, source)] and dispatched strictly in arrival order, so
    per-source ordering {e within} a session is preserved while sessions
    never synchronise with each other. Async and delay boundaries re-enter
    through the same queue, relaxing ordering between a session's async
    subgraph and its synchronous part exactly as the single-session
    runtime does.

    Everything is synchronous and single-threaded on a virtual clock —
    no [Cml.run] required:

    {[
      let d = Dispatcher.create root in
      let a = Dispatcher.open_session d in
      let b = Dispatcher.open_session d in
      Dispatcher.inject d a keyboard 'x';
      ignore (Dispatcher.drain d);
      assert (Session.current a <> Session.current b)  (* a moved, b did not *)
    ]} *)

module Signal = Elm_core.Signal
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade

type 'a t

val create :
  ?tracer:Trace.t ->
  ?on_node_error:Runtime.error_policy ->
  ?queue_capacity:int ->
  ?history:int ->
  ?fuse:bool ->
  ?pool:Pool.t ->
  ?intra:bool ->
  'a Signal.t ->
  'a t
(** Build (or fetch from the plan cache) the compiled plan for the graph
    rooted here and create an empty dispatcher over it. [fuse] (default
    true) runs {!Elm_core.Fuse.fuse_cached} first — note fused composite
    state makes {!clone} approximate; pass [~fuse:false] for exact clones.
    The options are applied to every session opened through this
    dispatcher. A shared [tracer] gets per-session node ids (offset by
    [Compile.id_stride]), so rows never collide. [intra] (default false;
    requires [pool], else [Invalid_argument]) makes {!drain} use
    {!drain_intra}: one session's data-independent region groups also run
    concurrently. *)

val root : 'a t -> 'a Signal.t
(** The graph all sessions run (after fusion, if enabled) — use its input
    nodes with {!inject}. *)

val plan : 'a t -> Compile.plan

(** {1 Session lifecycle} *)

val open_session : 'a t -> 'a Session.t
(** Open a fresh session at the graph's defaults: ~an array copy against
    the shared plan; no threads or channels. *)

val clone : 'a t -> 'a Session.t -> 'a Session.t
(** Snapshot a quiescent session under a fresh id (see
    {!Session.clone}). *)

val close : 'a t -> 'a Session.t -> unit
(** Close and unregister: queued values are dropped, later events for the
    session are ignored. *)

val find : 'a t -> int -> 'a Session.t option

(** {1 Routing} *)

val inject : 'a t -> 'a Session.t -> 'i Signal.t -> 'i -> unit
(** Queue one external event for the given session and input node; it is
    dispatched by the next {!drain}, after everything already queued.
    Raises {!Session.Queue_full} when the input's bounded queue is full,
    [Invalid_argument] if the node is not an input of the plan or the
    session is closed. *)

val try_inject : 'a t -> 'a Session.t -> 'i Signal.t -> 'i -> bool
(** Like {!inject} but returns [false] (counting a drop against the
    session) instead of raising on a full queue. *)

val drain : 'a t -> int
(** Dispatch queued events until quiescence, advancing the virtual clock
    through due delayed values once the ready queue empties. Returns the
    number of events dispatched. Sequential FIFO when the dispatcher has
    no pool; {!drain_parallel} (seed 0) when it does — per-session
    observable traces are identical either way. *)

val drain_parallel : ?seed:int -> 'a t -> int
(** Drain by fanning the runnable sessions out over the dispatcher's
    {!Pool} in rounds: each round runs one task per runnable session (a
    task drains that session's inbox to quiescence on one domain — the
    pinning that preserves per-(session,source) FIFO), then the
    coordinator delivers the earliest batch of due delayed values (at most
    one per session, in heap order) and starts the next round. [seed]
    selects the pool's deal/steal schedule; per-session change traces are
    bit-identical for every seed and equal to the sequential drain's —
    the interleaving oracle in the test suite and bench B18 check exactly
    this. Raises [Invalid_argument] if the dispatcher has no pool.
    Session lifecycle calls ([open_session]/[clone]/[close]) are rejected
    while a parallel drain is running. *)

val drain_intra : ?seed:int -> 'a t -> int
(** Drain with {e intra-session} parallelism: each sweep admits every
    queued wake into its session's group executor ({!Elm_core.Exec.admit} via
    {!Session.exec} — epochs and dispatch billing are assigned before
    anything runs), then executes one pool task per (session, active
    region group) under the plan's group DAG ({!Elm_core.Exec.run}; edges only
    between groups of the same session), then flushes each session
    ({!Elm_core.Exec.flush}): buffered async/delay re-entries go back onto the
    ready queue and delay heap in (admission epoch, group) order. Delays
    are delivered only at global quiescence, as in the other drains.
    Per-session change traces and counter totals are bit-identical to
    {!drain} without a pool, for every [seed] and domain count. Raises
    [Invalid_argument] if the dispatcher has no pool. *)

(** {1 Live upgrade} *)

val upgrade_all :
  ?migrate:Upgrade.migration list ->
  ?mutate:Upgrade.mutation ->
  'a t ->
  'a Signal.t ->
  Upgrade.patch
(** Swap every live session onto the graph rooted at the replacement
    signal, between event waves. The replacement is fused iff the
    dispatcher was created with [~fuse:true], the shared plan cache (and
    the fusion memos with it) is invalidated and reseeded with the new
    plan, and the patch ({!Upgrade.diff} against the current plan, with
    the caller's [migrate] list) is applied to each session
    ({!Session.upgrade}) — then the dispatcher's own seams are rewritten:
    ready-queue entries and delay-heap wakes move to their matched new
    node ids, and wakes of detached sources are released together with
    their pending counters, so the accounting invariant stays exact and
    no accepted event of a surviving subgraph is dropped. An identity
    upgrade (structurally equal replacement, no migrations) is observably
    a no-op at any drain point.

    Admission is wave-boundary only: raises [Invalid_argument] during a
    parallel drain ([check_not_parallel]); the sequential drains never
    run user code between steps, so calling this between [drain]s — or
    from a {!Runtime.at_quiescence} hook on a runtime-driven graph —
    always sees consistent arenas.

    [mutate] plants one of the upgrade bugs of the mutation-testing
    catalogue ({!Upgrade.mutation.Stale_slot_map},
    [Skip_migration], [Leak_seam_mailbox]); the occurrence [n] counts
    [upgrade_all] calls on this dispatcher. Not for applications. *)

val upgrades : 'a t -> int
(** Number of upgrades applied over this dispatcher's lifetime. *)

val pool : 'a t -> Pool.t option

val domain_stats : 'a t -> Stats.t array
(** Per-worker-slot counter accumulators: slot [w] holds the work executed
    by pool worker [w] across parallel drains (attributed via
    {!Elm_core.Stats.add_delta} snapshots around each task). Merging all
    slots with {!Elm_core.Stats.merge} reproduces the totals of the same
    drain run sequentially. Empty until the first parallel drain. *)

val now : 'a t -> float
(** The virtual clock: the due time of the latest delayed value
    delivered. *)

(** {1 Accounting} *)

type accounting = {
  live : int;  (** Currently open sessions. *)
  opened : int;  (** Sessions ever opened (including clones). *)
  closed : int;
  routed : int;  (** External injections accepted. *)
  idle : int;  (** Live sessions with nothing in flight. *)
  pending_events : int;  (** Routed events not yet dispatched. *)
  pending_delays : int;  (** Values waiting in the delay heap. *)
}

val accounting : 'a t -> accounting
val pp_accounting : Format.formatter -> accounting -> unit

val iter_sessions : 'a t -> ('a Session.t -> unit) -> unit

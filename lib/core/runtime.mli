(** Instantiation and execution of signal graphs.

    {!start} performs the paper's Fig. 10 translation at runtime: every node
    of the {!Signal.t} DAG gets its own green thread and a multicast output
    channel, and the Fig. 11 runtime loops — the global event dispatcher and
    the display loop — are spawned alongside. All of it runs on the {!Cml}
    cooperative scheduler and must therefore be called inside {!Cml.run}.

    {b Dispatch strategies.} The paper's Fig. 11 dispatcher {e floods}: every
    event is broadcast to every source and every node emits one
    [Change]/[No_change] message per event, costing O(nodes) messages and
    thread wakeups per event regardless of what the event can affect. The
    default [Cone] strategy instead runs a build-time source-reachability
    analysis ({!Reach}) and wakes only the firing source's affected cone.
    Edges out of quiescent nodes are {e epoch-compressed}: messages carry the
    global event number ({!Event.stamped}), and a receiver whose dependency
    was not in the cone synthesizes the elided [No_change] locally from the
    edge's last body. Observable behaviour ({!changes}, {!current},
    listeners, per-event alignment of [foldp]/[merge]) is identical to
    flooding; {!message_log} differs only in that display rounds whose event
    could not reach the root are elided. {!Stats.t.elided_messages} accounts
    for every send avoided this way: [messages + elided_messages] equals the
    flood total exactly.

    {b Execution modes.} The paper's semantics is synchronous but
    {e pipelined}: an event's value need not have fully propagated before the
    next event enters the graph, yet every node processes events in global
    order. That is [Pipelined], the default. [Sequential] is the
    non-pipelined baseline used by the Section 5 comparison: the dispatcher
    waits for the display loop to acknowledge each event before dispatching
    the next, so at most one event is in flight.

    [memoize:false] disables the [No_change] short-circuit in lift nodes
    (they re-apply their function on unchanged inputs, counted in
    {!Stats.t.recomputations}) while preserving output semantics; it is the
    pull-style recomputation baseline of experiment B3. Because that baseline
    exists to measure flood-shaped work, [memoize:false] defaults to [Flood]
    dispatch unless a strategy is given explicitly, and it also disables
    fusion (a fused composite's step is stateful and cannot be re-run on
    quiescent rounds).

    {b Fusion.} By default {!start} first runs the {!Fuse} pass: maximal
    chains of stateless single-subscriber nodes are collapsed into one
    composite node each, shrinking thread count, messages/event and context
    switches while leaving {!changes}, {!current} and {!on_change}
    bit-identical across [Pipelined]/[Sequential] × [Flood]/[Cone] (for
    chain functions that take no virtual time; a chain of {e sleeping}
    stages keeps its values and order but loses pipelined overlap, since
    the fused chain is one node). {!node_count}, {!Reach} cones, the
    elision invariant and {!Trace} spans all describe the fused graph;
    {!Stats.t.fused_nodes} records how many nodes were eliminated. Pass
    [~fuse:false] to instantiate the graph exactly as written. *)

(** How the graph between async boundaries is executed. Declared before
    {!mode} so the unqualified [Pipelined] keeps naming the execution mode
    at existing call sites; backend positions disambiguate by expected
    type.

    Both backends implement the same observable semantics: {!changes},
    {!current}, {!message_log}, listeners, supervision and the per-event
    alignment invariants are identical (the equivalence is
    property-checked across the shape catalogue and through the
    [Check.Explore] harness). [Compiled] requires memoization — under
    [memoize:false] it silently falls back to the threaded backend, like
    fusion does. *)
type backend =
  | Pipelined
      (** Fig. 10 verbatim: one green thread per node, one multicast
          channel per edge. Default. *)
  | Compiled
      (** Synchronous regions compiled to straight-line step functions
          (see {!Compile}): one thread per async/delay-delimited region,
          node state in a flat arena, [No_change] as a dirty-bit skip.
          Order-of-magnitude fewer context switches and messages per
          event; async boundaries keep their mailboxes and threads. *)

type mode =
  | Pipelined  (** Paper semantics: nodes run concurrently, FIFO edges. *)
  | Sequential  (** Baseline: one event fully displayed before the next. *)

type dispatch =
  | Flood  (** Fig. 11 verbatim: every node emits every event. *)
  | Cone
      (** Reachability-pruned dispatch: only the affected cone runs; elided
          [No_change] rounds are synthesized from epoch gaps. Default. *)

(** What a node does when its user-supplied function raises: the policies
    and their guarantees are documented at {!Exec.error_policy}, whose one
    guard builder every backend uses. *)
type error_policy = Exec.error_policy =
  | Propagate  (** Default: the exception surfaces out of {!Cml.run}. *)
  | Isolate  (** Emit [No_change last-good] and keep going. *)
  | Restart of int
      (** Like [Isolate], re-initialising the node's state on each of its
          first [n] failures. *)

(** A planted ordering bug, injected with [start ?mutate] so the
    schedule-exploration checker ([Check.Explore] in [lib/check]) can
    prove it catches real protocol violations. Each breaks the per-event
    alignment discipline in one place; the [int] picks the nth occurrence
    (1-based), so the fault lands mid-run rather than at startup. Never used
    outside tests and benches. *)
type mutation =
  | Drop_no_change of int
      (** Swallow the nth [No_change] emission: the message is neither sent
          nor counted, starving one receiver of one round. *)
  | Skip_epoch of int
      (** Stamp the nth emission with the emitting node's {e previous}
          epoch, as if the stamp register had not been advanced. *)
  | Reorder_wakeup of int
      (** Hold the nth dispatcher wakeup admit and deliver it after the next
          round bound for the same node — an out-of-order mailbox admit. *)

type 'a t
(** A running instantiation of a signal graph with output type ['a]. *)

val start :
  ?backend:backend ->
  ?mode:mode ->
  ?dispatch:dispatch ->
  ?memoize:bool ->
  ?history:int ->
  ?tracer:Trace.t ->
  ?fuse:bool ->
  ?on_node_error:error_policy ->
  ?queue_capacity:int ->
  ?observer:(node:int -> epoch:int -> changed:bool -> unit) ->
  ?mutate:mutation ->
  ?domains:int ->
  ?pool:Pool.t ->
  'a Signal.t ->
  'a t
(** Instantiate the graph and spawn its threads. Must be called inside
    {!Cml.run}. A signal node belongs to at most one live runtime; starting a
    new runtime over the same nodes re-instantiates them (including, under
    the [Compiled] backend, re-initialising every arena cell from the
    signal defaults — [foldp] state never leaks across runtimes).

    [backend] selects the execution strategy between async boundaries
    (default [Pipelined], the paper's translation; [felmc run] defaults to
    [Compiled]). Under [Compiled], {!Stats.t.compiled_regions} and
    {!Stats.t.region_steps} are populated, the tracer records one span per
    region step instead of per-member rows, and {!message_log} /
    {!changes} are unchanged.

    [history] bounds the {!changes} / {!message_log} logs: absent keeps
    everything (the default, as tests expect), [~history:n] retains the [n]
    most recent entries (amortized O(1) per event), and [~history:0] disables
    logging entirely for long-running sessions — {!current}, {!stats} and
    {!on_change} listeners are unaffected.

    [tracer] enables per-node instrumentation (see {!Trace}): dispatch,
    node-round and display records with virtual-clock timestamps, plus
    queue-depth and context-switch probes installed process-wide for the
    duration of the run. Without it no instrumentation site allocates or
    sends a message, and observable behaviour ({!changes}, {!stats}) is
    identical either way. The cml probe is global, so of two runtimes
    started inside one {!Cml.run} only the most recent [?tracer] receives
    channel/switch records (per-node records are always routed to the
    runtime's own tracer).

    [on_node_error] selects the supervision policy applied to every node's
    user-function application (default {!Propagate}, the seed behaviour).
    The guard wraps only the fallible application — never the edge reads —
    so an internal alignment violation still fails loudly under any policy.
    A crash inside a fused chain isolates or restarts the whole composite
    as a unit.

    [queue_capacity] bounds every node wakeup and source value mailbox
    (default: unbounded, the seed behaviour). Overflow policy is
    {!Cml.Mailbox.Block}: a dispatcher or injector that outruns a node
    suspends until the node drains its backlog — real backpressure rather
    than unbounded buffering. Probe-observed queue depths (tracer
    [queue_peaks]) never exceed the capacity. Deadlock-free for signal
    graphs: node progress depends only on wakeups and upstream multicast
    edges, so a blocked sender always has a running reader downstream.
    [observer] is the reference-trace capture hook used by the
    schedule-exploration checker ([Check.Explore]): it is invoked
    synchronously for every message a node puts on the wire, with the node
    id, the epoch {e as stamped on the message} (so stamp mutations are
    visible), and whether the message was a [Change]. Without it the
    emission path is unchanged.

    [mutate] plants one ordering bug (see {!mutation}); only the checker's
    mutation-coverage tests and benches pass it.

    [domains]/[pool] enable {e intra-session parallel dispatch} on the
    compiled backend: the threaded region dispatcher is replaced by a
    coordinator that batches queued events into waves and runs each wave's
    data-independent region groups (the plan's SCC-condensed dependency
    DAG, {!Compile.group_deps}) concurrently on a domain pool, flushing
    async/delay/display effects afterwards in (admission epoch, group)
    order. Change traces, displayed values and virtual times are identical
    for every domain count to those of [~domains:1] (property-checked by
    [Check.Explore]'s [Domains] policy and gated by bench B19); on
    async-free programs the change trace is also the threaded
    dispatcher's. Region steps run
    atomically in virtual time: a step that charges virtual cost
    ([Cml.sleep] inside a lift) delays the whole wave's flush, so an
    async program with a costly branch keeps its values and per-source
    order but has every display of that wave stamped at the flush — the
    Sec. 5 [async_search] example shows its mouse at t = 1.1, 1.2, 1.3
    under the threaded dispatcher and all three at t = 3.0 under the
    wave. Such costs are only supported inline (single-group waves or
    [~domains:1]): on a pool worker the scheduler is unavailable and the
    step fails under the node's supervision policy. [~domains:k] with
    [k > 1] creates a private pool closed by {!stop}; [~domains:1] runs waves inline with no pool (the sequential
    wave baseline); [~pool] borrows a caller-owned pool (never closed
    here) and takes precedence over [domains]. The wave coordinator
    needs [backend = Compiled] with memoization on, and supports neither
    [mutate] nor [queue_capacity]; a [domains]/[pool] request combined
    with any of those is refused with [Invalid_argument] naming the
    conflicting option.
    @raise Invalid_argument outside a running scheduler, when [history]
    is negative, when a [Restart] budget is negative, when
    [queue_capacity < 1], when [domains < 1], when a [mutate]
    occurrence is [< 1], or when [domains]/[pool] is combined with an
    option the wave coordinator does not support (see above). *)

val inject : _ t -> 'b Signal.t -> 'b -> unit
(** [inject rt input v] delivers an external event: the new value [v] for
    [input] (a node created with {!Signal.input}) is queued and a global
    event is registered with the dispatcher. Events are processed in
    injection order (the [newEvent] mailbox "is a FIFO queue, preserving the
    order of events", Fig. 11).
    @raise Invalid_argument if [input] is not an input node of this
    runtime. *)

val try_inject : _ t -> 'b Signal.t -> 'b -> bool
(** Like {!inject} but returns [false] when the node is not an input of
    this runtime. Input-library drivers use this: a browser fires mouse and
    key events whether or not the program subscribes to them. *)

val current : 'a t -> 'a
(** Latest displayed value (the default until the first change). *)

val changes : 'a t -> (float * 'a) list
(** Every [Change] received by the display loop, oldest first, with the
    virtual time of its arrival (at most [history] entries when a cap was
    given). This is the observable behaviour used throughout tests and
    benches: what the screen showed, and when. Identical under [Flood] and
    [Cone] dispatch. *)

val message_log : 'a t -> (float * 'a Event.t) list
(** Every message (including [No_change]) at the display loop, oldest
    first. Under [Flood] dispatch this is one entry per dispatched event
    (the "exactly one message per node per event" invariant); under [Cone]
    dispatch, events whose source cannot reach the root are elided, so the
    log is the flood log minus those synthesizable [No_change] rows. *)

val on_change : 'a t -> (float -> 'a -> unit) -> unit
(** Register a callback run by the display loop on each change. Callbacks
    run in registration order; both registration and per-change iteration
    are O(1) per callback. *)

val stats : _ t -> Stats.t

val generation : _ t -> int
(** A number unique to this runtime instance; used by input libraries that
    keep per-runtime driver state (e.g. the set of held keys). Minted
    atomically, so concurrent {!start}s from several domains never share a
    generation. *)

val fresh_generation : unit -> int
(** Mint a generation without starting a runtime — exposed for stress
    tests that assert mint uniqueness under concurrent domains. *)

val stop : _ t -> unit
(** Release the runtime's external resources: run every {!on_stop} hook
    with this runtime's generation (dropping per-generation driver state
    in the input libraries) and close the pool created by
    [start ~domains:k] (a caller-supplied [?pool] is never closed).
    Idempotent. The green threads themselves are owned by the enclosing
    {!Cml.run} and end with it, as before — long-lived processes that
    churn runtimes inside one scheduler must [stop] each one or driver
    tables grow without bound. *)

val on_stop : (int -> unit) -> unit
(** Register a global hook run (with the runtime's generation) by every
    {!stop}. Input-library drivers register one per module at init time to
    free per-generation state. Hooks must be reentrant and fast; they may
    run from whichever domain calls {!stop}. *)

val at_quiescence : _ t -> (unit -> unit) -> unit
(** Register a one-shot callback run by the dispatcher at its next
    quiescent point: after an event wave has run and flushed with no
    further global event queued (wave coordinator), or after a dispatched
    event with an empty [newEvent] queue (threaded dispatcher — under
    [Sequential] mode the displayed event has fully settled; under
    [Pipelined] node threads may still be propagating downstream, so only
    the event {e queue} is known empty). This is the seam where a live
    graph upgrade is safe to admit: no round is mid-wave, so arena slots
    and region state are not concurrently observed. Callbacks run on the
    dispatcher thread in registration order and are dropped once run; they
    must not block. If no further event ever arrives after registration,
    the callback runs after the {e next} event's wave completes — register
    before the final injection, or inject a dummy event to flush hooks. *)

val domain_stats : _ t -> Stats.t array
(** Per-worker-slot {!Stats} attribution under intra-session parallel
    dispatch ([start ~domains]/[~pool]): index [w] accumulates the deltas
    of region-group work executed by pool worker [w] (slot 0 doubles as
    the coordinator under [~domains:1]). Empty for threaded runtimes. *)

val source_ids : _ t -> (int * string) list
(** Identifier and name of every source node registered with the
    dispatcher. *)

val node_count : _ t -> int
(** Number of graph nodes instantiated: the per-event message cost of flood
    dispatch, and the denominator of the elision invariant
    [messages + elided_messages = node_count * events]. *)

val dispatch_of : _ t -> dispatch
(** The dispatch strategy this runtime is using. *)

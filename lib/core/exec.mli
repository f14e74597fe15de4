(** The group executor: the one admit → run → flush core every buffered
    driver of a compiled {!Compile.plan} shares.

    A plan's regions condense into {e groups} (the SCC-condensed region
    dependency DAG, {!Compile.group_deps}). Two groups share no arena
    slot, no pending-value queue and no scratch counters, and every
    cross-group interaction is an async/delay seam or the display, none of
    which is consumed in the epoch that produces it (the paper's Sec. 3.3
    decoupling). So a batch of admitted rounds can run group by group, on
    any number of domains in any topological order of the group DAG, as
    long as the boundary effects are buffered and then applied in
    (admission epoch, group index) order — exactly the sequence a
    one-event-at-a-time sweep would have produced.

    Two drivers buffer through it: the runtime's wave coordinator
    ([Runtime.start ~domains]/[~pool]: one thread on the virtual clock) and
    the serving layer's intra-session drain (one executor per session, all
    run as one (session, group) task DAG). {!step} is the direct,
    unbuffered path over the same round start ({!begin_round}) and region
    runner ({!run_region}), which [Serve.Session.step] uses. The runtime's
    threaded region dispatcher ([Runtime.start ~backend:Compiled] without
    [?domains]/[?pool]) calls those two functions itself: the dispatcher
    starts each round, and each region's own thread runs its share, so a
    region that spends virtual time blocks only its own thread.

    The module is pure: it spawns no thread and creates no channel. *)

(** {1 Supervision} *)

(** What a node does when its user-supplied function (lifted function,
    [foldp] step, [drop_repeats] equality, fused composite step) raises.
    Re-exported as [Runtime.error_policy].

    Whatever the policy, per-event alignment is preserved: a failed round
    still emits exactly one message, and that message is [No_change] of the
    node's last-good value — precisely what a quiescent node would have
    sent, so downstream edge caches and the elision invariant are
    untouched. Failures are counted in {!Stats.t.node_failures} and, when a
    tracer is attached, recorded as [Node_fail] instants. *)
type error_policy =
  | Propagate
      (** Seed behaviour (default): the exception unwinds the node thread
          and surfaces out of the scheduler's run, tearing the session
          down. *)
  | Isolate
      (** Catch the exception, emit [No_change last-good], keep the node's
          state (accumulator, composite step) as it was, and keep going. *)
  | Restart of int
      (** Like [Isolate], but additionally re-initialise the node's state —
          a fresh [foldp] accumulator from the signal default, a fresh
          composite step from the fusion factory — on each of the first [n]
          failures {e of that node} (counted in {!Stats.t.node_restarts});
          after the budget is spent the node degrades to [Isolate].
          [Restart 0] is equivalent to [Isolate]. *)

val guard :
  error_policy -> stats:Stats.t -> tracer:Trace.t option -> id:int ->
  Compile.guarded
(** One node's supervisor under the policy, billing failures and restarts
    to [stats] and [Node_fail] instants at node [id]. A [Restart] budget
    lives in the returned record, so build one per node and keep it. The
    pipelined backend applies it at each node thread's value type. *)

val guards :
  error_policy -> stats:Stats.t -> tracer:Trace.t option -> offset:int ->
  Compile.plan -> Compile.guarded array
(** Slot -> {!guard} for every node of the plan, trace ids shifted by
    [offset]. [Propagate] returns the plan's shared {!Compile.unguarded}
    array, so an unsupervised instance allocates nothing here. *)

(** {1 Executors} *)

(** A boundary effect a group buffers instead of performing. *)
type buffered =
  | Push of int * Obj.t  (** Pending value for a source slot. *)
  | Fire of int  (** Async boundary: register a fresh event for a source. *)
  | Delay of int * int * float * Obj.t
      (** Delay boundary: (node, slot, seconds, value). *)
  | Observe of int * int * bool
      (** An emission, for the checker's observer: (node, stamped epoch,
          changed). Buffered only when the executor was created with
          [~observe:true]. *)
  | Display of int * bool * Obj.t
      (** The root's display emission: (epoch, changed, value). *)

val register_regions :
  Trace.t -> offset:int -> label:string -> Compile.plan -> unit
(** One trace row per region, named [label ^ "region:<rep>(<members>)"] at
    [offset + rep]: the rows {!step} and {!run} record spans on. *)

val begin_round :
  Compile.plan ->
  Stats.t ->
  Trace.t option ->
  offset:int ->
  flood:int array option ->
  source:int ->
  Compile.round * int array
(** Start the next event of [source]: bump [events] (the new count is the
    round's epoch), bill [notified_nodes] (woken regions) and
    [elided_messages] (nodes outside the cone), and record the trace's
    [Dispatch] row at the cone size ([node_count] under flood). Returns
    the round and the woken region indices, ascending: the plan's wake
    entry, or [flood] itself, which is [Some] of every region index under
    flood dispatch. *)

val run_region :
  Compile.plan -> Compile.exec -> Trace.t option -> offset:int -> int ->
  Compile.round -> unit
(** Run one region's share of a round ({!Compile.run_region}) between its
    trace spans, billing one [region_steps] to the exec's stats. *)

val step :
  Compile.plan ->
  Compile.exec ->
  tracer:Trace.t option ->
  offset:int ->
  source:int ->
  unit
(** Run one event to completion through the exec, performing its effects
    directly. The round's epoch is the exec's [events] count after the
    bump. It bills [events], [notified_nodes] (woken regions) and
    [elided_messages] (nodes outside the cone), and records the trace's
    [Dispatch] row at the cone size ([node_count] under flood), exactly as
    {!admit} does ({!begin_round}). Then it runs the woken regions in
    index (= topological) order through {!run_region}. *)

type t
(** One instance's group executor: plan, totals, and one group record per
    region group, each with its own exec over the instance's arena. *)

val create :
  plan:Compile.plan ->
  flood:bool ->
  stats:Stats.t ->
  tracer:Trace.t option ->
  offset:int ->
  policy:error_policy ->
  observe:bool ->
  arena:Compile.arena ->
  pop:(int -> Obj.t) ->
  handle:(buffered -> unit) ->
  t
(** [stats] receives the totals (and holds the epoch, as its [events]),
    [pop] consumes a source slot's pending value, and [handle] applies a
    flushed effect. Trace rows are the caller's ({!register_regions}). *)

val admit : t -> source:int -> unit
(** Start the next event with the bookkeeping of {!step}, then queue its
    round once on each woken group. *)

val run : ?pool:Pool.t -> ?seed:int -> dstats:Stats.t array -> t list -> unit
(** Run every admitted round of every listed executor: one task per
    active group, each running its rounds in epoch order over the group's
    woken regions, with its counter delta billed to [dstats.(w)] for the
    worker [w] that ran it. Tasks wait for the active predecessors of
    their own executor's group DAG ({!Compile.group_preds}). With [pool]
    and more than one task the DAG goes to {!Pool.run_dag}; otherwise the
    tasks run inline in smallest-index-first Kahn order. *)

val flush : t -> unit
(** Apply the effects buffered by the last {!run}, stably ordered by
    (admission epoch, group index), through the executor's [handle], and
    merge the groups' scratch counters into its [stats]. *)

(** The compiled backend: synchronous regions as straight-line step
    functions, split into a shared {e plan} and per-instance {e arenas}.

    The paper isolates all asynchrony at explicit [async]/[delay]
    boundaries, so everything between two boundaries is a deterministic
    synchronous region. The pipelined backend (Fig. 10) interprets such a
    region as one cooperative thread per node and one multicast channel per
    edge; this module instead partitions the graph into maximal synchronous
    regions, topologically sorts each, and compiles it to a single op array:
    [foldp] accumulators become arena slots, [No_change] becomes a per-node
    dirty-bit skip, and fan-out/merge become plain sequential reads and
    writes. Async boundaries keep their mailboxes and threads, so
    supervision and tracing still see region-level spans.

    The compilation result is split in two so many concurrent instances can
    share one graph:

    - The {!plan} is the immutable per-graph-shape template: partitioning,
      topological order, op arrays, slot layout, defaults, reachability.
      Built once and cached ({!plan_of}, keyed on the built graph — pair it
      with {!Fuse.fuse_cached} so fused roots are stable).
    - The {!arena} is everything one instance owns: flat value/stamp/state
      blocks. {!new_arena} is ~an array copy; {!clone_arena} snapshots a
      running instance.

    Ops close over slot {e indices}, never over cells, and receive the
    instance's {!exec} context on every run, so the same plan drives every
    executor alike: the runtime's threaded region dispatcher and wave
    coordinator, and the serving layer's sessions, all through [Exec].

    Select it with [Runtime.start ~backend:Compiled]. This module is pure:
    it holds the partitioning, the op compiler and the region runner
    ({!run_region}), and spawns no thread and creates no channel. Threads,
    mailboxes, dispatch, accounting, supervision policy and mutations
    belong to the drivers, which pass them in through {!exec}. *)

type round = {
  epoch : int;
  source : int;
}
(** One dispatcher round; re-exported as [Runtime.round]. Region wakeup
    mailboxes carry the same rounds node wakeup mailboxes do, so the
    dispatcher (and the [Reorder_wakeup] mutation) treats both backends
    uniformly. *)

(** {1 Region partitioning} *)

type region = {
  rg_index : int;  (** Dense index, topological order of first member. *)
  rg_rep : int;
      (** Representative node id — the topologically last member (the
          region's output) — used as the region's id for tracing. *)
  rg_name : string;  (** The representative's name. *)
  rg_members : Signal.packed list;  (** Members in topological order. *)
  rg_member_ids : int list;
}

type plan
(** The compiled template for one graph shape: partitioning, slot layout,
    defaults, op arrays, reachability. Immutable and instance-free — any
    number of runtimes and sessions execute against one plan, each with its
    own {!arena}. *)

val plan : 'a Signal.t -> plan
(** Partition the graph rooted here into maximal synchronous regions
    (union-find over dependency edges, cutting the edge into every
    [async]/[delay] node) and compile each region's op array. Pure;
    deterministic for a given graph (regions, members and ops ordered by
    the {!Signal.reachable} topological order). Prefer {!plan_of}, which
    caches the result per graph. *)

val plan_of : 'a Signal.t -> plan
(** [plan root], cached: keyed on the (built, immutable) graph's root node,
    so repeated instantiations of one graph shape — one per user session,
    say — pay the partition + compile cost once. The cache is bounded; see
    {!plan_cache_stats}. *)

type cache_stats = {
  hits : int;
  misses : int;  (** Monotonic since process start, unlike [entries]. *)
  entries : int;  (** Current cache population. *)
}

val plan_cache_stats : unit -> cache_stats

val clear_plan_cache : unit -> unit
(** Drop every cached plan (the hit/miss counters keep counting) {e and}
    the {!Fuse.fuse_cached} memos — a fusion memo that outlives the plans
    would keep resolving to a fused root whose plan is gone, so every later
    lookup on that graph misses (or serves a stale graph across a live
    upgrade). The next {!plan_of} per graph recompiles; results are
    bit-identical — plans carry no instance state. *)

val regions : plan -> region list

val region : plan -> int -> region
(** [region plan i] is the region of index [i]. *)

val region_of : plan -> int -> int option
val cuts : plan -> (int * int) list
(** [(inner, async)] dependency edges cut at async/delay boundaries: they
    carry no synchronous round, only dispatcher re-entries. *)

val reach : plan -> Reach.t
(** The reachability analysis computed while planning, shared so runtimes
    and sessions need not re-analyze the graph. *)

val root_id : plan -> int
val node_count : plan -> int

val id_stride : plan -> int
(** [1 + max node id] of the planned graph: multiply by a session index to
    offset trace/stats node ids so per-session rows in a shared tracer
    never collide (see [Serve.Session]). *)

val sources : plan -> (int * string) list
(** Runtime sources (id, name), topological order. *)

val inputs : plan -> Signal.packed list
(** The graph's [Input] nodes, for wiring external injection. *)

val slot_of : plan -> int -> int option
(** The arena slot assigned to a node id, if the node is in the plan. *)

val region_sources : plan -> int -> Reach.set
(** [region_sources plan i] is the set of sources reaching any member of
    region [i]. A source is in it exactly when its {!wake} entry lists
    region [i]; executors read the wake table instead. *)

val slot_ids : plan -> int array
(** Slot -> node id. The plan's own array — treat as read-only. *)

val slot_names : plan -> string array
(** Slot -> node name. The plan's own array — treat as read-only. *)

val slot_keys : plan -> string array
(** Slot -> structural key: kind + name + dependency keys in the
    deterministic topological order, occurrence-disambiguated for repeated
    identical subtrees. Two builds of the same program produce identical
    key arrays even though their node ids differ — this is the identity
    {!Upgrade.diff} matches slots on across plans. The plan's own array —
    treat as read-only. *)

val root_slot : plan -> int
(** The arena slot of the plan's root node. *)

val defaults : plan -> Obj.t array
(** Slot -> default value, as seeded into fresh arenas. The plan's own
    array — treat as read-only. *)

val state_count : plan -> int
(** Number of extra state slots ([ar_state] length). *)

val state_node : plan -> int -> int
(** Owning node id of a state slot (each node allocates at most one). *)

val state_copyable : plan -> int -> bool
(** Whether a state slot is plain data ({!clone_arena} copies it) rather
    than a hidden-state closure (re-initialised instead). *)

val state_initial : plan -> int -> Obj.t
(** A fresh initial value for a state slot. *)

val region_deps : plan -> (int * int) list
(** Ordering edges [(producer, consumer)] between region indices: one per
    async/delay seam whose endpoints live in different regions, plus
    shared-source constraints (two regions woken by the same source must
    run in index order — vacuous under the current partition, where a
    source's synchronous cone is region-local, but encoded rather than
    assumed). Deduplicated; may be cyclic (async cuts can point both ways
    between two regions) — the group condensation below is the DAG. *)

val group_count : plan -> int
(** Number of region {e groups}: strongly connected components of the
    {!region_deps} quotient graph. Groups are what intra-session parallel
    dispatch schedules — regions of one group stay sequential (in index
    order), distinct groups of one event wave may run concurrently once
    their {!group_preds} finished. Numbered by smallest member region. *)

val group_of : plan -> int -> int
(** [group_of plan i] is the group of region [i]. *)

val group_regions : plan -> int -> int list
(** Member region indices of a group, ascending. *)

val group_deps : plan -> (int * int) list
(** {!region_deps} quotiented by the condensation: a true DAG over group
    indices, deduplicated, no self-edges. *)

val group_preds : plan -> int -> int list
(** Predecessor groups of a group under {!group_deps}. *)

(** {1 The wake table} *)

type wake = private {
  w_cone : int;
      (** Nodes in the source's cone: {!Reach.cone_size}, the figure the
          elision accounting and [Trace.dispatch] use. *)
  w_regions : int array;  (** Woken region indices, ascending. *)
  w_ops : int array array;
      (** Parallel to [w_regions]: indices into that region's op array of
          the ops whose node is in the cone — each member op, any
          async/delay tap attached to the node, and the root's display op —
          in compiled order. *)
}
(** One runtime source's row of the wake table: the static clock of every
    computation the source can tick. Built once per plan, in
    O(sum of cone sizes), and shared by every instance of it. *)

val wake : plan -> int -> wake
(** [wake plan source] is the source's row; an id that is not a runtime
    source of the plan gets the empty row (cone 0, no regions). O(log
    sources), allocation-free. *)

val pp_plan : Format.formatter -> plan -> unit
(** One line per region ([region i (rep id name): members...]) followed by
    the cut async edges. *)

val to_dot : ?label:string -> 'a Signal.t -> string
(** Like {!Signal.to_dot}, with each synchronous region drawn as a dashed
    cluster ([felmc graph --compiled]). *)

(** {1 Arenas: per-instance state} *)

type arena = {
  ar_values : Obj.t array;  (** Slot -> the node's last emitted body. *)
  ar_stamps : int array;
      (** Slot -> epoch that last changed it; the dirty bit of a round is
          [stamp = epoch]. *)
  ar_state : Obj.t array;
      (** Extra state slots: [foldp] restart flags and [keep_when] gate
          history (plain data, copied by {!clone_arena}) and composite step
          closures (re-created instead). *)
}
(** Values are [Obj.t] because the graph is heterogeneous; this is safe by
    construction — slot [i] is only ever touched by the ops the plan
    compiled for node [i], inside the typed scope of that node's kind. *)

val new_arena : plan -> arena
(** A fresh instance at the graph's defaults: value block copied from the
    plan, stamps zeroed, state slots initialised. O(nodes) array work — no
    graph traversal, no thread or channel creation. *)

val clone_arena : plan -> arena -> arena
(** Snapshot a {e quiescent} instance: values, stamps and plain state
    (foldp restart flags, keep_when gates) are copied; composite step
    closures are re-created from the plan, so fused [drop_repeats] state
    resets to "first value always emits" in the clone (callers that need
    exact clones should plan unfused graphs; see DESIGN.md). *)

(** {1 Execution} *)

type guarded = {
  guard :
    'a.
    prev:'a -> reset:(unit -> unit) -> epoch:int -> (unit -> 'a Event.t) ->
    'a Event.t;
}
(** A node supervisor applied at the node's value type from inside the
    region step; the polymorphic field lets one record carry a per-node
    [Restart] budget. *)

type exec = {
  x_arena : arena;
  x_flood : bool;  (** Flood dispatch: every node active every round. *)
  x_stats : Stats.t;
  x_guards : guarded array;  (** Per slot. *)
  x_account :
    node:int -> epoch:int -> changed:bool -> real:bool -> int option;
      (** Per-node emission accounting: mutation hooks, observer,
          message/elided counters. Returns the epoch actually stamped, or
          [None] if a mutation swallowed the emission. [real] marks the
          root's emission, the only one that still leaves the region as a
          message. *)
  mutable x_root_stamp : int option;
      (** Bridges the root's account result from its member op to the
          display op that runs right after it in the same region step. *)
  x_pop : int -> Obj.t;  (** Consume the pending value for a source slot. *)
  x_push : int -> Obj.t -> unit;  (** Enqueue a value for a source slot. *)
  x_fire_async : int -> unit;
      (** Async boundary: register a global event for this source. *)
  x_delay : node:int -> slot:int -> seconds:float -> Obj.t -> unit;
      (** Delay boundary: deliver the value to [slot] and register a global
          event for [node] after [seconds]. *)
  x_display : epoch:int -> changed:bool -> Obj.t -> unit;
      (** The root's display emission, one per round reaching the root. *)
}
(** The per-instance execution context threaded through every op: the arena
    plus the environment hooks. One record per instance (one per region
    group under [Exec]'s buffered drivers): the runtime's threaded
    dispatcher binds the hooks to mailboxes and virtual-clock threads, the
    wave coordinator and [Serve] to plain queues. *)

val run_region : plan -> exec -> int -> round -> unit
(** [run_region plan x i r] runs region [i]'s share of round [r], in
    compiled (deterministic topological) order: read dependency slots,
    recompute if any is dirty this epoch, write own slot, account the
    emission. Under [x_flood] every op runs; otherwise only the ops the
    {!wake} entry of [r.source] lists for region [i] (none if the source
    does not wake the region). *)

val queue_slots : plan -> (int * int * bool) list
(** Source nodes needing a pending-value queue: [(node id, slot, bounded)].
    Async/delay queues are unbounded ([bounded = false]): their tap runs on
    the instance's own step path, so blocking it on a full queue could
    deadlock the instance. *)

val unguarded : plan -> guarded array
(** Slot -> the [Propagate] supervisor, which applies the node's function
    unguarded. Stateless, so every instance of the plan shares this one
    array — treat as read-only. *)

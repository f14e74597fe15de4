(** Schedule exploration for signal programs.

    The paper's correctness story (Sections 3.3-3.4) is that the CML
    translation preserves global event order {e regardless of how node
    threads interleave}. The rest of this repo runs one fixed FIFO
    interleaving; this module re-executes a signal program under many seeded
    chaos schedules ({!Cml.Scheduler.policy}) and checks, after each, that
    the observable behaviour still matches a FIFO reference run:

    - {b Trace equality} — the displayed change trace (values {e and}
      virtual timestamps) is bit-identical to the reference. Only demanded
      of [deterministic] programs, i.e. programs without [async]/[delay]
      sources: an async boundary deliberately re-registers inner changes as
      fresh global events, and when several async sources race, which one
      registers first is schedule-dependent. Only {e per-source} order is
      promised across an async boundary (see {!Per_source_order} and the
      DESIGN note).
    - {b Per-node output order} — every node stamps strictly increasing
      epochs on its output edge: no node ever processes global events out
      of order, under any schedule. For deterministic programs the full
      per-node epoch sequences must equal the reference's.
    - {b Message accounting} — [messages + elided = nodes * events],
      exactly: chaos may reorder work but never duplicates or drops a
      message.
    - {b No deadlock} — the run completes: no [Stuck], no crash, and as
      many events processed as the reference.

    On a violation the harness shrinks the recorded decision log to a
    minimal failing schedule prefix (binary search over [Replay] prefixes)
    and reports a replayable seed: [felmc run --sched-seed N] and
    [FELM_SCHED_SEED=N dune runtest] re-run under the same schedule.

    Must be called {e outside} [Cml.run]: the explorer owns the scheduler,
    running the program many times over. *)

type 'a session = {
  root : 'a Elm_core.Signal.t;  (** the graph to instantiate *)
  drive : 'a Elm_core.Runtime.t -> unit;
      (** injections (and virtual sleeps) performed by the main thread *)
}

type 'a program

val program :
  name:string ->
  ?deterministic:bool ->
  ?classify:('a -> int option) ->
  show:('a -> string) ->
  (unit -> 'a session) ->
  'a program
(** [program ~name ~show build] packages a signal program for exploration.
    [build] must construct a {e fresh} graph each time it is called — the
    explorer instantiates it once per schedule.

    [deterministic] (default [true]) asserts the program is async-free, so
    its full change trace is schedule-independent and {!Trace_equal}
    applies. Set it to [false] for programs with [async]/[delay] sources.

    [classify] enables {!Per_source_order} for async programs: it maps a
    displayed value to the async source class it originated from (or [None]
    to ignore it), and the per-class subsequences of the change trace must
    then match the reference — the operational statement of "only
    per-source order holds across an async boundary". *)

type invariant =
  | Trace_equal  (** change trace bit-identical to FIFO (deterministic) *)
  | Per_source_order  (** per-class change subsequences match ([classify]) *)
  | Node_epoch_order  (** per-node stamped epochs strictly increasing *)
  | Accounting  (** [messages + elided = nodes * events] *)
  | No_deadlock  (** run completes: no [Stuck], crash or lost events *)

type violation = {
  v_invariant : invariant;
  v_policy : Cml.Scheduler.policy;  (** schedule that exposed it *)
  v_detail : string;
  v_decisions : int list;
      (** shrunk failing schedule prefix (a {!Cml.Scheduler.decision_log}
          prefix, replayable with [Replay]); [[]] when the reference run
          itself violates *)
}

type report = {
  r_program : string;
  r_schedules : int;  (** chaos schedules executed, reference excluded *)
  r_violations : violation list;
}

val run :
  ?schedules:int ->
  ?seed:int ->
  ?invariants:invariant list ->
  ?backend:Elm_core.Runtime.backend ->
  ?mode:Elm_core.Runtime.mode ->
  ?dispatch:Elm_core.Runtime.dispatch ->
  ?fuse:bool ->
  ?on_node_error:Elm_core.Runtime.error_policy ->
  ?queue_capacity:int ->
  ?max_switches:int ->
  ?mutate:Elm_core.Runtime.mutation ->
  ?domains:int ->
  'a program ->
  report
(** [run prog] executes one FIFO reference run, then [schedules] (default
    [50]) seeded chaos runs — alternating [Seeded_random] and [Pct]
    policies derived from [seed] (default [0]) — checking [invariants]
    (default: every invariant applicable to the program) after each.

    [backend]/[mode]/[dispatch]/[fuse]/[on_node_error]/[queue_capacity] are
    passed to {!Elm_core.Runtime.start} unchanged, so the same program can
    be explored across the whole runtime matrix — including the compiled
    backend, whose region threads interleave under the same chaos
    schedules. [max_switches] (default [5_000_000])
    bounds each run, turning livelocks into {!No_deadlock} violations.
    [mutate] plants an ordering bug ({!Elm_core.Runtime.mutation}) in every
    run including the reference — used to prove the checker catches it.
    [domains] is the Domains exploration axis: every run (reference
    included) starts the runtime with intra-session parallel dispatch
    ([Runtime.start ~domains], compiled backend) — the oracle that change
    traces are independent of the domain count is the caller comparing
    reports/traces across domain values, since each [run] holds its
    [domains] fixed.

    The reference run is checked against the schedule-independent
    invariants ({!Accounting}, {!Node_epoch_order}, {!No_deadlock}); chaos
    runs are additionally compared to the reference. Each chaos violation
    is shrunk to a minimal failing prefix of its decision log. *)

val ok : report -> bool
(** [ok r] is [true] when [r] has no violations. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable report: schedule count, then one block per violation
    with the invariant, the detail, the shrunk schedule prefix and a
    replay hint. *)

val replay_hint : violation -> string
(** How to reproduce this violation outside the explorer, e.g.
    ["felmc run --sched-seed 7 ... / FELM_SCHED_SEED=7 dune runtest"]. *)

val pp_policy : Format.formatter -> Cml.Scheduler.policy -> unit
(** ["fifo"], ["random:<seed>"], ["pct:<seed>:<depth>"] or
    ["replay:<n decisions>"]. *)

val policy_of_env : unit -> Cml.Scheduler.policy option
(** The scheduler policy requested by the environment, if any:
    [FELM_SCHED_SEED=n] selects [Seeded_random n] and [FELM_SCHED_PCT=s:d]
    selects [Pct {seed = s; depth = d}]. This is how the replay seed printed
    by {!pp_report} reaches the test suite's shared graph harness
    ([Gen_graph.with_world]). Malformed values are ignored. *)

(** {1 Live-upgrade exploration}

    The serve layer admits upgrades only between event waves
    ([Serve.Dispatcher.upgrade_all]), so the schedule axis for upgrades is
    not thread interleaving but the {e upgrade point}: which prefix of the
    event stream has been injected — and whether it has drained — when the
    upgrade runs. {!run_upgrade} sweeps every split point in both styles
    and compares each session's change trace, per-source projections and
    accounting against a never-upgraded run of the old program: the
    replay-differential oracle. *)

type 'a ugraph = {
  ug_root : 'a Elm_core.Signal.t;  (** the graph to serve *)
  ug_inputs : int Elm_core.Signal.t array;
      (** its input nodes, the injection targets of the event list *)
}

type 'a uprogram

val upgrade_program :
  name:string ->
  ?classify:('a -> int option) ->
  show:('a -> string) ->
  ?migrate:(unit -> Elm_core.Upgrade.migration list) ->
  old_graph:(unit -> 'a ugraph) ->
  new_graph:(unit -> 'a ugraph) ->
  (int * int) list ->
  'a uprogram
(** [upgrade_program ~name ~show ~old_graph ~new_graph events] packages an
    upgrade scenario. Both builders must construct a {e fresh} graph per
    call (the explorer re-instantiates per upgrade point); input index [i]
    of the event list must denote the same logical input in both graphs'
    [ug_inputs]. The replacement must be {e observationally equivalent} to
    the old program under [migrate] — identity upgrades trivially are;
    state-migrating scenarios arrange it by construction (e.g. a re-biased
    [foldp] accumulator whose new view undoes the bias) — so that the
    never-upgraded reference trace is the correct answer at {e every}
    upgrade point. *)

val run_upgrade :
  ?fuse:bool ->
  ?mutate:Elm_core.Upgrade.mutation ->
  ?domains:int ->
  'a uprogram ->
  report
(** Sweep upgrades across every event-split point [k = 0..n], each in both
    styles — {e quiescent} (prefix drained before upgrading) and
    {e pending} (prefix still queued, exercising the ready-queue and
    seam-mailbox remap) — over two sessions per run, then drain and check:
    {!Trace_equal} and (with [classify]) {!Per_source_order} against the
    never-upgraded reference, {!No_deadlock} (run completes, same events
    stepped), {!Accounting} (nothing pending, every session idle, zero
    dropped events). [fuse] defaults to [false]: fused composite state is
    re-created on upgrade (the {!Elm_core.Compile.clone_arena}
    approximation), so only unfused plans promise bit-identical traces.
    [mutate] plants an upgrade bug on every upgrade
    ({!Elm_core.Upgrade.mutation}, occurrence counted per dispatcher);
    [domains] drains through a worker pool of that size. Violations carry
    [[k; style]] (style [1] = quiescent) in [v_decisions]. *)

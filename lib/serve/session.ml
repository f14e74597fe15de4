(* One live instance of a shared compiled plan.

   A session is the serving layer's unit of isolation: the plan (op arrays,
   slot layout, reachability — see Compile) is shared read-only across
   every session of one graph shape; everything a session mutates lives in
   its own arena, its own pending-value queues and its own counters.
   Opening a session is therefore ~an array copy, and two sessions can
   never observe each other's foldp state because no mutable word is
   reachable from both.

   Sessions are fully synchronous: no threads, no mailboxes, no Cml
   scheduler. External events queue up (Dispatcher routes them); [step]
   runs one event to completion by sweeping the regions the plan's wake
   table lists for its source, in index order — which is topological
   order, so one sweep is exactly one settled round of the compiled
   runtime, and it touches only the source's cone. Async taps re-enter
   through the dispatcher's ready queue ([env_fire]) and delay taps
   through its virtual delay heap ([env_delay]), preserving the paper's
   boundary semantics: order is maintained within the synchronous part
   and within each async subgraph, but not between them. *)

module Signal = Elm_core.Signal
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Compile = Elm_core.Compile
module Exec = Elm_core.Exec
module History = Elm_core.History
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade

exception Queue_full

type env = {
  env_fire : sid:int -> source:int -> unit;
  env_delay : sid:int -> node:int -> slot:int -> seconds:float -> Obj.t -> unit;
}

(* The display sink, separated from the session record so the exec's
   display hook (created before the record) has something to write into. *)
type 'a sink = {
  mutable k_current : 'a;
  k_changes : (int * 'a) History.t;  (* (epoch, value) *)
}

(* The plan-shaped fields are mutable for exactly one writer: [upgrade],
   which swaps a session onto a new plan's layout between event waves.
   Everything that names a slot or a node id (queues, the exec's op
   closures, the group executor with its trace id offset) changes
   together; the sink, stats and epoch persist — an upgraded session keeps
   its history. *)
type 'a t = {
  s_id : int;
  mutable s_plan : Compile.plan;
  s_env : env;
  s_policy : Runtime.error_policy;
  mutable s_exec : Compile.exec;
  mutable s_x : Exec.t option;
      (* the group executor the intra drain runs, built on first use *)
  mutable s_queues : Obj.t Queue.t option array;
      (* per slot; [Some] on sources *)
  s_capacity : int option;
  s_stats : Stats.t;  (* its [events] count is the session epoch *)
  s_tracer : Trace.t option;
  mutable s_offset : int;  (* sid * id_stride: per-session trace id offset *)
  s_sink : 'a sink;
  s_inbox : int Queue.t;
      (* source-id wakes pinned to this session during a parallel drain:
         the per-session restriction of the dispatcher's global FIFO. Only
         the domain currently running this session's task touches it. *)
  mutable s_pending : int;  (* routed events not yet stepped *)
  mutable s_pending_delays : int;  (* values in the dispatcher's heap *)
  mutable s_dropped : int;  (* injections refused by a full queue *)
  mutable s_closed : bool;
}

(* The root's display emission, on the direct path or flushed by the
   group executor: the trace instant, then a change into the history.
   [keep] is [History.enabled] of the sink's history, read once per
   layout so that a display with nothing to keep touches only the sink. *)
let record_change : type r.
    keep:bool -> Trace.t option -> r sink -> epoch:int -> changed:bool ->
    Obj.t -> unit =
 fun ~keep tracer k ~epoch ~changed v ->
  (match tracer with
  | None -> ()
  | Some tr -> Trace.display tr ~epoch ~changed);
  if changed then begin
    let v : r = Obj.obj v in
    k.k_current <- v;
    if keep then History.record k.k_changes (epoch, v)
  end

let fresh_queues pl =
  let queues = Array.make (Compile.node_count pl) None in
  List.iter
    (fun (_id, sl, _) -> queues.(sl) <- Some (Queue.create ()))
    (Compile.queue_slots pl);
  queues

let queue_exn queues sl =
  match queues.(sl) with
  | Some q -> q
  | None -> invalid_arg "Serve.Session: not a source slot"

(* The direct execution context for one plan layout, shared by [build]
   and [upgrade]; every closure here captures the queue array and arena it
   was built with, which is why an upgrade rebuilds the whole record rather
   than patching fields. *)
let make_exec ~sid ~env ~policy ~tracer ~stats ~offset ~queues ~sink ~arena pl
    =
  let keep = History.enabled sink.k_changes in
  {
    Compile.x_arena = arena;
    x_flood = false;
    x_stats = stats;
    x_guards = Exec.guards policy ~stats ~tracer ~offset pl;
    x_account =
      (fun ~node:_ ~epoch ~changed:_ ~real ->
        if real then stats.Stats.messages <- stats.Stats.messages + 1
        else stats.Stats.elided_messages <- stats.Stats.elided_messages + 1;
        Some epoch);
    x_root_stamp = None;
    x_pop = (fun sl -> Queue.pop (queue_exn queues sl));
    x_push = (fun sl v -> Queue.push v (queue_exn queues sl));
    x_fire_async =
      (fun id ->
        stats.Stats.async_events <- stats.Stats.async_events + 1;
        env.env_fire ~sid ~source:id);
    x_delay =
      (fun ~node ~slot ~seconds v -> env.env_delay ~sid ~node ~slot ~seconds v);
    x_display =
      (fun ~epoch ~changed v ->
        record_change ~keep tracer sink ~epoch ~changed v);
  }

(* The trace rows of one plan layout: every session's regions, offset by
   its id. *)
let register_regions ~tracer ~sid ~offset pl =
  match tracer with
  | None -> ()
  | Some tr ->
    Exec.register_regions tr ~offset ~label:(Printf.sprintf "s%d:" sid) pl

(* Shared by [open_session] and [clone]: everything but the arena and the
   sink contents. *)
let build : type r.
    sid:int ->
    env:env ->
    policy:Runtime.error_policy ->
    capacity:int option ->
    tracer:Trace.t option ->
    stats:Stats.t ->
    sink:r sink ->
    arena:Compile.arena ->
    plan:Compile.plan ->
    r t =
 fun ~sid ~env ~policy ~capacity ~tracer ~stats ~sink ~arena ~plan:pl ->
  let queues = fresh_queues pl in
  let offset = sid * Compile.id_stride pl in
  register_regions ~tracer ~sid ~offset pl;
  {
    s_id = sid;
    s_plan = pl;
    s_env = env;
    s_policy = policy;
    s_exec =
      make_exec ~sid ~env ~policy ~tracer ~stats ~offset ~queues ~sink ~arena
        pl;
    s_x = None;
    s_queues = queues;
    s_capacity = capacity;
    s_stats = stats;
    s_tracer = tracer;
    s_offset = offset;
    s_sink = sink;
    s_inbox = Queue.create ();
    s_pending = 0;
    s_pending_delays = 0;
    s_dropped = 0;
    s_closed = false;
  }

let open_session ~sid ~env ?tracer ?(on_node_error = Runtime.Propagate)
    ?queue_capacity ?history root =
  (match queue_capacity with
  | Some n when n < 1 ->
    invalid_arg "Serve.Session.open_session: queue_capacity must be >= 1"
  | _ -> ());
  (match history with
  | Some n when n < 0 ->
    invalid_arg "Serve.Session.open_session: negative history"
  | _ -> ());
  let pl = Compile.plan_of root in
  let sink =
    { k_current = Signal.default root; k_changes = History.create history }
  in
  build ~sid ~env ~policy:on_node_error ~capacity:queue_capacity ~tracer
    ~stats:(Stats.create ()) ~sink ~arena:(Compile.new_arena pl) ~plan:pl

(* Cloning snapshots a quiescent session: with nothing pending, every
   value/stamp/state word of the instance lives in the arena (the queues
   are empty and the dispatcher holds nothing for it), so [clone_arena]
   captures the whole observable state. In-flight events would live half in
   the dispatcher's queues and half in the arena — there is no consistent
   cut — hence the idleness requirement. *)
let clone ~sid src =
  if src.s_closed then invalid_arg "Serve.Session.clone: session is closed";
  if src.s_pending > 0 || src.s_pending_delays > 0 then
    invalid_arg "Serve.Session.clone: session has in-flight events";
  let sink =
    {
      k_current = src.s_sink.k_current;
      k_changes = History.copy src.s_sink.k_changes;
    }
  in
  let pl = src.s_plan in
  build ~sid ~env:src.s_env ~policy:src.s_policy ~capacity:src.s_capacity
    ~tracer:src.s_tracer
    ~stats:(Stats.copy src.s_stats)
    ~sink
    ~arena:(Compile.clone_arena pl src.s_exec.Compile.x_arena)
    ~plan:pl

let close s =
  s.s_closed <- true;
  (* Drop queued values so a closed session pins no event payloads. *)
  Array.iter (function Some q -> Queue.clear q | None -> ()) s.s_queues

(* Deliver an external value for [input]. The caller (Dispatcher.inject)
   routes the matching ready-queue entry; value first, routing second, so
   the step finds the value waiting — the same protocol as the runtime's
   input push. Returns [false] (and counts a drop) when the input's queue
   is full: input queues are always the bounded kind (only async/delay
   queues are unbounded, and those are never offered to). *)
let offer : type i. 'a t -> i Signal.t -> i -> bool =
 fun s input v ->
  if s.s_closed then invalid_arg "Serve.Session: session is closed";
  (match Signal.kind input with
  | Signal.Input -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Serve.Session: %s (node %d) is not an input"
         (Signal.name input) (Signal.id input)));
  match Compile.slot_of s.s_plan (Signal.id input) with
  | None ->
    invalid_arg
      (Printf.sprintf "Serve.Session: %s (node %d) is not part of this plan"
         (Signal.name input) (Signal.id input))
  | Some sl -> (
    let q = queue_exn s.s_queues sl in
    match s.s_capacity with
    | Some cap when Queue.length q >= cap ->
      s.s_dropped <- s.s_dropped + 1;
      false
    | _ ->
      Queue.push (Obj.repr v) q;
      true)

(* Run one routed event to completion: sweep the woken regions in index
   (= topological) order, directly through the session's exec. *)
let step s ~source =
  s.s_pending <- s.s_pending - 1;
  if not s.s_closed then
    Exec.step s.s_plan s.s_exec ~tracer:s.s_tracer ~offset:s.s_offset ~source

(* A delayed value coming back from the dispatcher's heap: park it in the
   delay node's (unbounded) queue; the dispatcher routes the wake. *)
let deliver_delayed s ~slot v =
  s.s_pending_delays <- s.s_pending_delays - 1;
  if not s.s_closed then Queue.push v (queue_exn s.s_queues slot)

(* Dispatcher bookkeeping hooks. *)
let mark_pending s = s.s_pending <- s.s_pending + 1
let mark_pending_delay s = s.s_pending_delays <- s.s_pending_delays + 1

(* A routed event / heap entry that will never reach [step]/delivery: its
   source was detached by an upgrade, or the intra drain admitted the
   event into the group executor instead. The counter comes down here. *)
let drop_pending s = s.s_pending <- s.s_pending - 1
let drop_pending_delay s = s.s_pending_delays <- s.s_pending_delays - 1

(* Swap this session onto a new plan's layout. Called by
   [Dispatcher.upgrade_all] between event waves — never mid-step, so the
   arena is a consistent cut. Matched slots carry value/stamp (via the
   patch's migrations), attached slots seed from defaults, and pending
   values queued on matched source slots transfer to the new queue array
   (a transfer may transiently overfill a bounded queue; upgrades never
   drop accepted events). The sink, stats and epoch persist — an upgraded
   session keeps its change history and its epoch numbering. *)
let upgrade : type r.
    ?stale_map:bool ->
    ?skip_migration:bool ->
    ?leak_mailbox:bool ->
    r t ->
    Upgrade.patch ->
    unit =
 fun ?(stale_map = false) ?(skip_migration = false) ?(leak_mailbox = false) s
     patch ->
  if not s.s_closed then begin
    let np = Upgrade.new_plan patch in
    let arena =
      Upgrade.remap ~stale_map ~skip_migration patch s.s_exec.Compile.x_arena
    in
    let queues = fresh_queues np in
    (* [leak_mailbox] is the planted Leak_seam_mailbox bug: the old seam
       mailboxes (pending-value queues) are forgotten instead of
       transferred, so the ready-queue entries the dispatcher remaps
       promise values that are no longer there — the next drain pops an
       empty queue and the no-deadlock oracle trips. *)
    if not leak_mailbox then
      Array.iteri
        (fun old_sl q ->
          match q with
          | None -> ()
          | Some q -> (
            match Upgrade.new_slot_of_old patch old_sl with
            | Some nsl -> (
              match queues.(nsl) with
              | Some nq -> Queue.transfer q nq
              | None -> ())
            | None -> ()))
        s.s_queues;
    let offset = s.s_id * Compile.id_stride np in
    register_regions ~tracer:s.s_tracer ~sid:s.s_id ~offset np;
    s.s_plan <- np;
    s.s_queues <- queues;
    s.s_offset <- offset;
    s.s_x <- None;  (* rebuilt on first use against the new plan's groups *)
    s.s_exec <-
      make_exec ~sid:s.s_id ~env:s.s_env ~policy:s.s_policy ~tracer:s.s_tracer
        ~stats:s.s_stats ~offset ~queues ~sink:s.s_sink ~arena np
  end

(* Parallel-drain inbox. The dispatcher moves a session's share of the
   global FIFO here before handing the session to a pool worker; async
   re-entries append while the task runs. FIFO within the queue = the
   global arrival order restricted to this session, which is all the
   paper's per-(session,source) guarantee needs. *)
let wake_push s source = Queue.push source s.s_inbox
let wake_pop s = Queue.take_opt s.s_inbox
let has_wakes s = not (Queue.is_empty s.s_inbox)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let id s = s.s_id

(* The group executor shares the exec's arena and pop, and applies a
   flushed effect the way the direct exec performs it. *)
let exec s =
  match s.s_x with
  | Some x -> x
  | None ->
    let sid = s.s_id and env = s.s_env and queues = s.s_queues in
    let keep = History.enabled s.s_sink.k_changes in
    let handle = function
      | Exec.Push (sl, v) -> Queue.push v (queue_exn queues sl)
      | Exec.Fire id -> env.env_fire ~sid ~source:id
      | Exec.Delay (node, slot, seconds, v) ->
        env.env_delay ~sid ~node ~slot ~seconds v
      | Exec.Observe _ -> ()
      | Exec.Display (epoch, changed, v) ->
        record_change ~keep s.s_tracer s.s_sink ~epoch ~changed v
    in
    let x =
      Exec.create ~plan:s.s_plan ~flood:false ~stats:s.s_stats
        ~tracer:s.s_tracer ~offset:s.s_offset ~policy:s.s_policy
        ~observe:false ~arena:s.s_exec.Compile.x_arena
        ~pop:s.s_exec.Compile.x_pop ~handle
    in
    s.s_x <- Some x;
    x

let current s = s.s_sink.k_current

let changes s = History.recent s.s_sink.k_changes

let stats s = s.s_stats
let epoch s = s.s_stats.Stats.events
let pending s = s.s_pending
let pending_delays s = s.s_pending_delays
let dropped s = s.s_dropped
let closed s = s.s_closed
let is_idle s = s.s_pending = 0 && s.s_pending_delays = 0

let pp_stats ppf s =
  Stats.pp_labeled (Printf.sprintf "s%d" s.s_id) ppf s.s_stats

(* The session's own memory: arena + queues + history + counters. The plan
   is deliberately not behind any of these roots (ops and defaults are
   reached only through [s_exec]'s closures over the shared plan, which we
   exclude by rooting at the mutable parts), so the number approximates the
   marginal footprint of one more idle session. *)
let footprint_words s =
  Obj.reachable_words
    (Obj.repr
       ( s.s_exec.Compile.x_arena,
         s.s_queues,
         s.s_sink.k_changes.History.h_rev,
         s.s_stats ))

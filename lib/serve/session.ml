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
  mutable k_rev_changes : (int * 'a) list;  (* (epoch, value), newest first *)
  mutable k_n_changes : int;
  k_history : int option;
}

(* Intra-session parallel stepping: the boundary effects a region-group
   task buffers instead of performing, applied by the coordinator after the
   group barrier in (admission epoch, group index) order — touching the
   dispatcher's ready queue, the delay heap and the tracer's dispatch shard
   from a worker would race (or shard-split the round). *)
type geffect =
  | G_push of int * Obj.t  (* pending value for a source slot *)
  | G_fire of int  (* async boundary: re-enter as a fresh wake *)
  | G_delay of int * int * float * Obj.t  (* node, slot, seconds, value *)
  | G_display of int * bool  (* the tracer's display instant *)

(* One region group's execution context: shares the session's arena (groups
   touch disjoint slots) but owns its scratch counters, guards and effect
   buffer, so two groups of one session can run on different domains with
   no shared mutable word. *)
type gexec = {
  g_exec : Compile.exec;
  g_stats : Stats.t;  (* scratch, owned by the running task *)
  mutable g_snap : Stats.t;  (* last state merged into the session stats *)
  g_epoch : int ref;  (* current round's epoch, tags buffered effects *)
  g_effects : (int * geffect) Queue.t;
  g_rounds : Compile.round Queue.t;  (* this round's work, set by [admit] *)
}

(* The plan-shaped fields are mutable for exactly one writer: [upgrade],
   which swaps a session onto a new plan's layout between event waves.
   Everything that names a slot or a node id (queues, bounds, the exec's
   op closures, the trace id offset) changes together; the sink, stats and
   epoch persist — an upgraded session keeps its history. *)
type 'a t = {
  s_id : int;
  mutable s_plan : Compile.plan;
  s_env : env;
  s_policy : Runtime.error_policy;
  mutable s_exec : Compile.exec;
  mutable s_queues : Obj.t Queue.t option array;
      (* per slot; [Some] on sources *)
  s_capacity : int option;
  s_stats : Stats.t;
  s_tracer : Trace.t option;
  mutable s_offset : int;  (* sid * id_stride: per-session trace id offset *)
  s_sink : 'a sink;
  s_inbox : int Queue.t;
      (* source-id wakes pinned to this session during a parallel drain:
         the per-session restriction of the dispatcher's global FIFO. Only
         the domain currently running this session's task touches it. *)
  mutable s_gexecs : gexec array;  (* [||] until intra-mode is first used *)
  mutable s_epoch : int;  (* session-local event counter *)
  mutable s_pending : int;  (* routed events not yet stepped *)
  mutable s_pending_delays : int;  (* values in the dispatcher's heap *)
  mutable s_dropped : int;  (* injections refused by a full queue *)
  mutable s_closed : bool;
}

(* Bounded newest-first history, as in Runtime: capped at [2*cap]
   transiently and truncated back to [cap]. *)
let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record_change k epoch v =
  k.k_current <- v;
  match k.k_history with
  | Some 0 -> ()
  | None ->
    k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
    k.k_n_changes <- k.k_n_changes + 1
  | Some cap ->
    if k.k_n_changes + 1 > 2 * cap then begin
      k.k_rev_changes <- take cap ((epoch, v) :: k.k_rev_changes);
      k.k_n_changes <- cap
    end
    else begin
      k.k_rev_changes <- (epoch, v) :: k.k_rev_changes;
      k.k_n_changes <- k.k_n_changes + 1
    end

(* Per-slot supervisors, mirroring the runtime's [make_guard]. [Propagate]
   needs no per-node state, so every session of a plan shares the plan's
   one array (the default serving configuration: opening a session
   allocates nothing here); [Isolate]/[Restart] carry per-node failure
   attribution and budgets. *)
let make_guards ~policy ~stats ~tracer ~offset pl =
  match (policy : Runtime.error_policy) with
  | Runtime.Propagate -> Compile.unguarded pl
  | Runtime.Isolate | Runtime.Restart _ ->
    let note id epoch =
      stats.Stats.node_failures <- stats.Stats.node_failures + 1;
      match tracer with
      | None -> ()
      | Some tr -> Trace.node_failure tr ~node:(offset + id) ~epoch
    in
    Array.map
      (fun id ->
        let left =
          ref (match policy with Runtime.Restart b -> b | _ -> 0)
        in
        {
          Compile.guard =
            (fun ~prev ~reset ~epoch f ->
              try f ()
              with _ ->
                note id epoch;
                if !left > 0 then begin
                  decr left;
                  stats.Stats.node_restarts <- stats.Stats.node_restarts + 1;
                  reset ()
                end;
                Event.No_change prev);
        })
      (Compile.slot_ids pl)

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

let register_regions ~tracer ~sid ~offset pl =
  match tracer with
  | None -> ()
  | Some tr ->
    List.iter
      (fun rg ->
        Trace.register_node tr
          ~id:(offset + rg.Compile.rg_rep)
          ~name:
            (Printf.sprintf "s%d:region:%s(%d)" sid rg.Compile.rg_name
               (List.length rg.Compile.rg_member_ids)))
      (Compile.regions pl)

(* The sequential execution context for one plan layout. Shared by [build]
   and [upgrade]; every closure here captures the queue array and arena it
   was built with, which is why an upgrade rebuilds the whole record rather
   than patching fields. *)
let make_exec : type r.
    sid:int ->
    env:env ->
    policy:Runtime.error_policy ->
    tracer:Trace.t option ->
    stats:Stats.t ->
    offset:int ->
    queues:Obj.t Queue.t option array ->
    sink:r sink ->
    arena:Compile.arena ->
    Compile.plan ->
    Compile.exec =
 fun ~sid ~env ~policy ~tracer ~stats ~offset ~queues ~sink ~arena pl ->
  {
      Compile.x_arena = arena;
      x_flood = false;
      x_stats = stats;
      x_guards = make_guards ~policy ~stats ~tracer ~offset pl;
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
        (fun ~node ~slot ~seconds v ->
          env.env_delay ~sid ~node ~slot ~seconds v);
      x_display =
        (fun ~epoch ~changed v ->
          (match tracer with
          | None -> ()
          | Some tr -> Trace.display tr ~epoch ~changed);
          if changed then record_change sink epoch (Obj.obj v : r));
  }

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
    epoch:int ->
    plan:Compile.plan ->
    r t =
 fun ~sid ~env ~policy ~capacity ~tracer ~stats ~sink ~arena ~epoch ~plan:pl ->
  let queues = fresh_queues pl in
  let offset = sid * Compile.id_stride pl in
  register_regions ~tracer ~sid ~offset pl;
  let x =
    make_exec ~sid ~env ~policy ~tracer ~stats ~offset ~queues ~sink ~arena pl
  in
  {
    s_id = sid;
    s_plan = pl;
    s_env = env;
    s_policy = policy;
    s_exec = x;
    s_queues = queues;
    s_capacity = capacity;
    s_stats = stats;
    s_tracer = tracer;
    s_offset = offset;
    s_sink = sink;
    s_inbox = Queue.create ();
    s_gexecs = [||];
    s_epoch = epoch;
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
    {
      k_current = Signal.default root;
      k_rev_changes = [];
      k_n_changes = 0;
      k_history = history;
    }
  in
  build ~sid ~env ~policy:on_node_error ~capacity:queue_capacity ~tracer
    ~stats:(Stats.create ()) ~sink ~arena:(Compile.new_arena pl) ~epoch:0
    ~plan:pl

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
      k_rev_changes = src.s_sink.k_rev_changes;
      k_n_changes = src.s_sink.k_n_changes;
      k_history = src.s_sink.k_history;
    }
  in
  build ~sid ~env:src.s_env ~policy:src.s_policy ~capacity:src.s_capacity
    ~tracer:src.s_tracer
    ~stats:(Stats.copy src.s_stats)
    ~sink
    ~arena:(Compile.clone_arena src.s_plan src.s_exec.Compile.x_arena)
    ~epoch:src.s_epoch ~plan:src.s_plan

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

(* The per-event bookkeeping [step] and [admit] share: bump the
   session-local epoch and settle every counter the plan's wake table
   determines. The cone size against the node count settles the elision
   invariant exactly as the runtime's dispatcher does, so
   [messages + elided = nodes * events] holds per session. Returns the
   round and the woken region indices, ascending. *)
let begin_round s ~source =
  s.s_epoch <- s.s_epoch + 1;
  let st = s.s_stats in
  let w = Compile.wake s.s_plan source in
  let woken = Array.length w.Compile.w_regions in
  st.Stats.events <- st.Stats.events + 1;
  st.Stats.notified_nodes <- st.Stats.notified_nodes + woken;
  st.Stats.region_steps <- st.Stats.region_steps + woken;
  st.Stats.elided_messages <-
    st.Stats.elided_messages + (Compile.node_count s.s_plan - w.Compile.w_cone);
  (match s.s_tracer with
  | None -> ()
  | Some tr ->
    Trace.dispatch tr ~source:(s.s_offset + source) ~epoch:s.s_epoch
      ~targets:w.Compile.w_cone);
  ({ Compile.epoch = s.s_epoch; source }, w.Compile.w_regions)

(* One region of a round, between its tracer spans. *)
let run_traced s x i r =
  match s.s_tracer with
  | None -> Compile.run_region s.s_plan x i r
  | Some tr ->
    let node = s.s_offset + (Compile.region s.s_plan i).Compile.rg_rep in
    Trace.node_start tr ~node ~epoch:r.Compile.epoch;
    Compile.run_region s.s_plan x i r;
    Trace.node_end tr ~node ~epoch:r.Compile.epoch

(* Run one routed event to completion: sweep the woken regions in index
   (= topological) order. *)
let step s ~source =
  s.s_pending <- s.s_pending - 1;
  if not s.s_closed then begin
    let r, woken = begin_round s ~source in
    for k = 0 to Array.length woken - 1 do
      run_traced s s.s_exec (Array.unsafe_get woken k) r
    done
  end

(* A delayed value coming back from the dispatcher's heap: park it in the
   delay node's (unbounded) queue; the dispatcher routes the wake. *)
let deliver_delayed s ~slot v =
  s.s_pending_delays <- s.s_pending_delays - 1;
  if not s.s_closed then Queue.push v (queue_exn s.s_queues slot)

(* Dispatcher bookkeeping hooks. *)
let mark_pending s = s.s_pending <- s.s_pending + 1
let mark_pending_delay s = s.s_pending_delays <- s.s_pending_delays + 1

(* A routed event / heap entry discarded across an upgrade (its source was
   detached): the matching future step/delivery will never happen, so the
   counter comes down here instead. *)
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
    s.s_gexecs <- [||];  (* rebuilt lazily against the new plan's groups *)
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
(* Intra-session parallel stepping.

   [admit] (coordinator) assigns the epoch and settles every deterministic
   per-event counter (events, notified, region_steps, elided, the tracer's
   dispatch row — all computable from the plan alone), queueing the round
   on each woken region's group. [run_group] (a pool task, one per active
   group, ordered by the plan's group DAG) performs the actual op
   execution, billing value-dependent counters into the group's scratch
   and buffering boundary effects. [flush_groups] (coordinator, after the
   barrier) applies the buffered effects in (epoch, group) order — the
   order a sequential [step] sweep would have performed them — and merges
   the scratch deltas, so [stats] totals match sequential stepping
   exactly. The root's sink is written directly by the root's group (the
   single writer); the coordinator only reads it after the barrier. *)

let ensure_gexecs : type r. r t -> unit =
 fun s ->
  if Array.length s.s_gexecs = 0 then begin
    let pl = s.s_plan in
    s.s_gexecs <-
      Array.init (Compile.group_count pl) (fun _ ->
          let g_stats = Stats.create () in
          let epoch_ref = ref 0 in
          let effects = Queue.create () in
          let x =
            {
              Compile.x_arena = s.s_exec.Compile.x_arena;
              x_flood = false;
              x_stats = g_stats;
              x_guards =
                make_guards ~policy:s.s_policy ~stats:g_stats ~tracer:s.s_tracer
                  ~offset:s.s_offset pl;
              x_account =
                (fun ~node:_ ~epoch ~changed:_ ~real ->
                  if real then g_stats.Stats.messages <- g_stats.Stats.messages + 1
                  else
                    g_stats.Stats.elided_messages <-
                      g_stats.Stats.elided_messages + 1;
                  Some epoch);
              x_root_stamp = None;
              x_pop = (fun sl -> Queue.pop (queue_exn s.s_queues sl));
              x_push =
                (fun sl v -> Queue.push (!epoch_ref, G_push (sl, v)) effects);
              x_fire_async =
                (fun id ->
                  g_stats.Stats.async_events <- g_stats.Stats.async_events + 1;
                  Queue.push (!epoch_ref, G_fire id) effects);
              x_delay =
                (fun ~node ~slot ~seconds v ->
                  Queue.push (!epoch_ref, G_delay (node, slot, seconds, v)) effects);
              x_display =
                (fun ~epoch ~changed v ->
                  if s.s_tracer <> None then
                    Queue.push (!epoch_ref, G_display (epoch, changed)) effects;
                  if changed then record_change s.s_sink epoch (Obj.obj v : r));
            }
          in
          {
            g_exec = x;
            g_stats;
            g_snap = Stats.copy g_stats;
            g_epoch = epoch_ref;
            g_effects = effects;
            g_rounds = Queue.create ();
          })
  end

let admit s ~source =
  s.s_pending <- s.s_pending - 1;
  if not s.s_closed then begin
    ensure_gexecs s;
    let r, woken = begin_round s ~source in
    let pushed = ref [] in
    Array.iter
      (fun i ->
        let g = Compile.group_of s.s_plan i in
        if not (List.mem g !pushed) then begin
          pushed := g :: !pushed;
          Queue.push r s.s_gexecs.(g).g_rounds
        end)
      woken
  end

let active_groups s =
  let acc = ref [] in
  Array.iteri
    (fun g gx -> if not (Queue.is_empty gx.g_rounds) then acc := g :: !acc)
    s.s_gexecs;
  List.rev !acc

let run_group s g ~dstats =
  let gx = s.s_gexecs.(g) in
  let before = Stats.copy gx.g_stats in
  let rec go () =
    match Queue.take_opt gx.g_rounds with
    | None -> ()
    | Some r ->
      gx.g_epoch := r.Compile.epoch;
      Array.iter
        (fun i ->
          if Compile.group_of s.s_plan i = g then run_traced s gx.g_exec i r)
        (Compile.wake s.s_plan r.Compile.source).Compile.w_regions;
      go ()
  in
  go ();
  Stats.add_delta dstats ~before ~after:gx.g_stats

let flush_groups s ~fire ~delay =
  if Array.length s.s_gexecs > 0 then begin
    let tagged = ref [] in
    Array.iteri
      (fun g gx ->
        Queue.iter (fun (ep, eff) -> tagged := (ep, g, eff) :: !tagged)
          gx.g_effects;
        Queue.clear gx.g_effects)
      s.s_gexecs;
    let ordered =
      List.stable_sort
        (fun ((e1 : int), (g1 : int), _) (e2, g2, _) ->
          if e1 <> e2 then compare e1 e2 else compare g1 g2)
        (List.rev !tagged)
    in
    List.iter
      (fun (_ep, _g, eff) ->
        match eff with
        | G_push (sl, v) -> Queue.push v (queue_exn s.s_queues sl)
        | G_fire id -> fire id
        | G_delay (node, slot, seconds, v) -> delay ~node ~slot ~seconds v
        | G_display (epoch, changed) -> (
          match s.s_tracer with
          | None -> ()
          | Some tr -> Trace.display tr ~epoch ~changed))
      ordered;
    Array.iter
      (fun gx ->
        Stats.add_delta s.s_stats ~before:gx.g_snap ~after:gx.g_stats;
        gx.g_snap <- Stats.copy gx.g_stats)
      s.s_gexecs
  end

(* ------------------------------------------------------------------ *)
(* Accessors *)

let id s = s.s_id
let current s = s.s_sink.k_current

let changes s =
  let l =
    match s.s_sink.k_history with
    | None -> s.s_sink.k_rev_changes
    | Some cap -> take cap s.s_sink.k_rev_changes
  in
  List.rev l

let stats s = s.s_stats
let epoch s = s.s_epoch
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
         s.s_sink.k_rev_changes,
         s.s_stats ))

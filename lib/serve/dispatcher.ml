(* Multi-session event routing over one shared compiled plan.

   The dispatcher is the serving counterpart of the runtime's global event
   dispatcher (Fig. 11), generalised by a session id: external events are
   routed [(session, source)] and dispatched strictly in arrival order, so
   per-source ordering within a session is the global FIFO order restricted
   to that session — the paper's ordering guarantee, per session. Async and
   delay boundaries re-enter through the same queue (via [Session.env]),
   which relaxes ordering between a session's async subgraph and its
   synchronous part exactly as the single-session runtime does, while two
   different sessions never synchronise on anything at all.

   Delays use a virtual clock: the heap orders (due time, sequence) and
   [drain] advances [now] to each due time once the ready queue is empty —
   the same deterministic timer semantics as the Cml scheduler's wheel,
   without running a scheduler. Everything here is synchronous and
   single-threaded; no Cml.run is needed, which is what lets felmc serve
   sessions (and the benches churn 10k of them) from plain code. *)

module Signal = Elm_core.Signal
module Reach = Elm_core.Reach
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Fuse = Elm_core.Fuse
module Compile = Elm_core.Compile
module Exec = Elm_core.Exec
module Runtime = Elm_core.Runtime
module Upgrade = Elm_core.Upgrade
module Pqueue = Cml.Pqueue

type delayed = {
  dl_sid : int;
  dl_node : int;  (* the delay node to wake *)
  dl_slot : int;  (* its value slot *)
  dl_value : Obj.t;
}

type 'a t = {
  mutable d_root : 'a Signal.t;
      (* the (possibly fused) graph all sessions run; [upgrade_all] swaps
         it together with the plan between event waves *)
  mutable d_plan : Compile.plan;
  d_fuse : bool;  (* replayed on the replacement graph at upgrade *)
  d_env : Session.env;
  d_sessions : (int, 'a Session.t) Hashtbl.t;
  d_ready : (int * int) Queue.t;  (* (session id, source id), FIFO *)
  d_delays : ((float * int), delayed) Pqueue.t ref;
  d_now : float ref;  (* virtual clock, advanced by drain *)
  d_tracer : Trace.t option;
  d_policy : Runtime.error_policy;
  d_capacity : int option;
  d_history : int option;
  d_pool : Pool.t option;  (* present: [drain] fans out over domains *)
  d_intra : bool;
      (* split each session's work by region group (plan group DAG) so one
         session's independent groups also run concurrently; needs a pool *)
  d_in_parallel : bool ref;
      (* true while pool workers are stepping sessions: boundary re-entries
         route to session inboxes instead of [d_ready], and the delay heap
         goes behind the env's lock. A ref (not a field) because the env
         closures are built before the record. *)
  mutable d_domain_stats : Stats.t array;
      (* per-worker-slot accumulators, grown lazily to the pool width *)
  mutable d_next_sid : int;
  mutable d_opened : int;
  mutable d_closed : int;
  mutable d_routed : int;  (* external injections accepted *)
  mutable d_upgrades : int;  (* upgrade_all calls: the mutation occurrence *)
}

type accounting = {
  live : int;
  opened : int;
  closed : int;
  routed : int;
  idle : int;
  pending_events : int;
  pending_delays : int;
}

let create ?tracer ?(on_node_error = Runtime.Propagate) ?queue_capacity
    ?history ?(fuse = true) ?pool ?(intra = false) root =
  if intra && pool = None then
    invalid_arg "Serve.Dispatcher.create: intra requires a pool";
  let root = if fuse then Fuse.fuse_cached root else root in
  let plan = Compile.plan_of root in
  let sessions = Hashtbl.create 64 in
  let ready = Queue.create () in
  let delays =
    ref (Pqueue.empty ~compare:(fun (a : float * int) b -> compare a b))
  in
  let seq = ref 0 in
  let now = ref 0.0 in
  let in_parallel = ref false in
  let delay_lock = Mutex.create () in
  let env =
    {
      Session.env_fire =
        (fun ~sid ~source ->
          match Hashtbl.find_opt sessions sid with
          | Some s when not (Session.closed s) ->
            Session.mark_pending s;
            (* During a parallel round an async re-entry lands on its own
               session's inbox: only the worker currently pinned to [sid]
               calls this for [sid], so the push is single-writer, and the
               task drains the inbox before returning — the re-entry runs
               on the same domain, after everything already queued for the
               session, exactly as the global FIFO would have ordered it.
               (The sessions table is read-only while workers run:
               open/close/clone are rejected mid-drain.) *)
            if !in_parallel then Session.wake_push s source
            else Queue.push (sid, source) ready
          | Some _ | None -> ());
      env_delay =
        (fun ~sid ~node ~slot ~seconds v ->
          match Hashtbl.find_opt sessions sid with
          | Some s when not (Session.closed s) ->
            Session.mark_pending_delay s;
            (* Workers on different domains race to schedule; the lock
               makes (heap, seq) updates atomic. A session's own delays
               still get increasing seq numbers (its calls are ordered by
               its single pinned domain), so per-session heap order — the
               only order the oracle can observe — matches sequential. *)
            Mutex.lock delay_lock;
            incr seq;
            delays :=
              Pqueue.insert !delays
                (!now +. seconds, !seq)
                { dl_sid = sid; dl_node = node; dl_slot = slot; dl_value = v };
            Mutex.unlock delay_lock
          | Some _ | None -> ());
    }
  in
  {
    d_root = root;
    d_plan = plan;
    d_fuse = fuse;
    d_env = env;
    d_sessions = sessions;
    d_ready = ready;
    d_delays = delays;
    d_now = now;
    d_tracer = tracer;
    d_policy = on_node_error;
    d_capacity = queue_capacity;
    d_history = history;
    d_pool = pool;
    d_intra = intra;
    d_in_parallel = in_parallel;
    d_domain_stats = [||];
    d_next_sid = 0;
    d_opened = 0;
    d_closed = 0;
    d_routed = 0;
    d_upgrades = 0;
  }

let root d = d.d_root
let plan d = d.d_plan
let now d = !(d.d_now)
let pool d = d.d_pool
let domain_stats d = d.d_domain_stats

let fresh_sid d =
  let sid = d.d_next_sid in
  d.d_next_sid <- sid + 1;
  sid

(* Lifecycle mutates the sessions table, which workers read lock-free
   during a parallel round; nothing in a round can legitimately call these
   (tasks run no user code), so a violation is a programming error. *)
let check_not_parallel d what =
  if !(d.d_in_parallel) then
    invalid_arg (Printf.sprintf "Serve.Dispatcher.%s: parallel drain running" what)

let open_session d =
  check_not_parallel d "open_session";
  let sid = fresh_sid d in
  let s =
    Session.open_session ~sid ~env:d.d_env ?tracer:d.d_tracer
      ~on_node_error:d.d_policy ?queue_capacity:d.d_capacity
      ?history:d.d_history d.d_root
  in
  Hashtbl.replace d.d_sessions sid s;
  d.d_opened <- d.d_opened + 1;
  s

let clone d src =
  check_not_parallel d "clone";
  let sid = fresh_sid d in
  let s = Session.clone ~sid src in
  Hashtbl.replace d.d_sessions sid s;
  d.d_opened <- d.d_opened + 1;
  s

let close d s =
  check_not_parallel d "close";
  if not (Session.closed s) then begin
    Session.close s;
    Hashtbl.remove d.d_sessions (Session.id s);
    d.d_closed <- d.d_closed + 1
  end

let find d sid = Hashtbl.find_opt d.d_sessions sid

(* Value first, routing second: the step pops the value its ready-queue
   entry promised. One accepted injection = exactly one future [step]. *)
let try_inject d s input v =
  if Session.offer s input v then begin
    Session.mark_pending s;
    Queue.push (Session.id s, Signal.id input) d.d_ready;
    d.d_routed <- d.d_routed + 1;
    true
  end
  else false

let inject d s input v =
  if not (try_inject d s input v) then raise Session.Queue_full

(* ------------------------------------------------------------------ *)
(* Live upgrade.

   Admission is wave-boundary only: [check_not_parallel] rejects an
   upgrade while pool workers are stepping, and the synchronous drains
   never call out to user code between steps, so every session's arena is
   a consistent cut when we get here. Pending work survives: queued input
   values transfer inside [Session.upgrade], and the global ready queue
   and delay heap are rewritten below under the patch's node map — an
   upgrade drops no accepted event unless its source was detached with
   the subgraph that owned it (in which case the matching pending
   counters come down, keeping the accounting invariant exact).

   The shared plan cache is invalidated and reseeded: the old root's plan
   entry and its fusion memo are dead the moment sessions stop serving
   it, and a stale fusion memo would keep resolving future [fuse_cached]
   calls on that graph to the pre-upgrade composite (see
   Fuse.clear_memos). *)

let upgrade_all ?migrate ?mutate d new_root =
  check_not_parallel d "upgrade_all";
  d.d_upgrades <- d.d_upgrades + 1;
  let occ = d.d_upgrades in
  let planted spec =
    match (mutate : Upgrade.mutation option) with
    | Some m when m = spec occ -> true
    | _ -> false
  in
  let stale_map = planted (fun n -> Upgrade.Stale_slot_map n) in
  let skip_migration = planted (fun n -> Upgrade.Skip_migration n) in
  let leak_mailbox = planted (fun n -> Upgrade.Leak_seam_mailbox n) in
  Compile.clear_plan_cache ();
  let new_root = if d.d_fuse then Fuse.fuse_cached new_root else new_root in
  let new_plan = Compile.plan_of new_root in
  let patch = Upgrade.diff ?migrate d.d_plan new_plan in
  Hashtbl.iter
    (fun _ s -> Session.upgrade ~stale_map ~skip_migration ~leak_mailbox s patch)
    d.d_sessions;
  (* Ready queue: matched sources keep their FIFO positions under their
     new node ids; wakes of detached sources are dropped with their
     pending counters. *)
  let entries = List.of_seq (Queue.to_seq d.d_ready) in
  Queue.clear d.d_ready;
  List.iter
    (fun (sid, src) ->
      match Upgrade.node_of_old patch src with
      | Some src' -> Queue.push (sid, src') d.d_ready
      | None -> (
        match find d sid with
        | Some s -> Session.drop_pending s
        | None -> ()))
    entries;
  (* Delay heap: rebuilt under new node/slot ids, preserving (due, seq)
     keys so virtual-time order is unchanged. In-flight values of
     detached delay nodes are released with their pending counters.
     (The drains run to quiescence, so the heap is empty at every legal
     upgrade point today; the remap is kept exact anyway for any future
     partial-drain mode.) *)
  let rec drain_heap acc =
    match Pqueue.pop_min !(d.d_delays) with
    | None -> List.rev acc
    | Some (key, dl, rest) ->
      d.d_delays := rest;
      drain_heap ((key, dl) :: acc)
  in
  List.iter
    (fun (key, dl) ->
      match Upgrade.node_of_old patch dl.dl_node with
      | Some node' ->
        let slot' =
          (* a matched node's slot is matched with it *)
          match Upgrade.new_slot_of_old patch dl.dl_slot with
          | Some sl -> sl
          | None -> assert false
        in
        d.d_delays :=
          Pqueue.insert !(d.d_delays) key
            { dl with dl_node = node'; dl_slot = slot' }
      | None -> (
        match find d dl.dl_sid with
        | Some s -> Session.drop_pending_delay s
        | None -> ()))
    (drain_heap []);
  d.d_root <- new_root;
  d.d_plan <- new_plan;
  patch

let upgrades d = d.d_upgrades

(* Drain to quiescence: dispatch ready events in FIFO order; when the
   ready queue empties, advance the virtual clock to the next due delayed
   value, re-queue its wake, and continue. Terminates because every step
   consumes one queued event and delays only re-enter with strictly later
   due times (drains are finite for programs whose delay chains are). *)
let drain_sequential d =
  let dispatched = ref 0 in
  let rec loop () =
    match Queue.take_opt d.d_ready with
    | Some (sid, source) ->
      (match find d sid with
      | Some s ->
        incr dispatched;
        Session.step s ~source
      | None -> ());
      loop ()
    | None -> (
      match Pqueue.pop_min !(d.d_delays) with
      | None -> ()
      | Some ((due, _), dl, rest) ->
        d.d_delays := rest;
        if due > !(d.d_now) then d.d_now := due;
        (match find d dl.dl_sid with
        | Some s ->
          Session.deliver_delayed s ~slot:dl.dl_slot dl.dl_value;
          Session.mark_pending s;
          Queue.push (dl.dl_sid, dl.dl_node) d.d_ready
        | None -> ());
        loop ())
  in
  loop ();
  !dispatched

(* ------------------------------------------------------------------ *)
(* Parallel drain.

   Why per-session traces cannot depend on the schedule: the sequential
   drain's global FIFO, restricted to one session, is exactly that
   session's arrival order — and that restriction is all any session can
   observe (sessions share no mutable state). The parallel drain realises
   precisely the same restriction: phase 1 deals the global FIFO into
   per-session inboxes preserving order; a session task is pinned to one
   domain and drains its inbox to quiescence, with async re-entries
   appended at its own tail (same position the global queue would have
   given them); delays are delivered only at global quiescence by the
   coordinator, in (due, seq) heap order, at most one per session per
   round so a session's delay wake never overtakes the ready events that
   sequential dispatch would have drained first. Which domain runs a task,
   and in which steal order, is therefore unobservable — the B18 oracle
   checks this bit-for-bit against [drain_sequential] under many seeds. *)

let ensure_domain_stats d n =
  if Array.length d.d_domain_stats < n then
    d.d_domain_stats <-
      Array.init n (fun i ->
          if i < Array.length d.d_domain_stats then d.d_domain_stats.(i)
          else Stats.create ())

(* Deal the global ready queue into per-session inboxes, returning the
   sessions that became runnable in first-seen order (deterministic:
   depends only on queue contents). *)
let deal_ready d =
  let runnable = ref [] in
  let rec go () =
    match Queue.take_opt d.d_ready with
    | Some (sid, source) ->
      (match find d sid with
      | Some s ->
        if not (Session.has_wakes s) then runnable := s :: !runnable;
        Session.wake_push s source
      | None -> ());
      go ()
    | None -> ()
  in
  go ();
  List.rev !runnable

(* At global quiescence: deliver the earliest batch of due delays — all
   heap entries at the minimum due time, but at most one per session, in
   (due, seq) order — into inboxes, advancing the virtual clock. At most
   one per session because the sequential drain fully drains a session's
   resulting events before its next delay pops; a second same-due delivery
   in one round would let that wake overtake them. Returns the runnable
   sessions in delivery order. *)
let deliver_due_delays d =
  match Pqueue.pop_min !(d.d_delays) with
  | None -> []
  | Some ((due, _), first, rest) ->
    d.d_delays := rest;
    if due > !(d.d_now) then d.d_now := due;
    let seen = Hashtbl.create 8 in
    let batch = ref [ first ] in
    Hashtbl.replace seen first.dl_sid ();
    let rec collect () =
      match Pqueue.pop_min !(d.d_delays) with
      | Some ((due', _), dl, rest') when due' = due && not (Hashtbl.mem seen dl.dl_sid)
        ->
        d.d_delays := rest';
        Hashtbl.replace seen dl.dl_sid ();
        batch := dl :: !batch;
        collect ()
      (* First entry that is later-due or a repeat session stays in the
         heap (pop_min is non-destructive until we commit [rest']), and
         everything behind it waits for the next round with it. *)
      | Some _ | None -> ()
    in
    collect ();
    List.rev !batch
    |> List.filter_map (fun dl ->
           match find d dl.dl_sid with
           | Some s ->
             Session.deliver_delayed s ~slot:dl.dl_slot dl.dl_value;
             Session.mark_pending s;
             let fresh = not (Session.has_wakes s) in
             Session.wake_push s dl.dl_node;
             if fresh then Some s else None
           | None -> None)

let drain_parallel ?(seed = 0) d =
  let pool =
    match d.d_pool with
    | Some p -> p
    | None -> invalid_arg "Serve.Dispatcher.drain_parallel: no pool"
  in
  check_not_parallel d "drain_parallel";
  let n = Pool.domains pool in
  ensure_domain_stats d n;
  let dispatched = Atomic.make 0 in
  let task_of s w =
    let before = Stats.copy (Session.stats s) in
    let rec go () =
      match Session.wake_pop s with
      | Some source ->
        ignore (Atomic.fetch_and_add dispatched 1);
        Session.step s ~source;
        go ()
      | None -> ()
    in
    go ();
    Stats.add_delta d.d_domain_stats.(w) ~before ~after:(Session.stats s)
  in
  (* One round = one parallel sweep over the runnable sessions, then a
     coordinator-sequential delay delivery. Terminates when a round ends
     with nothing runnable and an empty (or all-future-quiet) heap — the
     same quiescence the sequential drain reaches. *)
  let rec rounds i runnable =
    (match runnable with
    | [] -> ()
    | _ :: _ ->
      d.d_in_parallel := true;
      Fun.protect
        ~finally:(fun () -> d.d_in_parallel := false)
        (fun () ->
          Pool.run ~seed:(seed + i) pool
            (Array.of_list (List.map task_of runnable))));
    match deliver_due_delays d with
    | [] -> ()
    | next -> rounds (i + 1) next
  in
  rounds 0 (deal_ready d);
  Atomic.get dispatched

(* ------------------------------------------------------------------ *)
(* Intra-session parallel drain.

   Like [drain_parallel], but each runnable session's admitted rounds are
   further split by region group, so data-independent groups of one
   session also run concurrently: every runnable session's group executor
   ([Exec], the same core the runtime's wave coordinator drives) admits
   its queued wakes, [Exec.run] schedules one pool task per (session,
   active group) under each plan's group DAG (edges only within a session
   — sessions stay independent), and each session is then flushed in
   (admission epoch, group) order. Flushed async fires go back through
   [env_fire] onto the ready queue and delays onto the heap, exactly as
   sequential steps would have sent them, so per-session traces remain
   bit-identical to [drain_sequential], which the serve tests and bench
   B19 gate. *)

let drain_intra ?(seed = 0) d =
  let pool =
    match d.d_pool with
    | Some p -> p
    | None -> invalid_arg "Serve.Dispatcher.drain_intra: no pool"
  in
  check_not_parallel d "drain_intra";
  ensure_domain_stats d (Pool.domains pool);
  let dispatched = ref 0 in
  let admit_all s =
    let x = Session.exec s in
    let rec go () =
      match Session.wake_pop s with
      | Some source ->
        incr dispatched;
        Session.drop_pending s;
        (* a closed session consumes the wake without effect, as [step] *)
        if not (Session.closed s) then Exec.admit x ~source;
        go ()
      | None -> ()
    in
    go ();
    x
  in
  (* One sweep = admit every queued wake, run the (session x group) task
     DAG, flush. Async re-entries queue the next sweep; delays are
     delivered only once no session has wakes left, as in the sequential
     drain. *)
  let rec sweep i runnable =
    match runnable with
    | [] -> (
      match deliver_due_delays d with [] -> () | next -> sweep (i + 1) next)
    | _ ->
      let xs = List.map admit_all runnable in
      d.d_in_parallel := true;
      Fun.protect
        ~finally:(fun () -> d.d_in_parallel := false)
        (fun () ->
          Exec.run ~pool ~seed:(seed + i) ~dstats:d.d_domain_stats xs);
      List.iter Exec.flush xs;
      sweep i (deal_ready d)
  in
  sweep 0 (deal_ready d);
  !dispatched

let drain d =
  match d.d_pool with
  | Some _ when d.d_intra -> drain_intra d
  | Some _ -> drain_parallel d
  | None -> drain_sequential d

let accounting d =
  let idle = ref 0 and pend = ref 0 and pendd = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      if Session.is_idle s then incr idle;
      pend := !pend + Session.pending s;
      pendd := !pendd + Session.pending_delays s)
    d.d_sessions;
  {
    live = Hashtbl.length d.d_sessions;
    opened = d.d_opened;
    closed = d.d_closed;
    routed = d.d_routed;
    idle = !idle;
    pending_events = !pend;
    pending_delays = !pendd;
  }

let iter_sessions d f = Hashtbl.iter (fun _ s -> f s) d.d_sessions

let pp_accounting ppf a =
  Format.fprintf ppf
    "live=%d opened=%d closed=%d routed=%d idle=%d pending=%d delays=%d"
    a.live a.opened a.closed a.routed a.idle a.pending_events a.pending_delays

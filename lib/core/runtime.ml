module Mailbox = Cml.Mailbox
module Multicast = Cml.Multicast

(* NOTE: [backend] is declared before [mode] on purpose: both have a
   [Pipelined] constructor, and declaration order makes the unqualified
   name keep meaning the execution [mode] everywhere (existing call sites);
   backend positions are annotated and resolved by expected type. *)
type backend =
  | Pipelined
  | Compiled

type mode =
  | Pipelined
  | Sequential

type dispatch =
  | Flood
  | Cone

type error_policy = Exec.error_policy =
  | Propagate
  | Isolate
  | Restart of int

(* One dispatcher round: the global event number and the source that fired
   it. Under flood dispatch every node receives every round; under cone
   dispatch only the nodes the source can reach do. Defined in [Compile] so
   region wakeup mailboxes carry the same rounds node wakeup mailboxes do. *)
type round = Compile.round = {
  epoch : int;
  source : int;
}

(* Planted ordering bugs for the schedule-exploration checker (Check.Explore).
   Each breaks the per-event alignment protocol in a way that is invisible to
   a lucky schedule but must be caught by the checker's invariants; [Mutate]
   in lib/check asserts exactly that. The [int] selects the nth occurrence
   (1-based) so a mutation lands mid-run, after the graph has warmed up. *)
type mutation =
  | Drop_no_change of int  (* swallow the nth No_change emission *)
  | Skip_epoch of int  (* stamp the nth emission with its previous epoch *)
  | Reorder_wakeup of int
      (* hold the nth dispatcher wakeup and deliver it after the next round
         bound for the same node: an out-of-order mailbox admit *)

type mut_state = {
  m_spec : mutation;
  mutable m_count : int;
  mutable m_held : (round Mailbox.t * round) option;  (* Reorder_wakeup *)
  m_last_stamp : (int, int) Hashtbl.t;  (* node -> last stamped epoch *)
}

type 'a t = {
  gen : int;
  mode : mode;
  dispatch : dispatch;
  stats : Stats.t;
  new_event : int Mailbox.t;
  nodes : int;
  mutable current : 'a;
  changes : (float * 'a) History.t;
  messages : (float * 'a Event.t) History.t;
  listeners : (float -> 'a -> unit) Queue.t;
  mutable sources : (int * string) list;
  mutable stopped : bool;
  owned_pool : Pool.t option;
      (* a pool created by [start ~domains:k] (k > 1), closed by [stop];
         a caller-supplied [?pool] is never closed here *)
  d_stats : Stats.t array;
      (* per-worker-slot attribution under intra-session parallel
         dispatch; [[||]] otherwise *)
  quiesce : (unit -> unit) Queue.t;
      (* one-shot callbacks run by the dispatcher once no further global
         events are queued — the wave-boundary seam live upgrades admit
         at (see [at_quiescence]) *)
}

(* Run (and consume) every registered quiescence callback. Called by the
   dispatcher thread only, between event waves, so callbacks observe a
   settled graph under the wave coordinator and an empty event queue under
   the threaded dispatcher. *)
let drain_quiesce rt =
  while not (Queue.is_empty rt.quiesce) do
    (Queue.pop rt.quiesce) ()
  done

type ctx = {
  rt_gen : int;
  memoize : bool;
  c_dispatch : dispatch;
  c_policy : error_policy;
  c_capacity : int option;  (* wake/value mailbox bound; None = unbounded *)
  c_stats : Stats.t;
  c_new_event : int Mailbox.t;
  c_reach : Reach.t;
  c_tracer : Trace.t option;
  c_observer : (node:int -> epoch:int -> changed:bool -> unit) option;
  c_mutate : mut_state option;
  wakeups : (int, round Mailbox.t) Hashtbl.t;
  mutable c_sources : (int * string) list;
}

(* Runtime generations are minted from an [Atomic.t]: [start] may be
   called concurrently from several domains (pool workers opening
   runtimes), and the previous plain [ref]/[incr] could hand two runtimes
   the same generation — colliding every per-generation driver table in
   lib/std. [fetch_and_add] makes minting a single atomic RMW. *)
let generation = Atomic.make 0
let fresh_generation () = 1 + Atomic.fetch_and_add generation 1

(* Global stop hooks, run (with the runtime's generation) when a runtime
   is stopped. Input-library drivers register one per module to drop their
   per-generation state (held keys, ongoing touches) — without it, session
   churn grows those tables without bound. Mutex-guarded: registration
   happens at module init but may race with [stop] from another domain. *)
let stop_hooks : (int -> unit) list ref = ref []
let stop_hooks_lock = Mutex.create ()

let on_stop f =
  Mutex.lock stop_hooks_lock;
  stop_hooks := f :: !stop_hooks;
  Mutex.unlock stop_hooks_lock

(* Per-node emission accounting, shared by both backends: the mutation
   hooks, the message/elided counters and the observer, which sees the
   epoch actually stamped on the (conceptual) wire, so a [Skip_epoch]
   mutation is visible to the checker even on edges nobody re-validates.
   [real] selects which side of the elision invariant the emission lands
   on: a pipelined node's message and a compiled region's root display
   emission are real, a compiled region's interior members send nothing
   and count as elided. Returns the epoch to stamp, or [None] when a
   [Drop_no_change] mutation swallowed the emission. *)
let account ctx ~id ~epoch:ep ~changed ~real =
  let drop =
    match ctx.c_mutate with
    | Some ({ m_spec = Drop_no_change n; _ } as m) when not changed ->
      m.m_count <- m.m_count + 1;
      m.m_count = n
    | _ -> false
  in
  if drop then None
  else begin
    let epoch =
      match ctx.c_mutate with
      | Some ({ m_spec = Skip_epoch n; _ } as m) ->
        m.m_count <- m.m_count + 1;
        let stale =
          match Hashtbl.find_opt m.m_last_stamp id with
          | Some e -> e
          | None -> 0
        in
        Hashtbl.replace m.m_last_stamp id ep;
        if m.m_count = n then stale else ep
      | _ -> ep
    in
    if real then ctx.c_stats.messages <- ctx.c_stats.messages + 1
    else ctx.c_stats.elided_messages <- ctx.c_stats.elided_messages + 1;
    (match ctx.c_observer with
    | None -> ()
    | Some f -> f ~node:id ~epoch ~changed);
    Some epoch
  end

(* A pipelined node's emission: account it, then put it on the node's
   channel (a send never yields, so the observer still sees emissions in
   send order). [id] identifies the emitting node for the tracer's
   Node_end record; the untraced path is one load and branch, no
   allocation. *)
let emit ctx ~id out r msg =
  match
    account ctx ~id ~epoch:r.epoch ~changed:(Event.is_change msg) ~real:true
  with
  | None -> ()
  | Some epoch -> (
    Multicast.send out { Event.epoch; event = msg };
    match ctx.c_tracer with
    | None -> ()
    | Some tr -> Trace.node_end tr ~node:id ~epoch:r.epoch)

(* Admit one round into a node's wakeup mailbox. With a [Reorder_wakeup]
   mutation armed, the nth admit is parked and released just after the next
   round bound for the same node — a genuinely out-of-order delivery. *)
let send_round ctx mb r =
  match ctx.c_mutate with
  | Some ({ m_spec = Reorder_wakeup n; _ } as m) -> (
    match m.m_held with
    | Some (hmb, hr) when hmb == mb ->
      m.m_held <- None;
      Mailbox.send mb r;
      Mailbox.send mb hr
    | _ ->
      m.m_count <- m.m_count + 1;
      if m.m_count = n then m.m_held <- Some (mb, r) else Mailbox.send mb r)
  | _ -> Mailbox.send mb r

let recv_wake ctx ~id wake =
  let r = Mailbox.recv wake in
  (match ctx.c_tracer with
  | None -> ()
  | Some tr -> Trace.node_start tr ~node:id ~epoch:r.epoch);
  r

(* Per-node supervisor, created once at build time so a [Restart] budget is
   local to the node (see [Exec.guard]). Under [Propagate] exceptions unwind
   the node thread and surface out of [Cml.run], the seed behaviour. *)
let supervisor ctx ~id =
  (Exec.guard ctx.c_policy ~stats:ctx.c_stats ~tracer:ctx.c_tracer ~id)
    .Compile.guard

(* Register this node with the dispatcher: the returned mailbox receives one
   [round] per event whose cone contains the node. The mailbox is named so
   queue-depth probes can attribute backlog to the node. *)
let node_wakeup ctx ~id ~name =
  let mb =
    Mailbox.create ?capacity:ctx.c_capacity
      ~name:(Printf.sprintf "wake:%d:%s" id name) ()
  in
  Hashtbl.replace ctx.wakeups id mb;
  (match ctx.c_tracer with
  | None -> ()
  | Some tr -> Trace.register_node tr ~id ~name);
  mb

let value_mailbox : type b. ctx -> b Signal.t -> b Mailbox.t =
 fun ctx s ->
  Mailbox.create ?capacity:ctx.c_capacity
    ~name:(Printf.sprintf "value:%d:%s" (Signal.id s) (Signal.name s))
    ()

(* An incoming edge, from the receiver's point of view. [last] caches the
   most recent body seen so that rounds the producer elided (its cone did
   not contain the firing source) can be synthesized as [No_change last]
   without any message having been sent. *)
type 'a edge = {
  e_port : 'a Event.stamped Multicast.port;
  e_sources : Reach.set;  (* sources reaching the producer *)
  mutable e_last : 'a;
}

let read_edge ctx e (r : round) =
  let active =
    match ctx.c_dispatch with
    | Flood -> true
    | Cone -> Reach.set_mem r.source e.e_sources
  in
  if active then begin
    let { Event.epoch; event } = Multicast.recv e.e_port in
    if epoch <> r.epoch then
      failwith
        (Printf.sprintf
           "Runtime: edge message for epoch %d while processing epoch %d \
            (per-event alignment violated)"
           epoch r.epoch);
    e.e_last <- Event.body event;
    event
  end
  else Event.No_change e.e_last

(* Source nodes (inputs, constants, async): the Fig. 10 translation of
   ⟨id, mc, v⟩. The thread answers every round it is woken for with exactly
   one message: the freshly arrived value when the event is its own, a
   [No_change] of the latest value otherwise (flood dispatch only — under
   cone dispatch a source is woken only by its own events). *)
let source_node ctx ~source_id ~name ~default ~value_mb =
  let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" source_id name) () in
  let wake = node_wakeup ctx ~id:source_id ~name in
  ctx.c_sources <- (source_id, name) :: ctx.c_sources;
  Cml.spawn (fun () ->
      let rec loop prev =
        let r = recv_wake ctx ~id:source_id wake in
        let msg =
          if r.source = source_id then Event.Change (Mailbox.recv value_mb)
          else Event.No_change prev
        in
        emit ctx ~id:source_id out r msg;
        loop (Event.body msg)
      in
      loop default);
  out

(* Lift-style nodes share this loop. [round] reads one message per incoming
   edge (real or synthesized) and returns whether any of them changed plus a
   thunk recomputing the node's function on the current input bodies. *)
let lift_node ctx ~id ~name ~default ~round =
  let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id name) () in
  let wake = node_wakeup ctx ~id ~name in
  let guard = supervisor ctx ~id in
  Cml.spawn (fun () ->
      let rec loop prev =
        let r = recv_wake ctx ~id wake in
        let changed, compute = round r in
        let msg =
          if changed then begin
            ctx.c_stats.applications <- ctx.c_stats.applications + 1;
            guard ~prev ~reset:ignore ~epoch:r.epoch (fun () ->
                Event.Change (compute ()))
          end
          else begin
            if not ctx.memoize then begin
              ctx.c_stats.recomputations <- ctx.c_stats.recomputations + 1;
              ignore
                (guard ~prev ~reset:ignore ~epoch:r.epoch (fun () ->
                     Event.No_change (compute ())))
            end;
            Event.No_change prev
          end
        in
        emit ctx ~id out r msg;
        loop (Event.body msg)
      in
      loop default);
  out

let rec build : type b. ctx -> b Signal.t -> b Signal.inst =
 fun ctx s ->
  match Signal.get_inst s with
  | Some i when i.gen = ctx.rt_gen -> i
  | Some _ | None ->
    let i = build_fresh ctx s in
    Signal.set_inst s i;
    i

(* Build the producer of a dependency and subscribe an edge to it. *)
and edge : type b. ctx -> b Signal.t -> b edge =
 fun ctx dep ->
  let i = build ctx dep in
  {
    e_port = Multicast.port i.Signal.out;
    e_sources = Reach.reaching ctx.c_reach (Signal.id dep);
    e_last = Signal.default dep;
  }

and build_fresh : type b. ctx -> b Signal.t -> b Signal.inst =
 fun ctx s ->
  let default = Signal.default s in
  let plain out = { Signal.gen = ctx.rt_gen; out; push = None } in
  match Signal.kind s with
  | Signal.Constant ->
    (* A constant is a source whose event never fires: under cone dispatch
       it is never woken at all; under flood it answers every round with
       [No_change default]. *)
    let value_mb = value_mailbox ctx s in
    plain
      (source_node ctx ~source_id:(Signal.id s) ~name:(Signal.name s) ~default
         ~value_mb)
  | Signal.Input ->
    let value_mb = value_mailbox ctx s in
    let source_id = Signal.id s in
    let out = source_node ctx ~source_id ~name:(Signal.name s) ~default ~value_mb in
    let push v =
      (* Value first, notification second: when the dispatcher wakes this
         source's cone, the source thread finds the value waiting. *)
      Mailbox.send value_mb v;
      Mailbox.send ctx.c_new_event source_id
    in
    { Signal.gen = ctx.rt_gen; out; push = Some push }
  | Signal.Lift1 (f, a) ->
    let ea = edge ctx a in
    let round r =
      let ma = read_edge ctx ea r in
      (Event.is_change ma, fun () -> f (Event.body ma))
    in
    plain (lift_node ctx ~id:(Signal.id s) ~name:(Signal.name s) ~default ~round)
  | Signal.Lift2 (f, a, b) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let round r =
      let ma = read_edge ctx ea r in
      let mb = read_edge ctx eb r in
      ( Event.is_change ma || Event.is_change mb,
        fun () -> f (Event.body ma) (Event.body mb) )
    in
    plain (lift_node ctx ~id:(Signal.id s) ~name:(Signal.name s) ~default ~round)
  | Signal.Lift3 (f, a, b, c) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let ec = edge ctx c in
    let round r =
      let ma = read_edge ctx ea r in
      let mb = read_edge ctx eb r in
      let mc = read_edge ctx ec r in
      ( Event.is_change ma || Event.is_change mb || Event.is_change mc,
        fun () -> f (Event.body ma) (Event.body mb) (Event.body mc) )
    in
    plain (lift_node ctx ~id:(Signal.id s) ~name:(Signal.name s) ~default ~round)
  | Signal.Lift4 (f, a, b, c, d) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let ec = edge ctx c in
    let ed = edge ctx d in
    let round r =
      let ma = read_edge ctx ea r in
      let mb = read_edge ctx eb r in
      let mc = read_edge ctx ec r in
      let md = read_edge ctx ed r in
      ( Event.is_change ma || Event.is_change mb || Event.is_change mc
        || Event.is_change md,
        fun () ->
          f (Event.body ma) (Event.body mb) (Event.body mc) (Event.body md) )
    in
    plain (lift_node ctx ~id:(Signal.id s) ~name:(Signal.name s) ~default ~round)
  | Signal.Lift_list (_, []) ->
    (* No incoming edges: a node loop would spin. Behave as a constant. *)
    let value_mb = value_mailbox ctx s in
    plain
      (source_node ctx ~source_id:(Signal.id s) ~name:(Signal.name s) ~default
         ~value_mb)
  | Signal.Lift_list (f, ds) ->
    let edges = List.map (fun d -> edge ctx d) ds in
    let round r =
      let msgs = List.map (fun e -> read_edge ctx e r) edges in
      ( List.exists Event.is_change msgs,
        fun () -> f (List.map Event.body msgs) )
    in
    plain (lift_node ctx ~id:(Signal.id s) ~name:(Signal.name s) ~default ~round)
  | Signal.Foldp (f, src) ->
    let e = edge ctx src in
    let id = Signal.id s in
    let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) () in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    let guard = supervisor ctx ~id in
    Cml.spawn (fun () ->
        (* A [Restart] re-seeds the accumulator with the signal default; the
           flag defers it until after the failed round's [No_change acc] has
           gone out, so downstream caches hold the last-good value until the
           restarted fold produces its next genuine change. *)
        let restart = ref false in
        let rec loop acc =
          let r = recv_wake ctx ~id wake in
          let msg =
            match read_edge ctx e r with
            | Event.Change v ->
              ctx.c_stats.fold_steps <- ctx.c_stats.fold_steps + 1;
              guard ~prev:acc
                ~reset:(fun () -> restart := true)
                ~epoch:r.epoch
                (fun () -> Event.Change (f v acc))
            | Event.No_change _ -> Event.No_change acc
          in
          emit ctx ~id out r msg;
          if !restart then begin
            restart := false;
            loop default
          end
          else loop (Event.body msg)
        in
        loop default);
    plain out
  | Signal.Async inner ->
    (* Fig. 10's async translation: build the inner subgraph normally, then
       forward each of its changes to a fresh source node by registering a
       new global event. Ordering between the subgraph and the rest of the
       program is thereby relaxed, but preserved within each. The forwarder
       is not a graph node: it consumes whatever the inner subgraph emits,
       at whatever epochs it was affected. *)
    let iinner = build ctx inner in
    let inner_port = Multicast.port iinner.Signal.out in
    let value_mb = value_mailbox ctx s in
    let source_id = Signal.id s in
    let out =
      source_node ctx ~source_id ~name:(Signal.name s) ~default ~value_mb
    in
    Cml.spawn (fun () ->
        let rec forward () =
          (match (Multicast.recv inner_port).Event.event with
          | Event.No_change _ -> ()
          | Event.Change v ->
            Mailbox.send value_mb v;
            ctx.c_stats.async_events <- ctx.c_stats.async_events + 1;
            Mailbox.send ctx.c_new_event source_id);
          forward ()
        in
        forward ());
    plain out
  | Signal.Delay (d, inner) ->
    (* Like async, but each change re-enters the dispatcher [d] virtual
       seconds later. One thread per pending value keeps delivery at the
       right absolute time while preserving order (equal delays). *)
    let iinner = build ctx inner in
    let inner_port = Multicast.port iinner.Signal.out in
    let value_mb = value_mailbox ctx s in
    let source_id = Signal.id s in
    let out =
      source_node ctx ~source_id ~name:(Signal.name s) ~default ~value_mb
    in
    Cml.spawn (fun () ->
        let rec forward () =
          (match (Multicast.recv inner_port).Event.event with
          | Event.No_change _ -> ()
          | Event.Change v ->
            Cml.spawn (fun () ->
                Cml.sleep d;
                Mailbox.send value_mb v;
                ctx.c_stats.async_events <- ctx.c_stats.async_events + 1;
                Mailbox.send ctx.c_new_event source_id));
          forward ()
        in
        forward ());
    plain out
  | Signal.Merge (a, b) ->
    let ea = edge ctx a in
    let eb = edge ctx b in
    let id = Signal.id s in
    let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) () in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    Cml.spawn (fun () ->
        let rec loop prev =
          let r = recv_wake ctx ~id wake in
          let ma = read_edge ctx ea r in
          let mb = read_edge ctx eb r in
          let msg =
            match ma, mb with
            | Event.Change v, _ -> Event.Change v
            | Event.No_change _, Event.Change v -> Event.Change v
            | Event.No_change _, Event.No_change _ -> Event.No_change prev
          in
          emit ctx ~id out r msg;
          loop (Event.body msg)
        in
        loop default);
    plain out
  | Signal.Drop_repeats (eq, src) ->
    let e = edge ctx src in
    let id = Signal.id s in
    let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) () in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    let guard = supervisor ctx ~id in
    Cml.spawn (fun () ->
        let rec loop prev =
          let r = recv_wake ctx ~id wake in
          let msg =
            match read_edge ctx e r with
            | Event.Change v ->
              (* The user-supplied equality can raise too. *)
              guard ~prev ~reset:ignore ~epoch:r.epoch (fun () ->
                  if eq v prev then Event.No_change prev else Event.Change v)
            | Event.No_change _ -> Event.No_change prev
          in
          emit ctx ~id out r msg;
          loop (Event.body msg)
        in
        loop default);
    plain out
  | Signal.Sample_on (ticks, src) ->
    let et = edge ctx ticks in
    let es = edge ctx src in
    let id = Signal.id s in
    let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) () in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    Cml.spawn (fun () ->
        let rec loop prev =
          let r = recv_wake ctx ~id wake in
          let mt = read_edge ctx et r in
          let ms = read_edge ctx es r in
          let msg =
            if Event.is_change mt then Event.Change (Event.body ms)
            else Event.No_change prev
          in
          emit ctx ~id out r msg;
          loop (Event.body msg)
        in
        loop default);
    plain out
  | Signal.Composite (c, dep) ->
    (* A fused chain (see {!Fuse}): one thread and one channel in place of
       [comp_size] originals. The step function is created fresh here so
       stateful stages (fused [drop_repeats]) never leak state across
       runtimes. Composites always memoize — the step is stateful, so the
       [memoize:false] recompute-always baseline cannot safely re-run it on
       quiescent rounds (and [Runtime.start ~memoize:false] keeps graphs
       unfused for exactly that reason). *)
    let e = edge ctx dep in
    let step = ref (c.Signal.comp_make ()) in
    let id = Signal.id s in
    let out =
      Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) ()
    in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    let guard = supervisor ctx ~id in
    Cml.spawn (fun () ->
        (* A crash anywhere inside the fused chain isolates (or restarts)
           the composite as a unit: the stages share one step closure, so
           partial per-stage state cannot be salvaged. [Restart] swaps in a
           fresh step from [comp_make], re-seeding every fused stage. *)
        let rec loop prev =
          let r = recv_wake ctx ~id wake in
          let msg =
            match read_edge ctx e r with
            | Event.Change v ->
              ctx.c_stats.applications <- ctx.c_stats.applications + 1;
              guard ~prev
                ~reset:(fun () -> step := c.Signal.comp_make ())
                ~epoch:r.epoch
                (fun () ->
                  match !step v with
                  | Some w -> Event.Change w
                  | None -> Event.No_change prev)
            | Event.No_change _ -> Event.No_change prev
          in
          emit ctx ~id out r msg;
          loop (Event.body msg)
        in
        loop default);
    plain out
  | Signal.Keep_when (gate, src, _base) ->
    let eg = edge ctx gate in
    let es = edge ctx src in
    let id = Signal.id s in
    let out = Multicast.create ~name:(Printf.sprintf "out:%d:%s" id (Signal.name s)) () in
    let wake = node_wakeup ctx ~id ~name:(Signal.name s) in
    Cml.spawn (fun () ->
        (* Emits while the gate is open, and also on the gate's rising edge
           so the kept signal resynchronizes with its source. *)
        let rec loop gate_prev prev =
          let r = recv_wake ctx ~id wake in
          let mg = read_edge ctx eg r in
          let ms = read_edge ctx es r in
          let gate_now = Event.body mg in
          let rising = gate_now && not gate_prev in
          let msg =
            if gate_now && (Event.is_change ms || rising) then
              Event.Change (Event.body ms)
            else Event.No_change prev
          in
          emit ctx ~id out r msg;
          loop gate_now (Event.body msg)
        in
        loop (Signal.default gate) default);
    plain out

(* The display record both dispatchers write: the trace instant, the
   message log, and on a change the current value, the change log and the
   listeners. *)
let record_display rt ~tracer ~epoch msg =
  (match tracer with
  | None -> ()
  | Some tr -> Trace.display tr ~epoch ~changed:(Event.is_change msg));
  let time = Cml.now () in
  History.record rt.messages (time, msg);
  match msg with
  | Event.Change v ->
    rt.current <- v;
    History.record rt.changes (time, v);
    Queue.iter (fun f -> f time v) rt.listeners
  | Event.No_change _ -> ()

let new_rt ~gen ~mode ~dispatch ~stats ~new_event ~nodes ~history ~sources
    ~owned_pool ~d_stats root =
  {
    gen;
    mode;
    dispatch;
    stats;
    new_event;
    nodes;
    current = Signal.default root;
    changes = History.create history;
    messages = History.create history;
    listeners = Queue.create ();
    sources;
    stopped = false;
    owned_pool;
    d_stats;
    quiesce = Queue.create ();
  }

(* ------------------------------------------------------------------ *)
(* Compiled-plan drivers. Both run the plan through the group executor
   ([Exec]) and differ only in how rounds reach it: the threaded region
   dispatcher hands each round to one thread per region, the wave
   coordinator batches rounds into buffered waves. *)

(* Wire a compiled plan's input pushes: value first, notification second,
   as in the pipelined push, so the driver finds the value waiting when it
   wakes the source's cone. The inst's out channel is never read in
   compiled mode (display traffic flows through the display op); it exists
   so [inject] finds the push through the usual generation-stamped slot.
   [Obj.repr] happens here, inside the typed scope of the input's [Pack]. *)
let wire_inputs ~gen ~new_event pl push =
  List.iter
    (fun (Signal.Pack s) ->
      let id = Signal.id s in
      let sl =
        match Compile.slot_of pl id with Some sl -> sl | None -> assert false
      in
      Signal.set_inst s
        {
          Signal.gen;
          out =
            Multicast.create ~name:(Printf.sprintf "in:%d:%s" id (Signal.name s))
              ();
          push =
            Some
              (fun v ->
                push sl (Obj.repr v);
                Mailbox.send new_event id);
        })
    (Compile.inputs pl)

(* The threaded region dispatcher: one Cml thread and wake mailbox per
   region, each looping [recv; Exec.run_region], over one exec whose hooks
   are mailboxes (bounded by [?queue_capacity]), the runtime's [account]
   (mutation hooks and observer), a Cml sleeper per delayed value and the
   root's display channel. Returns that channel and the dispatcher's
   per-event step: [Exec.begin_round], then the round goes to each woken
   region's mailbox through [send_round], so [Reorder_wakeup] can hold a
   region admit as it holds a node admit. The threads are what give
   [async] its overlap (Sec. 3.3): a region that spends virtual time
   blocks only its own thread, where the wave's flush waits for all. *)
let start_regions (type r) ctx pl (root : r Signal.t) =
  let stats = ctx.c_stats and tracer = ctx.c_tracer in
  let out : r Event.stamped Multicast.t =
    Multicast.create
      ~name:(Printf.sprintf "out:%d:%s" (Compile.root_id pl) (Signal.name root))
      ()
  in
  let value_mbs : Obj.t Mailbox.t option array =
    Array.make (max (Compile.node_count pl) 1) None
  in
  List.iter
    (fun (id, sl, bounded) ->
      value_mbs.(sl) <-
        Some
          (Mailbox.create
             ?capacity:(if bounded then ctx.c_capacity else None)
             ~name:(Printf.sprintf "value:%d:%s" id (Compile.slot_names pl).(sl))
             ()))
    (Compile.queue_slots pl);
  let value_mb sl =
    match value_mbs.(sl) with
    | Some mb -> mb
    | None -> invalid_arg "Runtime: not a source slot"
  in
  let push sl v = Mailbox.send (value_mb sl) v in
  let fire id =
    stats.async_events <- stats.async_events + 1;
    Mailbox.send ctx.c_new_event id
  in
  let x =
    {
      Compile.x_arena = Compile.new_arena pl;
      x_flood = ctx.c_dispatch = Flood;
      x_stats = stats;
      x_guards = Exec.guards ctx.c_policy ~stats ~tracer ~offset:0 pl;
      x_account =
        (fun ~node ~epoch ~changed ~real ->
          account ctx ~id:node ~epoch ~changed ~real);
      x_root_stamp = None;
      x_pop = (fun sl -> Mailbox.recv (value_mb sl));
      x_push = push;
      x_fire_async = fire;
      x_delay =
        (fun ~node ~slot ~seconds v ->
          Cml.spawn (fun () ->
              Cml.sleep seconds;
              push slot v;
              fire node));
      x_display =
        (fun ~epoch ~changed v ->
          let v : r = Obj.obj v in
          Multicast.send out
            {
              Event.epoch;
              event = (if changed then Event.Change v else Event.No_change v);
            });
    }
  in
  wire_inputs ~gen:ctx.rt_gen ~new_event:ctx.c_new_event pl push;
  Option.iter (fun tr -> Exec.register_regions tr ~offset:0 ~label:"" pl) tracer;
  (* Region mailboxes are in region index order, so the woken indices
     [Exec.begin_round] returns name them directly. *)
  let wakes =
    Array.of_list
      (List.map
         (fun rg ->
           let wake =
             Mailbox.create ?capacity:ctx.c_capacity
               ~name:
                 (Printf.sprintf "wake:r%d:%s" rg.Compile.rg_rep
                    rg.Compile.rg_name)
               ()
           in
           Cml.spawn (fun () ->
               let rec loop () =
                 let r = Mailbox.recv wake in
                 Exec.run_region pl x tracer ~offset:0 rg.Compile.rg_index r;
                 loop ()
               in
               loop ());
           wake)
         (Compile.regions pl))
  in
  let flood =
    match ctx.c_dispatch with
    | Flood -> Some (Array.init (Array.length wakes) Fun.id)
    | Cone -> None
  in
  ( out,
    fun eid ->
      let r, regions =
        Exec.begin_round pl stats tracer ~offset:0 ~flood ~source:eid
      in
      for k = 0 to Array.length regions - 1 do
        send_round ctx
          (Array.unsafe_get wakes (Array.unsafe_get regions k))
          r
      done )

(* Intra-session parallel dispatch (wave mode).

   [start ~domains:k] (or [~pool]) on the compiled backend replaces the
   threaded region dispatcher with a coordinator that batches the queued
   events into a {e wave}, runs the wave's active region groups through
   the group executor ([Exec]: on the pool via [Pool.run_dag], or inline
   in Kahn order at [k = 1]), and flushes every buffered boundary effect
   in (admission epoch, group index) order. Epochs are assigned FIFO at
   admission, so per-source order is arrival order whatever the wave
   boundaries or the domain count. This function is only the driver:
   input wiring, the coordinator loop, and what a flushed effect means
   here — a fire re-enters through [newEvent], a delay through a Cml
   sleeper on the virtual clock, a display goes to the change log. *)

let start_wave (type r) ~gen ~stats ~new_event ~mode ~dispatch ~history
    ~tracer ~policy ~observer ~pool ~owned_pool pl (root : r Signal.t) : r t =
  let node_count = Compile.node_count pl in
  (* Plain per-slot pending-value queues: pushed by injectors and the
     flush, never during a wave, and popped only by the owning region's
     source op inside one, so no queue is touched from two domains at
     once. *)
  let queues : Obj.t Queue.t option array =
    Array.make (max node_count 1) None
  in
  List.iter
    (fun (_id, sl, _bounded) -> queues.(sl) <- Some (Queue.create ()))
    (Compile.queue_slots pl);
  let queue_exn sl =
    match queues.(sl) with
    | Some q -> q
    | None -> invalid_arg "Runtime: not a source slot"
  in
  wire_inputs ~gen ~new_event pl (fun sl v -> Queue.push v (queue_exn sl));
  let nworkers = match pool with Some p -> Pool.domains p | None -> 1 in
  let dstats = Array.init nworkers (fun _ -> Stats.create ()) in
  let rt =
    new_rt ~gen ~mode ~dispatch ~stats ~new_event ~nodes:node_count ~history
      ~sources:(Compile.sources pl) ~owned_pool ~d_stats:dstats root
  in
  let handle = function
    | Exec.Push (sl, v) -> Queue.push v (queue_exn sl)
    | Exec.Fire id -> Mailbox.send new_event id
    | Exec.Delay (node, slot, seconds, v) ->
      Cml.spawn (fun () ->
          Cml.sleep seconds;
          Queue.push v (queue_exn slot);
          stats.async_events <- stats.async_events + 1;
          Mailbox.send new_event node)
    | Exec.Observe (node, epoch, changed) -> (
      match observer with None -> () | Some f -> f ~node ~epoch ~changed)
    | Exec.Display (epoch, changed, v) ->
      let v : r = Obj.obj v in
      record_display rt ~tracer ~epoch
        (if changed then Event.Change v else Event.No_change v)
  in
  Option.iter (fun tr -> Exec.register_regions tr ~offset:0 ~label:"" pl) tracer;
  let x =
    Exec.create ~plan:pl ~flood:(dispatch = Flood) ~stats ~tracer ~offset:0
      ~policy ~observe:(observer <> None)
      ~arena:(Compile.new_arena pl)
      ~pop:(fun sl -> Queue.pop (queue_exn sl))
      ~handle
  in
  (* The coordinator: block for one event, then (in [Pipelined] mode)
     sweep everything else already queued into the same wave. [Sequential]
     keeps waves at size one — each event is fully displayed before the
     next is admitted, the non-pipelined baseline by construction. *)
  Cml.spawn (fun () ->
      let rec serve pending =
        let eid =
          match pending with Some e -> e | None -> Mailbox.recv new_event
        in
        Exec.admit x ~source:eid;
        (match mode with
        | Sequential -> ()
        | Pipelined ->
          let rec drain_queued () =
            match Mailbox.recv_opt new_event with
            | Some eid ->
              Exec.admit x ~source:eid;
              drain_queued ()
            | None -> ()
          in
          drain_queued ());
        Exec.run
          ?pool:(if rt.stopped then None else pool)
          ~seed:stats.events ~dstats [ x ];
        Exec.flush x;
        stats.switches <- Cml.Scheduler.switch_count ();
        (* Wave boundary: if the flush registered no follow-up events (and
           none arrived meanwhile) the graph is settled — the quiescence
           seam where [at_quiescence] callbacks (live upgrades) run. *)
        let next = Mailbox.recv_opt new_event in
        if next = None then drain_quiesce rt;
        serve next
      in
      serve None);
  rt

let start ?(backend : backend = Pipelined) ?(mode = Pipelined) ?dispatch
    ?(memoize = true) ?history ?tracer ?(fuse = true)
    ?(on_node_error = Propagate) ?queue_capacity ?observer ?mutate ?domains
    ?pool root =
  if not (Cml.running ()) then
    invalid_arg "Runtime.start: must be called inside Cml.run";
  (match domains with
  | Some n when n < 1 -> invalid_arg "Runtime.start: domains must be >= 1"
  | _ -> ());
  (match history with
  | Some n when n < 0 -> invalid_arg "Runtime.start: negative history"
  | _ -> ());
  (match mutate with
  | Some (Drop_no_change n | Skip_epoch n | Reorder_wakeup n) when n < 1 ->
    invalid_arg "Runtime.start: mutation occurrence must be >= 1"
  | _ -> ());
  (match on_node_error with
  | Restart n when n < 0 ->
    invalid_arg "Runtime.start: negative Restart budget"
  | _ -> ());
  (match queue_capacity with
  | Some n when n < 1 ->
    invalid_arg "Runtime.start: queue_capacity must be >= 1"
  | _ -> ());
  (* Intra-session parallel dispatch needs the compiled backend's region
     groups, and the wave coordinator supports neither planted mutations
     nor mailbox capacities (its pending-value queues are plain and
     unbounded by design: backpressure would block the coordinator
     itself). A request outside that envelope is refused, not ignored. *)
  let use_wave = domains <> None || pool <> None in
  (if use_wave then
     let conflict =
       if backend <> Compiled then Some "needs ~backend:Compiled"
       else if not memoize then Some "conflicts with ~memoize:false"
       else if mutate <> None then Some "conflicts with ?mutate"
       else if queue_capacity <> None then Some "conflicts with ?queue_capacity"
       else None
     in
     Option.iter
       (fun why -> invalid_arg ("Runtime.start: ?domains/?pool " ^ why))
       conflict);
  (* The recompute-always baseline exists to measure pull-style costs, so it
     defaults to flooding; cone dispatch would silently skip the very
     recomputations it is meant to count. *)
  let dispatch =
    match dispatch with Some d -> d | None -> if memoize then Cone else Flood
  in
  (* Fusion composites carry stateful step functions that cannot be re-run
     on quiescent rounds, so the recompute-always baseline stays unfused:
     it exists to count recomputations, and fusing away the nodes that
     would perform them would falsify the measurement. The compiled backend
     is dirty-bit (i.e. memoizing) by construction, so the recompute-always
     baseline falls back to the threaded interpretation for the same
     reason. *)
  let fuse = fuse && memoize in
  let backend : backend = if memoize then backend else Pipelined in
  let original_nodes = if fuse then List.length (Signal.reachable root) else 0 in
  (* [fuse_cached] keeps the fused root physically stable across starts of
     the same graph, which is what lets [Compile.plan_of] hit its cache. *)
  let root = if fuse then Fuse.fuse_cached root else root in
  (* The compiled plan already ran the reachability analysis; reuse it so a
     plan-cache hit skips the whole build-time analysis, not just the op
     compilation. *)
  let plan =
    match backend with
    | Compiled -> Some (Compile.plan_of root)
    | Pipelined -> None
  in
  let reach =
    match plan with Some pl -> Compile.reach pl | None -> Reach.analyze root
  in
  let gen = fresh_generation () in
  let stats = Stats.create () in
  let new_event = Mailbox.create ~name:"newEvent" () in
  (* The cml probe is process-wide: install it for this runtime, or clear a
     leftover one so an untraced runtime never records into a stale tracer.
     The scheduler also clears it when the enclosing [Cml.run] finishes. *)
  (match tracer with
  | Some tr ->
    Trace.set_pid tr gen;
    Trace.attach tr
  | None -> Cml.Probe.clear ());
  let node_count = Reach.node_count reach in
  stats.fused_nodes <- (if fuse then original_nodes - node_count else 0);
  Option.iter
    (fun pl -> stats.compiled_regions <- List.length (Compile.regions pl))
    plan;
  match plan with
  | Some pl when use_wave ->
    let owned_pool, pool =
      match pool with
      | Some p -> (None, Some p)
      | None -> (
        match domains with
        | Some k when k > 1 ->
          let p = Pool.create ~domains:k () in
          (Some p, Some p)
        | _ -> (None, None))
    in
    start_wave ~gen ~stats ~new_event ~mode ~dispatch ~history ~tracer
      ~policy:on_node_error ~observer ~pool ~owned_pool pl root
  | _ ->
  let ctx =
    {
      rt_gen = gen;
      memoize;
      c_dispatch = dispatch;
      c_policy = on_node_error;
      c_capacity = queue_capacity;
      c_stats = stats;
      c_new_event = new_event;
      c_reach = reach;
      c_tracer = tracer;
      c_observer = observer;
      c_mutate =
        Option.map
          (fun spec ->
            {
              m_spec = spec;
              m_count = 0;
              m_held = None;
              m_last_stamp = Hashtbl.create 8;
            })
          mutate;
      wakeups = Hashtbl.create 64;
      c_sources = [];
    }
  in
  (* Per-backend instantiation. Both produce the same dispatcher inputs: a
     display channel and the per-event step that bills the round and wakes
     its targets. *)
  let display_channel, dispatch_round, rt_sources =
    match plan with
    | None ->
      (* One thread per node, one channel per edge (Fig. 10). Wakeup
         delivery plan: per source id, the affected cone's mailboxes in
         topological order; the flood plan is every node. Computed once at
         build time — dispatching an event is then one array iteration
         (a plain index loop: an [Array.iter] would allocate a fresh
         closure over the round per event). Every woken node sends (or
         drops into) exactly one accounted message, so the woken nodes are
         the cone, and every node outside it is an elided emission the
         dispatcher owes. *)
      let root_inst = build ctx root in
      let mailboxes_of nodes =
        Array.of_list
          (List.filter_map
             (fun (Signal.Pack s) -> Hashtbl.find_opt ctx.wakeups (Signal.id s))
             nodes)
      in
      let all_nodes = mailboxes_of (Reach.order reach) in
      let cones = Hashtbl.create 16 in
      List.iter
        (fun src ->
          Hashtbl.replace cones src (mailboxes_of (Reach.cone reach src)))
        (Reach.sources reach);
      let targets eid =
        match dispatch with
        | Flood -> all_nodes
        | Cone -> (
          match Hashtbl.find_opt cones eid with Some c -> c | None -> [||])
      in
      let round eid =
        stats.events <- stats.events + 1;
        let r = { epoch = stats.events; source = eid } in
        let t = targets eid in
        let cone = Array.length t in
        stats.notified_nodes <- stats.notified_nodes + cone;
        stats.elided_messages <- stats.elided_messages + (node_count - cone);
        (* Record before the wakeups go out so the dispatch timestamp lower-
           bounds every node-start and display timestamp of this epoch. *)
        (match tracer with
        | None -> ()
        | Some tr -> Trace.dispatch tr ~source:eid ~epoch:r.epoch ~targets:cone);
        for i = 0 to cone - 1 do
          send_round ctx (Array.unsafe_get t i) r
        done
      in
      (root_inst.Signal.out, round, List.rev ctx.c_sources)
    | Some pl ->
      let out, round = start_regions ctx pl root in
      (out, round, Compile.sources pl)
  in
  let rt =
    new_rt ~gen ~mode ~dispatch ~stats ~new_event ~nodes:node_count ~history
      ~sources:rt_sources ~owned_pool:None ~d_stats:[||] root
  in
  let root_reach = Reach.reaching reach (Signal.id root) in
  let reaches_root eid =
    match dispatch with
    | Flood -> true
    | Cone -> Reach.set_mem eid root_reach
  in
  let ack = Mailbox.create ~name:"displayAck" () in
  (* Display loop (Fig. 11): funnel values from the root's channel to the
     "screen" (here: the runtime record and registered listeners). *)
  let display_port = Multicast.port display_channel in
  Cml.spawn (fun () ->
      let rec display () =
        let { Event.epoch; event = msg } = Multicast.recv display_port in
        record_display rt ~tracer ~epoch msg;
        stats.switches <- Cml.Scheduler.switch_count ();
        (match mode with
        | Sequential -> Mailbox.send ack ()
        | Pipelined -> ());
        display ()
      in
      display ());
  (* Global event dispatcher (Fig. 11), upgraded: instead of broadcasting to
     every source and flooding one message down every edge, it wakes exactly
     the nodes (or regions) in the firing source's cone. Nodes outside the
     cone stay quiescent; their would-be [No_change] emissions are counted
     as elided and synthesized by receivers from epoch gaps. In
     [Sequential] mode it waits for the display loop's acknowledgement —
     but only when the event can reach the display at all. *)
  Cml.spawn (fun () ->
      let rec dispatch_loop pending =
        let eid =
          match pending with Some e -> e | None -> Mailbox.recv new_event
        in
        dispatch_round eid;
        stats.switches <- Cml.Scheduler.switch_count ();
        (match mode with
        | Sequential when reaches_root eid -> Mailbox.recv ack
        | Sequential | Pipelined -> ());
        (* Event-queue quiescence: under [Sequential] the displayed event
           has fully settled; under [Pipelined] node threads may still be
           propagating, but no further global event is queued — the
           strongest boundary this dispatcher can observe. *)
        let next = Mailbox.recv_opt new_event in
        if next = None then drain_quiesce rt;
        dispatch_loop next
      in
      dispatch_loop None);
  rt

let try_inject rt input v =
  match Signal.get_inst input with
  | Some { Signal.gen; push = Some push; _ } when gen = rt.gen ->
    push v;
    true
  | Some _ | None -> false

let inject rt input v =
  if not (try_inject rt input v) then
    invalid_arg
      (Printf.sprintf "Runtime.inject: %s (node %d) is not an input of this runtime"
         (Signal.name input) (Signal.id input))

let generation rt = rt.gen
let current rt = rt.current

(* Idempotent teardown: run the registered per-generation cleanup hooks
   (std-lib driver tables) and close a pool this runtime created. The Cml
   threads themselves die with the enclosing [Cml.run] scope, as always. *)
let stop rt =
  if not rt.stopped then begin
    rt.stopped <- true;
    Mutex.lock stop_hooks_lock;
    let hooks = !stop_hooks in
    Mutex.unlock stop_hooks_lock;
    List.iter (fun f -> f rt.gen) hooks;
    Option.iter Pool.close rt.owned_pool
  end

let domain_stats rt = rt.d_stats
let at_quiescence rt f = Queue.add f rt.quiesce
let changes rt = History.recent rt.changes
let message_log rt = History.recent rt.messages
let on_change rt f = Queue.add f rt.listeners
let stats rt = rt.stats
let source_ids rt = rt.sources
let node_count rt = rt.nodes
let dispatch_of rt = rt.dispatch

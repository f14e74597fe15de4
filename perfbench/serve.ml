(* The serving workload: many sessions of one plan behind a
   [Serve.Dispatcher], driven from this process. *)

module Signal = Elm_core.Signal
module Compile = Elm_core.Compile
module Fuse = Elm_core.Fuse
module Reach = Elm_core.Reach
module Stats = Elm_core.Stats
module Trace = Elm_core.Trace
module Upgrade = Elm_core.Upgrade
module D = Elm_serve.Dispatcher
module S = Elm_serve.Session
module Pool = Elm_serve.Pool
open Meter

(* One build of a served program: its root and typed access to its
   inputs. A rebuild (for an upgrade) has fresh input nodes. *)
type ('a, 'ev) graph = {
  root : 'a Signal.t;
  inject : 'a D.t -> 'a S.t -> 'ev -> bool;
  offer : 'a S.t -> 'ev -> bool;
  source : 'ev -> int;
}

let sparse_graph () =
  let inputs, root = Shapes.sparse () in
  {
    root;
    inject = (fun d s (i, v) -> D.try_inject d s inputs.(i) v);
    offer = (fun s (i, v) -> S.offer s inputs.(i) v);
    source = (fun (i, _) -> Signal.id inputs.(i));
  }

let fan_graph_of first root =
  {
    root;
    inject = (fun d s v -> D.try_inject d s first v);
    offer = (fun s v -> S.offer s first v);
    source = (fun _ -> Signal.id first);
  }

(* Output checks. [on_event] sees every accepted injection (session
   index, event); [check] runs once, after the last measured phase. *)
type ('a, 'ev) checker = {
  on_event : int -> 'ev -> unit;
  check : 'a S.t array -> Report.t -> unit;
}

type ('a, 'ev) workload = {
  build : unit -> ('a, 'ev) graph;
  fuse : bool;
  sessions : int;
  history : int;
  batch : int;  (* external events per closed-loop drain *)
  rate : float;  (* open-loop arrival rate, events/s *)
  gen : Random.State.t -> int -> int * 'ev;
  checker : seed:int -> ('a, 'ev) checker;
  floor : int -> int * 'ev -> unit;  (* floor state for n sessions *)
}

(* ------------------------------------------------------------------ *)
(* serve_sparse: every final root equals the closed-form chain result. *)

let sparse_checker ~seed:_ =
  let n = 10_000 in
  let last = Array.make (n * Shapes.sparse_chains) 0 in
  let count = Array.make n 0 in
  {
    on_event =
      (fun sid (i, v) ->
        last.((sid * Shapes.sparse_chains) + i) <- v;
        count.(sid) <- count.(sid) + 1);
    check =
      (fun sessions r ->
        Array.iteri
          (fun sid s ->
            let want =
              Shapes.sparse_expected (fun i -> last.((sid * Shapes.sparse_chains) + i))
            in
            if S.current s <> want then
              Report.fail r ~what:(Printf.sprintf "session %d root" sid)
                ~events:count.(sid))
          sessions);
  }

let serve_sparse =
  {
    build = sparse_graph;
    fuse = false;
    sessions = 10_000;
    history = 0;
    batch = 1000;
    rate = 5_000.;
    gen =
      (fun rng _ ->
        ( Random.State.int rng 10_000,
          (Random.State.int rng Shapes.sparse_chains, Random.State.int rng 1_000_000) ));
    checker = sparse_checker;
    floor =
      (fun n ->
        let f = Shapes.sparse_floor n in
        fun (session, (input, v)) -> Shapes.sparse_floor_event f ~session ~input v);
  }

(* ------------------------------------------------------------------ *)
(* Harness *)

type ('a, 'ev) inst = {
  mutable g : ('a, 'ev) graph;
  d : 'a D.t;
  sessions : 'a S.t array;
}

let setup w =
  Compile.clear_plan_cache ();
  let g = w.build () in
  let d = D.create ~fuse:w.fuse ~history:w.history g.root in
  let sessions = Array.init w.sessions (fun _ -> D.open_session d) in
  { g; d; sessions }

(* [reps] cold set-ups, each from a cleared plan cache; the last instance
   is kept and served. A fixed count (not a time budget) keeps the heap's
   history, and so the served instance's layout, the same in every run. *)
let measure_setup w ~reps:n =
  let kept = ref None and times = ref [] in
  let reps = ref 0 in
  while !reps < n do
    kept := None;
    Gc.full_major ();
    let t0 = now_s () in
    let i = setup w in
    times := (now_s () -. t0) :: !times;
    kept := Some i;
    incr reps
  done;
  (Option.get !kept, median (Array.of_list !times))

(* The load a run offers: seeded events, routed through [inject]; every
   refusal counts as a failed event. *)
type ('a, 'ev) driver = {
  rng : Random.State.t;
  mutable counter : int;
  chk : ('a, 'ev) checker;
  r : Report.t;
}

let inject_one w i dr =
  let sid, ev = w.gen dr.rng dr.counter in
  dr.counter <- dr.counter + 1;
  dr.r.Report.attempted <- dr.r.Report.attempted + 1;
  if i.g.inject i.d i.sessions.(sid) ev then dr.chk.on_event sid ev
  else dr.r.Report.failed <- dr.r.Report.failed + 1

let drain i = ignore (D.drain i.d)

let batch_step w i dr () =
  for _ = 1 to w.batch do
    inject_one w i dr
  done;
  drain i;
  w.batch

(* One full upgrade of every live session onto a structurally identical
   rebuild, which is served from then on; its time in ms. *)
let timed_upgrade w i r =
  let g' = w.build () in
  let t0 = now_s () in
  let patch = D.upgrade_all i.d g'.root in
  let dt = now_s () -. t0 in
  i.g <- g';
  if not (Upgrade.is_identity patch) then
    Report.fail r ~what:"upgrade onto an identical rebuild is not an identity" ~events:0;
  dt *. 1e3

let session_bytes i =
  let s = D.open_session i.d in
  let b = S.footprint_words s * (Sys.word_size / 8) in
  D.close i.d s;
  float_of_int b

let check_quiescent i r =
  Array.iter
    (fun s ->
      if S.pending s <> 0 || S.pending_delays s <> 0 || S.dropped s <> 0 then
        Report.fail r ~what:"session left with pending or dropped events" ~events:0)
    i.sessions

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics. *)

let run w ~seed ~seconds =
  let r = Report.create () in
  let dr =
    {
      rng = Random.State.make [| seed; 1 |];
      counter = 0;
      chk = w.checker ~seed;
      r;
    }
  in
  let arrivals = Random.State.make [| seed; 2 |] in
  let i, setup_s = measure_setup w ~reps:7 in
  let load, upgrades =
    mixed_load ~duration_s:(0.8 *. seconds) ~closed_s:0.5 ~open_s:1.0
      ~step:(batch_step w i dr) ~rng:arrivals ~rate:w.rate ~batch:true
      ~inject:(fun () -> inject_one w i dr)
      ~finish:(fun () -> drain i)
      ~between:(fun () -> timed_upgrade w i r)
  in
  let bytes = session_bytes i in
  dr.chk.check i.sessions r;
  check_quiescent i r;
  Report.add r "setup_s" "s" setup_s;
  Report.add r "events_per_s" "1/s" (median load.rates);
  Report.add r "latency_p50_us" "us" (segment_quantile load.latencies 0.5);
  Report.add r "latency_p90_us" "us" (segment_quantile load.latencies 0.9);
  Report.add r "heap_peak_mb" "MB" (heap_peak_mb ());
  Report.add r "session_bytes" "bytes" bytes;
  Report.add r "upgrade_ms" "ms" (median upgrades);
  Report.note r "open_loop_events" (string_of_int load.open_events);
  r

(* ------------------------------------------------------------------ *)
(* Session-level decomposition (traced runs).

   The same kind of events drive a separate set of bare sessions of the
   same plan through [Session.offer] + [Session.step], with a minimal
   sequential dispatcher of our own for async re-entries and delays (FIFO
   re-entries, then delays in (due, seq) order, as [Dispatcher.drain]
   does). Each step is one [session.step] span; after it, the two pieces
   of plan bookkeeping a step pays per event are timed on their own
   through their public functions: [Reach.cone_size] of the source and the
   wake test ([Reach.set_mem] over every region's sources). The rest of
   the step is region ops. *)

type 'a bare = {
  mutable bs : 'a S.t array;
  ready : (int * int) Queue.t;
  mutable delays : (float * int * int * int * int * Obj.t) list;
  mutable now : float;
  mutable seq : int;
  mutable ready_peak : int;
  mutable delay_peak : int;
  plan : Compile.plan;
  reach : Reach.t;
  regions : Compile.region list;
  mutable stepped : int array;  (* sources stepped in the current batch *)
  mutable n_stepped : int;
}

let bare_sessions root n =
  let plan = Compile.plan_of root in
  let b =
    {
      bs = [||];
      ready = Queue.create ();
      delays = [];
      now = 0.;
      seq = 0;
      ready_peak = 0;
      delay_peak = 0;
      plan;
      reach = Compile.reach plan;
      regions = Compile.regions plan;
      stepped = Array.make 1024 0;
      n_stepped = 0;
    }
  in
  let rec insert ((due, seq, _, _, _, _) as x) = function
    | ((due', seq', _, _, _, _) as y) :: rest when (due', seq') < (due, seq) ->
      y :: insert x rest
    | l -> x :: l
  in
  let env =
    {
      S.env_fire =
        (fun ~sid ~source ->
          S.mark_pending b.bs.(sid);
          Queue.push (sid, source) b.ready;
          b.ready_peak <- max b.ready_peak (Queue.length b.ready));
      env_delay =
        (fun ~sid ~node ~slot ~seconds v ->
          S.mark_pending_delay b.bs.(sid);
          b.seq <- b.seq + 1;
          b.delays <- insert (b.now +. seconds, b.seq, sid, node, slot, v) b.delays;
          b.delay_peak <- max b.delay_peak (List.length b.delays));
    }
  in
  b.bs <- Array.init n (fun sid -> S.open_session ~sid ~env ~history:0 root);
  b

type names = {
  nm_batch : int;
  nm_inject : int;
  nm_drain : int;
  nm_decomp : int;
  nm_step : int;
  nm_cone : int;
  nm_wake : int;
}

let names sp =
  let i = Spans.intern sp in
  {
    nm_batch = i "batch";
    nm_inject = i "dispatcher.inject";
    nm_drain = i "dispatcher.drain";
    nm_decomp = i "decomp.batch";
    nm_step = i "session.step";
    nm_cone = i "reach.cone_size";
    nm_wake = i "session.wake_test";
  }

let wake_test b source =
  let woken = ref 0 in
  List.iter
    (fun rg ->
      if Reach.set_mem source (Compile.region_sources b.plan rg.Compile.rg_index) then
        incr woken)
    b.regions;
  !woken

(* Process one batch of external events on the bare sessions: first every
   step (one span each), then the cone sizes of the same sources, then
   their wake tests (one span per pass, so the clock reads do not weigh on
   the cheap calls and the passes do not evict each other's data between
   steps). *)
let decompose sp nm b g events =
  let root = Spans.open_ sp nm.nm_decomp ~parent:(-1) in
  b.n_stepped <- 0;
  let step sid source =
    if b.n_stepped = Array.length b.stepped then begin
      let a = Array.make (2 * b.n_stepped) 0 in
      Array.blit b.stepped 0 a 0 b.n_stepped;
      b.stepped <- a
    end;
    b.stepped.(b.n_stepped) <- source;
    b.n_stepped <- b.n_stepped + 1;
    let s = b.bs.(sid) in
    Spans.span sp nm.nm_step ~parent:root (fun () -> S.step s ~source)
  in
  Array.iter
    (fun (sid, ev) ->
      let s = b.bs.(sid) in
      if g.offer s ev then begin
        S.mark_pending s;
        step sid (g.source ev)
      end)
    events;
  let rec settle () =
    match Queue.take_opt b.ready with
    | Some (sid, source) ->
      step sid source;
      settle ()
    | None -> (
      match b.delays with
      | [] -> ()
      | (due, _, sid, node, slot, v) :: rest ->
        b.delays <- rest;
        b.now <- Float.max b.now due;
        S.deliver_delayed b.bs.(sid) ~slot v;
        S.mark_pending b.bs.(sid);
        step sid node;
        settle ())
  in
  settle ();
  let pass name f =
    Spans.span sp name ~parent:root (fun () ->
        let acc = ref 0 in
        for k = 0 to b.n_stepped - 1 do
          acc := !acc + f b.stepped.(k)
        done;
        ignore (Sys.opaque_identity !acc))
  in
  pass nm.nm_cone (Reach.cone_size b.reach);
  pass nm.nm_wake (wake_test b);
  Spans.close sp root

(* ------------------------------------------------------------------ *)
(* Per-layer helpers shared with the app workload. *)

let sum_stats sessions =
  let acc = Stats.create () in
  Array.iter (fun s -> Stats.merge acc (S.stats s)) sessions;
  acc

let per x n = x /. float_of_int (max 1 n)

(* Counter ratios over a phase of [events] external events. *)
let add_stats r ~(before : Stats.t) ~(after : Stats.t) ~events =
  let d f = float_of_int (f after - f before) in
  let messages = d (fun s -> s.Stats.messages) in
  let elided = d (fun s -> s.Stats.elided_messages) in
  Report.add r "stats.messages_per_event" "count" (per messages events);
  Report.add r "stats.useful_share" "ratio" (messages /. Float.max 1. (messages +. elided));
  Report.add r "stats.region_steps_per_event" "count"
    (per (d (fun s -> s.Stats.region_steps)) events);
  Report.add r "stats.notified_per_event" "count"
    (per (d (fun s -> s.Stats.notified_nodes)) events);
  Report.add r "stats.async_events_per_event" "count"
    (per (d (fun s -> s.Stats.async_events)) events)

let add_gc r ~(before : gc_mark) ~(after : gc_mark) ~events =
  Report.add r "gc.minor_words_per_event" "words" (per (after.minor -. before.minor) events);
  Report.add r "gc.promoted_words_per_event" "words"
    (per (after.promoted -. before.promoted) events);
  Report.add r "gc.major_per_1k_events" "count"
    (1000. *. per (float_of_int (after.majors - before.majors)) events)

(* Pool counters over a phase: [ws0]/[ws1] are worker_stats snapshots,
   [slots] the per-domain event counts attributed over the phase. *)
let add_pool r ~(ws0 : Pool.worker_stats array) ~(ws1 : Pool.worker_stats array) ~drains
    ~slots =
  let sum f a = Array.fold_left (fun acc w -> acc + f w) 0 a in
  let d f = float_of_int (sum f ws1 - sum f ws0) in
  let tasks = d (fun w -> w.Pool.ws_tasks) in
  Report.add r "pool.tasks_per_drain" "count" (per tasks drains);
  Report.add r "pool.steals_per_task" "ratio" (d (fun w -> w.Pool.ws_steals) /. Float.max 1. tasks);
  Report.add r "pool.idle_probes_per_task" "ratio"
    (d (fun w -> w.Pool.ws_idle_probes) /. Float.max 1. tasks);
  let total = Array.fold_left ( + ) 0 slots in
  let mx = Array.fold_left max 0 slots in
  Report.add r "pool.domain_skew" "ratio"
    (if total = 0 then 0.
     else float_of_int mx /. (float_of_int total /. float_of_int (Array.length slots)))

(* Generate a batch of events up front, so the floor is timed alone. *)
let floor_ns_per_event ?(n = 4096) ~gen ~floor ~budget_s rng =
  let events = Array.init n (fun k -> gen rng k) in
  per_op_median ~budget_s ~batch_s:(budget_s /. 4.) (fun () ->
      Array.iter floor events;
      Array.length events)
  *. 1e9

(* Minor words per event with a tracer attached minus without, on the
   sequential drain (deterministic). *)
let tracer_words ?(events = 20_000) (w : (_, _) workload) =
  let n = min w.sessions 1000 in
  let measure tracer =
    let g = w.build () in
    let d = D.create ~fuse:w.fuse ~history:w.history ?tracer g.root in
    let ss = Array.init n (fun _ -> D.open_session d) in
    let rng = Random.State.make [| 99 |] in
    let evs = Array.init events (fun k -> let sid, ev = w.gen rng k in (sid mod n, ev)) in
    let before = Gc.minor_words () in
    Array.iteri
      (fun k (sid, ev) ->
        ignore (g.inject d ss.(sid) ev);
        if k mod w.batch = w.batch - 1 then ignore (D.drain d))
      evs;
    ignore (D.drain d);
    (Gc.minor_words () -. before) /. float_of_int events
  in
  let without = measure None in
  measure (Some (Trace.create ())) -. without

(* Setup split into its layers, [reps] cold set-ups. *)
let traced_setups (w : (_, _) workload) sp ~reps =
  let i = Spans.intern sp in
  let nm_setup = i "setup" and nm_build = i "graph.build" and nm_fuse = i "fuse" in
  let nm_compile = i "compile" and nm_create = i "dispatcher.create" in
  let nm_open = i "session.open" in
  let kept = ref None in
  for _ = 1 to reps do
    kept := None;
    Gc.full_major ();
    Compile.clear_plan_cache ();
    let root = Spans.open_ sp nm_setup ~parent:(-1) in
    let g = Spans.span sp nm_build ~parent:root w.build in
    let froot =
      if w.fuse then Spans.span sp nm_fuse ~parent:root (fun () -> Fuse.fuse_cached g.root)
      else g.root
    in
    ignore (Spans.span sp nm_compile ~parent:root (fun () -> Compile.plan_of froot));
    let d =
      Spans.span sp nm_create ~parent:root (fun () ->
          D.create ~fuse:w.fuse ~history:w.history g.root)
    in
    let sessions =
      Array.init w.sessions (fun _ ->
          Spans.span sp nm_open ~parent:root (fun () -> D.open_session d))
    in
    Spans.close sp root;
    kept := Some { g; d; sessions }
  done;
  Option.get !kept

let add_setup_layers r aggs ~reps =
  let ms name = float_of_int (Spans.find aggs name).Spans.total_ns /. 1e6 /. float_of_int reps in
  Report.add r "fuse.ms" "ms" (ms "fuse");
  Report.add r "compile.plan_ms" "ms" (ms "compile");
  let o = Spans.find aggs "session.open" in
  Report.add r "session.open_us" "us" (per (float_of_int o.Spans.total_ns /. 1e3) o.Spans.count)

(* The decomposition layers, per external event. *)
let add_step_layers r aggs ~events =
  let ns name = per (float_of_int (Spans.find aggs name).Spans.total_ns) events in
  let step = ns "session.step" and cone = ns "reach.cone_size" in
  let wake = ns "session.wake_test" in
  Report.add r "session.step_ns_per_event" "ns" step;
  Report.add r "reach.cone_size_ns_per_event" "ns" cone;
  Report.add r "session.wake_test_ns_per_event" "ns" wake;
  Report.add r "session.region_ops_ns_per_event" "ns" (step -. cone -. wake);
  Report.add r "reach.cone_share_of_step" "ratio" (cone /. Float.max 1e-9 step);
  step

(* A hidden directory, which dune does not scan. *)
let spans_path ~workload ~seed =
  let dir = ".bench_out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Printf.sprintf "%s/spans-%s-%d.tsv" dir workload seed

(* The program served by [drain_parallel] on a 2-domain pool, closed loop:
   the pool's counters. Its end-to-end figures are not kept: single-event
   pool drains stall on 2-domain stop-the-world minor collections whenever
   the host steals the other vCPU, so its open-loop p90 did not repeat. *)
let pool_phase w ~seed ~duration_s r =
  let pool = Pool.create ~domains:2 () in
  let g = w.build () in
  let d = D.create ~fuse:w.fuse ~history:w.history ~pool g.root in
  let sessions = Array.init w.sessions (fun _ -> D.open_session d) in
  let rng = Random.State.make [| seed; 6 |] in
  let ws0 = Pool.worker_stats pool and drains = ref 0 and k = ref 0 in
  ignore
    (closed_loop ~duration_s ~segment_s:0.5 (fun () ->
         for _ = 1 to w.batch do
           let sid, ev = w.gen rng !k in
           incr k;
           if not (g.inject d sessions.(sid) ev) then r.Report.failed <- r.Report.failed + 1
         done;
         r.Report.attempted <- r.Report.attempted + w.batch;
         ignore (D.drain d);
         incr drains;
         w.batch));
  let ws1 = Pool.worker_stats pool in
  let slots = Array.map (fun s -> s.Stats.events) (D.domain_stats d) in
  add_pool r ~ws0 ~ws1 ~drains:!drains ~slots;
  Pool.close pool

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics. *)

let run_traced (w : (_, _) workload) ~workload ~seed ~seconds =
  let r = Report.create () in
  let sp = Spans.create 4_000_000 in
  let nm = names sp in
  let dr =
    { rng = Random.State.make [| seed; 1 |]; counter = 0; chk = w.checker ~seed; r }
  in
  let setup_reps = 3 in
  let i = traced_setups w sp ~reps:setup_reps in
  (* Untraced closed loop: the counters and GC figures. *)
  let stats0 = sum_stats i.sessions and gc0 = gc_mark () in
  let ref_events = ref 0 in
  ignore
    (closed_loop ~duration_s:(0.2 *. seconds) ~segment_s:0.5 (fun () ->
         let n = batch_step w i dr () in
         ref_events := !ref_events + n;
         n));
  let gc1 = gc_mark () and stats1 = sum_stats i.sessions in
  add_stats r ~before:stats0 ~after:stats1 ~events:!ref_events;
  add_gc r ~before:gc0 ~after:gc1 ~events:!ref_events;
  pool_phase w ~seed ~duration_s:(0.1 *. seconds) r;
  (* Rounds of an untraced batch (the per-event time the layers must add
     up to), a traced batch (inject and drain spans) and a decomposition
     batch on bare sessions, so all three see the same host. *)
  let b = bare_sessions (D.root i.d) w.sessions in
  let drng = Random.State.make [| seed; 3 |] in
  let traced_events = ref 0 and decomp_events = ref 0 in
  let untraced_s = ref 0. and untraced_events = ref 0 in
  let t_end = now_s () +. (0.4 *. seconds) in
  while now_s () < t_end && not (Spans.full sp) do
    let t0 = now_s () in
    untraced_events := !untraced_events + batch_step w i dr ();
    untraced_s := !untraced_s +. (now_s () -. t0);
    let root = Spans.open_ sp nm.nm_batch ~parent:(-1) in
    for _ = 1 to w.batch do
      Spans.span sp nm.nm_inject ~parent:root (fun () -> inject_one w i dr)
    done;
    Spans.span sp nm.nm_drain ~parent:root (fun () -> drain i);
    Spans.close sp root;
    traced_events := !traced_events + w.batch;
    let events = Array.init w.batch (fun k -> w.gen drng (!decomp_events + k)) in
    decompose sp nm b i.g events;
    decomp_events := !decomp_events + w.batch
  done;
  (* Open loop, untraced: how late the generator ran. *)
  let lag =
    open_loop ~rng:(Random.State.make [| seed; 2 |]) ~rate:w.rate
      ~duration_s:(0.1 *. seconds) ~batch:true
      ~inject:(fun () -> inject_one w i dr)
      ~finish:(fun () -> drain i)
  in
  Report.add r "driver.lag_us_p90" "us" (quantile lag 0.9);
  let untraced_ns = !untraced_s *. 1e9 /. float_of_int !untraced_events in
  let floor_ns =
    floor_ns_per_event ~gen:w.gen ~floor:(w.floor w.sessions) ~budget_s:(0.05 *. seconds)
      (Random.State.make [| seed; 4 |])
  in
  Report.add r "floor.ns_per_event" "ns" floor_ns;
  Report.add r "engine.overhead_ratio" "ratio" (untraced_ns /. floor_ns);
  Report.add r "trace.words_per_event_overhead" "words" (tracer_words w);
  (* Upgrade layers: the diff alone, and one session's remap (on the bare
     sessions), then a full upgrade of the served dispatcher. *)
  let nm_diff = Spans.intern sp "upgrade.diff" and nm_sess = Spans.intern sp "upgrade.session" in
  let nm_all = Spans.intern sp "dispatcher.upgrade_all" in
  let g' = w.build () in
  let new_plan = Compile.plan_of (if w.fuse then Fuse.fuse_cached g'.root else g'.root) in
  let patch =
    Spans.span sp nm_diff ~parent:(-1) (fun () -> Upgrade.diff b.plan new_plan)
  in
  Array.iter (fun s -> Spans.span sp nm_sess ~parent:(-1) (fun () -> S.upgrade s patch)) b.bs;
  let g'' = w.build () in
  let patch = Spans.span sp nm_all ~parent:(-1) (fun () -> D.upgrade_all i.d g''.root) in
  i.g <- g'';
  if not (Upgrade.is_identity patch) then
    Report.fail r ~what:"upgrade onto an identical rebuild is not an identity" ~events:0;
  ignore (batch_step w i dr ());
  dr.chk.check i.sessions r;
  check_quiescent i r;
  (* Aggregate. *)
  let aggs = Spans.aggregate sp in
  add_setup_layers r aggs ~reps:setup_reps;
  let step = add_step_layers r aggs ~events:!decomp_events in
  let inject = Spans.find aggs "dispatcher.inject" in
  let inject_ns = per (float_of_int inject.Spans.self_ns) inject.Spans.count in
  let drain_ns = per (float_of_int (Spans.find aggs "dispatcher.drain").Spans.total_ns) !traced_events in
  Report.add r "dispatcher.inject_ns" "ns" inject_ns;
  Report.add r "dispatcher.drain_ns_per_event" "ns" drain_ns;
  Report.add r "dispatcher.route_ns_per_event" "ns" (drain_ns -. step);
  Report.add r "dispatcher.backlog_peak" "count" (float_of_int (max w.batch b.ready_peak));
  Report.add r "dispatcher.delay_heap_peak" "count" (float_of_int b.delay_peak);
  let layers = inject_ns +. drain_ns in
  Report.add r "layers.sum_ns_per_event" "ns" layers;
  Report.add r "e2e.untraced_ns_per_event" "ns" untraced_ns;
  Report.add r "layers.residual_share" "ratio" ((layers -. untraced_ns) /. untraced_ns);
  let ms name = float_of_int (Spans.find aggs name).Spans.total_ns /. 1e6 in
  Report.add r "upgrade.diff_ms" "ms" (ms "upgrade.diff");
  Report.add r "upgrade.session_us" "us"
    (per (ms "upgrade.session" *. 1e3) (Spans.find aggs "upgrade.session").Spans.count);
  Report.add r "upgrade.all_ms" "ms" (ms "dispatcher.upgrade_all");
  Report.add r "runtime.inject_ns" "ns" 0.;
  Report.add r "runtime.yield_ns_per_event" "ns" 0.;
  Spans.write sp (spans_path ~workload ~seed);
  r

(* The app workload: one program on [Runtime.start ~backend:Compiled
   ~domains:1] inside [Cml.run]: the wave coordinator, running each event
   wave's region groups inline. The driver injects one event, then yields
   to the runtime (a virtual-clock sleep) until everything the event caused
   has settled. *)

module Compile = Elm_core.Compile
module Fuse = Elm_core.Fuse
module Runtime = Elm_core.Runtime
module Stats = Elm_core.Stats
module Upgrade = Elm_core.Upgrade
module D = Elm_serve.Dispatcher
module S = Elm_serve.Session
open Meter

type ('a, 'ev) app = {
  build : unit -> ('a, 'ev) Serve.graph * ('a Runtime.t -> 'ev -> unit);
  settle_s : float;  (* virtual seconds slept after each event *)
  history : int;
  rate : float;  (* open-loop arrival rate, events/s *)
  gen : Random.State.t -> int -> 'ev;
  floor : unit -> 'ev -> unit;
  check : seed:int -> events:int -> recent:'ev array -> 'a Runtime.t -> Report.t -> unit;
}

let window = 256

(* ------------------------------------------------------------------ *)
(* app_fanout: the trace of the last [window] events equals a fresh
   [~domains:1] run fed the same events (the program is stateless, so after
   the reference's first event both hold the same values and every later
   change must agree), and the final root is the closed-form sum of the
   branches for the last event. *)

let fan_history = (Shapes.fan_width + 1) * window

let fan_check ~seed:_ ~events ~recent rt r =
  let first, root = Shapes.fanout () in
  let reference = ref [] and skip = ref 0 in
  Cml.run (fun () ->
      let rf = Runtime.start ~backend:Runtime.Compiled ~domains:1 root in
      Array.iteri
        (fun k v ->
          Runtime.inject rf first v;
          Cml.sleep 0.001;
          if k = 0 then skip := List.length (Runtime.changes rf))
        recent;
      reference := List.map snd (Runtime.changes rf);
      Runtime.stop rf);
  let want = List.filteri (fun i _ -> i >= !skip) !reference in
  let got = List.map snd (Runtime.changes rt) in
  let n = List.length got and m = List.length want in
  if m = 0 || n < m || List.filteri (fun i _ -> i >= n - m) got <> want then
    Report.fail r ~what:"trace differs from a fresh 1-domain replay" ~events:(min events window);
  let last = recent.(Array.length recent - 1) in
  if Runtime.current rt <> Shapes.fan_floor_event (Array.make Shapes.fan_width 0) last then
    Report.fail r ~what:"final root differs from the closed form" ~events:1

let app_fanout =
  {
    build =
      (fun () ->
        let first, root = Shapes.fanout () in
        ( Serve.fan_graph_of first root,
          fun rt v -> Runtime.inject rt first v ));
    settle_s = 0.001;
    history = fan_history;
    rate = 500.;
    gen = (fun rng _ -> Random.State.int rng 1_000_000);
    floor =
      (fun () ->
        let branches = Array.make Shapes.fan_width 0 in
        fun v -> ignore (Sys.opaque_identity (Shapes.fan_floor_event branches v)));
    check = fan_check;
  }

(* ------------------------------------------------------------------ *)
(* Harness *)

let start app root =
  Runtime.start ~backend:Runtime.Compiled ~history:app.history ~domains:1 root

(* Cold set-ups (scheduler, graph, fusion, plan compile from a cleared
   cache, runtime start), timed in batches; the median per set-up. *)
let measure_setup app ~budget_s =
  timed_median ~budget_s ~batch_s:(budget_s /. 6.) (fun () ->
      let t0 = now_s () in
      let dt = ref 0. in
      Cml.run (fun () ->
          Compile.clear_plan_cache ();
          let g, _ = app.build () in
          let rt = start app g.Serve.root in
          dt := now_s () -. t0;
          Runtime.stop rt);
      !dt)

(* The same program as one serve session, for the two figures the runtime
   has no entry point for: its idle footprint, and [upgrade ()], the mean
   time (ms) to hot-swap it onto an identical rebuild over a batch of at
   least [batch_s]. *)
type serve_side = { bytes : float; upgrade : unit -> float }

let serve_side app ~seed ~batch_s r =
  let g, _ = app.build () in
  let d = D.create ~history:app.history g.Serve.root in
  let s = D.open_session d in
  let bytes = float_of_int (S.footprint_words s * (Sys.word_size / 8)) in
  let rng = Random.State.make [| seed; 5 |] in
  for k = 1 to 64 do
    ignore (g.Serve.inject d s (app.gen rng k));
    ignore (D.drain d)
  done;
  let upgrade () =
    let t_end = now_s () +. batch_s in
    let total = ref 0. and n = ref 0 in
    while now_s () < t_end do
      let g', _ = app.build () in
      let t0 = now_s () in
      let patch = D.upgrade_all d g'.Serve.root in
      total := !total +. (now_s () -. t0);
      incr n;
      if not (Upgrade.is_identity patch) then
        Report.fail r ~what:"upgrade onto an identical rebuild is not an identity" ~events:0
    done;
    !total /. float_of_int !n *. 1e3
  in
  { bytes; upgrade }

(* The event stream of a run: seeded, with the last [window] events kept
   for the oracle. *)
type 'ev stream = {
  rng : Random.State.t;
  mutable count : int;
  recent : 'ev option array;
}

let next app st =
  let ev = app.gen st.rng st.count in
  st.recent.(st.count mod window) <- Some ev;
  st.count <- st.count + 1;
  ev

let recent st =
  let n = min st.count window in
  Array.init n (fun k -> Option.get st.recent.((st.count - n + k) mod window))

let run app ~seed ~seconds =
  let r = Report.create () in
  let setup_s = measure_setup app ~budget_s:(0.12 *. seconds) in
  let st = { rng = Random.State.make [| seed; 1 |]; count = 0; recent = Array.make window None } in
  let side = serve_side app ~seed ~batch_s:0.1 r in
  let out = ref None in
  Cml.run (fun () ->
      Compile.clear_plan_cache ();
      let g, inject = app.build () in
      let rt = start app g.Serve.root in
      let one () =
        inject rt (next app st);
        Cml.sleep app.settle_s;
        1
      in
      let load, upgrades =
        mixed_load ~duration_s:(0.75 *. seconds) ~closed_s:0.5 ~open_s:1.0 ~step:one
          ~rng:(Random.State.make [| seed; 2 |]) ~rate:app.rate ~batch:false
          ~inject:(fun () -> inject rt (next app st))
          ~finish:(fun () -> Cml.sleep app.settle_s)
          ~between:side.upgrade
      in
      out := Some (rt, load, upgrades));
  let rt, load, upgrades = Option.get !out in
  Runtime.stop rt;
  r.Report.attempted <- st.count;
  let heap = heap_peak_mb () in
  app.check ~seed ~events:st.count ~recent:(recent st) rt r;
  Report.add r "setup_s" "s" setup_s;
  Report.add r "events_per_s" "1/s" (median load.rates);
  Report.add r "latency_p50_us" "us" (segment_quantile load.latencies 0.5);
  Report.add r "latency_p90_us" "us" (segment_quantile load.latencies 0.9);
  Report.add r "heap_peak_mb" "MB" heap;
  Report.add r "session_bytes" "bytes" side.bytes;
  Report.add r "upgrade_ms" "ms" (median upgrades);
  Report.note r "open_loop_events" (string_of_int load.open_events);
  r

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics. *)

(* The app's program as a one-session serve workload, for the layers
   measured on the serve path (tracer cost, floor). *)
let as_serve app : (_, _) Serve.workload =
  {
    Serve.build = (fun () -> fst (app.build ()));
    fuse = true;
    sessions = 1;
    history = app.history;
    batch = 1;
    rate = app.rate;
    gen = (fun rng k -> (0, app.gen rng k));
    checker = (fun ~seed:_ -> { Serve.on_event = (fun _ _ -> ()); check = (fun _ _ -> ()) });
    floor =
      (fun _ ->
        let f = app.floor () in
        fun (_, ev) -> f ev);
  }

let dummy_env = { S.env_fire = (fun ~sid:_ ~source:_ -> ()); env_delay = (fun ~sid:_ ~node:_ ~slot:_ ~seconds:_ _ -> ()) }

let run_traced app ~workload ~seed ~seconds ~floor_events ~tracer_events =
  let r = Report.create () in
  let sp = Spans.create 4_000_000 in
  let nm = Serve.names sp in
  let i = Spans.intern sp in
  let nm_setup = i "setup" and nm_build = i "graph.build" and nm_fuse = i "fuse" in
  let nm_compile = i "compile" and nm_start = i "runtime.start" in
  let nm_open = i "session.open" and nm_event = i "event" in
  let nm_rinject = i "runtime.inject" and nm_yield = i "runtime.yield" in
  let setup_reps = 3 in
  for _ = 1 to setup_reps do
    Cml.run (fun () ->
        Compile.clear_plan_cache ();
        let root = Spans.open_ sp nm_setup ~parent:(-1) in
        let g, _ = Spans.span sp nm_build ~parent:root app.build in
        let froot = Spans.span sp nm_fuse ~parent:root (fun () -> Fuse.fuse_cached g.Serve.root) in
        ignore (Spans.span sp nm_compile ~parent:root (fun () -> Compile.plan_of froot));
        let rt = Spans.span sp nm_start ~parent:root (fun () -> start app g.Serve.root) in
        ignore
          (Spans.span sp nm_open ~parent:root (fun () ->
               S.open_session ~sid:0 ~env:dummy_env froot));
        Spans.close sp root;
        Runtime.stop rt)
  done;
  let st = { rng = Random.State.make [| seed; 1 |]; count = 0; recent = Array.make window None } in
  let out = ref None in
  Cml.run (fun () ->
      Compile.clear_plan_cache ();
      let g, inject = app.build () in
      let rt = start app g.Serve.root in
      let one () =
        inject rt (next app st);
        Cml.sleep app.settle_s;
        1
      in
      (* Untraced closed loop: counters and GC. *)
      let stats0 = Stats.copy (Runtime.stats rt) and gc0 = gc_mark () in
      let n0 = st.count in
      ignore (closed_loop ~duration_s:(0.2 *. seconds) ~segment_s:0.5 one);
      let events = st.count - n0 in
      let gc1 = gc_mark () and stats1 = Stats.copy (Runtime.stats rt) in
      Serve.add_stats r ~before:stats0 ~after:stats1 ~events;
      Serve.add_gc r ~before:gc0 ~after:gc1 ~events;
      Serve.add_pool r ~ws0:[||] ~ws1:[||] ~drains:1 ~slots:[||];
      (* Rounds of an untraced event (the per-event time the layers must
         add up to), a traced event (inject and yield spans) and the
         decomposition on one bare session of the same plan, so all three
         see the same host. *)
      let b = Serve.bare_sessions (Fuse.fuse_cached g.Serve.root) 1 in
      let drng = Random.State.make [| seed; 3 |] in
      let traced = ref 0 and decomp = ref 0 and untraced_s = ref 0. in
      let t_end = now_s () +. (0.4 *. seconds) in
      while now_s () < t_end && not (Spans.full sp) do
        let t0 = now_s () in
        ignore (one ());
        untraced_s := !untraced_s +. (now_s () -. t0);
        let root = Spans.open_ sp nm_event ~parent:(-1) in
        let ev = next app st in
        Spans.span sp nm_rinject ~parent:root (fun () -> inject rt ev);
        Spans.span sp nm_yield ~parent:root (fun () -> Cml.sleep app.settle_s);
        Spans.close sp root;
        incr traced;
        Serve.decompose sp nm b g [| (0, app.gen drng !decomp) |];
        incr decomp
      done;
      let lag =
        open_loop ~rng:(Random.State.make [| seed; 2 |]) ~rate:app.rate
          ~duration_s:(0.1 *. seconds) ~batch:false
          ~inject:(fun () -> inject rt (next app st))
          ~finish:(fun () -> Cml.sleep app.settle_s)
      in
      out := Some (rt, !untraced_s *. 1e9 /. float_of_int !traced, !traced, !decomp, b, lag));
  let rt, untraced_ns, traced, decomp, b, lag = Option.get !out in
  Runtime.stop rt;
  r.Report.attempted <- st.count;
  app.check ~seed ~events:st.count ~recent:(recent st) rt r;
  Report.add r "driver.lag_us_p90" "us" (quantile lag 0.9);
  let floor_ns =
    Serve.floor_ns_per_event ~n:floor_events
      ~gen:(fun rng k -> app.gen rng k)
      ~floor:(app.floor ()) ~budget_s:(0.05 *. seconds)
      (Random.State.make [| seed; 4 |])
  in
  Report.add r "floor.ns_per_event" "ns" floor_ns;
  Report.add r "engine.overhead_ratio" "ratio" (untraced_ns /. floor_ns);
  Report.add r "trace.words_per_event_overhead" "words"
    (Serve.tracer_words ~events:tracer_events (as_serve app));
  (* Upgrade layers on the bare session; the whole upgrade on the serve
     path (see [serve_side]). *)
  let nm_diff = Spans.intern sp "upgrade.diff" and nm_sess = Spans.intern sp "upgrade.session" in
  let g', _ = app.build () in
  let new_plan = Compile.plan_of (Fuse.fuse_cached g'.Serve.root) in
  let patch = Spans.span sp nm_diff ~parent:(-1) (fun () -> Upgrade.diff b.Serve.plan new_plan) in
  Array.iter (fun s -> Spans.span sp nm_sess ~parent:(-1) (fun () -> S.upgrade s patch)) b.Serve.bs;
  let upgrade_ms = (serve_side app ~seed ~batch_s:(0.05 *. seconds) r).upgrade () in
  let aggs = Spans.aggregate sp in
  Serve.add_setup_layers r aggs ~reps:setup_reps;
  ignore (Serve.add_step_layers r aggs ~events:decomp);
  let self name =
    let a = Spans.find aggs name in
    Serve.per (float_of_int a.Spans.self_ns) a.Spans.count
  in
  let rinject = self "runtime.inject" in
  let yield = Serve.per (float_of_int (Spans.find aggs "runtime.yield").Spans.total_ns) traced in
  Report.add r "runtime.inject_ns" "ns" rinject;
  Report.add r "runtime.yield_ns_per_event" "ns" yield;
  Report.add r "dispatcher.inject_ns" "ns" 0.;
  Report.add r "dispatcher.drain_ns_per_event" "ns" 0.;
  Report.add r "dispatcher.route_ns_per_event" "ns" 0.;
  Report.add r "dispatcher.backlog_peak" "count" (float_of_int b.Serve.ready_peak);
  Report.add r "dispatcher.delay_heap_peak" "count" (float_of_int b.Serve.delay_peak);
  let layers = rinject +. yield in
  Report.add r "layers.sum_ns_per_event" "ns" layers;
  Report.add r "e2e.untraced_ns_per_event" "ns" untraced_ns;
  Report.add r "layers.residual_share" "ratio" ((layers -. untraced_ns) /. untraced_ns);
  let ms name = float_of_int (Spans.find aggs name).Spans.total_ns /. 1e6 in
  Report.add r "upgrade.diff_ms" "ms" (ms "upgrade.diff");
  Report.add r "upgrade.session_us" "us"
    (Serve.per (ms "upgrade.session" *. 1e3) (Spans.find aggs "upgrade.session").Spans.count);
  Report.add r "upgrade.all_ms" "ms" upgrade_ms;
  Spans.write sp (Serve.spans_path ~workload ~seed);
  r

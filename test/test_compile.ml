(* Tests for the compiled backend (Elm_core.Compile): synchronous regions
   between async/delay boundaries compiled to straight-line step functions.
   The compiled runtime must be observationally identical to the pipelined
   one across the whole shape catalogue x mode x dispatch x fusion matrix,
   region partitioning must cover the graph exactly, arena state must be
   fresh per runtime, and the accounting/tracing surfaces must report
   regions instead of stale per-member rows. The schedule explorer and the
   planted-mutation coverage suite both run against the compiled backend. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Compile = Elm_core.Compile
module Fuse = Elm_core.Fuse
module Trace = Elm_core.Trace
module Reach = Elm_core.Reach
module Pool = Elm_core.Pool
module Dispatcher = Elm_serve.Dispatcher
module Session = Elm_serve.Session
module Explore = Elm_check.Explore
module Mutate = Elm_check.Mutate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let with_world body = Gen_graph.with_world body
let values = Gen_graph.values

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Randomized compiled-vs-pipelined trace equivalence over the shared
   Gen_graph catalogue, across mode x dispatch and with fusion both on and
   off. Chain functions are injective and cost no virtual time, so the
   compiled backend must be bit-identical: same change values, same virtual
   times, same display message log. *)

let equivalent shape events (mode, dispatch) fuse =
  let pipelined =
    Gen_graph.run_shape ~backend:Runtime.Pipelined ~fuse ~mode ~dispatch shape
      events
  in
  let compiled =
    Gen_graph.run_shape ~backend:Runtime.Compiled ~fuse ~mode ~dispatch shape
      events
  in
  let log_p = Runtime.message_log pipelined in
  let log_c = Runtime.message_log compiled in
  Runtime.changes pipelined = Runtime.changes compiled
  && Runtime.current pipelined = Runtime.current compiled
  && List.length log_p = List.length log_c
  && List.for_all2 Gen_graph.entry_equal log_p log_c

let prop_compiled_equals_pipelined =
  QCheck.Test.make
    ~name:"compiled: identical changes/current/log across mode x dispatch x \
           fuse"
    ~count:40 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun combo ->
          List.for_all (equivalent shape events combo) [ false; true ])
        Gen_graph.all_combos)

(* The elision invariant holds for the compiled backend too: the root's
   display emission is the only real message, everything else is accounted
   as elided, and the per-event sum still equals node_count. *)
let prop_compiled_accounting =
  QCheck.Test.make ~name:"compiled: messages + elided = nodes * events"
    ~count:40 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      let rt =
        Gen_graph.run_shape ~backend:Runtime.Compiled shape events
      in
      let st = Runtime.stats rt in
      st.Stats.messages + st.Stats.elided_messages
      = Runtime.node_count rt * st.Stats.events)

(* ------------------------------------------------------------------ *)
(* Region partitioning units *)

let test_pure_graph_single_region () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift2 ( + ) a b) in
  let plan = Compile.plan root in
  check_int "one region" 1 (List.length (Compile.regions plan));
  check_int "no cut edges" 0 (List.length (Compile.cuts plan));
  let rg = List.hd (Compile.regions plan) in
  check_int "all four nodes are members" 4 (List.length rg.Compile.rg_members)

let test_async_graph_two_regions () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let inner = Signal.lift succ b in
  let root = Signal.lift2 ( + ) a (Signal.async inner) in
  let plan = Compile.plan root in
  check_int "two regions" 2 (List.length (Compile.regions plan));
  check_int "one cut edge" 1 (List.length (Compile.cuts plan));
  let inner_id = Signal.id inner in
  let cut_inner, _ = List.hd (Compile.cuts plan) in
  check_int "the cut edge leaves the async's inner node" inner_id cut_inner;
  (* b and its lift are one region; a, the async source and the root the
     other. The async node belongs to the downstream region: its mailbox is
     a source for the region that reads it. *)
  let region_idx id = Option.get (Compile.region_of plan id) in
  check_bool "inner chain separated from the consumer" true
    (region_idx (Signal.id b) <> region_idx (Signal.id root));
  check_bool "async node lives with its consumer" true
    (region_idx (Signal.id root) <> region_idx inner_id)

let test_partition_covers_every_shape () =
  for shape = 0 to Gen_graph.shape_count - 1 do
    let _, _, s = Gen_graph.build_shape shape in
    let root = Fuse.fuse s in
    let plan = Compile.plan root in
    let all = Signal.reachable root in
    (* every node is in exactly one region *)
    List.iter
      (fun (Signal.Pack n) ->
        match Compile.region_of plan (Signal.id n) with
        | None ->
          Alcotest.failf "shape %d: node %d in no region" shape (Signal.id n)
        | Some _ -> ())
      all;
    let member_total =
      List.fold_left
        (fun acc rg -> acc + List.length rg.Compile.rg_members)
        0 (Compile.regions plan)
    in
    check_int
      (Printf.sprintf "shape %d: members partition the graph" shape)
      (List.length all) member_total;
    (* the representative is a member of its own region *)
    List.iter
      (fun rg ->
        check_bool
          (Printf.sprintf "shape %d: rep is a member" shape)
          true
          (List.mem rg.Compile.rg_rep rg.Compile.rg_member_ids))
      (Compile.regions plan)
  done

let test_compiled_dot_shows_regions () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let root = Signal.lift2 ( + ) a (Signal.async (Signal.lift succ b)) in
  let dot = Compile.to_dot ~label:"regions" root in
  check_bool "has a cluster per region" true
    (contains dot "cluster_region_0" && contains dot "cluster_region_1");
  check_bool "clusters are dashed" true (contains dot "style=dashed";);
  check_bool "dispatcher re-entry edge drawn" true
    (contains dot "new event")

(* ------------------------------------------------------------------ *)
(* The wake table against its definition: for every source of every
   catalogue shape, fused and unfused, the plan's row must be exactly what
   the build-time Reach sets say — the cone size, the regions holding a
   node of the cone, and per region the ops whose node is in the cone, in
   compiled order. [Compile.region_sources] must agree too. *)

let test_wake_table_matches_reach () =
  for shape = 0 to Gen_graph.shape_count - 1 do
    List.iter
      (fun fused ->
        let _, _, s = Gen_graph.build_shape shape in
        let root = if fused then Fuse.fuse s else s in
        let plan = Compile.plan root in
        let reach = Compile.reach plan in
        let nodes = Signal.reachable root in
        let where =
          Printf.sprintf "shape %d%s" shape (if fused then " fused" else "")
        in
        let indices n = List.init n Fun.id in
        (* A node's ops, in compiled order: its member op, one tap per
           async/delay node it feeds, and the display op if it is the root.
           A region lays its members' ops out in member order. *)
        let op_count = Hashtbl.create 64 in
        let bump id =
          Hashtbl.replace op_count id
            (1 + Option.value ~default:1 (Hashtbl.find_opt op_count id))
        in
        List.iter
          (fun (Signal.Pack n) ->
            match Signal.kind n with
            | Signal.Async inner | Signal.Delay (_, inner) ->
              bump (Signal.id inner)
            | _ -> ())
          nodes;
        bump (Signal.id root);
        let op_nodes i =
          Array.of_list
            (List.concat_map
               (fun id ->
                 List.init
                   (Option.value ~default:1 (Hashtbl.find_opt op_count id))
                   (fun _ -> id))
               (Compile.region plan i).Compile.rg_member_ids)
        in
        let check_row src =
          let w = Compile.wake plan src in
          let in_cone id = Reach.affects reach ~source:src ~node:id in
          check_int (where ^ ": cone size")
            (List.length
               (List.filter
                  (fun (Signal.Pack n) -> in_cone (Signal.id n))
                  nodes))
            w.Compile.w_cone;
          let regions = indices (List.length (Compile.regions plan)) in
          check_ints (where ^ ": woken regions")
            (List.filter
               (fun i ->
                 List.exists in_cone
                   (Compile.region plan i).Compile.rg_member_ids)
               regions)
            (Array.to_list w.Compile.w_regions);
          List.iter
            (fun i ->
              check_bool (where ^ ": region_sources agrees")
                (Array.mem i w.Compile.w_regions)
                (Reach.set_mem src (Compile.region_sources plan i));
              let op_nodes = op_nodes i in
              let expected =
                List.filter
                  (fun j -> in_cone op_nodes.(j))
                  (indices (Array.length op_nodes))
              in
              let got =
                let row = ref [] in
                Array.iteri
                  (fun k i' ->
                    if i' = i then row := Array.to_list w.Compile.w_ops.(k))
                  w.Compile.w_regions;
                !row
              in
              check_ints
                (Printf.sprintf "%s: region %d ops" where i)
                expected got)
            regions
        in
        List.iter check_row (Reach.sources reach);
        (* an id that is no source of the plan wakes nothing *)
        let w = Compile.wake plan (-1) in
        check_int (where ^ ": unknown source cone") 0 w.Compile.w_cone;
        check_int (where ^ ": unknown source regions") 0
          (Array.length w.Compile.w_regions))
      [ false; true ]
  done

(* A traced executor bills each dispatch at its source's cone size from
   the wake table, and tracing changes none of the counters — through the
   session's sequential step path and intra-session admit path, and the
   compiled runtime's threaded region dispatcher and its [~domains:1] wave
   coordinator, on the async and delay shapes (so re-entries are
   dispatched too). *)
let test_traced_session_counters () =
  let events = [ (true, 1); (false, 2); (true, 3); (false, 4); (false, 5) ] in
  let pool = Pool.create ~domains:2 () in
  let serve shape ~intra tracer =
    let a, b, root = Gen_graph.build_shape shape in
    let d =
      Dispatcher.create ?tracer ~fuse:false
        ?pool:(if intra then Some pool else None)
        ~intra root
    in
    let s = Dispatcher.open_session d in
    List.iter
      (fun (left, v) -> Dispatcher.inject d s (if left then a else b) v)
      events;
    ignore (Dispatcher.drain d);
    (Dispatcher.plan d, Session.stats s)
  in
  let runtime shape ?domains tracer =
    let plan = ref None in
    let rt =
      Gen_graph.with_world (fun () ->
          let a, b, root = Gen_graph.build_shape shape in
          plan := Some (Compile.plan_of root);
          let rt =
            Runtime.start ~backend:Runtime.Compiled ~fuse:false ?tracer
              ?domains root
          in
          List.iter
            (fun (left, v) -> Runtime.inject rt (if left then a else b) v)
            events;
          rt)
    in
    Runtime.stop rt;
    (Option.get !plan, Runtime.stats rt)
  in
  List.iter
    (fun (shape, path) ->
      let run =
        match path with
        | `Step -> serve shape ~intra:false
        | `Intra -> serve shape ~intra:true
        | `Threaded -> runtime shape ?domains:None
        | `Wave -> runtime shape ~domains:1
      in
      let where =
        Printf.sprintf "shape %d %s" shape
          (match path with
          | `Step -> "step"
          | `Intra -> "intra"
          | `Threaded -> "threaded runtime"
          | `Wave -> "domains:1 runtime")
      in
      let tracer = Trace.create () in
      let plan, traced = run (Some tracer) in
      let _, untraced = run None in
      let dispatches =
        List.filter
          (fun r -> r.Trace.kind = Trace.Dispatch)
          (Trace.records tracer)
      in
      check_int (where ^ ": one dispatch per event") traced.Stats.events
        (List.length dispatches);
      (* session 0 and runtimes: trace ids carry no offset *)
      List.iter
        (fun r ->
          check_int (where ^ ": dispatch targets = wake cone")
            (Compile.wake plan r.Trace.node).Compile.w_cone r.Trace.value)
        dispatches;
      List.iter
        (fun (name, f) ->
          check_int (where ^ ": " ^ name ^ " traced = untraced") (f untraced)
            (f traced))
        [
          ("events", fun st -> st.Stats.events);
          ("messages", fun st -> st.Stats.messages);
          ("elided", fun st -> st.Stats.elided_messages);
          ("notified", fun st -> st.Stats.notified_nodes);
          ("region_steps", fun st -> st.Stats.region_steps);
        ])
    (List.concat_map
       (fun shape ->
         List.map (fun path -> (shape, path)) [ `Step; `Intra; `Threaded; `Wave ])
       [ 10; 11 ]);
  Pool.close pool

(* ------------------------------------------------------------------ *)
(* Arena state: foldp accumulators live in generation-stamped cells, so a
   second runtime over the same nodes must start from the defaults. *)

let test_foldp_state_fresh_per_runtime () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift succ a) in
  let drive () =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2; 3 ];
        rt)
  in
  let first = drive () in
  check_ints "first run accumulates" [ 2; 5; 9 ] (values first);
  let second = drive () in
  check_ints "second runtime starts from the default accumulator"
    [ 2; 5; 9 ] (values second)

(* ------------------------------------------------------------------ *)
(* Stats and tracing surfaces *)

let test_stats_report_regions () =
  let run backend =
    Gen_graph.run_shape ~backend 10 [ (true, 1); (false, 2); (true, 3) ]
  in
  let compiled = Runtime.stats (run Runtime.Compiled) in
  let pipelined = Runtime.stats (run Runtime.Pipelined) in
  check_bool "compiled regions counted" true
    (compiled.Stats.compiled_regions >= 2);
  check_bool "region steps counted" true (compiled.Stats.region_steps > 0);
  check_int "pipelined reports no regions" 0 pipelined.Stats.compiled_regions;
  let pp st = Format.asprintf "%a" Stats.pp st in
  check_bool "compiled pp shows regions" true (contains (pp compiled) "regions=");
  check_bool "pipelined pp omits regions" true
    (not (contains (pp pipelined) "regions="))

let test_trace_reports_region_rows () =
  let tracer = Trace.create () in
  let _rt =
    with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let b = Signal.input ~name:"b" 0 in
        let root =
          Signal.lift2 ~name:"join" ( + ) (Signal.lift ~name:"inc" succ a)
            (Signal.async (Signal.lift ~name:"dbl" (fun x -> x * 2) b))
        in
        let rt = Runtime.start ~backend:Runtime.Compiled ~tracer root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2 ];
        Runtime.inject rt b 5;
        rt)
  in
  let s = Trace.summary tracer in
  check_bool "at least one region row" true (List.length s.Trace.nodes >= 1);
  List.iter
    (fun ns ->
      check_bool
        (Printf.sprintf "row %s is a region" ns.Trace.node_name)
        true
        (String.length ns.Trace.node_name >= 7
        && String.sub ns.Trace.node_name 0 7 = "region:");
      check_bool
        (Printf.sprintf "row %s processed rounds (no stale zero rows)"
           ns.Trace.node_name)
        true (ns.Trace.rounds > 0))
    s.Trace.nodes

(* memoize:false is the pull-style baseline that re-runs steps on quiescent
   rounds — incompatible with the dirty-bit skip, so the compiled backend
   silently falls back to pipelined, like fusion does. *)
let test_memoize_false_falls_back () =
  let rt =
    with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let root = Signal.lift succ a in
        let rt =
          Runtime.start ~backend:Runtime.Compiled ~memoize:false root
        in
        Runtime.inject rt a 1;
        rt)
  in
  check_int "no compiled regions under memoize:false" 0
    (Runtime.stats rt).Stats.compiled_regions;
  check_ints "still runs" [ 2 ] (values rt)

(* ------------------------------------------------------------------ *)
(* Plan cache: compiling a graph shape is paid once; later runtimes over
   the same built graph reuse the cached plan (keyed on the fused root, so
   Runtime.start's default fusion still hits). Clearing the cache forces a
   recompile that must be observationally invisible. *)

let test_plan_cache_hit_across_runtimes () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.foldp ( + ) 0 (Signal.lift succ a) in
  let drive () =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled root in
        List.iter (fun v -> Runtime.inject rt a v) [ 1; 2; 3 ];
        rt)
  in
  Compile.clear_plan_cache ();
  let before = Compile.plan_cache_stats () in
  let first = drive () in
  let after_first = Compile.plan_cache_stats () in
  check_bool "first start compiles the plan (a miss)" true
    (after_first.Compile.misses > before.Compile.misses);
  let second = drive () in
  let after_second = Compile.plan_cache_stats () in
  check_bool "second start over the same graph hits the cache" true
    (after_second.Compile.hits > after_first.Compile.hits);
  check_int "no second compile" after_first.Compile.misses
    after_second.Compile.misses;
  check_bool "cache hit is observationally invisible" true
    (Runtime.changes first = Runtime.changes second);
  Compile.clear_plan_cache ();
  let third = drive () in
  let after_third = Compile.plan_cache_stats () in
  check_bool "cleared cache recompiles" true
    (after_third.Compile.misses > after_second.Compile.misses);
  check_bool "bit-identical traces after the recompile" true
    (Runtime.changes first = Runtime.changes third)

let test_plan_cache_shares_plan_object () =
  let a = Signal.input ~name:"a" 0 in
  let root = Signal.lift2 ( + ) (Signal.lift succ a) (Signal.input ~name:"b" 0) in
  Compile.clear_plan_cache ();
  let p1 = Compile.plan_of root in
  let p2 = Compile.plan_of root in
  check_bool "same physical plan for the same built graph" true (p1 == p2);
  check_bool "cache reports the entry" true
    ((Compile.plan_cache_stats ()).Compile.entries >= 1)

(* Concurrent compilation: several domains hammer graph construction,
   fusion memoisation and the plan cache at once. On the pre-Mutex code
   this crashed or corrupted state three separate ways — torn [fresh_id]
   increments handing two nodes one id (poisoning both memo keys),
   unguarded [node_fused] publication, and racing Hashtbl writes inside
   the bounded cache (including full [reset] churn past its capacity).
   Each domain also re-resolves a shared graph's plan repeatedly: every
   resolution must return the one canonical (physically equal) plan. *)
let test_plan_cache_concurrent_compile () =
  Compile.clear_plan_cache ();
  let shared_in = Signal.input ~name:"shared" 0 in
  let shared = Signal.foldp ( + ) 0 (Signal.lift succ shared_in) in
  let shared_fused = Fuse.fuse_cached shared in
  let canonical = Compile.plan_of shared_fused in
  let failures = Atomic.make 0 in
  let per_domain = 300 (* > max_cached_plans: forces reset churn *) in
  let worker () =
    for i = 1 to per_domain do
      (* a fresh small graph: exercises fresh_id + fuse + plan build *)
      let x = Signal.input ~name:"x" 0 in
      let root =
        Signal.lift2 ( + )
          (Signal.lift (fun v -> (v * 3) + i) x)
          (Signal.drop_repeats (Signal.lift (fun v -> v / 2) x))
      in
      let fused = Fuse.fuse_cached root in
      let pl = Compile.plan_of fused in
      if Compile.plan_of fused != pl then Atomic.incr failures;
      (* the fusion memo must publish exactly one fused root *)
      if Fuse.fuse_cached root != fused then Atomic.incr failures;
      (* the shared graph's plan stays canonical under cross-domain races
         (unless the bounded cache reset evicted it, in which case the
         fresh plan must itself be stable) *)
      let p = Compile.plan_of shared_fused in
      if Compile.plan_of shared_fused != p then Atomic.incr failures;
      ignore canonical
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  check_int "no torn plans or memo races" 0 (Atomic.get failures);
  (* distinct graphs got distinct node ids: the shared plan still resolves
     and drives a runtime correctly after the storm *)
  let rt =
    with_world (fun () ->
        let rt = Runtime.start ~backend:Runtime.Compiled shared_fused in
        List.iter (fun v -> Runtime.inject rt shared_in v) [ 1; 2 ];
        rt)
  in
  check_ints "shared graph still correct after concurrent churn" [ 2; 5 ]
    (values rt)

(* Regression: [clear_plan_cache] used to leave the [Fuse.fuse_cached]
   memos behind. A memoised fused root then outlived its plan, so the next
   [fuse_cached] hit handed back the stale root and [plan_of] silently
   repopulated the cache for it — and a live upgrade diffing "old plan vs
   new plan" could see the same physical objects on both sides. Clearing
   must drop both together. *)
let test_clear_plan_cache_clears_fuse_memos () =
  Compile.clear_plan_cache ();
  let a = Signal.input ~name:"a" 0 in
  let root =
    Signal.foldp ( + ) 0 (Signal.lift succ (Signal.lift succ (Signal.lift succ a)))
  in
  let fused1 = Fuse.fuse_cached root in
  check_bool "fusion actually rewrote the chain" true (fused1 != root);
  check_bool "memo stable before the clear" true
    (Fuse.fuse_cached root == fused1);
  let p1 = Compile.plan_of fused1 in
  Compile.clear_plan_cache ();
  check_bool "fusion memo fell with the plan cache" true
    (Fuse.fuse_cached root != fused1);
  let fused2 = Fuse.fuse_cached root in
  check_bool "plan recompiled fresh for the re-fused root" true
    (Compile.plan_of fused2 != p1)

(* ------------------------------------------------------------------ *)
(* Schedule exploration: the compiled backend's region threads interleave
   under the same chaos schedules, and every invariant must hold. *)

let explore_deterministic () =
  Explore.program ~name:"compiled-deterministic" ~show:string_of_int
    (fun () ->
      let a = Signal.input ~name:"a" 0 in
      let b = Signal.input ~name:"b" 0 in
      let joined =
        Signal.lift2 (fun x y -> (x * 31) + y)
          (Signal.drop_repeats (Signal.lift (fun x -> x / 2) a))
          (Signal.foldp ( + ) 0 b)
      in
      let root = Signal.foldp ( + ) 0 joined in
      {
        Explore.root;
        drive =
          (fun rt ->
            for i = 1 to 6 do
              Runtime.inject rt (if i mod 2 = 0 then b else a) i
            done);
      })

let explore_async () =
  Explore.program ~name:"compiled-async" ~deterministic:false
    ~classify:(fun v -> Some (v mod 2))
    ~show:string_of_int
    (fun () ->
      let a = Signal.input ~name:"a" 0 in
      let b = Signal.input ~name:"b" 1 in
      let root =
        Signal.merge
          (Signal.lift (fun x -> 2 * x) a)
          (Signal.async (Signal.lift (fun x -> (2 * x) + 1) b))
      in
      {
        Explore.root;
        drive =
          (fun rt ->
            for i = 1 to 4 do
              Runtime.inject rt a i;
              Runtime.inject rt b i
            done);
      })

let test_explore_compiled_deterministic () =
  let report =
    Explore.run ~backend:Runtime.Compiled ~schedules:12
      (explore_deterministic ())
  in
  if not (Explore.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Explore.pp_report report)

let test_explore_compiled_async () =
  let report =
    Explore.run ~backend:Runtime.Compiled ~schedules:12 (explore_async ())
  in
  if not (Explore.ok report) then
    Alcotest.failf "%s" (Format.asprintf "%a" Explore.pp_report report)

let test_mutations_caught_compiled () =
  check_bool "every planted mutation caught under the compiled backend" true
    (Mutate.all_caught ~backend:Runtime.Compiled ~schedules:2 ())

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "compile"
    [
      ( "equivalence",
        [ qc prop_compiled_equals_pipelined; qc prop_compiled_accounting ] );
      ( "partition",
        [
          tc "pure graph is one region" `Quick test_pure_graph_single_region;
          tc "async boundary splits regions" `Quick
            test_async_graph_two_regions;
          tc "partition covers every catalogue shape" `Quick
            test_partition_covers_every_shape;
          tc "dot renders region clusters" `Quick
            test_compiled_dot_shows_regions;
        ] );
      ( "wake-table",
        [
          tc "every row matches the Reach reference" `Quick
            test_wake_table_matches_reach;
          tc "traced session: dispatch = cone, counters unchanged" `Quick
            test_traced_session_counters;
        ] );
      ( "arena",
        [
          tc "foldp state fresh per runtime" `Quick
            test_foldp_state_fresh_per_runtime;
        ] );
      ( "reporting",
        [
          tc "stats count regions and steps" `Quick test_stats_report_regions;
          tc "trace rows are regions, never stale members" `Quick
            test_trace_reports_region_rows;
          tc "memoize:false falls back to pipelined" `Quick
            test_memoize_false_falls_back;
        ] );
      ( "plan-cache",
        [
          tc "second runtime over one graph hits the cache" `Quick
            test_plan_cache_hit_across_runtimes;
          tc "plan_of shares one plan object" `Quick
            test_plan_cache_shares_plan_object;
          tc "concurrent compile storm stays canonical" `Quick
            test_plan_cache_concurrent_compile;
          tc "clear_plan_cache drops the fusion memos too" `Quick
            test_clear_plan_cache_clears_fuse_memos;
        ] );
      ( "explore",
        [
          tc "deterministic program clean under chaos" `Quick
            test_explore_compiled_deterministic;
          tc "async program clean under chaos" `Quick
            test_explore_compiled_async;
          tc "planted mutations still caught" `Quick
            test_mutations_caught_compiled;
        ] );
    ]

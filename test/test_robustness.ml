(* Robustness and edge-case tests: failure injection (exceptions inside node
   functions), the Event/Stats helper modules, mode interactions
   (Sequential + async), graph introspection, and scheduler edge
   behaviours. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Event = Elm_core.Event
module Stats = Elm_core.Stats
module Mailbox = Cml.Mailbox
module Http = Elm_std.Http
module Pool = Elm_core.Pool
module Dispatcher = Elm_serve.Dispatcher
module Session = Elm_serve.Session

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Shared harness: honours FELM_SCHED_SEED / FELM_SCHED_PCT replay vars. *)
let with_world body = Gen_graph.with_world body

(* ------------------------------------------------------------------ *)
(* Event *)

let test_event_helpers () =
  check_bool "is_change" true (Event.is_change (Event.Change 1));
  check_bool "no_change" false (Event.is_change (Event.No_change 1));
  check_int "body of change" 5 (Event.body (Event.Change 5));
  check_int "body of no_change" 5 (Event.body (Event.No_change 5));
  check_bool "map change" true (Event.map succ (Event.Change 1) = Event.Change 2);
  check_bool "map keeps flavor" true
    (Event.map succ (Event.No_change 1) = Event.No_change 2);
  check_bool "equal" true (Event.equal ( = ) (Event.Change 3) (Event.Change 3));
  check_bool "not equal across flavors" false
    (Event.equal ( = ) (Event.Change 3) (Event.No_change 3));
  check_str "pp change" "Change 7"
    (Format.asprintf "%a" (Event.pp Format.pp_print_int) (Event.Change 7));
  check_str "pp nochange" "NoChange 7"
    (Format.asprintf "%a" (Event.pp Format.pp_print_int) (Event.No_change 7))

let test_stats_pp_and_totals () =
  let s = Stats.create () in
  s.Stats.applications <- 3;
  s.Stats.recomputations <- 4;
  check_int "total computations" 7 (Stats.total_computations s);
  let printed = Format.asprintf "%a" Stats.pp s in
  check_bool "pp mentions applications" true
    (let needle = "applications=3" in
     let n = String.length needle in
     let rec go i =
       i + n <= String.length printed
       && (String.sub printed i n = needle || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Failure injection *)

exception Node_crashed

let test_node_exception_propagates () =
  (* A crash inside a lifted function surfaces out of the session rather
     than being swallowed by the runtime. *)
  let run () =
    Cml.run (fun () ->
        let src = Signal.input 0 in
        let s =
          Signal.lift (fun x -> if x = 13 then raise Node_crashed else x) src
        in
        let rt = Runtime.start s in
        Runtime.inject rt src 1;
        Runtime.inject rt src 13)
  in
  Alcotest.check_raises "crash escapes Cml.run" Node_crashed run

let test_crash_during_default () =
  (* Defaults are computed at construction; a crash there is immediate. *)
  Alcotest.check_raises "default crash" Node_crashed (fun () ->
      Cml.run (fun () ->
          let src = Signal.input 13 in
          ignore (Signal.lift (fun x -> if x = 13 then raise Node_crashed else x) src)))

let test_foldp_crash () =
  Alcotest.check_raises "foldp crash escapes" Node_crashed (fun () ->
      Cml.run (fun () ->
          let src = Signal.input 0 in
          let s = Signal.foldp (fun _ _ -> raise Node_crashed) 0 src in
          let rt = Runtime.start s in
          Runtime.inject rt src 1))

let test_listener_crash () =
  Alcotest.check_raises "listener crash escapes" Node_crashed (fun () ->
      Cml.run (fun () ->
          let src = Signal.input 0 in
          let rt = Runtime.start src in
          Runtime.on_change rt (fun _ _ -> raise Node_crashed);
          Runtime.inject rt src 1))

(* ------------------------------------------------------------------ *)
(* Node supervision: Isolate / Restart *)

(* Two independent branches: a crashing one fed by [a] (the crash kind —
   plain lift, foldp step or fused composite chain — is the parameter) and a
   clean one fed by [b] whose applications are recorded. [a] values that are
   multiples of 3 crash when [faulty]; both branches join at the root so the
   session exercises partial-failure dispatch. Returns the clean branch's
   application log (newest first) and the runtime. *)
let supervised_session ~kind ~policy ~mode ~dispatch ~faulty =
  let clean_log = ref [] in
  let rt =
    with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let b = Signal.input ~name:"b" 0 in
        (* [x > 0]: the construction-time default (0) must not crash. *)
        let boom x =
          if faulty && x > 0 && x mod 3 = 0 then raise Node_crashed else x * 10
        in
        let crashing =
          match kind with
          | `Lift -> Signal.lift ~name:"boom" boom a
          | `Foldp ->
            Signal.foldp ~name:"boom"
              (fun x acc -> boom x + acc)
              0 a
          | `Fused ->
            (* A two-stage stateless chain: the fusion pass collapses it
               into one composite node, so the crash happens inside a fused
               step and must isolate the composite as a unit. *)
            Signal.lift ~name:"post" (fun x -> x + 1)
              (Signal.lift ~name:"boom" boom a)
        in
        let clean =
          Signal.lift ~name:"clean"
            (fun y ->
              clean_log := y :: !clean_log;
              y + 100)
            b
        in
        let root = Signal.lift2 ~name:"root" ( + ) crashing clean in
        let rt = Runtime.start ~mode ~dispatch ~on_node_error:policy root in
        for i = 1 to 9 do
          Runtime.inject rt a i;
          Runtime.inject rt b i
        done;
        rt)
  in
  (!clean_log, rt)

let test_supervision_matrix () =
  List.iter
    (fun kind ->
      List.iter
        (fun policy ->
          List.iter
            (fun mode ->
              List.iter
                (fun dispatch ->
                  let label =
                    Printf.sprintf "%s/%s/%s/%s"
                      (match kind with
                      | `Lift -> "lift"
                      | `Foldp -> "foldp"
                      | `Fused -> "fused")
                      (match policy with
                      | Runtime.Isolate -> "isolate"
                      | Runtime.Restart n -> Printf.sprintf "restart:%d" n
                      | Runtime.Propagate -> "propagate")
                      (match mode with
                      | Runtime.Pipelined -> "pipelined"
                      | Runtime.Sequential -> "sequential")
                      (match dispatch with
                      | Runtime.Flood -> "flood"
                      | Runtime.Cone -> "cone")
                  in
                  let clean_ok, _ =
                    supervised_session ~kind ~policy ~mode ~dispatch
                      ~faulty:false
                  in
                  let clean_faulty, rt =
                    supervised_session ~kind ~policy ~mode ~dispatch
                      ~faulty:true
                  in
                  (* The session completed (we got here), every injected
                     crash was counted, and the unaffected branch's
                     applications are bit-identical to the no-fault run. *)
                  check_int (label ^ ": failures counted") 3
                    (Runtime.stats rt).Stats.node_failures;
                  check_bool (label ^ ": clean branch unaffected") true
                    (clean_faulty = clean_ok))
                [ Runtime.Flood; Runtime.Cone ])
            [ Runtime.Pipelined; Runtime.Sequential ])
        [ Runtime.Isolate; Runtime.Restart 1; Runtime.Restart 10 ])
    [ `Lift; `Foldp; `Fused ]

let test_isolate_emits_last_good () =
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s =
          Signal.lift (fun x -> if x = 2 then raise Node_crashed else x * 10) src
        in
        let rt = Runtime.start ~on_node_error:Runtime.Isolate s in
        Runtime.inject rt src 1;
        Runtime.inject rt src 2;
        Runtime.inject rt src 3;
        rt)
  in
  (* The crashed round is a No_change of the last good value: no display
     change, no corrupted downstream value. *)
  check_bool "changes skip the crashed round" true
    (List.map snd (Runtime.changes rt) = [ 10; 30 ]);
  check_int "one failure" 1 (Runtime.stats rt).Stats.node_failures;
  check_int "no restarts under Isolate" 0 (Runtime.stats rt).Stats.node_restarts

let run_crashing_foldp policy injections =
  with_world (fun () ->
      let src = Signal.input 0 in
      let s =
        Signal.foldp
          (fun x acc -> if x = 99 then raise Node_crashed else acc + x)
          0 src
      in
      let rt = Runtime.start ~on_node_error:policy s in
      List.iter (fun v -> Runtime.inject rt src v) injections;
      rt)

let test_restart_resets_foldp () =
  (* Isolate keeps the accumulator across the crash; Restart re-seeds it
     from the signal default. *)
  let isolated = run_crashing_foldp Runtime.Isolate [ 1; 2; 99; 4 ] in
  check_bool "isolate keeps accumulator" true
    (List.map snd (Runtime.changes isolated) = [ 1; 3; 7 ]);
  let restarted = run_crashing_foldp (Runtime.Restart 1) [ 1; 2; 99; 4 ] in
  check_bool "restart re-seeds accumulator" true
    (List.map snd (Runtime.changes restarted) = [ 1; 3; 4 ]);
  check_int "restart counted" 1 (Runtime.stats restarted).Stats.node_restarts

let test_restart_budget_degrades_to_isolate () =
  let rt = run_crashing_foldp (Runtime.Restart 1) [ 1; 99; 2; 99; 3 ] in
  (* First crash restarts (acc back to 0); the second exhausts the budget,
     so the accumulator survives it. *)
  check_bool "budget spent, then isolate" true
    (List.map snd (Runtime.changes rt) = [ 1; 2; 5 ]);
  check_int "both failures counted" 2 (Runtime.stats rt).Stats.node_failures;
  check_int "only one restart" 1 (Runtime.stats rt).Stats.node_restarts

(* Supervision x scheduling: the Restart budget is a semantic property of
   the signal graph, not of the interleaving. Under every scheduler policy
   the node restarts exactly [min budget crashes] times and then degrades
   to Isolate, with a bit-identical change trace. *)

let policies_under_test seed =
  [
    Cml.Scheduler.Fifo;
    Cml.Scheduler.Seeded_random seed;
    Cml.Scheduler.Pct { seed; depth = 3 };
  ]

let run_crashing_foldp_under ~policy supervision injections =
  Gen_graph.with_world ~policy (fun () ->
      let src = Signal.input 0 in
      let s =
        Signal.foldp
          (fun x acc -> if x = 99 then raise Node_crashed else acc + x)
          0 src
      in
      let rt = Runtime.start ~on_node_error:supervision s in
      List.iter (fun v -> Runtime.inject rt src v) injections;
      rt)

let prop_restart_budget_exact_under_all_policies =
  QCheck.Test.make
    ~name:"Restart n degrades to Isolate after exactly n restarts (all policies)"
    ~count:40
    QCheck.(triple (int_range 1 3) (int_range 1 5) small_nat)
    (fun (budget, crashes, seed) ->
      let injections =
        List.concat (List.init crashes (fun i -> [ i + 1; 99 ])) @ [ 7 ]
      in
      let results =
        List.map
          (fun policy ->
            let rt =
              run_crashing_foldp_under ~policy (Runtime.Restart budget)
                injections
            in
            ( Runtime.changes rt,
              (Runtime.stats rt).Stats.node_restarts,
              (Runtime.stats rt).Stats.node_failures ))
          (policies_under_test seed)
      in
      match results with
      | (fifo_changes, fifo_restarts, fifo_failures) :: rest ->
        fifo_restarts = min budget crashes
        && fifo_failures = crashes
        && List.for_all
             (fun (c, r, f) ->
               c = fifo_changes && r = fifo_restarts && f = fifo_failures)
             rest
      | [] -> false)

let prop_zero_fault_supervised_bit_identical =
  QCheck.Test.make
    ~name:"zero-fault runs bit-identical to FIFO under Seeded_random with \
           supervision on"
    ~count:40
    QCheck.(pair Gen_graph.arb_deterministic_shape_events small_nat)
    (fun ((shape, events), seed) ->
      let run policy =
        Gen_graph.run_shape ~policy ~on_node_error:(Runtime.Restart 2) shape
          events
      in
      let fifo = run Cml.Scheduler.Fifo in
      let chaos = run (Cml.Scheduler.Seeded_random seed) in
      let log_f = Runtime.message_log fifo in
      let log_c = Runtime.message_log chaos in
      Runtime.changes fifo = Runtime.changes chaos
      && Runtime.current fifo = Runtime.current chaos
      && (Runtime.stats fifo).Stats.node_failures = 0
      && (Runtime.stats chaos).Stats.node_failures = 0
      && List.length log_f = List.length log_c
      && List.for_all2 Gen_graph.entry_equal log_f log_c)

let test_propagate_still_default () =
  (* The seed behaviour is untouched: no policy given, the crash escapes. *)
  Alcotest.check_raises "default is Propagate" Node_crashed (fun () ->
      Cml.run (fun () ->
          let src = Signal.input 0 in
          let s = Signal.lift (fun x -> if x = 2 then raise Node_crashed else x) src in
          let rt = Runtime.start s in
          Runtime.inject rt src 2))

(* ------------------------------------------------------------------ *)
(* Bounded mailboxes *)

let test_mailbox_drop_oldest () =
  Cml.run (fun () ->
      let mb = Mailbox.create ~capacity:2 ~overflow:Mailbox.Drop_oldest () in
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3;
      check_int "depth capped" 2 (Mailbox.length mb);
      check_int "oldest dropped" 2 (Mailbox.recv mb);
      check_int "newest kept" 3 (Mailbox.recv mb))

let test_mailbox_fail () =
  Alcotest.check_raises "overflow raises Full" (Mailbox.Full (Some "mb"))
    (fun () ->
      Cml.run (fun () ->
          let mb =
            Mailbox.create ~name:"mb" ~capacity:1 ~overflow:Mailbox.Fail ()
          in
          Mailbox.send mb 1;
          Mailbox.send mb 2))

let test_mailbox_block_backpressure () =
  let sent_at_park = ref [] in
  let received = ref [] in
  let max_depth = ref 0 in
  Cml.run (fun () ->
      Cml.Probe.set
        {
          Cml.Probe.on_send =
            (fun _ depth -> if depth > !max_depth then max_depth := depth);
          on_recv = (fun _ _ -> ());
          on_switch = (fun _ -> ());
        };
      let mb = Mailbox.create ~name:"bp" ~capacity:2 ~overflow:Mailbox.Block () in
      let progress = ref 0 in
      Cml.spawn (fun () ->
          for i = 1 to 5 do
            Mailbox.send mb i;
            progress := i
          done);
      Cml.spawn (fun () ->
          Cml.sleep 1.0;
          (* By now the sender has filled the two slots and parked on the
             third send: backpressure suspended it before [progress := 3]. *)
          sent_at_park := [ !progress ];
          for _ = 1 to 5 do
            received := Mailbox.recv mb :: !received
          done));
  check_bool "sender suspended at capacity" true (!sent_at_park = [ 2 ]);
  check_bool "FIFO across parked senders" true
    (List.rev !received = [ 1; 2; 3; 4; 5 ]);
  check_bool "probe-observed depth never exceeds capacity" true (!max_depth <= 2)

let test_recv_opt_fires_probe_and_drains () =
  Cml.run (fun () ->
      let recvs = ref 0 in
      Cml.Probe.set
        {
          Cml.Probe.on_send = (fun _ _ -> ());
          on_recv = (fun _ _ -> incr recvs);
          on_switch = (fun _ -> ());
        };
      let mb = Mailbox.create ~name:"m" ~capacity:1 ~overflow:Mailbox.Block () in
      Mailbox.send mb 1;
      Cml.spawn (fun () -> Mailbox.send mb 2);
      Cml.sleep 0.0;
      (* the spawned sender is now parked on the full mailbox *)
      check_bool "first value" true (Mailbox.recv_opt mb = Some 1);
      check_int "recv_opt reported to probe" 1 !recvs;
      check_int "parked sender admitted into freed slot" 1 (Mailbox.length mb);
      check_bool "second value" true (Mailbox.recv_opt mb = Some 2);
      check_bool "empty" true (Mailbox.recv_opt mb = None);
      check_int "empty poll not reported" 2 !recvs)

let test_mailbox_capacity_validation () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Mailbox.create: capacity must be >= 1") (fun () ->
      ignore (Mailbox.create ~capacity:0 ()));
  check_bool "capacity introspection" true
    (Mailbox.capacity (Mailbox.create ~capacity:7 () : int Mailbox.t) = Some 7);
  check_bool "unbounded introspection" true
    (Mailbox.capacity (Mailbox.create () : int Mailbox.t) = None)

let test_runtime_bounded_equals_unbounded () =
  let session capacity tracer =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.foldp ( + ) 0 (Signal.lift (fun x -> x * 2) src) in
        let rt = Runtime.start ?queue_capacity:capacity ?tracer s in
        for i = 1 to 200 do
          Runtime.inject rt src i
        done;
        rt)
  in
  let unbounded = session None None in
  let tracer = Elm_core.Trace.create () in
  let bounded = session (Some 2) (Some tracer) in
  check_bool "observable behaviour identical under backpressure" true
    (Runtime.changes bounded = Runtime.changes unbounded);
  let summary = Elm_core.Trace.summary tracer in
  List.iter
    (fun (chan, peak) ->
      let bounded_chan =
        String.length chan >= 5
        && (String.sub chan 0 5 = "wake:" || String.sub chan 0 6 = "value:")
      in
      if bounded_chan then
        check_bool (Printf.sprintf "peak of %s within capacity" chan) true
          (peak <= 2))
    summary.Elm_core.Trace.queue_peaks

(* ------------------------------------------------------------------ *)
(* Http resilience: flaky servers, retries, determinism *)

let run_http srv =
  let rt =
    with_world (fun () ->
        let req = Signal.input ~name:"req" "" in
        let resp = Http.send_get ~timeout:5.0 ~retries:40 ~backoff:0.01 srv req in
        let rt = Runtime.start resp in
        List.iter (fun q -> Runtime.inject rt req q) [ "a"; "b"; "c" ];
        rt)
  in
  (Runtime.current rt, List.map snd (Runtime.changes rt))

let prop_flaky_converges =
  QCheck.Test.make ~name:"flaky server + retries converge to reliable result"
    ~count:30
    QCheck.(
      triple small_nat
        (float_bound_inclusive 0.3)
        (float_bound_inclusive 0.3))
    (fun (seed, drop_rate, error_rate) ->
      let reliable () =
        Http.server ~latency:(fun _ -> 1.0) (fun q -> Ok ("R:" ^ q))
      in
      let flaky () =
        Http.flaky ~seed ~drop_rate ~spike_rate:0.2 ~error_rate ~error_burst:2
          (reliable ())
      in
      let ref_final, ref_changes = run_http (reliable ()) in
      let f1, c1 = run_http (flaky ()) in
      let f2, c2 = run_http (flaky ()) in
      (* Retries absorb the faults: same final Success and same displayed
         sequence as the reliable server — and deterministically so, twice. *)
      f1 = ref_final && c1 = ref_changes && f2 = f1 && c2 = c1)

let test_flaky_deterministic_served_count () =
  let mk () =
    Http.flaky ~seed:7 ~drop_rate:0.2 ~spike_rate:0.2 ~error_rate:0.2
      ~error_burst:2
      (Http.server ~latency:(fun _ -> 1.0) (fun q -> Ok q))
  in
  let srv1 = mk () in
  let r1 = run_http srv1 in
  let srv2 = mk () in
  let r2 = run_http srv2 in
  check_bool "same outcome" true (r1 = r2);
  check_int "same attempt count" (Http.request_count srv1)
    (Http.request_count srv2);
  check_bool "faults actually injected (retries happened)" true
    (Http.request_count srv1 > 3)

(* ------------------------------------------------------------------ *)
(* Mode interactions *)

let test_sequential_with_async () =
  (* Sequential mode barriers each dispatched event on the display ack; an
     async re-dispatch is just another event and must not deadlock. *)
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let s = Signal.async (Signal.lift (fun x -> x * 2) src) in
        let rt = Runtime.start ~mode:Runtime.Sequential s in
        Runtime.inject rt src 1;
        Runtime.inject rt src 2;
        rt)
  in
  check_bool "async values delivered under Sequential" true
    (List.map snd (Runtime.changes rt) = [ 2; 4 ])

let test_sequential_latency_vs_pipelined () =
  (* Make the distinction observable: in Sequential mode the second event's
     processing starts only after the first is displayed. *)
  let run mode =
    with_world (fun () ->
        let armed = ref false in
        let src = Signal.input 0 in
        let s =
          Signal.lift
            (fun x ->
              if !armed then Cml.sleep 10.0;
              x)
            src
        in
        let rt = Runtime.start ~mode s in
        armed := true;
        Runtime.inject rt src 1;
        Runtime.inject rt src 2;
        rt)
  in
  let last rt = fst (List.nth (Runtime.changes rt) 1) in
  Alcotest.(check (float 1e-6))
    "sequential: 2 * cost" 20.0
    (last (run Runtime.Sequential));
  Alcotest.(check (float 1e-6))
    "pipelined: cost overlapped" 20.0
    (last (run Runtime.Pipelined));
  (* with a two-stage chain the pipelining becomes visible *)
  let chain mode =
    with_world (fun () ->
        let armed = ref false in
        let src = Signal.input 0 in
        let slow name s =
          Signal.lift ~name
            (fun x ->
              if !armed then Cml.sleep 10.0;
              x)
            s
        in
        (* ~fuse:false — pipelined overlap between the two slow stages is
           exactly what fusing the chain would remove. *)
        let rt = Runtime.start ~mode ~fuse:false (slow "b" (slow "a" src)) in
        armed := true;
        Runtime.inject rt src 1;
        Runtime.inject rt src 2;
        rt)
  in
  Alcotest.(check (float 1e-6))
    "sequential two-stage" 40.0
    (last (chain Runtime.Sequential));
  Alcotest.(check (float 1e-6))
    "pipelined two-stage" 30.0
    (last (chain Runtime.Pipelined))

(* ------------------------------------------------------------------ *)
(* Introspection *)

let test_kind_names () =
  let i = Signal.input 0 in
  check_str "input" "input" (Signal.kind_name i);
  check_str "lift" "lift" (Signal.kind_name (Signal.lift succ i));
  check_str "foldp" "foldp" (Signal.kind_name (Signal.foldp ( + ) 0 i));
  check_str "async" "async" (Signal.kind_name (Signal.async i));
  check_str "merge" "merge" (Signal.kind_name (Signal.merge i i));
  check_str "constant" "constant" (Signal.kind_name (Signal.constant 3))

let test_deps_and_sources () =
  let a = Signal.input 0 in
  let b = Signal.input 0 in
  let s = Signal.lift2 ( + ) a b in
  check_int "two deps" 2 (List.length (Signal.deps s));
  check_bool "input is source" true (Signal.is_source a);
  check_bool "lift2 is not" false (Signal.is_source s);
  check_int "ids distinct" 2
    (List.length (List.sort_uniq compare [ Signal.id a; Signal.id b ]))

let test_names_default_and_custom () =
  let i = Signal.input ~name:"My.input" 0 in
  check_str "custom name" "My.input" (Signal.name i);
  check_str "fallback name" "lift" (Signal.name (Signal.lift succ i))

(* ------------------------------------------------------------------ *)
(* Scheduler edges *)

let test_zero_sleep_is_yield () =
  let log = ref [] in
  Cml.run (fun () ->
      Cml.spawn (fun () ->
          Cml.sleep 0.0;
          log := "slept" :: !log);
      Cml.spawn (fun () -> log := "ran" :: !log));
  Alcotest.(check (list string))
    "zero sleep yields, keeps time" [ "ran"; "slept" ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock unmoved" 0.0 (Cml.now ())

let test_nested_run_rejected () =
  Alcotest.check_raises "no nested schedulers" Cml.Scheduler.Already_running
    (fun () -> Cml.run (fun () -> Cml.run (fun () -> ())))

let test_many_events_burst () =
  (* A large burst exercises mailbox buffering and FIFO order end to end. *)
  let n = 5000 in
  let rt =
    with_world (fun () ->
        let src = Signal.input 0 in
        let rt = Runtime.start (Signal.foldp ( + ) 0 src) in
        for i = 1 to n do
          Runtime.inject rt src i
        done;
        rt)
  in
  check_int "sum of burst" (n * (n + 1) / 2) (Runtime.current rt);
  check_int "every event displayed" n (List.length (Runtime.changes rt))

let test_empty_lift_list_is_constant () =
  let rt =
    with_world (fun () ->
        let other = Signal.input 0 in
        let k = Signal.lift_list (fun _ -> 42) [] in
        let s = Signal.lift2 (fun a b -> a + b) k other in
        let rt = Runtime.start s in
        Runtime.inject rt other 1;
        rt)
  in
  check_bool "constant-like node participates" true
    (List.map snd (Runtime.changes rt) = [ 43 ])

(* Supervision across every executor of a compiled plan and the pipelined
   oracle: a foldp that crashes on 99 joined with a lift that crashes on
   positive multiples of 3, under Isolate and two Restart budgets. The
   change values and the failure/restart counts must agree on all seven:
   budgets are per node, so Restart 1 restarts each node once and
   Restart 5 covers every crash. *)
let supervised_graph () =
  let a = Signal.input ~name:"a" 0 in
  let b = Signal.input ~name:"b" 0 in
  let acc =
    Signal.foldp
      (fun x acc -> if x = 99 then raise Node_crashed else acc + x)
      0 a
  in
  let lb =
    Signal.lift
      (fun y -> if y > 0 && y mod 3 = 0 then raise Node_crashed else y)
      b
  in
  (a, b, Signal.lift2 (fun f g -> (f * 1000) + (g * 10)) acc lb)

let supervised_events =
  [
    (true, 1); (false, 1); (true, 99); (true, 2); (false, 3); (false, 4);
    (false, 6); (true, 99); (false, 9); (true, 5);
  ]

let run_supervised_runtime ?backend ?domains ?pool policy =
  let rt =
    with_world (fun () ->
        let a, b, root = supervised_graph () in
        let rt =
          Runtime.start ?backend ?domains ?pool ~fuse:false
            ~on_node_error:policy root
        in
        List.iter
          (fun (left, v) -> Runtime.inject rt (if left then a else b) v)
          supervised_events;
        rt)
  in
  Runtime.stop rt;
  let st = Runtime.stats rt in
  ( List.map snd (Runtime.changes rt),
    st.Stats.node_failures,
    st.Stats.node_restarts )

let run_supervised_serve ?pool ?(intra = false) policy =
  let a, b, root = supervised_graph () in
  let d = Dispatcher.create ~fuse:false ~on_node_error:policy ?pool ~intra root in
  let s = Dispatcher.open_session d in
  List.iter
    (fun (left, v) -> Dispatcher.inject d s (if left then a else b) v)
    supervised_events;
  ignore (Dispatcher.drain d);
  let st = Session.stats s in
  ( List.map snd (Session.changes s),
    st.Stats.node_failures,
    st.Stats.node_restarts )

let test_supervision_all_executors () =
  let pool = Pool.create ~domains:2 () in
  let executors =
    [
      ("pipelined", fun p -> run_supervised_runtime p);
      ( "compiled threaded",
        fun p -> run_supervised_runtime ~backend:Runtime.Compiled p );
      ( "compiled domains:1",
        fun p -> run_supervised_runtime ~backend:Runtime.Compiled ~domains:1 p );
      ( "compiled 2-domain pool",
        fun p -> run_supervised_runtime ~backend:Runtime.Compiled ~pool p );
      ("serve sequential", fun p -> run_supervised_serve p);
      ("serve pool", fun p -> run_supervised_serve ~pool p);
      ("serve intra", fun p -> run_supervised_serve ~pool ~intra:true p);
    ]
  in
  List.iter
    (fun (policy, name, expected) ->
      List.iter
        (fun (exec, run) ->
          Alcotest.(check (triple (list int) int int))
            (Printf.sprintf "%s under %s" exec name)
            expected (run policy))
        executors)
    [
      (Runtime.Isolate, "Isolate", ([ 1000; 1010; 3010; 3040; 8040 ], 5, 0));
      (Runtime.Restart 1, "Restart 1", ([ 1000; 1010; 2010; 2040; 7040 ], 5, 2));
      (Runtime.Restart 5, "Restart 5", ([ 1000; 1010; 2010; 2040; 5040 ], 5, 5));
    ];
  Pool.close pool

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "robustness"
    [
      ( "helpers",
        [
          tc "event module" `Quick test_event_helpers;
          tc "stats" `Quick test_stats_pp_and_totals;
        ] );
      ( "failure injection",
        [
          tc "lift crash" `Quick test_node_exception_propagates;
          tc "default crash" `Quick test_crash_during_default;
          tc "foldp crash" `Quick test_foldp_crash;
          tc "listener crash" `Quick test_listener_crash;
        ] );
      ( "supervision",
        [
          tc "policy matrix" `Quick test_supervision_matrix;
          tc "isolate emits last-good" `Quick test_isolate_emits_last_good;
          tc "restart resets foldp" `Quick test_restart_resets_foldp;
          tc "restart budget degrades" `Quick
            test_restart_budget_degrades_to_isolate;
          tc "propagate still default" `Quick test_propagate_still_default;
          tc "all seven executors agree" `Quick test_supervision_all_executors;
          QCheck_alcotest.to_alcotest prop_restart_budget_exact_under_all_policies;
          QCheck_alcotest.to_alcotest prop_zero_fault_supervised_bit_identical;
        ] );
      ( "bounded mailboxes",
        [
          tc "drop_oldest" `Quick test_mailbox_drop_oldest;
          tc "fail" `Quick test_mailbox_fail;
          tc "block backpressure" `Quick test_mailbox_block_backpressure;
          tc "recv_opt probe + drain" `Quick
            test_recv_opt_fires_probe_and_drains;
          tc "capacity validation" `Quick test_mailbox_capacity_validation;
          tc "bounded runtime equivalence" `Quick
            test_runtime_bounded_equals_unbounded;
        ] );
      ( "http resilience",
        [
          QCheck_alcotest.to_alcotest prop_flaky_converges;
          tc "deterministic flaky runs" `Quick
            test_flaky_deterministic_served_count;
        ] );
      ( "modes",
        [
          tc "sequential + async" `Quick test_sequential_with_async;
          tc "sequential latency" `Quick test_sequential_latency_vs_pipelined;
        ] );
      ( "introspection",
        [
          tc "kind names" `Quick test_kind_names;
          tc "deps/sources" `Quick test_deps_and_sources;
          tc "names" `Quick test_names_default_and_custom;
        ] );
      ( "scheduler edges",
        [
          tc "zero sleep" `Quick test_zero_sleep_is_yield;
          tc "nested run" `Quick test_nested_run_rejected;
          tc "burst of 5000" `Quick test_many_events_burst;
          tc "empty lift_list" `Quick test_empty_lift_list_is_constant;
        ] );
    ]

(* Intra-session parallel region dispatch (Runtime.start ~domains / ~pool).

   The oracle is determinism: one event wave may fan its region groups out
   over a domain pool, but admission order, epoch assignment and effect
   flushing are coordinator-side and plan-deterministic, so the observable
   behaviour — change trace (virtual times included), message log and
   counter totals — must be bit-identical for every domain count and every
   pool schedule seed. The properties here check exactly that over the
   shared gen_graph catalogue, plus the satellite fixes that ride along:
   Pool.run_dag's scheduling contract, atomic generation minting under
   Domain.spawn, and the Keyboard/Touch per-generation tables returning to
   baseline after open/run/stop churn. *)

module Signal = Elm_core.Signal
module Runtime = Elm_core.Runtime
module Stats = Elm_core.Stats
module Pool = Elm_core.Pool
module World = Elm_std.World
module Keyboard = Elm_std.Keyboard
module Touch = Elm_std.Touch
module Explore = Elm_check.Explore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Shared pools, one per width, reused across cases and Cml worlds
   (workers never touch the scheduler, so reuse across [Cml.run] instances
   is part of the contract under test). Closed at process exit. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_of k =
  match Hashtbl.find_opt pools k with
  | Some p -> p
  | None ->
    let p = Pool.create ~domains:k () in
    Hashtbl.replace pools k p;
    p

let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> Pool.close p) pools)

(* The full observable behaviour of one run: change trace with virtual
   times, message log, and the counters that must not depend on who ran
   the regions. *)
let observe rt =
  let s = Runtime.stats rt in
  ( Runtime.changes rt,
    Runtime.message_log rt,
    ( s.Stats.events,
      s.Stats.messages,
      s.Stats.elided_messages,
      s.Stats.async_events,
      s.Stats.region_steps,
      s.Stats.notified_nodes ) )

let run_wave ?policy ?dispatch ~config shape events =
  let domains, pool =
    match config with
    | `Inline -> (Some 1, None)
    | `Pool k -> (None, Some (pool_of k))
  in
  observe
    (Gen_graph.run_shape ~backend:Runtime.Compiled ?policy ?dispatch ?domains
       ?pool shape events)

(* Tentpole oracle: over the whole catalogue (async and delay shapes
   included), the trace is a function of the program and the scheduler
   policy alone — never of the domain count or pool width. *)
let prop_domain_count_invisible =
  QCheck.Test.make
    ~name:"wave trace independent of domain count (full catalogue, 3 seeds)"
    ~count:8 Gen_graph.arb_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun policy ->
          let reference = run_wave ~policy ~config:`Inline shape events in
          List.for_all
            (fun k -> run_wave ~policy ~config:(`Pool k) shape events = reference)
            [ 1; 2; 4 ])
        [
          Cml.Scheduler.Fifo;
          Cml.Scheduler.Seeded_random 1;
          Cml.Scheduler.Seeded_random 2;
        ])

(* Wave mode vs the sequential compiled dispatcher: for deterministic
   (async-free) shapes the wave path must reproduce the legacy trace
   exactly, under both dispatch strategies. *)
let prop_wave_matches_sequential =
  QCheck.Test.make
    ~name:"wave = sequential compiled dispatcher (deterministic shapes)"
    ~count:12 Gen_graph.arb_deterministic_shape_events
    (fun (shape, events) ->
      List.for_all
        (fun dispatch ->
          let legacy =
            observe
              (Gen_graph.run_shape ~backend:Runtime.Compiled ~dispatch shape
                 events)
          in
          run_wave ~dispatch ~config:`Inline shape events = legacy
          && run_wave ~dispatch ~config:(`Pool 2) shape events = legacy)
        [ Runtime.Cone; Runtime.Flood ])

(* A runtime-owned pool ([~domains:K], K > 1): created at start, closed by
   [Runtime.stop] (run_shape stops its runtime), same trace as inline. *)
let test_owned_pool_roundtrip () =
  let events = [ (true, 1); (false, 2); (true, 3); (true, 3); (false, 5) ] in
  for shape = 0 to Gen_graph.shape_count - 1 do
    let inline = run_wave ~config:`Inline shape events in
    let owned =
      observe
        (Gen_graph.run_shape ~backend:Runtime.Compiled ~domains:2 shape events)
    in
    check_bool
      (Printf.sprintf "shape %d: owned pool trace = inline" shape)
      true
      (owned = inline)
  done

(* [?domains]/[?pool] with an option the wave coordinator does not
   support is refused with an error naming that option, never silently
   run on the threaded dispatcher. *)
let refused_with ~expect start =
  let msg =
    Gen_graph.with_world (fun () ->
        let a = Signal.input ~name:"a" 0 in
        try
          ignore (start (Signal.lift succ a));
          "accepted"
        with Invalid_argument m -> m)
  in
  Alcotest.(check string)
    "refused, naming the option"
    ("Runtime.start: ?domains/?pool " ^ expect)
    msg

let test_refuse_pipelined () =
  refused_with ~expect:"needs ~backend:Compiled" (fun root ->
      Runtime.start ~backend:Runtime.Pipelined ~domains:1 root)

let test_refuse_memoize_false () =
  refused_with ~expect:"conflicts with ~memoize:false" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~memoize:false
        ~pool:(pool_of 2) root)

let test_refuse_mutate () =
  refused_with ~expect:"conflicts with ?mutate" (fun root ->
      Runtime.start ~backend:Runtime.Compiled
        ~mutate:(Runtime.Drop_no_change 1) ~domains:2 root)

let test_refuse_queue_capacity () =
  refused_with ~expect:"conflicts with ?queue_capacity" (fun root ->
      Runtime.start ~backend:Runtime.Compiled ~queue_capacity:4 ~domains:1
        root)

(* ------------------------------------------------------------------ *)
(* Pool.run_dag scheduling contract *)

let record_order () =
  let lock = Mutex.create () in
  let log = ref [] in
  let record i =
    Mutex.lock lock;
    log := i :: !log;
    Mutex.unlock lock
  in
  (record, fun () -> List.rev !log)

let test_run_dag_chain_order () =
  let pool = pool_of 2 in
  let record, order = record_order () in
  let n = 6 in
  let deps = Array.init n (fun i -> if i = 0 then [] else [ i - 1 ]) in
  let tasks = Array.init n (fun i -> fun _w -> record i) in
  Pool.run_dag pool ~deps tasks;
  Alcotest.(check (list int))
    "linear chain runs in dependency order"
    [ 0; 1; 2; 3; 4; 5 ]
    (order ())

let test_run_dag_diamond () =
  let pool = pool_of 4 in
  let record, order = record_order () in
  let deps = [| []; [ 0 ]; [ 0 ]; [ 1; 2 ] |] in
  let tasks = Array.init 4 (fun i -> fun _w -> record i) in
  (* vary the root-rotation seed: the partial order must hold under all *)
  for seed = 0 to 5 do
    Pool.run_dag ~seed pool ~deps tasks
  done;
  let runs = order () in
  check_int "every task ran every time" 24 (List.length runs);
  (* check each batch of 4 respects the diamond *)
  let rec batches = function
    | a :: b :: c :: d :: rest ->
      check_int "root first" 0 a;
      check_int "join last" 3 d;
      check_bool "middle is the two arms" true
        (List.sort compare [ b; c ] = [ 1; 2 ]);
      batches rest
    | [] -> ()
    | _ -> Alcotest.fail "batch not a multiple of 4"
  in
  batches runs

let test_run_dag_rejects_bad_input () =
  let pool = pool_of 2 in
  let noop = fun _w -> () in
  check_bool "cycle rejected" true
    (try
       Pool.run_dag pool ~deps:[| [ 1 ]; [ 0 ] |] [| noop; noop |];
       false
     with Invalid_argument _ -> true);
  check_bool "length mismatch rejected" true
    (try
       Pool.run_dag pool ~deps:[| [] |] [| noop; noop |];
       false
     with Invalid_argument _ -> true);
  check_bool "dependency index out of range rejected" true
    (try
       Pool.run_dag pool ~deps:[| [ 7 ] |] [| noop |];
       false
     with Invalid_argument _ -> true);
  (* self-edges are ignored, not cycles *)
  Pool.run_dag pool ~deps:[| [ 0 ] |] [| noop |]

let test_run_dag_error_releases_dependents () =
  let pool = pool_of 2 in
  let record, order = record_order () in
  let deps = [| []; [ 0 ]; [ 1 ] |] in
  let tasks =
    [|
      (fun _w -> record 0);
      (fun _w ->
        record 1;
        failwith "task 1 boom");
      (fun _w -> record 2);
    |]
  in
  check_bool "task error re-raised after the barrier" true
    (try
       Pool.run_dag pool ~deps tasks;
       false
     with Failure _ -> true);
  Alcotest.(check (list int))
    "failed task still releases its dependents"
    [ 0; 1; 2 ]
    (order ());
  (* the pool survives a failed batch *)
  Pool.run_dag pool ~deps:[| [] |] [| (fun _w -> ()) |]

(* Worker counters are billed before each task's completion is
   published, so a read right after the barrier already counts every
   task of the batch, on both batch shapes. Billing a worker's counts only
   after its loop ended read short in a few batches per thousand on a
   2-domain pool. *)
let test_worker_stats_exact () =
  let pool = pool_of 2 in
  Pool.reset_worker_stats pool;
  let tasks = Array.make 8 (fun _w -> ()) in
  let deps = Array.make 8 [] in
  let total () =
    Array.fold_left (fun n w -> n + w.Pool.ws_tasks) 0 (Pool.worker_stats pool)
  in
  let short = ref 0 in
  for i = 1 to 2000 do
    Pool.run ~seed:i pool tasks;
    if total () <> (16 * i) - 8 then incr short;
    Pool.run_dag ~seed:i pool ~deps tasks;
    if total () <> 16 * i then incr short
  done;
  check_int "batches whose task total read short" 0 !short

(* ------------------------------------------------------------------ *)
(* Satellite: atomic generation minting *)

let test_generation_unique_across_domains () =
  let n_domains = 4 and per = 500 in
  let mint () = Array.init per (fun _ -> Runtime.fresh_generation ()) in
  let spawned = Array.init n_domains (fun _ -> Domain.spawn mint) in
  let own = mint () in
  let minted =
    own :: Array.to_list (Array.map Domain.join spawned) |> Array.concat
  in
  let distinct = List.sort_uniq compare (Array.to_list minted) in
  check_int "concurrent mints never collide"
    ((n_domains + 1) * per)
    (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Satellite: Keyboard/Touch per-generation tables drain on stop *)

let test_std_tables_return_to_baseline () =
  let kb0 = Keyboard.held_table_size () in
  let tc0 = Touch.ongoing_table_size () in
  for _cycle = 1 to 8 do
    let rt =
      World.run (fun () ->
          let rt = Runtime.start Keyboard.arrows in
          Keyboard.press rt Keyboard.up_arrow;
          Keyboard.press rt Keyboard.left_arrow;
          rt)
    in
    check_bool "held entry live while the runtime runs" true
      (Keyboard.held_table_size () > kb0);
    Runtime.stop rt;
    check_int "held entry dropped by stop" kb0 (Keyboard.held_table_size ());
    let rt =
      World.run (fun () ->
          let rt = Runtime.start (Signal.lift List.length Touch.touches) in
          Touch.touch_start rt ~id:1 (0, 0);
          Touch.touch_move rt ~id:1 (3, 4);
          rt)
    in
    check_bool "ongoing entry live while the runtime runs" true
      (Touch.ongoing_table_size () > tc0);
    Runtime.stop rt;
    check_int "ongoing entry dropped by stop" tc0 (Touch.ongoing_table_size ())
  done;
  check_int "held table at baseline after churn" kb0
    (Keyboard.held_table_size ());
  check_int "ongoing table at baseline after churn" tc0
    (Touch.ongoing_table_size ());
  (* stop is idempotent and safe on never-pressed runtimes *)
  let rt = World.run (fun () -> Runtime.start Keyboard.arrows) in
  Runtime.stop rt;
  Runtime.stop rt;
  check_int "idempotent stop leaves baseline" kb0 (Keyboard.held_table_size ())

(* ------------------------------------------------------------------ *)
(* Explorer Domains axis: chaos schedules over the wave runtime *)

let test_explore_domains_smoke () =
  let prog =
    Explore.program ~name:"domains-smoke" ~show:string_of_int (fun () ->
        let a = Signal.input ~name:"a" 0 in
        let b = Signal.input ~name:"b" 0 in
        let root =
          Signal.foldp ( + ) 0
            (Signal.lift2 (fun x y -> (x * 31) + y) a
               (Signal.drop_repeats (Signal.lift (fun y -> y / 2) b)))
        in
        {
          Explore.root;
          drive =
            (fun rt ->
              for i = 1 to 5 do
                Runtime.inject rt a i;
                Runtime.inject rt b (7 - i)
              done);
        })
  in
  let r = Explore.run ~schedules:4 ~backend:Runtime.Compiled ~domains:2 prog in
  check_bool "wave runtime clean under chaos schedules" true (Explore.ok r);
  (* cross-domain-count oracle: reports agree run to run *)
  let r1 = Explore.run ~schedules:4 ~backend:Runtime.Compiled ~domains:1 prog in
  check_bool "domains=1 equally clean" true (Explore.ok r1)

(* ------------------------------------------------------------------ *)

let () =
  let tc = Alcotest.test_case in
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "domains"
    [
      ( "wave",
        [
          qc prop_domain_count_invisible;
          qc prop_wave_matches_sequential;
          tc "owned pool round-trip (~domains:2)" `Quick
            test_owned_pool_roundtrip;
        ] );
      ( "refused",
        [
          tc "?domains with ~backend:Pipelined" `Quick test_refuse_pipelined;
          tc "?pool with ~memoize:false" `Quick test_refuse_memoize_false;
          tc "?domains with ?mutate" `Quick test_refuse_mutate;
          tc "?domains with ?queue_capacity" `Quick
            test_refuse_queue_capacity;
        ] );
      ( "run_dag",
        [
          tc "linear chain order" `Quick test_run_dag_chain_order;
          tc "diamond partial order, all seeds" `Quick test_run_dag_diamond;
          tc "bad input rejected" `Quick test_run_dag_rejects_bad_input;
          tc "task error releases dependents" `Quick
            test_run_dag_error_releases_dependents;
          tc "worker_stats exact after every batch" `Quick
            test_worker_stats_exact;
        ] );
      ( "generation",
        [
          tc "atomic minting unique across domains" `Quick
            test_generation_unique_across_domains;
        ] );
      ( "std-tables",
        [
          tc "Keyboard/Touch tables drain on stop" `Quick
            test_std_tables_return_to_baseline;
        ] );
      ( "explore",
        [ tc "Domains axis smoke" `Quick test_explore_domains_smoke ] );
    ]

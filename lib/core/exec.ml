(* The group executor shared by every driver of a compiled plan (the
   runtime's threaded region dispatcher and wave coordinator, the serving
   layer's sessions and intra drain). Why
   running a batch group by group and flushing in (epoch, group) order is
   exact is argued in exec.mli and DESIGN.md ("Group executor"). *)

type error_policy =
  | Propagate
  | Isolate
  | Restart of int

(* The guard wraps only the fallible application, after every input has
   been read, so a failed round still emits one message: [No_change] of the
   last good value. [Isolate] is [Restart] with an empty budget. *)
let guard policy ~stats ~tracer ~id =
  match policy with
  | Propagate -> { Compile.guard = (fun ~prev:_ ~reset:_ ~epoch:_ f -> f ()) }
  | Isolate | Restart _ ->
    let left = ref (match policy with Restart b -> b | _ -> 0) in
    {
      Compile.guard =
        (fun ~prev ~reset ~epoch f ->
          try f ()
          with _ ->
            stats.Stats.node_failures <- stats.Stats.node_failures + 1;
            (match tracer with
            | None -> ()
            | Some tr -> Trace.node_failure tr ~node:id ~epoch);
            if !left > 0 then begin
              decr left;
              stats.Stats.node_restarts <- stats.Stats.node_restarts + 1;
              reset ()
            end;
            Event.No_change prev);
    }

let guards policy ~stats ~tracer ~offset pl =
  match policy with
  | Propagate -> Compile.unguarded pl
  | Isolate | Restart _ ->
    Array.map
      (fun id -> guard policy ~stats ~tracer ~id:(offset + id))
      (Compile.slot_ids pl)

type buffered =
  | Push of int * Obj.t
  | Fire of int
  | Delay of int * int * float * Obj.t
  | Observe of int * int * bool
  | Display of int * bool * Obj.t

(* One region group's execution context: it shares the instance's arena
   (groups touch disjoint slots) but owns its scratch counters, guards and
   effect buffer, so two groups can run on different domains with no
   shared mutable word. *)
type group = {
  g_index : int;
  g_exec : Compile.exec;
  g_stats : Stats.t;  (* scratch, owned by the task running the group *)
  mutable g_snap : Stats.t;  (* last state merged into the totals *)
  g_epoch : int ref;  (* the running round's admission epoch *)
  g_effects : (int * buffered) Queue.t;  (* (admission epoch, effect) *)
  g_rounds : Compile.round Queue.t;  (* admitted, not yet run *)
  mutable g_last : int;  (* epoch last queued, so a round queues once *)
}

type t = {
  plan : Compile.plan;
  stats : Stats.t;
  tracer : Trace.t option;
  offset : int;
  flood : int array option;  (* every region index, under flood dispatch *)
  handle : buffered -> unit;
  groups : group array;
  mutable ran : group list;  (* the last [run]'s groups, ascending *)
}

let register_regions tr ~offset ~label pl =
  List.iter
    (fun rg ->
      Trace.register_node tr
        ~id:(offset + rg.Compile.rg_rep)
        ~name:
          (Printf.sprintf "%sregion:%s(%d)" label rg.Compile.rg_name
             (List.length rg.Compile.rg_member_ids)))
    (Compile.regions pl)

let all_regions pl = Array.init (List.length (Compile.regions pl)) Fun.id

let woken pl flood source =
  match flood with
  | Some all -> all
  | None -> (Compile.wake pl source).Compile.w_regions

(* The epoch is the event count: it lives in the stats, so a cloned or
   upgraded session carries it along with its counters. *)
let begin_round pl st tracer ~offset ~flood ~source =
  st.Stats.events <- st.Stats.events + 1;
  let epoch = st.Stats.events in
  let w = Compile.wake pl source in
  let regions = match flood with Some all -> all | None -> w.Compile.w_regions in
  let cone =
    match flood with Some _ -> Compile.node_count pl | None -> w.Compile.w_cone
  in
  st.Stats.notified_nodes <- st.Stats.notified_nodes + Array.length regions;
  st.Stats.elided_messages <-
    st.Stats.elided_messages + (Compile.node_count pl - cone);
  (match tracer with
  | None -> ()
  | Some tr -> Trace.dispatch tr ~source:(offset + source) ~epoch ~targets:cone);
  ({ Compile.epoch; source }, regions)

let run_region pl x tracer ~offset i r =
  let st = x.Compile.x_stats in
  st.Stats.region_steps <- st.Stats.region_steps + 1;
  match tracer with
  | None -> Compile.run_region pl x i r
  | Some tr ->
    let node = offset + (Compile.region pl i).Compile.rg_rep in
    Trace.node_start tr ~node ~epoch:r.Compile.epoch;
    Compile.run_region pl x i r;
    Trace.node_end tr ~node ~epoch:r.Compile.epoch

let step pl x ~tracer ~offset ~source =
  let flood = if x.Compile.x_flood then Some (all_regions pl) else None in
  let r, regions =
    begin_round pl x.Compile.x_stats tracer ~offset ~flood ~source
  in
  for k = 0 to Array.length regions - 1 do
    run_region pl x tracer ~offset (Array.unsafe_get regions k) r
  done

let make_group ~plan ~flood ~tracer ~offset ~policy ~observe ~arena ~pop g =
  let stats = Stats.create () in
  let epoch = ref 0 in
  let effects = Queue.create () in
  let buffer e = Queue.push (!epoch, e) effects in
  let x =
    {
      Compile.x_arena = arena;
      x_flood = flood;
      x_stats = stats;
      x_guards = guards policy ~stats ~tracer ~offset plan;
      x_account =
        (fun ~node ~epoch ~changed ~real ->
          if real then stats.Stats.messages <- stats.Stats.messages + 1
          else stats.Stats.elided_messages <- stats.Stats.elided_messages + 1;
          (* The observer is not thread-safe; replaying it at flush keeps
             its calls in the order a sequential dispatcher makes them. *)
          if observe then buffer (Observe (node, epoch, changed));
          Some epoch);
      x_root_stamp = None;
      x_pop = pop;
      x_push = (fun sl v -> buffer (Push (sl, v)));
      x_fire_async =
        (fun id ->
          stats.Stats.async_events <- stats.Stats.async_events + 1;
          buffer (Fire id));
      x_delay =
        (fun ~node ~slot ~seconds v -> buffer (Delay (node, slot, seconds, v)));
      x_display =
        (fun ~epoch ~changed v -> buffer (Display (epoch, changed, v)));
    }
  in
  {
    g_index = g;
    g_exec = x;
    g_stats = stats;
    g_snap = Stats.copy stats;
    g_epoch = epoch;
    g_effects = effects;
    g_rounds = Queue.create ();
    g_last = 0;
  }

let create ~plan ~flood ~stats ~tracer ~offset ~policy ~observe ~arena ~pop
    ~handle =
  {
    plan;
    stats;
    tracer;
    offset;
    flood = (if flood then Some (all_regions plan) else None);
    handle;
    groups =
      Array.init (Compile.group_count plan)
        (make_group ~plan ~flood ~tracer ~offset ~policy ~observe ~arena ~pop);
    ran = [];
  }

let admit t ~source =
  let r, regions =
    begin_round t.plan t.stats t.tracer ~offset:t.offset ~flood:t.flood
      ~source
  in
  Array.iter
    (fun i ->
      let g = t.groups.(Compile.group_of t.plan i) in
      if g.g_last <> r.Compile.epoch then begin
        g.g_last <- r.Compile.epoch;
        Queue.push r g.g_rounds
      end)
    regions

(* One group's share of the batch: its rounds in epoch order, each over
   the group's woken regions in index order; the counter delta is billed
   to the running worker's row. *)
let run_group t g dstats =
  let before = Stats.copy g.g_stats in
  let rec go () =
    match Queue.take_opt g.g_rounds with
    | None -> ()
    | Some r ->
      g.g_epoch := r.Compile.epoch;
      Array.iter
        (fun i ->
          if Compile.group_of t.plan i = g.g_index then
            run_region t.plan g.g_exec t.tracer ~offset:t.offset i r)
        (woken t.plan t.flood r.Compile.source);
      go ()
  in
  go ();
  Stats.add_delta dstats ~before ~after:g.g_stats

(* Both schedules are topological orders of the same DAG, and group
   results do not depend on the schedule, so which one ran is
   unobservable. A single task always runs inline on the caller. *)
let run ?pool ?(seed = 0) ~dstats ts =
  List.iter
    (fun t ->
      t.ran <-
        List.filter
          (fun g -> not (Queue.is_empty g.g_rounds))
          (Array.to_list t.groups))
    ts;
  let tasks =
    Array.of_list
      (List.concat_map (fun t -> List.map (fun g -> (t, g)) t.ran) ts)
  in
  let n = Array.length tasks in
  let deps = Array.make n [] in
  let base = ref 0 in
  List.iter
    (fun t ->
      let pos = Hashtbl.create 8 in
      List.iteri (fun k g -> Hashtbl.replace pos g.g_index (!base + k)) t.ran;
      List.iteri
        (fun k g ->
          deps.(!base + k) <-
            List.filter_map (Hashtbl.find_opt pos)
              (Compile.group_preds t.plan g.g_index))
        t.ran;
      base := !base + List.length t.ran)
    ts;
  match (n, pool) with
  | 0, _ -> ()
  | 1, _ -> run_group (fst tasks.(0)) (snd tasks.(0)) dstats.(0)
  | _, Some p ->
    Pool.run_dag ~seed p ~deps
      (Array.map (fun (t, g) w -> run_group t g dstats.(w)) tasks)
  | _, None ->
    let unmet = Array.map List.length deps in
    let succ = Array.make n [] in
    Array.iteri
      (fun i ps -> List.iter (fun p -> succ.(p) <- i :: succ.(p)) ps)
      deps;
    let module IS = Set.Make (Int) in
    let ready = ref IS.empty in
    Array.iteri (fun i c -> if c = 0 then ready := IS.add i !ready) unmet;
    while not (IS.is_empty !ready) do
      let i = IS.min_elt !ready in
      ready := IS.remove i !ready;
      run_group (fst tasks.(i)) (snd tasks.(i)) dstats.(0);
      List.iter
        (fun j ->
          unmet.(j) <- unmet.(j) - 1;
          if unmet.(j) = 0 then ready := IS.add j !ready)
        succ.(i)
    done

(* [t.ran] is ascending by group and each queue is in the group's own
   order, so a stable sort on the epoch alone yields (epoch, group) order
   with a value push still ahead of its paired fire. *)
let flush t =
  let tagged =
    List.concat_map
      (fun g ->
        let l = List.of_seq (Queue.to_seq g.g_effects) in
        Queue.clear g.g_effects;
        l)
      t.ran
  in
  List.iter
    (fun (_, e) -> t.handle e)
    (List.stable_sort (fun (e1, _) (e2, _) -> Int.compare e1 e2) tagged);
  List.iter
    (fun g ->
      Stats.add_delta t.stats ~before:g.g_snap ~after:g.g_stats;
      g.g_snap <- Stats.copy g.g_stats)
    t.ran;
  t.ran <- []

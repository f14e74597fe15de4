(* The compiled backend: synchronous regions as straight-line step functions,
   split into a shared *plan* and per-instance *arenas*.

   The paper's design isolates all asynchrony at explicit [async]/[delay]
   boundaries, which makes everything between two boundaries a deterministic
   synchronous region: within one global event, the region's nodes fire in
   dependency order with no interleaving freedom that could change the
   result. The pipelined backend (Fig. 10) nevertheless interprets such a
   region as one cooperative thread per node and one multicast channel per
   edge, paying a scheduler switch and a channel hop for every node of every
   event. Here we exploit the determinism instead:

   - [plan] partitions the graph into maximal synchronous regions by
     union-find over dependency edges, *cutting* the edge into every
     [async]/[delay] node (their inner subgraph reaches them only through
     the global dispatcher, so that edge carries no synchronous round), and
     compiles each region to a single array of op templates in topological
     order. The plan is immutable and carries no instance state: it is the
     per-graph-shape template, built once and cached ([plan_of]).

   - The plan also inverts the reachability analysis into a wake table:
     per runtime source, the regions its events wake and, within each,
     the ops of its cone ([wake]). Executors run exactly those ops, so
     no reachability set is consulted per event.

   - An [arena] is everything one running instance owns: a flat block of
     per-node value/stamp slots plus a few extra state slots ([foldp]
     restart flags, [keep_when] gate history, composite step closures).
     Opening an instance is ~an array copy ([new_arena]); cloning one is
     exactly that plus re-creating the non-copyable state ([clone_arena]).

   - An op template is [exec -> round -> unit]: it closes over slot
     *indices* and the node's typed functions, never over cells, so the
     same op array drives any number of concurrent arenas. The [exec]
     record carries the instance's arena and its environment hooks (value
     queues, display, async registration, supervision, accounting) — the
     runtime binds them to mailboxes and threads, the session layer
     ([Serve]) to plain queues stepped synchronously.

   Node state lives in the arena as [Obj.t]: the graph is heterogeneous,
   and moving cells out of the nodes (where a generation-stamped slot
   allowed only one live instance per graph) is the whole point. This is
   type-safe by construction: slot [i] of any arena for a given plan is
   only ever read and written by the ops compiled for node [i], inside the
   typed scope of that node's GADT arm — the plan that assigned the slot
   is the only code that touches it.

   [No_change] becomes a per-node dirty-bit test ([stamp = epoch]) instead
   of a message, and fan-out/merge become plain sequential reads. Only two
   kinds of real channel traffic survive in the runtime's threaded region
   dispatcher: the region wakeups and the root's display messages.

   Topological order within a region is inherited from [Signal.reachable]
   (the same deterministic deps-first DFS the pipelined build uses), so a
   compiled round computes exactly what a fully-settled pipelined round
   would: a node's op runs strictly after all its dependency ops, reading
   their freshly-written slots. Async taps are ordered right after their
   inner node's op via a secondary sort key, never before it.

   The module is pure: it builds plans and runs ops, and spawns no thread
   and creates no channel. Every driver ([Exec], and through it the
   runtime and the serving layer) passes its accounting, supervision and
   event-registration hooks in the [exec] record, so mutations
   (Check.Mutate) and supervision policies behave identically in every
   backend. *)

(* One dispatcher round. [Runtime.round] re-exports this type; it lives here
   so region wakeup mailboxes and node wakeup mailboxes are interchangeable
   from the dispatcher's point of view (including the Reorder_wakeup
   mutation's held-round machinery). *)
type round = {
  epoch : int;
  source : int;
}

(* ------------------------------------------------------------------ *)
(* Region partitioning *)

type region = {
  rg_index : int;  (* dense index, in topological order of first member *)
  rg_rep : int;
      (* representative node id: the topologically last member (the
         region's output); used as the region's id for tracing *)
  rg_name : string;  (* the representative's name *)
  rg_members : Signal.packed list;  (* in topological order *)
  rg_member_ids : int list;
}

(* ------------------------------------------------------------------ *)
(* Instance state: arena + execution context *)

(* A node supervisor usable at the node's value type from inside the
   region's generic step code; the polymorphic field lets one record carry
   a per-node Restart budget while being applied at whatever type the
   node's slots have. *)
type guarded = {
  guard :
    'a.
    prev:'a -> reset:(unit -> unit) -> epoch:int -> (unit -> 'a Event.t) ->
    'a Event.t;
}

(* Everything one instance owns. [ar_values.(i)]/[ar_stamps.(i)] are node
   [i]'s last emitted body and the epoch that last changed it (the dirty
   bit is [stamp = epoch]). [ar_state] holds the few per-node extras that
   are not plain last-values: foldp restart flags and keep_when gate
   history (plain data, copied by [clone_arena]) and composite step
   closures (hidden mutable state, re-created from the plan on clone). *)
type arena = {
  ar_values : Obj.t array;
  ar_stamps : int array;
  ar_state : Obj.t array;
}

(* The per-instance execution context threaded through every op. One record
   per instance, not per round: ops allocate nothing on the steady path. *)
type exec = {
  x_arena : arena;
  x_flood : bool;  (* flood dispatch: every node active every round *)
  x_stats : Stats.t;
  x_guards : guarded array;  (* per slot; see [Exec.guards] *)
  x_account :
    node:int -> epoch:int -> changed:bool -> real:bool -> int option;
  mutable x_root_stamp : int option;
      (* bridges the root's account result (possibly mutation-adjusted
         epoch, or a dropped emission) from its member op to the display
         op that runs right after it in the same region step *)
  x_pop : int -> Obj.t;  (* consume the pending value for a source slot *)
  x_push : int -> Obj.t -> unit;  (* enqueue a value for a source slot *)
  x_fire_async : int -> unit;  (* async boundary: register a global event *)
  x_delay : node:int -> slot:int -> seconds:float -> Obj.t -> unit;
      (* delay boundary: deliver the value to [slot] and register a global
         event for [node] after [seconds] *)
  x_display : epoch:int -> changed:bool -> Obj.t -> unit;
}

(* ------------------------------------------------------------------ *)
(* The plan: one immutable compiled template per graph shape *)

(* One runtime source's row of the wake table: its static clock, in Bahr &
   Mogelberg's sense, resolved to work. An event of the source touches
   exactly these regions, and within each only these ops. *)
type wake = {
  w_cone : int;  (* nodes the source reaches (Reach.cone_size) *)
  w_regions : int array;  (* woken region indices, ascending *)
  w_ops : int array array;
      (* parallel to [w_regions]: indices into that region's op array of
         the ops whose node is in the cone (member op, async/delay tap,
         display), in compiled order *)
}

type plan = {
  p_regions : region array;  (* region index -> region *)
  p_region_of : (int, int) Hashtbl.t;  (* node id -> region index *)
  p_cuts : (int * int) list;
      (* (inner node id, async/delay node id): dependency edges that carry
         no synchronous round and were cut by the partition *)
  p_reach : Reach.t;
  p_root_id : int;
  p_root_slot : int;
  p_nodes : int;  (* slot count = live node count *)
  p_slot_of : (int, int) Hashtbl.t;  (* node id -> slot *)
  p_slot_ids : int array;  (* slot -> node id *)
  p_slot_names : string array;
  p_keys : string array;
      (* slot -> structural key: kind + name + dependency keys, occurrence-
         disambiguated. Node ids are minted fresh per graph build, so two
         builds of the same program share no ids — these keys are the
         stable cross-plan identity live upgrades match slots on. *)
  p_id_stride : int;
      (* 1 + max node id: offset multiplier for per-session trace ids *)
  p_defaults : Obj.t array;  (* slot -> default value *)
  p_n_state : int;
  p_state_init : (unit -> Obj.t) array;
  p_state_copy : bool array;
      (* true: plain data, [clone_arena] copies the slot; false: hidden
         mutable state (composite steps), re-initialised instead *)
  p_state_node : int array;
      (* state slot -> owning node id (each node allocates at most one);
         upgrades remap state through the owner's structural key *)
  p_ops : (exec -> round -> unit) array array;
      (* region index -> op templates in execution order *)
  p_wake_ids : int array;  (* runtime source ids, ascending *)
  p_wake : wake array;  (* parallel to [p_wake_ids]: the wake table *)
  p_region_sources : Reach.set array;
      (* region index -> sources reaching any member, read off the wake
         table *)
  p_region_deps : (int * int) list;
      (* ordering edges between regions: (producer, consumer) for every
         async/delay seam whose endpoints live in different regions, plus
         shared-source constraints (two regions woken by one source must
         run in index order). See DESIGN.md "Region dependency DAG". *)
  p_group_of : int array;  (* region index -> group index *)
  p_group_regions : int list array;
      (* group index -> member region indices, ascending *)
  p_group_deps : (int * int) list;
      (* p_region_deps quotiented by the SCC condensation: a true DAG *)
  p_group_preds : int list array;  (* group index -> predecessor groups *)
  p_sources : (int * string) list;  (* runtime sources, topological order *)
  p_queue_slots : (int * int * bool) list;
      (* source nodes needing a pending-value queue: (id, slot, bounded).
         Async/delay queues are unbounded (bounded=false): their tap runs
         on the instance's own step path, so blocking it on a full queue
         could deadlock the instance (see DESIGN.md). *)
  p_unguarded : guarded array;  (* slot -> the stateless Propagate guard *)
  p_inputs : Signal.packed list;  (* Input nodes, for external injection *)
}

(* Obj.t arrays must never be created from a float seed: [caml_make_vect]
   would specialise the block to a flat float array, and a later store of a
   non-float value would be reinterpreted as an unboxed double. Seeding
   with an immediate and filling afterwards keeps the generic
   representation whatever the signal value types are. *)
let obj_array n fill =
  let a = Array.make n (Obj.repr 0) in
  for i = 0 to n - 1 do
    a.(i) <- fill i
  done;
  a

(* Position of [v] in the ascending array [ids] between [lo] and [hi], or
   -1. Source ids are global counters, too sparse to index an array by.
   Closed over nothing, so a lookup allocates nothing. *)
let rec search ids v lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get ids mid in
    if x = v then mid
    else if x < v then search ids v (mid + 1) hi
    else search ids v lo mid

let index_in ids v = search ids v 0 (Array.length ids)

let plan : type r. r Signal.t -> plan =
 fun root ->
  let order = Signal.reachable root in
  let n = List.length order in
  let root_id = Signal.id root in
  (* Union-find over node ids; path-halving find, arbitrary union. *)
  let parent = Hashtbl.create 64 in
  List.iter
    (fun (Signal.Pack s) -> Hashtbl.replace parent (Signal.id s) (Signal.id s))
    order;
  let rec find i =
    let p = Hashtbl.find parent i in
    if p = i then i
    else begin
      let r = find p in
      Hashtbl.replace parent i r;
      r
    end
  in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then Hashtbl.replace parent ri rj
  in
  let cuts = ref [] in
  List.iter
    (fun (Signal.Pack s) ->
      match Signal.kind s with
      | Signal.Async inner | Signal.Delay (_, inner) ->
        cuts := (Signal.id inner, Signal.id s) :: !cuts
      | _ ->
        List.iter
          (fun (Signal.Pack d) -> union (Signal.id d) (Signal.id s))
          (Signal.deps s))
    order;
  let index_of_class = Hashtbl.create 16 in
  let region_of = Hashtbl.create 64 in
  let buckets = Hashtbl.create 16 in  (* region index -> members, reversed *)
  let region_of_slot = Array.make n 0 in
  let count = ref 0 in
  List.iteri
    (fun sl (Signal.Pack s as p) ->
      let id = Signal.id s in
      let cls = find id in
      let idx =
        match Hashtbl.find_opt index_of_class cls with
        | Some i -> i
        | None ->
          let i = !count in
          incr count;
          Hashtbl.replace index_of_class cls i;
          i
      in
      Hashtbl.replace region_of id idx;
      region_of_slot.(sl) <- idx;
      let prev = try Hashtbl.find buckets idx with Not_found -> [] in
      Hashtbl.replace buckets idx (p :: prev))
    order;
  let regions =
    List.init !count (fun i ->
        let rev_members = Hashtbl.find buckets i in
        let (Signal.Pack rep) = List.hd rev_members in
        let members = List.rev rev_members in
        {
          rg_index = i;
          rg_rep = Signal.id rep;
          rg_name = Signal.name rep;
          rg_members = members;
          rg_member_ids = List.map (fun (Signal.Pack s) -> Signal.id s) members;
        })
  in
  (* ---- template compilation ---- *)
  let reach = Reach.analyze root in
  let slot_of = Hashtbl.create n in
  List.iteri
    (fun i (Signal.Pack s) -> Hashtbl.replace slot_of (Signal.id s) i)
    order;
  let slot id = Hashtbl.find slot_of id in
  let order_arr = Array.of_list order in
  let slot_ids = Array.map (fun (Signal.Pack s) -> Signal.id s) order_arr in
  let slot_names = Array.map (fun (Signal.Pack s) -> Signal.name s) order_arr in
  let defaults =
    obj_array n (fun i ->
        let (Signal.Pack s) = order_arr.(i) in
        Obj.repr (Signal.default s))
  in
  let id_stride = Array.fold_left (fun a id -> max a (id + 1)) 1 slot_ids in
  (* Structural keys: the identity a slot keeps when the program is rebuilt
     (node ids are minted fresh per build, so they cannot serve). A key is
     kind + name + the dependency keys, computed deps-first over the same
     deterministic topological order everything else uses; repeated
     identical subtrees are disambiguated by an occurrence counter, which
     matches across builds because the traversal order does. Long keys
     (deep chains nest their whole ancestry) are digested to stay O(1) per
     slot while remaining deterministic. *)
  let keys =
    let key_of = Hashtbl.create n in
    let occurrences = Hashtbl.create n in
    Array.map
      (fun (Signal.Pack s) ->
        let dep_keys =
          List.map
            (fun (Signal.Pack d) -> Hashtbl.find key_of (Signal.id d))
            (Signal.deps s)
        in
        let extra =
          match Signal.kind s with
          | Signal.Delay (d, _) -> Printf.sprintf "@%h" d
          | Signal.Composite (c, _) ->
            "=" ^ String.concat "." c.Signal.comp_names
          | _ -> ""
        in
        let raw =
          Printf.sprintf "%s:%s%s(%s)" (Signal.kind_name s) (Signal.name s)
            extra
            (String.concat "," dep_keys)
        in
        let raw =
          if String.length raw <= 120 then raw
          else
            Printf.sprintf "%s:%s~%s" (Signal.kind_name s) (Signal.name s)
              (Digest.to_hex (Digest.string raw))
        in
        let occ =
          match Hashtbl.find_opt occurrences raw with Some k -> k | None -> 0
        in
        Hashtbl.replace occurrences raw (occ + 1);
        let key = if occ = 0 then raw else Printf.sprintf "%s#%d" raw occ in
        Hashtbl.replace key_of (Signal.id s) key;
        key)
      order_arr
  in
  let n_state = ref 0 in
  let state_inits = ref [] in
  let state_copies = ref [] in
  let state_nodes = ref [] in
  let state_slot ~node ~init ~copy =
    let k = !n_state in
    incr n_state;
    state_inits := init :: !state_inits;
    state_copies := copy :: !state_copies;
    state_nodes := node :: !state_nodes;
    k
  in
  let queue_slots = ref [] in
  let inputs = ref [] in
  (* Deterministic op order: primary key is the node's global topological
     position (its slot), secondary key orders a node's extra ops (async
     tap, display send) right after its member op. *)
  let node_ops : (int * (exec -> round -> unit)) list array = Array.make n [] in
  let add_op ~node ~rank op =
    let sl = slot node in
    node_ops.(sl) <- (rank, op) :: node_ops.(sl)
  in
  let finish (x : exec) ~id (r : round) ~changed =
    let stamped =
      x.x_account ~node:id ~epoch:r.epoch ~changed ~real:(id = root_id)
    in
    if id = root_id then x.x_root_stamp <- stamped
  in
  (* A member op: computes whether the node changed and accounts the
     emission. [run_region] calls it only on rounds that reach the node
     (every round, under flood). *)
  let member ~id compute =
    add_op ~node:id ~rank:0 (fun x r -> finish x ~id r ~changed:(compute x r))
  in
  (* A source member: woken rounds carrying its own source id consume one
     pending value; all other active rounds are quiescent. *)
  let source_member ~id ~bounded =
    let sl = slot id in
    queue_slots := (id, sl, bounded) :: !queue_slots;
    member ~id (fun x r ->
        if r.source = id then begin
          let ar = x.x_arena in
          ar.ar_values.(sl) <- x.x_pop sl;
          ar.ar_stamps.(sl) <- r.epoch;
          true
        end
        else false)
  in
  (* A computing member: recomputes when any dependency slot is dirty this
     epoch. The emitted body a pipelined consumer would cache as [e_last]
     is exactly [ar_values.(slot)]. Each arm reads and writes its own slot
     inside its typed GADT scope, which is what makes the [Obj] erasure
     safe: no other code ever touches that slot. *)
  let build_node : type x. x Signal.t -> unit =
   fun s ->
    let id = Signal.id s in
    match Signal.kind s with
    | Signal.Constant -> source_member ~id ~bounded:true
    | Signal.Lift_list (_, []) ->
      (* No incoming edges: behaves as a never-firing constant. *)
      source_member ~id ~bounded:true
    | Signal.Input ->
      source_member ~id ~bounded:true;
      inputs := Signal.Pack s :: !inputs
    | Signal.Async inner ->
      source_member ~id ~bounded:false;
      let sl = slot id and si = slot (Signal.id inner) in
      (* The tap replaces the pipelined forwarder thread: ordered right
         after the inner node's op, it sees the freshly written slot and
         registers a new global event per change — the Fig. 8(c) boundary.
         [stamp = epoch] iff the inner node changed this round. *)
      add_op ~node:(Signal.id inner) ~rank:1 (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(si) = r.epoch then begin
            x.x_push sl ar.ar_values.(si);
            x.x_fire_async id
          end)
    | Signal.Delay (d, inner) ->
      source_member ~id ~bounded:false;
      let sl = slot id and si = slot (Signal.id inner) in
      add_op ~node:(Signal.id inner) ~rank:1 (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(si) = r.epoch then
            x.x_delay ~node:id ~slot:sl ~seconds:d ar.ar_values.(si))
    | Signal.Lift1 (f, a) ->
      let sl = slot id and sa = slot (Signal.id a) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(sa) = r.epoch then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () -> Event.Change (f (Obj.obj ar.ar_values.(sa))))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Lift2 (f, a, b) ->
      let sl = slot id
      and sa = slot (Signal.id a)
      and sb = slot (Signal.id b) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(sa) = r.epoch || ar.ar_stamps.(sb) = r.epoch then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () ->
                  Event.Change
                    (f (Obj.obj ar.ar_values.(sa)) (Obj.obj ar.ar_values.(sb))))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Lift3 (f, a, b, d) ->
      let sl = slot id
      and sa = slot (Signal.id a)
      and sb = slot (Signal.id b)
      and sd = slot (Signal.id d) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if
            ar.ar_stamps.(sa) = r.epoch
            || ar.ar_stamps.(sb) = r.epoch
            || ar.ar_stamps.(sd) = r.epoch
          then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () ->
                  Event.Change
                    (f
                       (Obj.obj ar.ar_values.(sa))
                       (Obj.obj ar.ar_values.(sb))
                       (Obj.obj ar.ar_values.(sd))))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Lift4 (f, a, b, d, e) ->
      let sl = slot id
      and sa = slot (Signal.id a)
      and sb = slot (Signal.id b)
      and sd = slot (Signal.id d)
      and se = slot (Signal.id e) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if
            ar.ar_stamps.(sa) = r.epoch
            || ar.ar_stamps.(sb) = r.epoch
            || ar.ar_stamps.(sd) = r.epoch
            || ar.ar_stamps.(se) = r.epoch
          then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () ->
                  Event.Change
                    (f
                       (Obj.obj ar.ar_values.(sa))
                       (Obj.obj ar.ar_values.(sb))
                       (Obj.obj ar.ar_values.(sd))
                       (Obj.obj ar.ar_values.(se))))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Lift_list (f, ds) ->
      let sl = slot id in
      let sds = List.map (fun d -> slot (Signal.id d)) ds in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if List.exists (fun sd -> ar.ar_stamps.(sd) = r.epoch) sds then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () ->
                  Event.Change
                    (f (List.map (fun sd -> Obj.obj ar.ar_values.(sd)) sds)))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Foldp (f, src) ->
      let sl = slot id and ss = slot (Signal.id src) in
      let init = Signal.default s in
      (* A [Restart] re-seeds the accumulator slot at the top of the next
         round that reaches the node — the same observable schedule as the
         pipelined deferral: downstream reads keep the last-good value
         until the restarted fold runs again. The flag is a plain bool
         state slot, so clones inherit a pending restart faithfully. *)
      let k = state_slot ~node:id ~init:(fun () -> Obj.repr false) ~copy:true in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if (Obj.obj ar.ar_state.(k) : bool) then begin
            ar.ar_state.(k) <- Obj.repr false;
            ar.ar_values.(sl) <- Obj.repr init
          end;
          if ar.ar_stamps.(ss) = r.epoch then begin
            x.x_stats.Stats.fold_steps <- x.x_stats.Stats.fold_steps + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:(fun () -> ar.ar_state.(k) <- Obj.repr true)
                ~epoch:r.epoch
                (fun () ->
                  Event.Change
                    (f (Obj.obj ar.ar_values.(ss)) (Obj.obj ar.ar_values.(sl))))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Merge (a, b) ->
      let sl = slot id
      and sa = slot (Signal.id a)
      and sb = slot (Signal.id b) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(sa) = r.epoch then begin
            ar.ar_values.(sl) <- ar.ar_values.(sa);
            ar.ar_stamps.(sl) <- r.epoch;
            true
          end
          else if ar.ar_stamps.(sb) = r.epoch then begin
            ar.ar_values.(sl) <- ar.ar_values.(sb);
            ar.ar_stamps.(sl) <- r.epoch;
            true
          end
          else false)
    | Signal.Drop_repeats (eq, src) ->
      let sl = slot id and ss = slot (Signal.id src) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(ss) = r.epoch then begin
            (* The user-supplied equality can raise too. *)
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:ignore ~epoch:r.epoch
                (fun () ->
                  let prev : x = Obj.obj ar.ar_values.(sl) in
                  if eq (Obj.obj ar.ar_values.(ss)) prev then
                    Event.No_change prev
                  else Event.Change (Obj.obj ar.ar_values.(ss)))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
    | Signal.Sample_on (ticks, src) ->
      let sl = slot id
      and st = slot (Signal.id ticks)
      and ss = slot (Signal.id src) in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(st) = r.epoch then begin
            ar.ar_values.(sl) <- ar.ar_values.(ss);
            ar.ar_stamps.(sl) <- r.epoch;
            true
          end
          else false)
    | Signal.Keep_when (gate, src, _base) ->
      let sl = slot id
      and sg = slot (Signal.id gate)
      and ss = slot (Signal.id src) in
      (* Tracks the gate across the rounds that reach this node, exactly
         like the pipelined loop's [gate_prev] parameter: emit while open,
         and on the rising edge to resynchronize with the source. Plain
         bool state, copied on clone. *)
      let k =
        state_slot ~node:id
          ~init:(fun () -> Obj.repr (Signal.default gate))
          ~copy:true
      in
      member ~id (fun x r ->
          let ar = x.x_arena in
          let gate_now : bool = Obj.obj ar.ar_values.(sg) in
          let rising = gate_now && not (Obj.obj ar.ar_state.(k) : bool) in
          let changed =
            if gate_now && (ar.ar_stamps.(ss) = r.epoch || rising) then begin
              ar.ar_values.(sl) <- ar.ar_values.(ss);
              ar.ar_stamps.(sl) <- r.epoch;
              true
            end
            else false
          in
          ar.ar_state.(k) <- Obj.repr gate_now;
          changed)
    | Signal.Composite (comp, dep) ->
      let sl = slot id and sd = slot (Signal.id dep) in
      (* Fresh step per arena, as in the pipelined build: fused stateful
         stages never leak state across instances. A [Restart] swaps in a
         fresh step, re-seeding every fused stage. The closure hides its
         state, so [clone_arena] re-creates it rather than copying — the
         one approximation in an otherwise exact clone (see DESIGN.md). *)
      let k =
        state_slot ~node:id
          ~init:(fun () -> Obj.repr (comp.Signal.comp_make ()))
          ~copy:false
      in
      member ~id (fun x r ->
          let ar = x.x_arena in
          if ar.ar_stamps.(sd) = r.epoch then begin
            x.x_stats.Stats.applications <- x.x_stats.Stats.applications + 1;
            match
              x.x_guards.(sl).guard
                ~prev:(Obj.obj ar.ar_values.(sl) : x)
                ~reset:(fun () ->
                  ar.ar_state.(k) <- Obj.repr (comp.Signal.comp_make ()))
                ~epoch:r.epoch
                (fun () ->
                  let step : _ -> x option = Obj.obj ar.ar_state.(k) in
                  match step (Obj.obj ar.ar_values.(sd)) with
                  | Some w -> Event.Change w
                  | None -> Event.No_change (Obj.obj ar.ar_values.(sl)))
            with
            | Event.Change v ->
              ar.ar_values.(sl) <- Obj.repr v;
              ar.ar_stamps.(sl) <- r.epoch;
              true
            | Event.No_change _ -> false
          end
          else false)
  in
  List.iter (fun (Signal.Pack s) -> build_node s) order;
  (* The display send: one real emission per round that reaches the root,
     ordered right after the root's member op. [x_root_stamp] is [Some]
     exactly when that op ran, and carries the (possibly mutation-adjusted)
     wire epoch; [None] after a dropped emission skips the send, as the
     pipelined emit would have. *)
  let root_slot = slot root_id in
  add_op ~node:root_id ~rank:2 (fun x r ->
      match x.x_root_stamp with
      | None -> ()
      | Some epoch ->
        x.x_root_stamp <- None;
        let ar = x.x_arena in
        x.x_display ~epoch
          ~changed:(ar.ar_stamps.(root_slot) = r.epoch)
          ar.ar_values.(root_slot));
  (* Lay each region's ops out in slot order, a node's own ops by rank
     (stable: equal ranks keep their reverse insertion order). A node's ops
     are contiguous in its region: [slot_first.(sl)] and on. *)
  let nregions = !count in
  let region_len = Array.make nregions 0 in
  let slot_first = Array.make n 0 and slot_nops = Array.make n 0 in
  for sl = 0 to n - 1 do
    (match node_ops.(sl) with
    | [] | [ _ ] -> ()
    | l ->
      node_ops.(sl) <-
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) l);
    let i = region_of_slot.(sl) in
    slot_first.(sl) <- region_len.(i);
    slot_nops.(sl) <- List.length node_ops.(sl);
    region_len.(i) <- region_len.(i) + slot_nops.(sl)
  done;
  let ops = Array.map (fun len -> Array.make len (fun _ _ -> ())) region_len in
  let rec put ops j = function
    | [] -> ()
    | (_, op) :: rest ->
      ops.(j) <- op;
      put ops (j + 1) rest
  in
  for sl = 0 to n - 1 do
    let i = region_of_slot.(sl) in
    put ops.(i) slot_first.(sl) node_ops.(sl)
  done;
  (* ---- wake table ----
     One pass over every node's reach set files the node under each source
     reaching it, so the whole table costs O(sum of cone sizes). Slots are
     topological positions, so a source's cone comes out in topological
     order, and with each node's ops contiguous in its region, each
     region's op list comes out in compiled order. Cone sizes come from
     Reach, the one definition, and size the arrays exactly. *)
  let wake_ids = Array.of_list (List.sort Int.compare (Reach.sources reach)) in
  let cone_slots =
    Array.map (fun id -> Array.make (Reach.cone_size reach id) 0) wake_ids
  in
  let filled = Array.make (Array.length wake_ids) 0 in
  let cur = ref 0 in
  let file src =
    let k = index_in wake_ids src in
    cone_slots.(k).(filled.(k)) <- !cur;
    filled.(k) <- filled.(k) + 1
  in
  for sl = 0 to n - 1 do
    cur := sl;
    Reach.set_iter file (Reach.reaching reach slot_ids.(sl))
  done;
  (* scratch: per region, the current row's op indices, reversed; back to
     [] between sources *)
  let rows = Array.make nregions [] in
  let wake_row k =
    let touched = ref [] in
    Array.iter
      (fun sl ->
        let i = region_of_slot.(sl) in
        if rows.(i) = [] then touched := i :: !touched;
        for j = slot_first.(sl) to slot_first.(sl) + slot_nops.(sl) - 1 do
          rows.(i) <- j :: rows.(i)
        done)
      cone_slots.(k);
    let woken = Array.of_list (List.sort Int.compare !touched) in
    let take i =
      let row = Array.of_list (List.rev rows.(i)) in
      rows.(i) <- [];
      row
    in
    {
      w_cone = Reach.cone_size reach wake_ids.(k);
      w_regions = woken;
      w_ops = Array.map take woken;
    }
  in
  let wake = Array.init (Array.length wake_ids) wake_row in
  let region_sources = Array.make nregions Reach.set_empty in
  Array.iteri
    (fun k w ->
      let src = wake_ids.(k) in
      Array.iter
        (fun i ->
          region_sources.(i) <-
            (if region_sources.(i) == Reach.set_empty then
               Reach.reaching reach src (* the source's own {src} *)
             else Reach.set_add src region_sources.(i)))
        w.w_regions)
    wake;
  (* ---- region dependency DAG ----
     Edges that order region execution within one event wave. Seam edges:
     an async/delay cut whose inner node and boundary node landed in
     different regions makes the producer region a predecessor of the
     consumer's (the value crosses between them). Shared-source edges: if
     one source's cone ever spanned several regions, those regions would
     have to run in index (= topological) order, not concurrently — under
     the current partition a source's cone is synchronous and therefore
     region-local, so this adds nothing, but the constraint is encoded
     rather than assumed (see DESIGN.md). Cuts can point both ways between
     two regions (async in both directions), so the quotient graph may be
     cyclic; a Tarjan SCC condensation folds each cycle into one "group",
     and groups — numbered by smallest member region, which keeps the
     numbering topological-friendly and deterministic — form the DAG the
     pool executes. *)
  let edge_set = Hashtbl.create 16 in
  let raw_edges = ref [] in
  let add_edge a b =
    if a <> b && not (Hashtbl.mem edge_set (a, b)) then begin
      Hashtbl.replace edge_set (a, b) ();
      raw_edges := (a, b) :: !raw_edges
    end
  in
  List.iter
    (fun (inner, boundary) ->
      add_edge (Hashtbl.find region_of inner) (Hashtbl.find region_of boundary))
    (List.rev !cuts);
  Array.iter
    (fun w ->
      for k = 1 to Array.length w.w_regions - 1 do
        add_edge w.w_regions.(k - 1) w.w_regions.(k)
      done)
    wake;
  let region_deps = List.rev !raw_edges in
  let succs = Array.make (max nregions 1) [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) region_deps;
  (* Iterative Tarjan over the region quotient graph. *)
  let sccs = ref [] in
  let index = Array.make (max nregions 1) (-1) in
  let lowlink = Array.make (max nregions 1) 0 in
  let on_stack = Array.make (max nregions 1) false in
  let stack = ref [] in
  let next_index = ref 0 in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succs.(v);
    if lowlink.(v) = index.(v) then begin
      let rec popped acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else popped (w :: acc)
        | [] -> acc
      in
      sccs := popped [] :: !sccs
    end
  in
  for v = 0 to nregions - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  let sccs =
    List.map (fun c -> List.sort compare c) !sccs
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
  in
  let group_regions = Array.of_list sccs in
  let group_of = Array.make (max nregions 1) 0 in
  Array.iteri
    (fun g members -> List.iter (fun r -> group_of.(r) <- g) members)
    group_regions;
  let gedge_set = Hashtbl.create 16 in
  let group_deps =
    List.filter
      (fun (a, b) ->
        let ga = group_of.(a) and gb = group_of.(b) in
        ga <> gb
        &&
        if Hashtbl.mem gedge_set (ga, gb) then false
        else begin
          Hashtbl.replace gedge_set (ga, gb) ();
          true
        end)
      region_deps
    |> List.map (fun (a, b) -> (group_of.(a), group_of.(b)))
  in
  let group_preds = Array.make (Array.length group_regions) [] in
  List.iter
    (fun (ga, gb) -> group_preds.(gb) <- ga :: group_preds.(gb))
    group_deps;
  Array.iteri
    (fun g preds -> group_preds.(g) <- List.rev preds)
    group_preds;
  let sources =
    List.map (fun sid -> (sid, slot_names.(slot sid))) (Reach.sources reach)
  in
  let state_init = Array.of_list (List.rev !state_inits) in
  let state_copy = Array.of_list (List.rev !state_copies) in
  let state_node = Array.of_list (List.rev !state_nodes) in
  {
    p_regions = Array.of_list regions;
    p_region_of = region_of;
    p_cuts = List.rev !cuts;
    p_reach = reach;
    p_root_id = root_id;
    p_root_slot = root_slot;
    p_nodes = n;
    p_slot_of = slot_of;
    p_slot_ids = slot_ids;
    p_slot_names = slot_names;
    p_keys = keys;
    p_id_stride = id_stride;
    p_defaults = defaults;
    p_n_state = !n_state;
    p_state_init = state_init;
    p_state_copy = state_copy;
    p_state_node = state_node;
    p_ops = ops;
    p_wake_ids = wake_ids;
    p_wake = wake;
    p_region_sources = region_sources;
    p_region_deps = region_deps;
    p_group_of = group_of;
    p_group_regions = group_regions;
    p_group_deps = group_deps;
    p_group_preds = group_preds;
    p_sources = sources;
    p_queue_slots = List.rev !queue_slots;
    p_unguarded =
      Array.make n { guard = (fun ~prev:_ ~reset:_ ~epoch:_ f -> f ()) };
    p_inputs = List.rev !inputs;
  }

let regions pl = Array.to_list pl.p_regions
let region pl i = pl.p_regions.(i)
let region_of pl id = Hashtbl.find_opt pl.p_region_of id
let cuts pl = pl.p_cuts
let reach pl = pl.p_reach
let root_id pl = pl.p_root_id
let node_count pl = pl.p_nodes
let id_stride pl = pl.p_id_stride
let sources pl = pl.p_sources
let inputs pl = pl.p_inputs
let slot_of pl id = Hashtbl.find_opt pl.p_slot_of id
let queue_slots pl = pl.p_queue_slots
let unguarded pl = pl.p_unguarded
let region_sources pl i = pl.p_region_sources.(i)
let slot_ids pl = pl.p_slot_ids
let slot_names pl = pl.p_slot_names
let slot_keys pl = pl.p_keys
let root_slot pl = pl.p_root_slot
let defaults pl = pl.p_defaults
let state_count pl = pl.p_n_state
let state_node pl k = pl.p_state_node.(k)
let state_copyable pl k = pl.p_state_copy.(k)
let state_initial pl k = pl.p_state_init.(k) ()
let region_deps pl = pl.p_region_deps
let group_count pl = Array.length pl.p_group_regions
let group_of pl i = pl.p_group_of.(i)
let group_regions pl g = pl.p_group_regions.(g)
let group_deps pl = pl.p_group_deps
let group_preds pl g = pl.p_group_preds.(g)

let no_wake = { w_cone = 0; w_regions = [||]; w_ops = [||] }

let wake pl source =
  let k = index_in pl.p_wake_ids source in
  if k < 0 then no_wake else Array.unsafe_get pl.p_wake k

let pp_plan ppf pl =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun rg ->
      Format.fprintf ppf "region %d (rep %d %s): %s@," rg.rg_index rg.rg_rep
        rg.rg_name
        (String.concat " "
           (List.map
              (fun (Signal.Pack s) ->
                Printf.sprintf "%d:%s" (Signal.id s) (Signal.name s))
              rg.rg_members)))
    (regions pl);
  List.iter
    (fun (inner, src) ->
      Format.fprintf ppf "cut %d -> %d (async boundary)@," inner src)
    pl.p_cuts;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Plan cache *)

(* Keyed on the root node id: graphs are immutable after construction and
   [Fuse.fuse_cached] returns a stable fused root, so the id identifies the
   graph shape. Bounded at [max_cached_plans], so test suites churning
   through thousands of generated graphs cannot grow the table (or pin
   their graphs against the GC) without bound — in two generations, so a
   plan just resolved survives at least half the bound of further inserts
   (a single table reset at the bound could evict it between two lookups
   of one caller while other domains compile, handing that caller two
   plans for one root).

   The table is shared by every domain (that sharing is the whole point of
   the plan/arena split), so lookups and inserts are serialised by
   [cache_lock] — a bare Hashtbl would be corrupted the moment two domains
   compile concurrently, e.g. two pool workers both opening dispatchers.
   The (pure, allocation-heavy) [plan] build itself runs *outside* the
   lock; a race that builds the same plan twice is resolved by keeping the
   first inserted plan, so every caller agrees on one canonical plan per
   root and per-plan state (arenas, slot indices) stays interchangeable. *)
let young : (int, plan) Hashtbl.t ref = ref (Hashtbl.create 64)
let old : (int, plan) Hashtbl.t ref = ref (Hashtbl.create 64)
let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let max_cached_plans = 256

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
}

let plan_cache_stats () =
  Mutex.lock cache_lock;
  let s =
    {
      hits = !cache_hits;
      misses = !cache_misses;
      entries = Hashtbl.length !young + Hashtbl.length !old;
    }
  in
  Mutex.unlock cache_lock;
  s

let clear_plan_cache () =
  Mutex.lock cache_lock;
  Hashtbl.reset !young;
  Hashtbl.reset !old;
  Mutex.unlock cache_lock;
  (* The fusion memos must fall with the plans: [fuse_cached] keyed the
     cache on fused roots, and a memo that survives the reset keeps
     resolving to a root whose plan is gone — every later [plan_of] on that
     graph misses (or, across a live upgrade, silently serves the
     pre-upgrade fused graph). Taken after [cache_lock] is released; the
     two locks are never held together, so no ordering cycle. *)
  Fuse.clear_memos ()

(* Both under [cache_lock]. *)
let insert key pl =
  if Hashtbl.length !young >= max_cached_plans / 2 then begin
    let t = !old in
    Hashtbl.reset t;
    old := !young;
    young := t
  end;
  Hashtbl.replace !young key pl

let find key =
  match Hashtbl.find_opt !young key with
  | Some _ as hit -> hit
  | None -> (
    match Hashtbl.find_opt !old key with
    | Some pl as hit ->
      Hashtbl.remove !old key;
      insert key pl;
      hit
    | None -> None)

let plan_of root =
  let key = Signal.id root in
  Mutex.lock cache_lock;
  match find key with
  | Some pl ->
    incr cache_hits;
    Mutex.unlock cache_lock;
    pl
  | None ->
    incr cache_misses;
    Mutex.unlock cache_lock;
    let pl = plan root in
    Mutex.lock cache_lock;
    let pl =
      match find key with
      | Some winner -> winner (* another domain built it first: keep theirs *)
      | None ->
        insert key pl;
        pl
    in
    Mutex.unlock cache_lock;
    pl

(* ------------------------------------------------------------------ *)
(* Arenas *)

let new_arena pl =
  {
    ar_values = Array.copy pl.p_defaults;
    ar_stamps = Array.make pl.p_nodes 0;
    ar_state = obj_array pl.p_n_state (fun i -> pl.p_state_init.(i) ());
  }

let clone_arena pl ar =
  {
    ar_values = Array.copy ar.ar_values;
    ar_stamps = Array.copy ar.ar_stamps;
    ar_state =
      obj_array pl.p_n_state (fun i ->
          if pl.p_state_copy.(i) then ar.ar_state.(i)
          else pl.p_state_init.(i) ());
  }

(* Runs one region's share of a round, in compiled order: every op under
   flood, otherwise only the ops the wake table lists for the round's
   source (none if the source does not wake the region). *)
let run_region pl x region_index r =
  let ops = pl.p_ops.(region_index) in
  if x.x_flood then
    for i = 0 to Array.length ops - 1 do
      (Array.unsafe_get ops i) x r
    done
  else begin
    let w = wake pl r.source in
    let regs = w.w_regions in
    for k = 0 to Array.length regs - 1 do
      if Array.unsafe_get regs k = region_index then begin
        let idx = Array.unsafe_get w.w_ops k in
        for j = 0 to Array.length idx - 1 do
          (Array.unsafe_get ops (Array.unsafe_get idx j)) x r
        done
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* DOT rendering with region clusters (felmc graph --compiled) *)

let to_dot ?(label = "signal graph (compiled regions)") root =
  let pl = plan_of root in
  let nodes = Signal.reachable root in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "digraph signals {\n";
  pr "  label=\"%s\";\n" (Signal.dot_escape label);
  pr "  rankdir=TB;\n";
  pr "  dispatcher [label=\"Global Event\\nDispatcher\", shape=box, style=dashed];\n";
  List.iter
    (fun rg ->
      let n = List.length rg.rg_members in
      pr "  subgraph cluster_region_%d {\n" rg.rg_index;
      pr "    label=\"region %d: %s (%d node%s, 1 step)\";\n" rg.rg_index
        (Signal.dot_escape rg.rg_name) n (if n = 1 then "" else "s");
      pr "    style=dashed;\n";
      List.iter
        (fun (Signal.Pack s) ->
          match Signal.kind s with
          | Signal.Composite (c, _) ->
            pr "    n%d [label=\"%s\\n(%d nodes fused)\", shape=box3d];\n"
              (Signal.id s)
              (Signal.dot_escape (Signal.name s))
              c.Signal.comp_size
          | _ ->
            let shape = if Signal.is_source s then "ellipse" else "box" in
            pr "    n%d [label=\"%s\", shape=%s];\n" (Signal.id s)
              (Signal.dot_escape (Signal.name s))
              shape)
        rg.rg_members;
      pr "  }\n")
    (regions pl);
  List.iter
    (fun (Signal.Pack s) ->
      if Signal.is_source s || Signal.deps s = [] then
        pr "  dispatcher -> n%d [style=dashed];\n" (Signal.id s);
      match Signal.kind s with
      | Signal.Async inner | Signal.Delay (_, inner) ->
        pr "  n%d -> dispatcher [style=dotted, label=\"new event\"];\n"
          (Signal.id inner)
      | _ ->
        List.iter
          (fun (Signal.Pack d) -> pr "  n%d -> n%d;\n" (Signal.id d) (Signal.id s))
          (Signal.deps s))
    nodes;
  pr "}\n";
  Buffer.contents buf

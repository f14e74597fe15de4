(* A small work-stealing pool of OCaml 5 domains.

   Two kinds of batch run here. The original serving shape is the session
   task: drain one session's inbox to quiescence. Tasks are independent
   (sessions share only the immutable plan), never block, and never spawn
   further tasks — async re-entries during a task append to the same
   session's inbox and are drained before the task returns. That shape lets
   the pool be much simpler than a general scheduler:

   - Each [run] distributes the task array round-robin into per-worker
     queues. A queue is an immutable slice of the task array plus an
     [Atomic.t] cursor; taking a task is one [Atomic.fetch_and_add] and a
     bounds check, so owners and thieves race lock-free without loss or
     duplication.
   - A worker drains its own queue, then probes the other queues in a
     seeded pseudo-random order, stealing from whichever still has work.
     The seed makes steal schedules reproducible: the interleaving checker
     replays many seeds and requires identical observable traces (the
     per-(session,source) FIFO argument — see DESIGN.md — says the traces
     cannot depend on which domain ran a task, and the seeds let a test
     actually vary that).
   - Workers are persistent: spawned once at [create], parked on a
     condition variable between runs, released by an epoch bump. [run] is
     a barrier — it returns only after every task of this batch finished.

   The second shape, [run_dag], serves intra-session parallel dispatch:
   tasks form a dependency DAG (region groups of one event wave) and a task
   may only start once all its predecessors finished. The slice/cursor
   scheme cannot express "not ready yet", so a DAG batch instead keeps one
   mutex-guarded ready queue seeded with the roots; finishing a task
   decrements its dependents' atomic unmet-counts and enqueues the ones
   that hit zero. Same barrier, same error capture, same persistent
   workers — only the claim path differs.

   No dependency on the serving layer: tasks are [int -> unit] closures
   (the argument is the executing worker's index, used by callers to bill
   per-domain stats). *)

type worker_stats = {
  ws_tasks : int;  (** Tasks this worker executed (own + stolen). *)
  ws_steals : int;  (** Tasks taken from another worker's queue. *)
  ws_idle_probes : int;
      (** Steal probes that found the victim's queue empty — a unitless
          proxy for idle time (the pool never sleeps mid-run, it probes). *)
}

(* One worker's view of the current sliced batch. [queues.(w)] is the
   slice of tasks initially assigned to worker [w]; [cursors.(w)] indexes
   the next unclaimed task in that slice. *)
type batch = {
  queues : (int -> unit) array array;
  cursors : int Atomic.t array;
  remaining : int Atomic.t;  (* tasks not yet finished (not just claimed) *)
  order : int array array;  (* order.(w) = seeded victim probe order for w *)
}

(* A dependency-DAG batch: tasks enter [d_ready] only once every
   predecessor finished. [d_unmet.(i)] counts unfinished predecessors of
   task [i]; the worker that drops a count to zero enqueues the task. *)
type dag = {
  d_tasks : (int -> unit) array;
  d_ready : int Queue.t;  (* guarded by d_lock *)
  d_lock : Mutex.t;
  d_unmet : int Atomic.t array;
  d_deps : int array array;  (* d_deps.(i) = tasks unblocked when i ends *)
  d_remaining : int Atomic.t;
}

type job = Slices of batch | Dag of dag

type t = {
  p_domains : int;
  mutable p_workers : Domain.id Domain.t array;
      (* the [p_domains - 1] spawned ones; filled right after [create]
         allocates the record (workers capture the record itself) *)
  p_lock : Mutex.t;
  p_cond : Condition.t;
  mutable p_epoch : int;  (* bumped once per [run]; workers wait for it *)
  mutable p_job : job option;
  mutable p_closing : bool;
  mutable p_running : bool;
  p_error : exn option Atomic.t;  (* first task exception, re-raised by run *)
  p_counts : int array;
      (* per-worker lifetime counters, owner-written: worker [w]'s
         tasks/steals/idle probes at [w * stride + tasks_k/steals_k/idle_k] *)
}

(* Each worker's counters sit [stride] words (128 bytes on 64-bit) past
   the previous worker's, so per-task writes never share a cache line, or
   an adjacent-line prefetch pair, with another worker's. *)
let stride = 16
let tasks_k = 0
let steals_k = 1
let idle_k = 2

(* Bill one count to worker [w]. Tasks and steals are billed before the
   task's completion is published on the batch's [remaining] counter, so
   the caller, released by the last decrement, reads totals that already
   include every task of the batch. *)
let bill t w k =
  let i = (w * stride) + k in
  t.p_counts.(i) <- t.p_counts.(i) + 1

let domains t = t.p_domains

(* Deterministic LCG so steal schedules depend only on the seed, never on
   wall-clock or allocation addresses. *)
let lcg s = ((s * 0x2545F4914F6CDD1D) + 0x9E3779B97F4A7C1) land max_int

(* A seeded permutation of the other workers' indices: worker [w]'s victim
   probe order. Fisher-Yates with the LCG stream. *)
let victim_order ~seed ~domains w =
  let victims = Array.init domains Fun.id in
  (* remove self by swapping w to the end and shrinking *)
  victims.(w) <- domains - 1;
  victims.(domains - 1) <- w;
  let n = domains - 1 in
  let order = Array.sub victims 0 n in
  let s = ref (lcg (seed + (w * 7919) + 1)) in
  for i = n - 1 downto 1 do
    s := lcg !s;
    let j = !s mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

(* Claim the next task of [q]/[cursor]: lock-free, returns [None] when the
   queue is drained. Over-claiming is impossible — fetch_and_add hands out
   each index exactly once; indices past the end are simply discarded. *)
let take queues cursors v =
  let q = queues.(v) in
  let i = Atomic.fetch_and_add cursors.(v) 1 in
  if i < Array.length q then Some q.(i) else None

let record_error t exn =
  (* Keep the first error; later ones lose the race and are dropped (the
     batch still runs to completion so [run]'s barrier stays simple). *)
  ignore (Atomic.compare_and_set t.p_error None (Some exn))

(* Run sliced batch [b] as worker [w] until no queue has work. Returns when
   the worker can no longer find a task; the batch is globally done only
   when [b.remaining] hits 0 (another worker may still be finishing a
   claimed task). *)
let work t b w =
  let exec f =
    (try f w with exn -> record_error t exn);
    bill t w tasks_k;
    ignore (Atomic.fetch_and_add b.remaining (-1))
  in
  let rec own () =
    match take b.queues b.cursors w with
    | Some f ->
      exec f;
      own ()
    | None -> steal 0
  and steal i =
    if i < Array.length b.order.(w) then begin
      let v = b.order.(w).(i) in
      match take b.queues b.cursors v with
      | Some f ->
        bill t w steals_k;
        exec f;
        (* after a successful steal, the victim may have more: restart the
           probe sweep from our own (now surely empty) queue's victims *)
        steal 0
      | None ->
        bill t w idle_k;
        steal (i + 1)
    end
  in
  own ()

(* Run DAG batch [d] as worker [w]: pop a ready task, run it, release the
   dependents whose last predecessor it was, until every task finished.
   Unlike the sliced batch there is no "my queue is drained" exit — a
   worker must keep probing until [d_remaining] hits zero, because a task
   still running elsewhere may be about to unblock more work. *)
let dag_work t d w =
  let rec loop () =
    if Atomic.get d.d_remaining > 0 then begin
      Mutex.lock d.d_lock;
      let next = Queue.take_opt d.d_ready in
      Mutex.unlock d.d_lock;
      (match next with
      | None ->
        bill t w idle_k;
        Domain.cpu_relax ()
      | Some i ->
        (try d.d_tasks.(i) w with exn -> record_error t exn);
        bill t w tasks_k;
        (* A failed task still releases its dependents: the first error is
           already captured, and running the rest keeps the barrier (and
           the unmet-count accounting) trivially correct. *)
        Array.iter
          (fun j ->
            if Atomic.fetch_and_add d.d_unmet.(j) (-1) = 1 then begin
              Mutex.lock d.d_lock;
              Queue.push j d.d_ready;
              Mutex.unlock d.d_lock
            end)
          d.d_deps.(i);
        ignore (Atomic.fetch_and_add d.d_remaining (-1)));
      loop ()
    end
  in
  loop ()

(* Body of a spawned worker domain: park until the epoch moves, run the
   published job, repeat; exit when the pool closes. *)
let worker_loop t w =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.p_lock;
    while t.p_epoch = !seen && not t.p_closing do
      Condition.wait t.p_cond t.p_lock
    done;
    let epoch = t.p_epoch and closing = t.p_closing in
    let job = t.p_job in
    Mutex.unlock t.p_lock;
    if epoch <> !seen then begin
      seen := epoch;
      (match job with
      | Some (Slices b) -> work t b w
      | Some (Dag d) -> dag_work t d w
      | None -> ());
      loop ()
    end
    else if not closing then loop ()
  in
  loop ()

let create ?domains () =
  let n =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Pool.create: domains must be >= 1";
      n
    | None -> Domain.recommended_domain_count ()
  in
  let t =
    {
      p_domains = n;
      p_workers = [||];
      p_lock = Mutex.create ();
      p_cond = Condition.create ();
      p_epoch = 0;
      p_job = None;
      p_closing = false;
      p_running = false;
      p_error = Atomic.make None;
      p_counts = Array.make (n * stride) 0;
    }
  in
  (* The calling domain is worker 0; spawn the other n-1. They capture
     [t] itself, so the workers array must be assigned into the same
     record, not a copy. *)
  t.p_workers <-
    Array.init (n - 1) (fun i ->
        Domain.spawn (fun () ->
            worker_loop t (i + 1);
            Domain.self ()));
  t

(* Publish [job], participate as worker 0, spin out the stragglers, then
   retire the job and re-raise the first captured task exception. *)
let run_job t job ~remaining ~self =
  Mutex.lock t.p_lock;
  t.p_job <- Some job;
  t.p_epoch <- t.p_epoch + 1;
  Condition.broadcast t.p_cond;
  Mutex.unlock t.p_lock;
  (* The caller participates as worker 0, then spins for stragglers — a
     worker that claimed a task just before we drained everything may
     still be running it. cpu_relax keeps the spin polite. *)
  self ();
  while Atomic.get remaining > 0 do
    Domain.cpu_relax ()
  done;
  Mutex.lock t.p_lock;
  t.p_job <- None;
  Mutex.unlock t.p_lock;
  t.p_running <- false;
  match Atomic.exchange t.p_error None with
  | Some exn -> raise exn
  | None -> ()

let run ?(seed = 0) t tasks =
  if t.p_closing then invalid_arg "Pool.run: pool is closed";
  if t.p_running then invalid_arg "Pool.run: already running a batch";
  let total = Array.length tasks in
  if total = 0 then ()
  else begin
    t.p_running <- true;
    let n = t.p_domains in
    (* Round-robin deal, rotated by the seed so the initial placement —
       not just the steal order — varies across seeds. *)
    let rot = if n = 0 then 0 else lcg seed mod n in
    let per = Array.make n 0 in
    Array.iteri (fun i _ -> per.((i + rot) mod n) <- per.((i + rot) mod n) + 1) tasks;
    let queues = Array.map (fun k -> Array.make k (fun _ -> ())) per in
    let fill = Array.make n 0 in
    Array.iteri
      (fun i f ->
        let w = (i + rot) mod n in
        queues.(w).(fill.(w)) <- f;
        fill.(w) <- fill.(w) + 1)
      tasks;
    let b =
      {
        queues;
        cursors = Array.init n (fun _ -> Atomic.make 0);
        remaining = Atomic.make total;
        order = Array.init n (fun w -> victim_order ~seed ~domains:n w);
      }
    in
    run_job t (Slices b) ~remaining:b.remaining ~self:(fun () -> work t b 0)
  end

let run_dag ?(seed = 0) t ~deps tasks =
  if t.p_closing then invalid_arg "Pool.run_dag: pool is closed";
  if t.p_running then invalid_arg "Pool.run_dag: already running a batch";
  let n = Array.length tasks in
  if Array.length deps <> n then
    invalid_arg "Pool.run_dag: deps and tasks length mismatch";
  if n = 0 then ()
  else begin
    (* Kahn pre-pass: reject cyclic dependency declarations up front, and
       validate predecessor indices, before any worker is woken. *)
    let unmet = Array.make n 0 in
    Array.iteri
      (fun i preds ->
        List.iter
          (fun p ->
            if p < 0 || p >= n then
              invalid_arg "Pool.run_dag: dependency index out of range";
            if p <> i then unmet.(i) <- unmet.(i) + 1)
          preds)
      deps;
    let succs = Array.make n [] in
    Array.iteri
      (fun i preds ->
        List.iter (fun p -> if p <> i then succs.(p) <- i :: succs.(p)) deps.(i);
        ignore preds)
      deps;
    let q = Queue.create () in
    let counts = Array.copy unmet in
    Array.iteri (fun i c -> if c = 0 then Queue.push i q) counts;
    let processed = ref 0 in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      incr processed;
      List.iter
        (fun j ->
          counts.(j) <- counts.(j) - 1;
          if counts.(j) = 0 then Queue.push j q)
        succs.(i)
    done;
    if !processed <> n then invalid_arg "Pool.run_dag: cyclic dependencies";
    t.p_running <- true;
    let ready = Queue.create () in
    (* Seed the ready queue with the roots, rotated by [seed]: with the
       mutex-ordered queue the claim interleaving still races, but the
       deterministic part of the schedule (who is offered what first)
       varies across seeds exactly like [run]'s deal rotation. *)
    let roots =
      Array.to_list (Array.init n Fun.id)
      |> List.filter (fun i -> unmet.(i) = 0)
    in
    let nr = List.length roots in
    let rot = if nr = 0 then 0 else lcg seed mod nr in
    let roots = Array.of_list roots in
    for k = 0 to nr - 1 do
      Queue.push roots.((k + rot) mod nr) ready
    done;
    let d =
      {
        d_tasks = tasks;
        d_ready = ready;
        d_lock = Mutex.create ();
        d_unmet = Array.map Atomic.make unmet;
        d_deps = Array.map (fun l -> Array.of_list (List.rev l)) succs;
        d_remaining = Atomic.make n;
      }
    in
    run_job t (Dag d) ~remaining:d.d_remaining ~self:(fun () -> dag_work t d 0)
  end

let worker_stats t =
  Array.init t.p_domains (fun w ->
      let c k = t.p_counts.((w * stride) + k) in
      { ws_tasks = c tasks_k; ws_steals = c steals_k; ws_idle_probes = c idle_k })

let reset_worker_stats t = Array.fill t.p_counts 0 (Array.length t.p_counts) 0

let total_steals t =
  Array.fold_left (fun n w -> n + w.ws_steals) 0 (worker_stats t)

let close t =
  if not t.p_closing then begin
    Mutex.lock t.p_lock;
    t.p_closing <- true;
    Condition.broadcast t.p_cond;
    Mutex.unlock t.p_lock;
    Array.iter (fun d -> ignore (Domain.join d)) t.p_workers
  end

(** A work-stealing pool of OCaml 5 domains.

    The paper's async semantics deliberately decouple subgraphs so they may
    run concurrently without changing observable per-source ordering
    (Sections 1, 3.3). Two layers exploit that here: the serving layer runs
    batches of independent session tasks (sessions share nothing mutable,
    so a batch is embarrassingly parallel), and the compiled runtime runs
    the data-independent region groups of one event wave, whose ordering
    constraints form a dependency DAG ({!run_dag}).

    The pool knows nothing about either client: tasks are [int -> unit]
    closures receiving the executing worker's index (used by callers to
    bill per-domain {!Stats}). Tasks must not block and must not call
    {!run}/{!run_dag} reentrantly; a task's own follow-up work must be
    folded into the task itself or deferred to the next batch. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains:n ()] spawns [n - 1] persistent worker domains; the
    calling domain participates as worker 0 during {!run}. [domains]
    defaults to [Domain.recommended_domain_count ()]. Raises
    [Invalid_argument] when [n < 1]. Workers park on a condition variable
    between batches — an idle pool burns no CPU. *)

val domains : t -> int
(** Worker count, including the caller's slot 0. *)

val run : ?seed:int -> t -> (int -> unit) array -> unit
(** [run ~seed t tasks] executes every task and returns when all have
    finished (a barrier). Tasks are dealt round-robin (rotated by [seed])
    into per-worker queues; idle workers steal from the others in a
    [seed]-determined probe order, so the schedule — which domain runs
    which task — is a deterministic function of [(seed, tasks, domains)]
    up to claim races. If tasks raise, the first exception is re-raised
    here after the batch completes; the rest are dropped. Raises
    [Invalid_argument] on reentrant use or after {!close}. *)

val run_dag : ?seed:int -> t -> deps:int list array -> (int -> unit) array -> unit
(** [run_dag ~seed t ~deps tasks] executes a dependency DAG of tasks and
    returns when all have finished (a barrier). [deps.(i)] lists the
    predecessors of task [i]: task [i] starts only after every listed task
    finished (self-edges are ignored). Ready tasks are claimed from one
    shared queue seeded with the roots (rotated by [seed]); the worker
    that finishes a task's last predecessor makes it claimable, so any
    topological execution order may be observed — callers must not depend
    on more than the declared edges. Error capture is as in {!run}; a
    failed task still releases its dependents so the barrier completes.
    Raises [Invalid_argument] when [deps] and [tasks] differ in length,
    a dependency index is out of range, the declared edges are cyclic,
    on reentrant use, or after {!close}. *)

type worker_stats = {
  ws_tasks : int;  (** Tasks this worker executed (own + stolen). *)
  ws_steals : int;  (** Tasks taken from another worker's queue. *)
  ws_idle_probes : int;
      (** Steal probes ({!run}) or empty ready-queue polls ({!run_dag})
          that found no work — a unitless proxy for time spent looking for
          work rather than doing it. *)
}

val worker_stats : t -> worker_stats array
(** Lifetime per-worker counters (index = worker), summed over batches
    since creation or the last {!reset_worker_stats}. Read between runs —
    counters are owner-written during a batch. Each task and steal is
    billed before the task's completion is published, so [ws_tasks] and
    [ws_steals] are exact as soon as {!run}/{!run_dag} returns;
    [ws_idle_probes] may still grow while a worker notices the batch
    ended. *)

val reset_worker_stats : t -> unit

val total_steals : t -> int
(** Sum of [ws_steals] over all workers. *)

val close : t -> unit
(** Wake and join every worker domain. Idempotent. The pool must be idle
    (no {!run} in progress). *)

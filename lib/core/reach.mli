(** Build-time source-reachability analysis over a signal DAG.

    Computes, for each node of a graph, the set of {e runtime source} ids
    that can reach it through synchronous edges. This is what lets the
    {!Runtime} dispatcher notify only the affected cone of an event instead
    of flooding the whole graph (modal FRP systems obtain the same
    separation statically by typing; we recover it dynamically).

    Runtime sources are the nodes registered with the global dispatcher:
    inputs, constants, [async] and [delay] nodes, and dependency-free
    degenerate nodes. An [async]/[delay] node cuts reachability: its inner
    subgraph reaches the rest of the program only via the dispatcher, so
    the async node's reach set is the singleton of its own source id. *)

type t

type set
(** An immutable set of source node ids. *)

val analyze : 'a Signal.t -> t
(** Analyze the graph rooted at the given signal. Pure; runs in
    O(nodes * sources) time at build time, and counts every source's cone
    size in the same pass. *)

val node_count : t -> int
(** Total nodes in the graph (= messages per event under flood dispatch). *)

val order : t -> Signal.packed list
(** All nodes, dependencies before dependents. *)

val sources : t -> int list
(** Ids of every runtime source, in topological order. Includes sources
    that never fire (constants, empty lifts). *)

val reaching : t -> int -> set
(** [reaching t id] is the set of source ids that can reach node [id].
    Empty for unknown ids. *)

val affects : t -> source:int -> node:int -> bool

val cone : t -> int -> Signal.packed list
(** [cone t source] is the affected cone of an event fired by [source]:
    every node it can reach, in topological order. *)

val cone_size : t -> int -> int
(** [cone_size t source] is the number of nodes in the source's cone
    ([0] for an id that is not a runtime source). O(1): counted once by
    {!analyze}. This is the one definition of a cone's size; the compiled
    plan's wake table takes its sizes from here. *)

val set_mem : int -> set -> bool
val set_cardinal : set -> int
val set_elements : set -> int list
val set_iter : (int -> unit) -> set -> unit
val set_empty : set
val set_add : int -> set -> set

val pp : Format.formatter -> t -> unit
(** One line per node: [id name <- {reaching source ids}]. *)

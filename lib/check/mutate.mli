(** Planted-bug coverage for the schedule explorer.

    A checker that never fires is indistinguishable from a checker that
    works, so this module plants each {!Elm_core.Runtime.mutation} — a
    dropped [No_change], a stale epoch stamp, an out-of-order mailbox admit
    — into a known-good signal program and asserts that {!Explore.run}
    reports violations. CI runs {!all_caught} in smoke mode; a silent
    checker regression therefore fails the build. *)

type 'spec planted = {
  name : string;
  spec : 'spec;
      (** A {!Elm_core.Runtime.mutation} ({!all}) or an
          {!Elm_core.Upgrade.mutation} ({!upgrade_all}): each seam takes
          only its own kind. *)
}

val all : Elm_core.Runtime.mutation planted list
(** The three planted ordering bugs, with occurrence indices tuned to land
    mid-run in {!victim}. *)

val victim : unit -> int Explore.program
(** A deterministic two-input diamond (chains, a [drop_repeats] arm, a
    [lift2] join, a [foldp] sum) with enough [No_change] traffic for every
    mutation to have a target. Clean by construction: exploring it without
    a mutation must report zero violations. *)

val catches :
  ?backend:Elm_core.Runtime.backend ->
  ?schedules:int ->
  ?seed:int ->
  unit ->
  (Elm_core.Runtime.mutation planted * Explore.report) list
(** Explore {!victim} once per planted mutation (default [4] schedules per
    mutation, plus the reference run that usually already trips).
    [backend] selects the runtime backend under test — the compiled
    backend routes emissions through the same accounting hooks, so every
    mutation must still be caught there. *)

val all_caught :
  ?backend:Elm_core.Runtime.backend -> ?schedules:int -> ?seed:int -> unit ->
  bool
(** [true] when every planted mutation produced at least one violation. *)

(** {1 Upgrade mutations}

    The same story for the live-upgrade path: each
    {!Elm_core.Upgrade.mutation} upgrade bug — a rotated slot map, a
    skipped state migration, a leaked seam mailbox — is planted into
    {!Explore.run_upgrade}'s upgrade-point sweep over a known-equivalent
    replacement, and the replay-differential oracle must flag it. *)

val upgrade_all : Elm_core.Upgrade.mutation planted list
(** The three planted upgrade bugs, occurrence [1] (each sweep run
    performs exactly one upgrade per dispatcher). *)

val upgrade_victim : unit -> int Explore.uprogram
(** Identity upgrade of an all-int two-input diamond: every slot matches,
    so the never-upgraded trace is exact at every upgrade point. Clean by
    construction without a mutation. *)

val migration_victim : unit -> int Explore.uprogram
(** State-migrating upgrade: the replacement re-biases the [foldp]
    accumulator and un-biases it in a view node, observationally identical
    under the supplied migration — and off by exactly the bias when
    [Skip_migration] drops it. *)

val upgrade_catches :
  ?domains:int -> unit ->
  (Elm_core.Upgrade.mutation planted * Explore.report) list
(** Run the upgrade-point sweep once per planted upgrade bug
    ({!migration_victim} for [Skip_migration], {!upgrade_victim}
    otherwise). *)

val upgrade_all_caught : ?domains:int -> unit -> bool
(** [true] when every planted upgrade bug produced at least one
    violation. *)

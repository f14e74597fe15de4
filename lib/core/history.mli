(** A bounded newest-first log: the change and message histories of a
    runtime and a session's change history. *)

type 'a t = private {
  h_cap : int option;
  mutable h_rev : 'a list;  (** Newest first. *)
  mutable h_len : int;
}
(** Capped at [2 * cap] entries transiently and cut back to [cap]
    (amortized O(1) per append). *)

val create : int option -> 'a t
(** [None] keeps everything; [Some 0] records nothing. *)

val enabled : 'a t -> bool
(** [false] under [Some 0], so a hot caller can skip building the entry. *)

val record : 'a t -> 'a -> unit
val recent : 'a t -> 'a list
(** The retained entries (at most [cap]), oldest first. *)

val copy : 'a t -> 'a t

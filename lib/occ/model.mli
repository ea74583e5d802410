(** The multiversion store's view of an ADT's one definition
    ({!Ooser_adts.Adt.t}): state reified as {!Ooser_core.Value.t},
    methods as its pure transitions, so reads can run against snapshot
    versions and updates can replay at commit point.

    Soundness constraint: an update method's result must be a pure
    function of its arguments — state-dependence of its applicability
    (escrow bounds) must show up both as a raise in the transition and
    in the commutativity spec. *)

open Ooser_core

type outcome = {
  new_state : Value.t option;  (** [None] = pure read *)
  result : Value.t;
}

type stale =
  committed:Value.t -> snap:Value.t -> string -> Value.t list -> Value.t
(** What naive (unvalidated) snapshot isolation would install: the
    update's new state computed from the BEGIN snapshot, merged into the
    committed state. *)

type t

val v : ?methods:string list -> ?stale:stale -> Ooser_adts.Adt.t -> t
(** The object exposes [methods] (default: all of the ADT's).  [stale]
    overrides the mutant's merge (default: the snapshot-computed state
    wins outright).  Built once per ADT and shared by every object. *)

val name : t -> string
val methods : t -> string list
val is_update : t -> string -> bool

val apply : t -> Value.t -> string -> Value.t list -> outcome
(** Deterministic in (state, method, args).
    @raise Ooser_oodb.Runtime.Abort on the ADT's semantic rejection
    (escrow bounds). *)

val stale_apply : t -> stale
(** The unvalidated-SI mutant's apply.  Only the model-checker mutant
    mode calls this. *)

val observe : t -> Value.t -> Value.t
(** The canonical abstract state a client sees (the escrow balance). *)

val rebuild : t -> Value.t -> Value.t -> Value.t
(** [rebuild m s o]: the state observed as [o] with the rest of [s]. *)

val spec_of : t -> current:(unit -> Value.t) -> Commutativity.spec
(** The ADT's registered spec; [current] yields the newest committed
    state for state-reading (escrow-style) predicates. *)

val rw_spec : t -> Commutativity.spec
(** The read/write projection of the model — what plain SSI validates
    with.  Stable by construction. *)

val roster_stale : stale
(** The roster's write-skew merge: the written field comes from the
    snapshot, the other keeps its committed value. *)

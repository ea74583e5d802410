(** The semantically rich abstract data types of §2 registered as
    encapsulated database objects, derived from their one definition in
    {!Ooser_adts}: the object couples a reference to the reified state
    with the ADT's commutativity specification, every update registers
    the definition's inverse as its undo so aborts stay atomic, and
    compensated updates carry inverse invocations for open nesting. *)

open Ooser_core

val register :
  Database.t ->
  Obj_id.t ->
  ?spec:Commutativity.spec ->
  ?methods:string list ->
  Ooser_adts.Adt.t ->
  Value.t ->
  Value.t ref
(** [register db oid adt init] registers the ADT's methods ([methods],
    default all) as primitives over a state starting at [init], under
    the ADT's spec reading that state ([spec] overrides it).  The
    returned reference allows direct (non-transactional) inspection in
    tests and reports. *)

val register_counter :
  Database.t -> Obj_id.t -> ?low:int -> ?high:int -> int -> Value.t ref
(** An escrow counter with methods [incr n] / [decr n] / [read]. *)

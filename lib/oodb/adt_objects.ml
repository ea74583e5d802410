(* The semantically rich abstract data types of §2 registered as
   encapsulated database objects, derived from their one definition in
   lib/adts: the object's state is a reference to the reified ADT
   state, every update runs the pure transition and registers the
   definition's inverse as its undo, and compensations become inverse
   invocations on the same object. *)

open Ooser_core
module Adt = Ooser_adts.Adt

let register db oid ?spec ?methods (adt : Adt.t) init =
  let state = ref init in
  let primitive (m : Adt.meth) =
    let run ctx args =
      let pre = !state in
      let st, result = m.run pre args in
      if Adt.is_update m then begin
        state := st;
        Runtime.on_undo ctx (fun () -> state := m.inverse pre args result !state)
      end;
      result
    in
    let compensate =
      Option.map
        (fun f args result ->
          match f args result with
          | Some (meth_name, args) ->
              Database.Inverse { Runtime.target = oid; meth_name; args }
          | None -> Database.Forget)
        m.compensation
    in
    (m.name, Database.primitive ?compensate run)
  in
  let spec =
    match spec with
    | Some s -> s
    | None -> adt.spec ~current:(fun () -> !state)
  in
  Database.register db oid ~spec
    (List.map primitive (Adt.select ?names:methods adt));
  state

let register_counter db oid ?low ?high initial =
  register db oid ~methods:[ "incr"; "decr"; "read" ] Ooser_adts.Escrow.adt
    (Ooser_adts.Escrow.init ?low ?high initial)

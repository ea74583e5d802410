(* The multiversion store's view of an ADT.

   A version chain needs the state reified as a value and the methods as
   pure state transitions, so that

   - reads run against any snapshot version,
   - updates buffer as redo intentions and replay at commit point
     against the then-current committed state (the serial-equivalent
     apply order), and
   - the registered commutativity spec can keep probing "the current
     state" through an accessor instead of a captured reference.

   That is exactly an ADT's one definition in lib/adts; this module only
   narrows it to the methods an object exposes and turns a semantic
   rejection into a transaction abort.

   Soundness constraint on models: an update method's RESULT must be a
   pure function of its arguments (state-dependence of its
   applicability — e.g. escrow bounds — must be expressed both as a
   raise in the transition and in the commutativity spec).  A method
   whose result reads state must be a read or declared in the spec to
   conflict with updates, otherwise commit-time replay could silently
   change what the client already observed. *)

open Ooser_core
module Adt = Ooser_adts.Adt
module Runtime = Ooser_oodb.Runtime

type outcome = {
  new_state : Value.t option;  (** [None] = pure read *)
  result : Value.t;
}

type stale =
  committed:Value.t -> snap:Value.t -> string -> Value.t list -> Value.t

type t = { adt : Adt.t; methods : Adt.meth list; stale : stale option }

let v ?methods ?stale adt =
  { adt; methods = Adt.select ?names:methods adt; stale }
let name m = m.adt.Adt.name
let methods m = List.map (fun (x : Adt.meth) -> x.name) m.methods
let observe m st = m.adt.Adt.observe st
let rebuild m st o = m.adt.Adt.rebuild st o
let spec_of m ~current = m.adt.Adt.spec ~current

let meth m meth_name =
  match
    List.find_opt (fun (x : Adt.meth) -> String.equal x.name meth_name) m.methods
  with
  | Some x -> x
  | None ->
      invalid_arg (Printf.sprintf "Occ %s: unknown method %s" (name m) meth_name)

let is_update m name = Adt.is_update (meth m name)

let apply m st name args =
  let x = meth m name in
  match x.run st args with
  | st', result ->
      { new_state = (if Adt.is_update x then Some st' else None); result }
  | exception Adt.Rejected msg -> Runtime.abort msg

let stale_apply m ~committed ~snap name args =
  match m.stale with
  | Some f -> f ~committed ~snap name args
  | None -> (
      match (apply m snap name args).new_state with
      | Some st -> st
      | None -> committed)

(* The read/write projection of a model: what plain SSI sees.  Stable by
   construction, so rw-mode validation always runs the incremental
   certifier. *)
let rw_spec m =
  let writes, reads = List.partition Adt.is_update m.methods in
  let names = List.map (fun (x : Adt.meth) -> x.name) in
  Commutativity.rw_named ~name:(name m ^ "-rw") ~reads:(names reads)
    ~writes:(names writes)

(* The write-skew bug of naive snapshot isolation on the roster: the
   written field is computed from the BEGIN snapshot, the untouched
   field keeps its committed value. *)
let roster_stale ~committed ~snap name _args =
  let module R = Ooser_adts.Roster in
  let sx, sy = R.fields snap and cx, cy = R.fields committed in
  match name with
  | "sign_off_x" -> R.state (R.off sy) cy
  | "sign_off_y" -> R.state cx (R.off sx)
  | m -> invalid_arg ("Occ roster: unknown update " ^ m)

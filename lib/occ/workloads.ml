(* Canned occ databases for the CLI, benchmarks, model checker and
   tests — the occ counterparts of lib/workload's lock-protocol setups,
   sharing object naming with them (Account%d, X/Y cells) so the
   existing loadgen call mixes run unchanged. *)

open Ooser_core
module Database = Ooser_oodb.Database
module Adts = Ooser_adts

let account_obj i = Obj_id.v (Printf.sprintf "Account%d" i)

(* The models are static: one per ADT, shared by every object. *)
let account =
  Model.v ~methods:[ "deposit"; "withdraw"; "balance" ] Adts.Escrow.adt

let register_cell = Model.v Adts.Register.adt
let roster = Model.v ~stale:Model.roster_stale Adts.Roster.adt

(* Escrow-heavy banking: the workload the occ(commute) < occ(rw)
   abort-rate gate runs on. *)
let setup_banking ~mode ?(accounts = 10) ?(balance = 100) ?(low = 0)
    ?(high = 1_000_000) () =
  let db = Database.create () in
  let store = Store.create ~mode () in
  for i = 0 to accounts - 1 do
    Store.register store db (account_obj i) account
      (Adts.Escrow.init ~low ~high balance)
  done;
  (db, store)

let total_balance store ~accounts =
  let sum = ref 0 in
  for i = 0 to accounts - 1 do
    sum := !sum + Value.to_int_exn (Store.committed_state store (account_obj i))
  done;
  !sum

(* Read/write cells (stable specs — exercises the incremental-certifier
   validation path). *)
let setup_registers ~mode ?(cells = [ "X"; "Y" ]) ?(init = Value.int 0) () =
  let db = Database.create () in
  let store = Store.create ~mode () in
  List.iter
    (fun name -> Store.register store db (Obj_id.v name) register_cell init)
    cells;
  (db, store)

let roster_obj = Obj_id.v "Roster"

(* The doctors-on-duty write-skew scenario object. *)
let setup_roster ~mode () =
  let db = Database.create () in
  let store = Store.create ~mode () in
  Store.register store db roster_obj roster Adts.Roster.on_duty;
  (db, store)

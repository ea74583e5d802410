(** Banking workload: accounts with escrow semantics (the
    financial-market side of Fig. 1 and the semantics-ablation
    experiment E5). *)

open Ooser_core
open Ooser_oodb
module Escrow = Ooser_adts.Escrow
module Rng = Ooser_sim.Rng
module Dist = Ooser_sim.Dist

type semantics = [ `Escrow | `Rw | `Conflict ]
(** Commutativity granularity ablation: escrow (state-dependent),
    read/write classification, or all-conflict (conventional). *)

val account_obj : int -> Obj_id.t

val register_account :
  Database.t ->
  semantics:semantics ->
  int ->
  balance:int ->
  low:int ->
  high:int ->
  Value.t ref
(** An escrow account with methods [deposit n] / [withdraw n] /
    [balance] (see {!Ooser_oodb.Adt_objects.register}); the returned
    reference holds its escrow state. *)

type params = {
  accounts : int;
  initial : int;
  low : int;
  high : int;
  n_txns : int;
  transfers_per_txn : int;
  amount : int;
  dist : Dist.t;
}

val default_params : params

val setup : semantics:semantics -> params -> Database.t * Value.t ref array

val transactions :
  rng:Rng.t ->
  params ->
  (int * string * (Runtime.ctx -> Value.t)) list
(** Transfer transactions: withdraw from one account, deposit to
    another. *)

val static_summaries :
  rng:Rng.t -> params -> Ooser_analysis.Summary.t list
(** Static call summaries of {!transactions}: an [rng] created from the
    same seed yields summaries of exactly the transactions the engine
    would run. *)

val total_balance : Value.t ref array -> int
(** Invariant: transfers preserve the sum. *)

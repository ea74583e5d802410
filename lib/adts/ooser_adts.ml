(* Umbrella module for the semantic abstract data types. *)

module Adt = Adt
module Escrow = Escrow
module Kv_set = Kv_set
module Fifo = Fifo
module Directory = Directory
module Register = Register
module Roster = Roster

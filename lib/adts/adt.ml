(* One definition per abstract data type of §2 (Weihl's sets and
   directories, Spector & Schwartz's queues, O'Neil's escrow counters,
   plus the read/write register and the write-skew roster).

   An ADT is its reified state as a [Value.t] and one pure
   transition per method.  Everything else is derived from that
   definition by thin adapters: the lock-protocol database object
   ([Ooser_oodb.Adt_objects]), the spec-inference model
   ([Ooser_analysis.Semantics]) and the multiversion store's model
   ([Ooser_occ.Model]).  The commutativity spec the engine consults is
   therefore audited against the very transitions the engine runs. *)

open Ooser_core

exception Rejected of string
(* A method's semantic failure (an escrow bound).  Malformed arguments
   raise [Invalid_argument] instead. *)

(* Static per-method effect footprint, used by inference to label
   read-only and key-disjoint pairs. *)
type footprint =
  | Reads_all  (* reads the whole abstract state (e.g. [list]) *)
  | Writes_all  (* may write anywhere (e.g. [enqueue]) *)
  | Reads_key  (* reads only the first-argument key *)
  | Writes_key  (* writes only the first-argument key *)

type meth = {
  name : string;
  footprint : footprint;  (* [Writes_*] marks an update *)
  vectors : Value.t list list;
      (* Argument vectors the inference and the undo property sample,
         covering same-args, same-key and distinct-key pairings. *)
  run : Value.t -> Value.t list -> Value.t * Value.t;
      (* [run state args] is [(state', result)]; reads return [state]
         unchanged.  Raises [Rejected] on semantic failure. *)
  inverse : Value.t -> Value.t list -> Value.t -> Value.t -> Value.t;
      (* [inverse pre args result current] takes this call's effect out
         of [current] — the state after later calls ran too.  It is
         computed from the pre-state, the arguments and the result
         only, and is what every abort path runs.  Identity for reads.
         May raise [Rejected] (an escrow undo pushed out of bounds). *)
  compensation :
    (Value.t list -> Value.t -> (string * Value.t list) option) option;
      (* Open-nesting compensation of a call that committed at its
         level: [Some (meth, args)] is the inverse invocation, [None]
         means nothing to compensate.  Methods without one replay their
         undo under the still-held locks. *)
}

type t = {
  name : string;  (* model name, e.g. ["escrow-counter"] *)
  methods : meth list;
  vocab : string list;
      (* The spec's method vocabulary; compensation helpers outside it
         are not sampled by inference. *)
  spec : current:(unit -> Value.t) -> Commutativity.spec;
      (* The one registered spec.  [current] reads the object's state
         for state-dependent cells (escrow bounds, queue emptiness). *)
  observe : Value.t -> Value.t;
      (* Canonical abstract state a client sees (the escrow balance
         without its bounds); the identity elsewhere, as every
         transition keeps its state canonical. *)
  rebuild : Value.t -> Value.t -> Value.t;
      (* [rebuild s o] is the state whose observed part is [o] and
         whose other parts (escrow bounds) are those of [s]:
         [rebuild s (observe s) = s].  Lets a version chain store only
         the observed part. *)
  states : Value.t list;  (* enumerated states, small to large *)
  gen_state : Value.t QCheck.Gen.t;  (* randomized-state generator *)
}

let is_update m =
  match m.footprint with
  | Writes_all | Writes_key -> true
  | Reads_all | Reads_key -> false

(* A pure observer: no state change, no inverse, no compensation. *)
let read ?(vectors = [ [] ]) name footprint f =
  {
    name;
    footprint;
    vectors;
    run = (fun st args -> (st, f st args));
    inverse = (fun _ _ _ st -> st);
    compensation = None;
  }

let update ?compensation ~vectors ~inverse name footprint run =
  { name; footprint; vectors; run; inverse; compensation }

let find_meth adt name =
  List.find_opt (fun (m : meth) -> String.equal m.name name) adt.methods

(* The named methods (all of them by default). *)
let select ?names adt =
  match names with
  | None -> adt.methods
  | Some names ->
      List.map
        (fun n ->
          match find_meth adt n with
          | Some m -> m
          | None -> invalid_arg (Printf.sprintf "%s: no method %S" adt.name n))
        names

(* Name of the registered spec, as [Commutativity.name] reports it
   (e.g. "keyed(kv-set)"). *)
let spec_name adt =
  Commutativity.name (adt.spec ~current:(fun () -> List.hd adt.states))

let one_arg = function
  | [ v ] -> v
  | _ -> invalid_arg "expected one argument"
